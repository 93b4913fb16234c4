"""The closure's state stays small.

``decide_bq`` keeps a face's seen flag as one bit of its anchor node's
byte in its own ``seen`` bytearray, the queued nodes and pair indices,
the arc log and the trie (20 bytes a node) in typed arrays, and each queued face's anchor quad
as its four values in a flat list.  On the deep slice point
a = 0.75 - 0.75j, which stops at ``max_faces`` after 6,141 pops with
about 20,000 faces seen, one decision's traced peak reads 1.67 MB on
Python 3.10 to 3.13.  With each queued face holding a reference to the
window quad tuple it was met at, which kept about 13,000 such tuples
alive, it read 2.17 MB; with the queue and the arc log as flat lists of
ints 3.0 MB, and with a set of int keys, a queue of tuples and dict
trie children 8.1-8.2 MB.  The bound sits between the first two.
"""

import tracemalloc

from bqdomain.bq import Status, decide_bq

from conftest import slice_map

PEAK_BOUND = 1_900_000     # bytes


def test_a_max_faces_decision_peaks_under_the_bound():
    decide_bq(slice_map(-0.75 + 0.75j))     # first-call set-up, untraced
    m = slice_map(0.75 - 0.75j)
    tracemalloc.start()
    try:
        v = decide_bq(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.status, v.budget_hit, v.steps_used) \
        == (Status.UNDECIDED, "max_faces", 6141)
    assert peak < PEAK_BOUND, peak
