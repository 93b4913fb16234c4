"""An InBQ certificate is its arc bounds alone.

Deciding and rendering build no edge: ``AttractingTree.edges`` is
derived from the bounds by ``bq.arc_edges`` each time it is read.  The
edges read are the boundary edges n1..n2 of each face, as
``oracles.face_edge_at`` names them one by one.
"""

import pytest

from bqdomain import bq
from bqdomain.bq import Status, decide_bq
from bqdomain.render import SliceConfig, render_slice

from conftest import SLICE_DOC, in_bq_fixtures, slice_map
from oracles import KeyedMap, face_edge_at

HARD_A = [-2.25 - 2.25j, 3.75 + 3.75j]      # the slice's hard InBQ points
# The 4x4 copy of the frozen slice that CI renders.
CI_SLICE = SliceConfig.from_json(dict(SLICE_DOC, px=4,
                                      budgets={"max_faces": 64}))


def test_edges_are_built_only_when_read(monkeypatch):
    calls = []
    arc_edges = bq.arc_edges

    def count(f, n1, n2):
        calls.append(f)
        return arc_edges(f, n1, n2)
    monkeypatch.setattr(bq, "arc_edges", count)
    maps = [KeyedMap(q) for q in in_bq_fixtures()] + \
        [slice_map(a) for a in HARD_A]
    verdicts = [decide_bq(m) for m in maps]
    assert all(v.status is Status.IN_BQ for v in verdicts)
    body, _ = render_slice(CI_SLICE)
    pixels = list(zip(body[::3], body[1::3], body[2::3]))
    assert (0, 0, 0) in pixels and calls == []     # some pixel is InBQ
    for v in verdicts:
        bounds = v.tree.arc_bounds
        assert v.tree.edges == {face_edge_at(f, n)
                                for f, (n1, n2) in bounds.items()
                                for n in range(n1, n2 + 1)}
    assert len(calls) == sum(len(v.tree.arc_bounds) for v in verdicts)
    with pytest.raises(AttributeError):
        verdicts[0].tree.edges = set()
