"""Closing up by trie nodes.

``decide_bq`` names each closure face by its anchor's node in a
``tree.Trie`` and its color pair, and builds key strings only for the
verdict it returns, from the words ``Trie.word`` reads up the parent
pointers.  These tests pin the verdict records against the string-keyed
``oracles.decide_bq_reference``, check that a queued face's lazily read
``anchor`` is the key the string-keyed closure gives it, and that the
trie's strip is ``canonical_face`` and that ``Trie.word`` spells every
node in any read order.
"""

import random
import sys

import pytest

from bqdomain import bq
from bqdomain.bq import Status, decide_bq, find_sink
from bqdomain.markoff import MarkoffMap
from bqdomain.tree import FACE_PAIRS, Trie, TrieFace, canonical_face

from conftest import slice_map
from oracles import boundary_face, decide_bq_reference
from test_carried_decide import SMALL, record, seeded_quads


def trie_word(trie: Trie, x: int) -> str:
    out = []
    while x:
        out.append(str(trie.letter[x]))
        x = trie.parent[x]
    return "".join(reversed(out))


def test_records_match_the_string_keyed_reference():
    quads = (seeded_quads(7) + seeded_quads(11) + seeded_quads(13))[:1000]
    assert len(quads) == 1000
    closure_witnesses = 0
    for quad in quads:
        got = decide_bq(MarkoffMap(quad), SMALL)
        assert record(got) == record(decide_bq_reference(MarkoffMap(quad),
                                                         SMALL))
        if got.status is Status.NOT_BQ and \
                find_sink(MarkoffMap(quad), SMALL).witness is None:
            closure_witnesses += len(got.witness.face.anchor) >= 2
    assert closure_witnesses >= 10


@pytest.mark.parametrize("a", [-2.25 - 2.25j, 3.75 + 3.75j])
def test_lazy_anchor_is_the_boundary_face_key(monkeypatch, a):
    """Every queued face of a hard slice point, with the face f and the
    position n of ``decide_bq``'s frame that queued it.  Each anchor, read
    latest-queued first so that no ancestor's word is known yet, equals
    boundary_face of its source's key at that position, and spells the
    face's trie node."""
    queued = []

    def face(trie, node, colors):
        f = TrieFace(trie, node, colors)
        caller = sys._getframe(1).f_locals
        queued.append((f, caller.get("f"), caller.get("n")))
        return f
    monkeypatch.setattr(bq, "TrieFace", face)
    v = decide_bq(slice_map(a))
    assert v.status is Status.IN_BQ
    assert len(queued) == len(v.tree.arc_bounds) > 10
    assert queued[0][1] is None and queued[-1][1] is not None
    anchors = [f.anchor for f, _, _ in reversed(queued)][::-1]
    assert max(map(len, anchors)) > 3
    for (f, src, pos), anchor in zip(queued, anchors):
        if src is not None:
            want = boundary_face(src.key(), pos, *f.colors)
            assert (anchor, f.colors) == want
        assert trie_word(f.trie, f.node) == anchor
    assert {f.key() for f, _, _ in queued} == set(v.tree.arc_bounds)


def random_word(rng: random.Random) -> str:
    """A random reduced word, half of them ending in a long run of two
    alternating letters, the shape a closure anchor takes."""
    word, last = [], 0
    for _ in range(rng.randrange(0, 40)):
        last = rng.choice([c for c in (1, 2, 3, 4) if c != last])
        word.append(last)
    if rng.random() < 0.5:
        a = rng.choice([c for c in (1, 2, 3, 4) if c != last])
        b = rng.choice([c for c in (1, 2, 3, 4) if c != a])
        word.extend(((a, b) * 20)[:rng.randrange(1, 40)])
    return "".join(map(str, word))


def test_strip_is_canonical_face():
    rng = random.Random(5)
    trie = Trie()
    words = [random_word(rng) for _ in range(500)]
    long_strips = 0
    for word in words:
        x = trie.node(word)
        assert trie_word(trie, x) == word
        for p in FACE_PAIRS:
            want = canonical_face(word, *p).anchor
            assert trie_word(trie, trie.strip(x, p)) == want
            long_strips += len(word) - len(want) >= 10
    assert long_strips > 50
    # A fresh trie reads every node's word in shuffled order, descendants
    # both before and after their ancestors, so each read must keep its
    # word under the node read, not under the known node where it stopped.
    fresh = Trie()
    for word in words:
        fresh.node(word)
    order = list(range(len(fresh.parent)))
    rng.shuffle(order)
    read, after_parent = set(), 0
    for x in order:
        assert fresh.word(x) == trie_word(fresh, x)
        after_parent += fresh.parent[x] in read
        read.add(x)
    assert 1000 < after_parent < len(order) - 1000
