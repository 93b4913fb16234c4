"""Closing up by trie nodes.

``decide_bq`` names each closure face by its anchor's node in a
``tree.Trie`` and its color pair, and builds key strings only for the
verdict it returns.  These tests pin the verdict records against the
string-keyed ``oracles.decide_bq_reference``, check that a queued face's
lazily built ``anchor`` is the key the string-keyed closure gives it,
and that the trie's strip is ``canonical_face``.
"""

import random

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
    """Every queued face of a hard slice point has a twin whose sources
    are twins too, which the closure never reads.  A twin's anchor, read
    latest-queued first so that each read builds a chain of unread
    sources, equals boundary_face of its source's key at the position
    that met it, and spells the face's trie node."""
    tries, queued, twins = [], [], {}

    def trie():
        tries.append(Trie())
        return tries[-1]

    def face(node, colors, src=None, pos=0, anchor=None):
        f = TrieFace(node, colors, src, pos, anchor)
        twins[f] = TrieFace(node, colors, twins.get(src), pos, anchor)
        queued.append((f, src, pos))
        return f
    monkeypatch.setattr(bq, "Trie", trie)
    monkeypatch.setattr(bq, "TrieFace", face)
    v = decide_bq(slice_map(a))
    assert v.status is Status.IN_BQ
    assert len(queued) == len(v.tree.arc_bounds) > 10
    anchors = [twins[f].anchor for f, _, _ in reversed(queued)][::-1]
    assert max(map(len, anchors)) > 3
    for (f, src, pos), anchor in zip(queued, anchors):
        if src is not None:
            want = boundary_face(src.key(), pos, *f.colors)
            assert (anchor, f.colors) == want
        assert trie_word(tries[0], f.node) == anchor
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
    long_strips = 0
    for _ in range(500):
        word = random_word(rng)
        x = trie.node(word)
        assert trie_word(trie, x) == word
        for p in FACE_PAIRS:
            want = canonical_face(word, *p).anchor
            assert trie_word(trie, trie.strip(x, p)) == want
            long_strips += len(word) - len(want) >= 10
    assert long_strips > 50
