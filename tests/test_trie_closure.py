"""Closing up by trie nodes.

``decide_bq`` names each closure face by its anchor's node in a
``tree.Trie`` and its color pair, finds that node by the anchor's
position on the window that met the face, with no strip, and builds key
strings only for the verdict it returns, from the words ``Trie.word``
reads up the parent pointers.  The closure itself, each pop's anchor
included, is pinned pop by pop against the ``canonical_face`` keys of
the string-keyed reference in ``test_carried_decide``; this test checks
that ``Trie.node`` interns every word and that ``Trie.word`` spells
every node in any read order: each is the other's inverse, and that a
stop with no witness reads no word, as no face is named for it.
"""

import random

import pytest

from bqdomain.bq import Status, decide_bq, face_witness
from bqdomain.neighbors import WitnessKind
from bqdomain.tree import FaceKey, Trie, TrieFace

from conftest import slice_map
from test_witness import CLOSURE_BAND, INFINITE_ARC, raw_map


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


def test_word_spells_every_node_in_any_read_order():
    rng = random.Random(5)
    trie = Trie()
    words = [random_word(rng) for _ in range(500)]
    for word in words:
        assert trie.word(trie.node(word)) == word
    # A fresh trie reads every node's word in shuffled order, descendants
    # both before and after their ancestors, so each read must keep its
    # word under the node read, not under the known node where it stopped.
    # Each word read must name its own node again, one parent entry a node.
    fresh = Trie()
    for word in words:
        fresh.node(word)
    order = list(range(len(fresh.parent)))
    rng.shuffle(order)
    read, after_parent = set(), 0
    for x in order:
        assert fresh.node(fresh.word(x)) == x
        after_parent += fresh.parent[x] in read
        read.add(x)
    assert len(fresh.parent) == len(order) == len(set(map(fresh.word, order)))
    assert 1000 < after_parent < len(order) - 1000


def counted_words(monkeypatch):
    """The nodes that ``Trie.word`` reads from here on, in read order."""
    reads, word = [], Trie.word

    def counting(trie, x):
        reads.append(x)
        return word(trie, x)
    monkeypatch.setattr(Trie, "word", counting)
    return reads


@pytest.mark.parametrize("a, budget", [
    (-0.75 + 0.75j, "max_arc_steps"), (0.75 - 0.75j, "max_faces"),
    (-5.25 + 5.25j, "max_faces")])
def test_a_stop_with_no_witness_reads_no_word(a, budget, monkeypatch):
    m = slice_map(a)
    reads = counted_words(monkeypatch)
    v = decide_bq(m)
    assert (v.status, v.witness, v.budget_hit) == (
        Status.UNDECIDED, None, budget)
    assert reads == []


def test_an_infinite_arc_stop_reads_its_face_once(monkeypatch):
    m = raw_map(*INFINITE_ARC)
    reads = counted_words(monkeypatch)
    w = decide_bq(m).witness
    assert (w.kind, w.face) == (WitnessKind.INFINITE_ARC, FaceKey("2", (1, 2)))
    assert len(reads) == 1


@pytest.mark.parametrize("values, anchor, colors, kind", [
    (CLOSURE_BAND, "4", (1, 4), WitnessKind.BQ1_VIOLATION),
    (INFINITE_ARC, "2", (1, 2), None)], ids=["band_witness", "no_witness"])
def test_face_witness_on_a_trie_face_matches_its_key(values, anchor, colors,
                                                     kind, monkeypatch):
    m = raw_map(*values)
    quad = m.quad_at(anchor)
    trie = Trie()
    f = TrieFace(trie, trie.node(anchor), colors)
    want = face_witness(m, FaceKey(anchor, colors), quad)
    assert (want and want.kind) == kind
    reads = counted_words(monkeypatch)
    assert face_witness(m, f, quad) == want
    # Only a witness names its face, and so reads the anchor's word.
    assert len(reads) == (kind is not None)
