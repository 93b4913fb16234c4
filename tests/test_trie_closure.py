"""Closing up by trie nodes.

``decide_bq`` names each closure face by its anchor's node in a
``tree.Trie`` and its color pair, strips a window vertex's node to a
face's anchor with ``Trie.strip``, and builds key strings only for the
verdict it returns, from the words ``Trie.word`` reads up the parent
pointers.  The closure itself is pinned pop by pop against the
string-keyed reference in ``test_carried_decide``; this test checks
that ``Trie.strip`` is ``canonical_face`` and that ``Trie.word`` spells
every node in any read order.
"""

import random

from bqdomain.tree import FACE_PAIRS, Trie, canonical_face


def trie_word(trie: Trie, x: int) -> str:
    out = []
    while x:
        out.append(str(trie.letter[x]))
        x = trie.parent[x]
    return "".join(reversed(out))


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
