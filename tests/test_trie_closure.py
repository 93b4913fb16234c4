"""Closing up by trie nodes.

``decide_bq`` names each closure face by its anchor's node in a
``tree.Trie`` and its color pair, finds that node by the anchor's
position on the window that met the face, with no strip, and builds key
strings only for the verdict it returns, from the words ``Trie.word``
reads up the parent pointers.  The closure itself, each pop's anchor
included, is pinned pop by pop against the ``canonical_face`` keys of
the string-keyed reference in ``test_carried_decide``; this test checks
that ``Trie.node`` interns every word and that ``Trie.word`` spells
every node in any read order: each is the other's inverse.
"""

import random

from bqdomain.tree import Trie


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
