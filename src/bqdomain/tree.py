"""Combinatorics of the 4-valent colored tree.

Vertices are addressed by reduced words over the colors {1,2,3,4} (no two
equal consecutive letters, root = empty word).  An edge inherits the last
letter of its child endpoint as its color.  A region of color c is the
maximal subtree reachable without crossing color-c edges; it is keyed by
its anchor, the vertex of minimal length it touches.  A face is an
unordered pair of adjacent regions of colors {i,j}; its boundary is the
bi-infinite geodesic whose edges use the two complementary colors.

Keys are plain value types (strings and named tuples) with lexicographic
ordering, so iteration order is deterministic everywhere.

A face's boundary geodesic is addressed by signed position: position 0
is the face's anchor, and the word at position p appends the first |p|
letters of the alternating pattern k,l,k,... (p > 0) or l,k,l,... (p < 0)
of its two edge colors k < l, so boundary edge t has color
(k, l)[t & 1].  Hot loops walk a geodesic by position and carry vertex
values along it (see ``bq.attracting_arc``).

The closure in ``bq.decide_bq`` meets faces whose anchors run to
thousands of letters, so it names vertices by int nodes of a ``Trie``
instead of by word: a node is one child step from its parent, and a
face is the pair (anchor node, colors), O(1) to build.  The trie keeps
its nodes in typed arrays, 20 bytes a node: the parent and four child
slots; a node's last letter is its slot among its parent's child slots.
A face that the closure pops is handed on as a ``TrieFace`` carrying
that pair; its string ``anchor`` is the node's word, which ``Trie.word``
builds only when read.  The key builders here are for the few vertices
and faces that need a name: the keys a verdict or a report returns.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, NamedTuple, Tuple

COLORS = (1, 2, 3, 4)

# The six face color pairs, in the order faces_at lists them.
FACE_PAIRS = tuple((i, j) for i in COLORS for j in COLORS if i < j)

# The face color pairs that hold color c, in FACE_PAIRS order.
PAIRS_WITH = {c: tuple(p for p in FACE_PAIRS if c in p) for c in COLORS}

# A vertex key is a reduced word encoded as a string of digits '1'..'4'.
VertexWord = str

ROOT: VertexWord = ""


class EdgeKey(NamedTuple):
    """An edge, named by its child endpoint (nonempty word)."""

    child: VertexWord

    @property
    def color(self) -> int:
        return int(self.child[-1])

    @property
    def parent(self) -> VertexWord:
        return self.child[:-1]


class RegionKey(NamedTuple):
    anchor: VertexWord
    color: int


# The two complementary colors (k < l) of each ordered pair of colors.
EDGE_COLORS = {(i, j): tuple(c for c in COLORS if c not in (i, j))
               for i in COLORS for j in COLORS if i != j}

# The edge colors k, l of each ordered pair as a word: the letters a
# canonical face key strips from the end of its word, and the first two
# letters of the face's positive ray.
EDGE_LETTERS = {p: "%d%d" % ks for p, ks in EDGE_COLORS.items()}


class FaceKey(NamedTuple):
    anchor: VertexWord
    colors: Tuple[int, int]  # sorted pair of region colors


def canonical_region(v: VertexWord, c: int) -> RegionKey:
    """Strip the maximal trailing run of letters != c."""
    return RegionKey(v.rstrip("1234".replace(str(c), "")), c)


def canonical_face(v: VertexWord, i: int, j: int) -> FaceKey:
    """Face of the color-i and color-j regions at v.

    Crossing an edge whose color is neither i nor j preserves both
    regions, so the canonical anchor strips the maximal trailing run of
    letters outside {i,j}.
    """
    if i == j:
        raise ValueError("face colors must differ")
    i, j = sorted((i, j))
    return FaceKey(v.rstrip(EDGE_LETTERS[i, j]), (i, j))


def regions_at(v: VertexWord) -> List[RegionKey]:
    return [canonical_region(v, c) for c in COLORS]


def faces_at(v: VertexWord) -> List[FaceKey]:
    return [canonical_face(v, i, j) for i, j in FACE_PAIRS]


# Byte values 1..4 to the digits "1".."4", for joining letters into a word.
_DIGITS = bytes.maketrans(b"\1\2\3\4", b"1234")

# A new node's four empty child slots, as the bytes of array("i").
_NO_KIDS = bytes(4 * array("i").itemsize)


class Trie:
    """Reduced words interned as int nodes, grown one letter at a time.

    Node 0 is the root, and node x's child by letter c is
    ``_kids[4 * x + c]``, 0 for none (the root is no node's child), so a
    child is one read of an int array with four slots a node.  Node x is
    the word of ``parent[x]`` followed by the letter of the slot that
    holds x, and ``len(parent)`` counts the nodes.  A node's word is
    built only when ``word`` reads it, and kept.
    """

    def __init__(self):
        self.parent = array("i", [0])
        self._kids = array("i", [0] * 5)     # slot 0 is read by no node
        self._words = {0: ""}

    def walk(self, x: int, letters) -> List[int]:
        """The nodes 0, 1, ... letters past x, one child step each."""
        kids, parent = self._kids, self.parent
        out = [x]
        for c in letters:
            slot = 4 * x + c
            y = kids[slot]
            if not y:
                y = kids[slot] = len(parent)
                parent.append(x)
                kids.frombytes(_NO_KIDS)
            out.append(y)
            x = y
        return out

    def node(self, word: VertexWord) -> int:
        return self.walk(0, map(int, word))[-1]

    def word(self, x: int) -> VertexWord:
        """The word of node x: its letters read up the parent pointers to
        the nearest node whose word is known, joined onto that word, and
        kept for later reads.  Node y's letter is its slot among the four
        child slots of its parent p, 4p + 1 to 4p + 4."""
        words, parent, kids = self._words, self.parent, self._kids
        tail, y = [], x
        while y not in words:
            p = parent[y]
            tail.append(kids.index(y, 4 * p + 1, 4 * p + 5) - 4 * p)
            y = p
        w = words[x] = words[y] + bytes(tail[::-1]).translate(_DIGITS).decode()
        return w

    def ray(self, x: int, a: int, b: int, n: int) -> List[int]:
        """The nodes 0, 1, ..., n letters past x along a, b, a, ..."""
        return self.walk(x, ((a, b) * ((n + 1) // 2))[:n]) if n else [x]


class TrieFace:
    """A face of the closure: its trie, its anchor's node and its colors.
    The string ``anchor`` is the node's word, read from the trie; its edge
    colors are ``EDGE_COLORS[colors]``."""

    __slots__ = ("trie", "node", "colors")

    def __init__(self, trie: Trie, node: int, colors: Tuple[int, int]):
        self.trie, self.node, self.colors = trie, node, colors

    @property
    def anchor(self) -> VertexWord:
        return self.trie.word(self.node)


def ball_vertices(depth: int) -> Iterator[VertexWord]:
    """All vertices with |word| <= depth, in breadth-first order."""
    level = [ROOT]
    yield ROOT
    for _ in range(depth):
        nxt = []
        for v in level:
            for c in COLORS:
                if not v or str(c) != v[-1]:
                    w = v + str(c)
                    nxt.append(w)
                    yield w
        level = nxt
