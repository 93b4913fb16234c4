"""Colored-tree combinatorics: keys, canonicalization, geodesics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqdomain.tree import (COLORS, EDGE_COLORS, FACE_PAIRS, PAIRS_WITH,
                           EdgeKey, FaceKey, RegionKey, ball_vertices,
                           canonical_face, canonical_region, faces_at,
                           regions_at)
from oracles import (edge_surrounding, face_edge_at, face_side_region,
                     face_vertex_at, neighbors)


def is_reduced(word: str) -> bool:
    """A word over 1..4 with no letter repeated twice in a row."""
    return set(word) <= set("1234") and \
        all(a != b for a, b in zip(word, word[1:]))


def distance(u: str, v: str) -> int:
    """Path length in the tree between two reduced words: the steps from
    each up to their longest common prefix."""
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return len(u) + len(v) - 2 * k


@st.composite
def reduced_words(draw, max_len=8):
    n = draw(st.integers(0, max_len))
    word = ""
    for _ in range(n):
        choices = [c for c in "1234" if not word or c != word[-1]]
        word += draw(st.sampled_from(choices))
    return word


class TestWords:
    @given(v=reduced_words())
    @settings(max_examples=60, deadline=None)
    def test_reduced(self, v):
        assert is_reduced("") and is_reduced("1213")
        assert not is_reduced("11") and not is_reduced("125")
        assert all(is_reduced(u) for u in neighbors(v))

    def test_neighbors_count_and_adjacency(self):
        assert neighbors("") == ["1", "2", "3", "4"]
        assert neighbors("13") == ["1", "131", "132", "134"]
        assert all(distance("13", u) == 1 for u in neighbors("13"))

    def test_distance_examples(self):
        assert distance("", "132") == 3
        assert distance("13", "132") == 1
        assert distance("12", "13") == 2

    @given(u=reduced_words(), v=reduced_words(), w=reduced_words())
    @settings(max_examples=60, deadline=None)
    def test_distance_is_a_metric(self, u, v, w):
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, w) <= distance(u, v) + distance(v, w)
        # in a tree, each step to a neighbour moves one closer or farther
        assert all(abs(distance(x, v) - distance(u, v)) == 1
                   for x in neighbors(u))


class TestRegions:
    def test_canonical_examples(self):
        assert canonical_region("132", 2) == RegionKey("132", 2)
        assert canonical_region("132", 3) == RegionKey("13", 3)
        assert canonical_region("132", 4) == RegionKey("", 4)

    @given(v=reduced_words(), c=st.sampled_from(COLORS))
    @settings(max_examples=60, deadline=None)
    def test_invariant_when_crossing_other_colors(self, v, c):
        key = canonical_region(v, c)
        for u in neighbors(v):
            crossed = EdgeKey(u if len(u) > len(v) else v).color
            if crossed != c:
                assert canonical_region(u, c) == key
            else:
                assert canonical_region(u, c) != key

    def test_regions_at_yields_one_per_color(self):
        keys = regions_at("1432")
        assert [k.color for k in keys] == [1, 2, 3, 4]


class TestFaces:
    def test_canonical_examples(self):
        assert canonical_face("142", 1, 2) == FaceKey("142", (1, 2))
        assert canonical_face("142", 1, 4) == FaceKey("14", (1, 4))
        assert canonical_face("142", 3, 4) == FaceKey("14", (3, 4))

    def test_rejects_equal_colors(self):
        with pytest.raises(ValueError):
            canonical_face("", 2, 2)

    def test_face_equals_pair_of_adjacent_regions(self):
        # Two vertices carry the same face key exactly when both their
        # color-i and color-j regions coincide.
        for v in ball_vertices(4):
            for u in neighbors(v):
                for i in COLORS:
                    for j in COLORS:
                        if i >= j:
                            continue
                        same_face = canonical_face(v, i, j) == \
                            canonical_face(u, i, j)
                        same_regions = (
                            canonical_region(v, i) == canonical_region(u, i)
                            and canonical_region(v, j)
                            == canonical_region(u, j))
                        assert same_face == same_regions

    def test_edge_colors_are_complement(self):
        assert EDGE_COLORS[FaceKey("", (1, 2)).colors] == (3, 4)
        assert EDGE_COLORS[FaceKey("", (2, 4)).colors] == (1, 3)


class TestEdges:
    def test_surrounding(self):
        sides, (delta, delta_prime) = edge_surrounding(EdgeKey("4"))
        assert [r.color for r in sides] == [1, 2, 3]
        assert delta == RegionKey("", 4)
        assert delta_prime == RegionKey("4", 4)

    def test_edge_faces_avoid_edge_color(self):
        # Edge "132" has colour 2: it lies on the three faces whose pair
        # avoids 2, and crossing it changes the faces in PAIRS_WITH[2].
        assert PAIRS_WITH[2] == tuple(p for p in FACE_PAIRS if 2 in p)
        for i, j in FACE_PAIRS:
            same = canonical_face("13", i, j) == canonical_face("132", i, j)
            assert same == ((i, j) not in PAIRS_WITH[2])


class TestBoundaryGeodesic:
    def test_walk_from_root(self):
        f = canonical_face("", 3, 4)      # boundary uses colors 1, 2
        assert face_vertex_at(f, 0) == ""
        assert face_vertex_at(f, 1) == "1"
        assert face_vertex_at(f, 2) == "12"
        assert face_vertex_at(f, -1) == "2"

    def test_position_and_vertex_inverse(self):
        f = canonical_face("213", 1, 3)
        for pos in range(-6, 7):
            v = face_vertex_at(f, pos)
            assert canonical_face(v, *f.colors) == f
            assert len(v) == len(f.anchor) + abs(pos)

    def test_position_rejects_off_face_vertices(self):
        f = canonical_face("", 1, 2)
        assert canonical_face("1", *f.colors) != f
        assert canonical_face("3", *f.colors) == f

    def test_walk_composes(self):
        f = canonical_face("4", 2, 4)
        for pos in range(-5, 5):
            assert face_vertex_at(f, pos + 1) in \
                neighbors(face_vertex_at(f, pos))

    def test_edges_alternate_complementary_colors(self):
        f = canonical_face("", 1, 4)      # boundary uses colors 2, 3
        colors = [face_edge_at(f, n).color for n in range(-4, 4)]
        assert set(colors) == {2, 3}
        assert all(colors[k] != colors[k + 1] for k in range(len(colors) - 1))

    def test_side_regions_avoid_face_and_edge_colors(self):
        f = canonical_face("", 1, 2)
        for n in range(-5, 6):
            r = face_side_region(f, n)
            assert r.color not in f.colors
            assert r.color != face_edge_at(f, n).color

    def test_consecutive_edges_share_vertex(self):
        f = canonical_face("31", 1, 3)
        for n in range(-4, 4):
            e1, e2 = face_edge_at(f, n), face_edge_at(f, n + 1)
            shared = {e1.parent, e1.child} & {e2.parent, e2.child}
            assert shared == {face_vertex_at(f, n + 1)}


class TestBall:
    def test_sizes(self):
        counts = [sum(1 for _ in ball_vertices(d)) for d in range(4)]
        assert counts == [1, 5, 17, 53]

    def test_all_reduced_unique(self):
        seen = list(ball_vertices(5))
        assert len(seen) == len(set(seen))
        assert all(is_reduced(v) for v in seen)

    def test_faces_at_count(self):
        assert len(faces_at("1234")) == 6
