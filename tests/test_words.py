"""Curve representatives: base words and the length/growth match."""

from bqdomain.torelli import invert, reduce_word
from bqdomain.tree import (COLORS, ball_vertices, canonical_face,
                           canonical_region)
from free_group import (BASE_FACE_WORD, BASE_REGION_WORD, WordTable,
                        cyclic_reduce)
from oracles import FaceTable


class TestFreeGroupOps:
    def test_reduce(self):
        assert reduce_word("AaB") == "B"
        assert reduce_word("ABba") == ""
        assert reduce_word("ABC") == "ABC"

    def test_invert(self):
        assert invert("ABc") == "Cba"
        assert reduce_word("ABc" + invert("ABc")) == ""

    def test_cyclic_reduce(self):
        assert cyclic_reduce("aBCA") == "BC"
        assert cyclic_reduce("AB") == "AB"
        assert cyclic_reduce("AbBa") == ""


class TestBaseWords:
    def test_region_lengths(self):
        assert {c: len(w) for c, w in BASE_REGION_WORD.items()} == \
            {1: 1, 2: 1, 3: 1, 4: 3}

    def test_face_lengths(self):
        lengths = {p: len(w) for p, w in BASE_FACE_WORD.items()}
        assert lengths == {(1, 2): 2, (1, 3): 2, (2, 3): 2,
                           (1, 4): 4, (2, 4): 4, (3, 4): 4}

    def test_all_cyclically_reduced(self):
        for w in list(BASE_REGION_WORD.values()) \
                + list(BASE_FACE_WORD.values()):
            assert cyclic_reduce(w) == w


class TestLengthMatchesGrowth:
    def test_regions_and_faces_to_depth_four(self):
        table = WordTable()
        fib = FaceTable()
        for v in ball_vertices(4):
            for c in COLORS:
                key = canonical_region(v, c)
                assert table.word_rep(key).length == fib.region(key)
            for i in COLORS:
                for j in COLORS:
                    if i < j:
                        key = canonical_face(v, i, j)
                        assert table.word_rep(key).length == fib.face(key)

    def test_replay_cache_is_consistent(self):
        t1, t2 = WordTable(), WordTable()
        key = canonical_region("12321", 2)
        deep_first = t1.word_rep(key)
        t2.automorphism("1")
        assert t2.word_rep(key) == deep_first
