"""Free-group automorphisms: involutions, generator identities, and the
induced action on trace coordinates."""

import numpy as np
import pytest

from bqdomain import cli
from bqdomain.algebra import CharacterPoint, Theta, involution_theta
from bqdomain.torelli import (IDENTITY, IDENTITY_FACTORS, MAGNUS, TAU,
                              Automorphism, character_agree, character_coords,
                              compose, equal_in_out, factored, invert,
                              reduce_word)
from conftest import random_on_variety_point, sup_norm
from free_group import induced_character_map, lift_point

COORD_NAMES = ("a", "b", "c", "d", "x", "y", "z")


class TestInvolutions:
    def test_all_square_to_identity(self):
        for name, t in TAU.items():
            assert compose(t, t).images == IDENTITY.images

    def test_tau_d_inverts_generators(self):
        assert TAU["d"].images == ("a", "b", "c")

    def test_distinct(self):
        images = {t.images for t in TAU.values()}
        assert len(images) == 7


class TestGenerators:
    def test_partial_conjugation_images(self):
        assert MAGNUS["K12"].apply("A") == "BAb"
        assert MAGNUS["K23"].apply("B") == "CBc"
        assert MAGNUS["K31"].apply("C") == "ACa"
        assert MAGNUS["K12"].apply("B") == "B"

    def test_commutator_insertions_fix_other_generators(self):
        assert MAGNUS["K123"].apply("B") == "B"
        assert MAGNUS["K231"].apply("C") == "C"
        assert MAGNUS["K312"].apply("A") == "A"

    def test_factorizations_agree_in_outer_group(self):
        for name in MAGNUS:
            f = factored(name)
            assert equal_in_out(MAGNUS[name], f)
            assert character_agree(MAGNUS[name], f, trials=20) < 1e-8

    def test_factor_lists_use_involutions_only(self):
        for name, factors in IDENTITY_FACTORS.items():
            assert all(t in TAU for t in factors)


class TestConjugacyCheck:
    def test_detects_inner_twist(self):
        g = Automorphism(("BAb", "B", "C"))
        inner = Automorphism(("A", "ABa", "ACa"))   # conjugation by A
        twisted = compose(inner, g)
        assert equal_in_out(g, twisted)

    def test_rejects_genuinely_different(self):
        assert not equal_in_out(MAGNUS["K12"], MAGNUS["K23"],
                                search_radius=3)

    @pytest.mark.parametrize("radius, found", [(3, False), (4, False),
                                               (5, True), (6, True)])
    def test_conjugator_is_bounded_by_the_radius(self, radius, found):
        # f is g conjugated by a five-letter word, so only a search
        # radius of at least five finds the conjugator.
        g, w = MAGNUS["K12"], "ABCAB"
        inner = Automorphism(tuple(reduce_word(w + x + invert(w))
                                   for x in "ABC"))
        assert equal_in_out(compose(inner, g), g, radius) is found


def test_torelli_command_reports_every_identity(capsys):
    assert cli.main(["torelli", "--trials", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(MAGNUS)
    assert len(lines) == len(names) + 1
    for name, line in zip(names, lines):
        factors = " * ".join("tau_" + t for t in IDENTITY_FACTORS[name])
        head = "%s = %s: conjugate=True, trace deviation " % (name, factors)
        assert line.startswith(head), line
        assert float(line[len(head):]) <= 1e-8
    assert lines[-1].startswith("max deviation: ")


class TestLift:
    def test_roundtrips_trace_coordinates(self, rng):
        pt = random_on_variety_point(rng)
        got = character_coords(IDENTITY, lift_point(pt))
        want = tuple(getattr(pt, n) for n in COORD_NAMES)
        scale = 1 + max(abs(v) for v in want)
        assert max(abs(u - v) for u, v in zip(got, want)) < 1e-9 * scale

    def test_determinants_are_one(self, rng):
        pt = random_on_variety_point(rng)
        for m in lift_point(pt):
            assert abs(np.linalg.det(m) - 1) < 1e-9 * (1 + np.abs(m).max())

    def test_rejects_reducible_locus(self):
        pt = CharacterPoint(2, 2, 0, 0, 2, 0, 0)
        with pytest.raises(ValueError):
            lift_point(pt)


class TestInducedAction:
    def test_involutions_realize_coordinate_flips(self, rng):
        pairs = {"a": Theta.A, "b": Theta.B, "c": Theta.C, "d": Theta.D,
                 "x": Theta.X, "y": Theta.Y, "z": Theta.Z}
        pt = random_on_variety_point(rng)
        scale = 1 + sup_norm(pt) ** 3
        for tau_name, which in pairs.items():
            img = induced_character_map(TAU[tau_name], pt)
            ref = involution_theta(pt, which)
            for n in COORD_NAMES:
                assert abs(getattr(img, n) - getattr(ref, n)) \
                    < 1e-9 * scale
