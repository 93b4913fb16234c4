"""Deciding from carried quads.

``decide_bq`` carries every quad from the root: the descent its vertex
quad, each queued face the quad at its anchor.  It looks no value up by
word, so the map's memo keeps only the root quad.  These tests pin the
closure pop by pop against ``oracles.decide_bq_reference``, which keys
faces by string and reads every anchor quad through the memo: the same
faces in the same order, with bitwise the same anchor quads, and the
same verdict records.  They also check the invariants that let the
descent hand its quad to the seeds (every seed is anchored at the sink)
and let the closure skip a popped face's anchor (every face its window
meets at or above that anchor is already seen).
"""

import numpy as np
import pytest

import oracles
from bqdomain import bq, cli
from bqdomain.algebra import (BoundaryData, CharacterPoint, MarkoffQuad,
                              RootChoice, solve_fourth)
from bqdomain.bq import BqParams, Status, decide_bq, face_witness, find_sink
from bqdomain.markoff import HUGE
from bqdomain.tree import faces_at

from conftest import (in_bq_fixtures, not_bq_fixtures,
                      random_on_variety_point, slice_map)
from oracles import KeyedMap, decide_bq_reference, face_in_level

SLICE_POINTS = [-2.25 - 2.25j, 3.75 + 3.75j, -0.75 + 0.75j, 0.75 - 0.75j,
                -5.25 + 5.25j]

# Budgets small enough that a few hundred decisions stay fast, and that
# every Undecided kind shows up.
SMALL = BqParams(max_faces=200, max_arc_steps=400, max_total_edges=3000)


def frozen_maps():
    """The 25 frozen points: 10 easy InBQ, 10 root NotBQ, 5 on the slice
    (2 hard InBQ, 3 budget-bound Undecided)."""
    return ([pytest.param(lambda q=q: KeyedMap(q), id="in_bq%d" % n)
             for n, q in enumerate(in_bq_fixtures())]
            + [pytest.param(lambda q=q: KeyedMap(q), id="not_bq%d" % n)
               for n, q in enumerate(not_bq_fixtures())]
            + [pytest.param(lambda a=a: slice_map(a), id="slice%d" % n)
               for n, a in enumerate(SLICE_POINTS)])


def same(x, y) -> bool:
    """Bitwise equality: == plus repr, which tells -0.0 from 0.0."""
    return x == y and repr(x) == repr(y)


def record(v):
    """Status, budget, steps, witness, arc bounds in order and sorted
    edges; the witness value by repr, so that it compares bitwise."""
    w = v.witness
    return (v.status, v.budget_hit, v.steps_used,
            w and (w.kind, w.face, repr(w.value)),
            v.tree and list(v.tree.arc_bounds.items()),
            v.tree and sorted(v.tree.edges))


def one_stop(d) -> bool:
    """A descent ends in exactly one way: with seeds, with a witness, or
    with the budget it names."""
    return (d.seeds != []) + (d.witness is not None) \
        + (d.budget_hit is not None) == 1


def random_complex(rng, scale):
    return complex(*rng.uniform(-scale, scale, 2))


def moved_point(rng, pt=None) -> MarkoffQuad:
    """pt, by default a random on-variety point, moved out by a random
    word of up to six letters, so that its descent starts above the
    sink."""
    pt = pt or random_on_variety_point(rng)
    m = KeyedMap(MarkoffQuad(pt.quad, pt.omega))
    quad, last = m.root, 0
    for _ in range(int(rng.integers(1, 7))):
        last = int(rng.choice([c for c in (1, 2, 3, 4) if c != last]))
        quad = m._move(quad, last)
    return MarkoffQuad(quad, pt.omega, on_variety=False)


def band_point(rng) -> CharacterPoint:
    """A random complex point on the variety whose face {1,2} at the root
    has a random value on the band [-2,2]."""
    x, y, z = (random_complex(rng, 1.0) for _ in range(3))
    a = random_complex(rng, 3.0)
    b = (rng.uniform(-2, 2) + x) / a          # a*b - lambda_12 on the band
    c = random_complex(rng, 3.0)
    return CharacterPoint(a, b, c, solve_fourth(a, b, c, BoundaryData(
        (x, y, z)), RootChoice.PLUS), x, y, z)


def seeded_quads(seed: int = 2024):
    """100 random and 100 moved on-variety points, 100 points with real
    coordinates, 50 raw quads and 50 quads with entries near or past the
    overflow cap."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100):
        pt = random_on_variety_point(rng)
        out.append(MarkoffQuad(pt.quad, pt.omega))
        out.append(moved_point(rng))
    for _ in range(100):
        omega = BoundaryData(tuple(rng.uniform(-2, 2, 3)))
        abc = tuple(rng.uniform(-4, 4, 3))
        d = solve_fourth(*abc, omega, RootChoice.PLUS)
        out.append(MarkoffQuad((*abc, d), omega, on_variety=False))
    for _ in range(50):
        omega = BoundaryData(tuple(random_complex(rng, 3.0)
                                   for _ in range(3)))
        raw = tuple(random_complex(rng, 6.0) for _ in range(4))
        huge = tuple(random_complex(rng, 3.0)
                     * (10.0 ** rng.uniform(100, 160) if rng.random() < 0.5
                        else 1.0) for _ in range(4))
        out.append(MarkoffQuad(raw, omega, on_variety=False))
        out.append(MarkoffQuad(huge, omega, on_variety=False))
    return out


def recorder(monkeypatch, module, name: str):
    """The pops of the closure whose arcs ``module.name`` walks: each
    popped face's anchor, colors and anchor quad (by repr, so bitwise),
    in pop order.  A face popped past max_faces walks no arc and is
    left to the verdict record."""
    walk, pops = getattr(module, name), []

    def recording(m, f, quad, *limits):
        pops.append((f.anchor, f.colors, repr(quad)))
        return walk(m, f, quad, *limits)
    monkeypatch.setattr(module, name, recording)
    return pops


def agree(monkeypatch, makes, params):
    """Hold decide_bq on each make() to the reference: equal records, the
    same pops one by one, and the memo kept at the root quad.  Returns
    the verdicts and the number of pops compared."""
    got_pops = recorder(monkeypatch, bq, "attracting_arc")
    want_pops = recorder(monkeypatch, oracles, "attracting_arc_reference")
    verdicts, pops = [], 0
    for make in makes:
        del got_pops[:], want_pops[:]
        m = make()
        root = m.quad_at("")
        got = decide_bq(m, params)
        want = decide_bq_reference(make(), params)
        bad = next((n for n, (g, w) in enumerate(zip(got_pops, want_pops))
                    if g != w), None)
        assert bad is None, (bad, got_pops[bad], want_pops[bad])
        assert len(got_pops) == len(want_pops)
        assert record(got) == record(want)
        assert m._quads == {"": root}
        verdicts.append(got)
        pops += len(got_pops)
    return verdicts, pops


@pytest.mark.parametrize("make", frozen_maps())
def test_frozen_point_matches_the_reference_and_keeps_the_memo_at_root(
        monkeypatch, make):
    agree(monkeypatch, [make], BqParams())
    assert one_stop(find_sink(make(), BqParams()))


def test_seeded_pops_match_the_reference(monkeypatch):
    """1,400 inputs at SMALL: seeded_quads() and seeds 7, 11 and 13 cut to
    1000.  They reach every status, the max_faces and overflow budgets,
    and witnesses that the closure finds past the sink's faces."""
    quads = seeded_quads() + \
        (seeded_quads(7) + seeded_quads(11) + seeded_quads(13))[:1000]
    assert len(quads) == 1400
    makes = [lambda q=q: KeyedMap(q) for q in quads]
    verdicts, pops = agree(monkeypatch, makes, SMALL)
    assert pops >= 50000
    assert {v.status for v in verdicts} == set(Status)
    assert {"max_faces", "overflow"} <= {v.budget_hit for v in verdicts}
    closure_witnesses = sum(
        v.status is Status.NOT_BQ and len(v.witness.face.anchor) >= 2
        and find_sink(KeyedMap(q), SMALL).witness is None
        for q, v in zip(quads, verdicts))
    assert closure_witnesses >= 10


def test_an_overflowed_descent_is_labelled_overflow(capsys):
    """A descent stops at a quad holding HUGE (no edge leads down); with no
    seed, that stop is overflow, not a sink, on (1e200,)*4 and on every
    such stop among the seeded quads under both budgets (there are some)."""
    argv = ["check"] + ["1e200"] * 4 + ["0"] * 3
    assert cli.main(argv) == cli.EXIT_UNDECIDED
    assert "verdict: Undecided (budget: overflow)" in capsys.readouterr().out
    huge = MarkoffQuad((1e200,) * 4, BoundaryData((0.0, 0.0, 0.0)),
                       on_variety=False)
    stops = []
    for params in (BqParams(), SMALL):
        for q in [huge] + seeded_quads():
            d = find_sink(KeyedMap(q), params)
            if d.quad is None or d.witness or d.seeds or HUGE not in d.quad:
                continue
            stops.append(q)
            assert d.budget_hit == "overflow", q
            for decide in (decide_bq, decide_bq_reference):
                v = decide(KeyedMap(q), params)
                assert (v.status, v.budget_hit) \
                    == (Status.UNDECIDED, "overflow"), q
    assert stops.count(huge) == 2 and len(stops) > 2


def test_a_descent_with_no_seed_face_is_labelled_no_seed_face(capsys):
    """A raw quad holding no HUGE (residual 74.7) whose descent stops with
    no face in the level: Undecided on ``no_seed_face``, exit code 2."""
    argv = ["check", "1,-2", "3", "3", "3", "0", "0", "0"]
    assert cli.main(argv) == cli.EXIT_UNDECIDED
    out = capsys.readouterr().out
    assert "residual: 74.7" in out
    assert "verdict: Undecided (budget: no_seed_face)" in out
    q = MarkoffQuad((1 - 2j, 3, 3, 3), BoundaryData((0.0, 0.0, 0.0)),
                    on_variety=False)
    d = find_sink(KeyedMap(q), BqParams())
    assert d.quad is not None and not d.seeds and HUGE not in d.quad
    assert d.budget_hit == "no_seed_face"
    for decide in (decide_bq, decide_bq_reference):
        v = decide(KeyedMap(q), BqParams())
        assert (v.status, v.budget_hit) == (Status.UNDECIDED, "no_seed_face")


def test_seeds_are_anchored_at_the_sink():
    rng = np.random.default_rng(99)
    params = BqParams()
    below_root = 0
    for _ in range(300):
        m = KeyedMap(moved_point(rng))
        d = find_sink(m, params)
        if d.vertex is None:
            continue
        assert same(d.quad, m.quad_at(d.vertex))
        K = params.level(m)
        for f in faces_at(d.vertex):
            if face_in_level(m, f, K):
                assert f.anchor == d.vertex, f
                below_root += len(d.vertex) > 1
    assert below_root > 0


def test_descent_seeds_and_witnesses_match_a_full_screen():
    """The descent screens only the pairs holding the colour just crossed,
    yet it returns the sink's in-level faces as seeds, in FACE_PAIRS
    order, and stops at the first witness that a screen of all six
    pairs finds at its last vertex, and otherwise ends on seeds or a named
    budget, never two of the three.  The moved band points reach a
    witness below the root."""
    rng = np.random.default_rng(99)
    quads = [moved_point(rng) for _ in range(300)] + seeded_quads() + \
        [moved_point(rng, band_point(rng)) for _ in range(200)]
    params = BqParams()
    deep_witnesses = deep_seeds = 0
    for q in quads:
        m = KeyedMap(q)
        d = find_sink(m, params)
        assert one_stop(d), q
        v = d.vertex
        if v is None or d.witness is not None:
            assert d.seeds == []
        else:
            K = params.level(m)
            assert d.seeds == [f.colors for f in faces_at(v)
                               if face_in_level(m, f, K)]
            deep_seeds += len(v) > 0 and d.seeds != []
        if d.witness is not None:
            assert d.witness.face in faces_at(v)
            first = next(w for w in (face_witness(m, f, m.quad_at(v))
                                     for f in faces_at(v)) if w is not None)
            assert (d.witness.kind, d.witness.face, repr(d.witness.value)) \
                == (first.kind, first.face, repr(first.value))
            deep_witnesses += len(v) > 0
    assert deep_seeds > 0 and deep_witnesses > 0


def hits_above_the_anchor(monkeypatch, m, params) -> int:
    """Run the reference on m and check the invariant that lets
    ``decide_bq`` skip a popped face's anchor: every key the reference's
    screen names (``oracles.boundary_face``, at every window vertex,
    position 0 included) whose anchor is no longer than the popped face's
    is a seed or was named in an earlier pop's window.  Returns the
    number of such keys checked."""
    walk, name = oracles.attracting_arc_reference, oracles.boundary_face
    K = params.level(m)
    sink = find_sink(m, params).vertex
    seeds = {f for f in faces_at(sink) if face_in_level(m, f, K)} \
        if sink is not None else set()
    earlier, window, checked = set(), [], 0

    def popping(m, f, quad, params):
        earlier.update(window)
        del window[:]
        return walk(m, f, quad, params)

    def naming(f, n, i, j):
        nonlocal checked
        g = name(f, n, i, j)
        if len(g.anchor) <= len(f.anchor):
            assert g in seeds or g in earlier, (f, n, g)
            checked += 1
        window.append(g)
        return g
    monkeypatch.setattr(oracles, "attracting_arc_reference", popping)
    monkeypatch.setattr(oracles, "boundary_face", naming)
    decide_bq_reference(m, params)
    monkeypatch.undo()
    return checked


@pytest.mark.parametrize("make", frozen_maps())
def test_frozen_hits_above_the_popped_anchor_are_already_seen(
        monkeypatch, make):
    hits_above_the_anchor(monkeypatch, make(), BqParams())


def test_seeded_hits_above_the_popped_anchor_are_already_seen(monkeypatch):
    checked = sum(hits_above_the_anchor(monkeypatch, KeyedMap(q), SMALL)
                  for q in seeded_quads())
    assert checked >= 50000
