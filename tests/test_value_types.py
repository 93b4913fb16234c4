"""The contract of the package's value types: field names, order and
defaults, value equality, hashing and immutability of the frozen types,
fresh mutable defaults, pickling of what the render pool receives, and
the rejection of non-finite coordinates.  Each type is read through its
constructor's signature and its attributes, so the contract holds
whatever builds it."""

import inspect
import math
import pickle

import pytest

from bqdomain.algebra import (BoundaryData, CharacterPoint, DerivedBoundary,
                              MarkoffQuad, RootChoice, solve_fourth)
from bqdomain.bq import (ArcOutcome, ArcResult, AttractingTree, BqParams,
                         BqVerdict, DescentResult, Status, Witness,
                         WitnessKind)
from bqdomain.fib import FibTable, GrowthReport
from bqdomain.render import SliceConfig
from bqdomain.torelli import Automorphism
from bqdomain.tree import FaceKey, RegionKey
from free_group import WordRep

ZERO = BoundaryData((0j, 0j, 0j))
ON_VARIETY, OTHER_ROOT = (
    (4.0, 4.0, 4.0, solve_fourth(4.0, 4.0, 4.0, ZERO, r))
    for r in (RootChoice.MINUS, RootChoice.PLUS))
FACE = FaceKey("", (1, 2))
FIXED = {"a": 0, "b": 0, "c": 0, "x": 0, "y": 0, "z": 0}
REQUIRED = object()

# type -> (fields in order, each with its default or REQUIRED; values for
# the required fields; another value for the first field; frozen).
CASES = {
    CharacterPoint: (dict.fromkeys("abcdxyz", REQUIRED),
                     (1, 2, 3, 4, 5, 6, 7), 9, True),
    BoundaryData: ({"omega": REQUIRED}, ((1, 2, 3),), (1, 2, 4), True),
    MarkoffQuad: ({"values": REQUIRED, "boundary": REQUIRED,
                   "on_variety": True}, (ON_VARIETY, ZERO), OTHER_ROOT,
                  True),
    DerivedBoundary: (dict.fromkeys("pqrs", REQUIRED), (1, 2, 3, 4), 0,
                      True),
    BqParams: ({"K": None, "max_descent_steps": 200, "max_faces": 20000,
                "max_arc_steps": 2000, "max_total_edges": 100000}, (),
               9.0, True),
    Witness: ({"kind": REQUIRED, "face": REQUIRED, "value": None},
              (WitnessKind.SIGMA_ZERO, FACE), WitnessKind.INFINITE_ARC,
              True),
    AttractingTree: ({"arc_bounds": {}}, (), {FACE: (0, -1)}, False),
    BqVerdict: ({"status": REQUIRED, "tree": None, "witness": None,
                 "budget_hit": None, "steps_used": 0}, (Status.IN_BQ,),
                Status.NOT_BQ, False),
    DescentResult: ({"vertex": None, "quad": None, "witness": None,
                     "budget_hit": None, "steps": 0, "seeds": []}, (),
                    "1", False),
    ArcResult: ({"outcome": REQUIRED, "n1": 0, "n2": -1, "steps": 0,
                 "quads": []}, (ArcOutcome.FINITE,), ArcOutcome.BUDGET,
                False),
    GrowthReport: (dict.fromkeys(["kappa_lower", "kappa_upper", "argmin"],
                                 REQUIRED), (0.5, 1.5, RegionKey("", 1)),
                   0.25, False),
    FibTable: ({"_regions": {}}, (), {RegionKey("", 1): 1},
               False),
    SliceConfig: ({"fixed": REQUIRED, "varying": REQUIRED,
                   "center": REQUIRED, "width": REQUIRED, "height": REQUIRED,
                   "px": REQUIRED, "params": BqParams(), "mode": "raw"},
                  (FIXED, "d", 0j, 8.0, 8.0, (4, 4)),
                  dict(FIXED, a=1), True),
    WordRep: ({"key": REQUIRED, "word": REQUIRED}, (FACE, "Ab"),
              FaceKey("", (1, 3)), True),
    Automorphism: ({"images": REQUIRED}, (("A", "B", "C"),),
                   ("B", "A", "C"), True),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_type_contract(cls):
    fields, required, other, frozen = CASES[cls]
    names = list(fields)
    assert list(inspect.signature(cls).parameters) == names
    a, b = cls(*required), cls(*required)
    for name, default in fields.items():
        if default is not REQUIRED:
            got = getattr(a, name)
            assert got == default and type(got) is type(default), name
    assert a == b and not a != b
    changed = cls(other, *required[1:])
    assert a != changed and getattr(changed, names[0]) == other
    if frozen:
        if cls is not SliceConfig:          # its fixed is a dict
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, names[0], other)
        assert getattr(a, names[0]) == getattr(b, names[0])
    for name, default in fields.items():
        if isinstance(default, (set, dict)):
            assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("value", [
    BqParams(K=9.0, max_faces=17),
    SliceConfig({"b": 0, "c": 0, "d": 0, "x": 0, "y": 0, "z": 0}, "a",
                1 + 2j, 8.0, 4.0, (4, 2), BqParams(max_faces=5),
                "solve_plus")], ids=["BqParams", "SliceConfig"])
def test_render_pool_arguments_pickle(value):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value


# A bad K, an off-variety quad and MarkoffQuad[color] are pinned in
# test_bq.py and test_algebra.py.
@pytest.mark.parametrize("make", [
    lambda: CharacterPoint(math.nan, 0, 0, 0, 0, 0, 0),
    lambda: BoundaryData((0, complex(0, math.inf), 0)),
    lambda: MarkoffQuad((1, 2, 3, math.inf), ZERO, on_variety=False)],
    ids=["point_nan", "boundary_inf", "quad_inf"])
def test_non_finite_coordinates_raise_value_error(make):
    with pytest.raises(ValueError):
        make()
