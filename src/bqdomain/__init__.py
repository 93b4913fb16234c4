"""Membership tests, certificates, and slice renders for the Bowditch
domain of the mapping-class-group action on the SL(2,C) trace variety of
the three-holed projective plane."""

from .algebra import (BoundaryData, CharacterPoint, DerivedBoundary,
                      MarkoffQuad, RootChoice, Theta, elementary_move,
                      face_value, involution_theta, sigma, solve_fourth,
                      vertex_residual)
from .bq import (AttractingTree, BqParams, BqVerdict, Status, Witness,
                 WitnessKind, decide_bq)
from .markoff import MarkoffMap

__all__ = [
    "BoundaryData", "CharacterPoint", "DerivedBoundary", "MarkoffQuad",
    "RootChoice", "Theta", "elementary_move", "face_value",
    "involution_theta", "sigma", "solve_fourth", "vertex_residual",
    "AttractingTree", "BqParams", "BqVerdict", "Status", "Witness",
    "WitnessKind", "decide_bq", "MarkoffMap", "SliceConfig", "render_slice",
    "render_to_file",
]

__version__ = "0.1.0"

# Read through ``render`` when first asked for (PEP 562), so that a command
# that renders nothing never imports it.
_RENDER_NAMES = ("SliceConfig", "render_slice", "render_to_file")


def __getattr__(name):
    if name in _RENDER_NAMES:
        from . import render
        return getattr(render, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
