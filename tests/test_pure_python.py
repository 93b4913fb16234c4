"""Every package module imports without numpy and ``torelli`` runs, and
the matrix lift of ``free_group`` stays accurate where the old one
cancelled."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bqdomain.algebra import (BoundaryData, CharacterPoint, RootChoice,
                              solve_fourth)
from bqdomain.torelli import IDENTITY, character_coords
from free_group import lift_point

SRC = str(Path(__file__).resolve().parents[1] / "src")

NO_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None          # any import of numpy now fails
import bqdomain
for mod in pkgutil.iter_modules(bqdomain.__path__):
    importlib.import_module("bqdomain." + mod.name)
from bqdomain import cli
assert cli.main(["torelli", "--trials", "20"]) == 0
print("ok")
"""


def test_runs_with_numpy_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


@pytest.mark.parametrize("x", [-1e2, -1e3, -1e4, -1e5, -1e6, -3e7])
def test_lift_round_trips_at_large_negative_x(x):
    a, b, c, omega = 1.3, 0.4, 0.9, (x, 0.7, 0.3)
    d = solve_fourth(a, b, c, BoundaryData(omega), RootChoice.PLUS)
    want = (a, b, c, d) + omega
    got = character_coords(IDENTITY, lift_point(CharacterPoint(*want)))
    for u, v in zip(got, want):
        assert abs(u - v) <= 1e-12 * max(1.0, abs(v))
