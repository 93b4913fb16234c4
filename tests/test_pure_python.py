"""The package runs without numpy, and the matrix lift stays accurate
where the old one cancelled."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bqdomain.algebra import (BoundaryData, CharacterPoint, RootChoice,
                              solve_fourth)
from bqdomain.torelli import IDENTITY, character_coords, lift_point

SRC = str(Path(__file__).resolve().parents[1] / "src")

NO_NUMPY = """
import sys
sys.modules["numpy"] = None          # any import of numpy now fails
import bqdomain, bqdomain.torelli, bqdomain.words
from bqdomain import cli
from bqdomain.algebra import (BoundaryData, CharacterPoint, RootChoice,
                              Theta, involution_theta, solve_fourth)
from bqdomain.torelli import TAU, induced_character_map
assert cli.main(["torelli", "--trials", "20"]) == 0
om = (0.3 + 0.1j, -0.4, 0.2j)
d = solve_fourth(1.1, 0.7j, -0.5, BoundaryData(om), RootChoice.PLUS)
pt = CharacterPoint(1.1, 0.7j, -0.5, d, *om)
got = induced_character_map(TAU["a"], pt)
want = involution_theta(pt, Theta.A)
assert all(abs(getattr(got, n) - getattr(want, n)) < 1e-9 for n in "abcdxyz")
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
