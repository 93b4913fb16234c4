"""``check`` imports none of ``render``, ``fib`` and ``torelli``:
``bqdomain.cli`` leaves all three unimported, each is imported by its own
command, and the package reads its render names through ``render`` when
first asked for them.  A command may import more than it runs: ``fib``
and ``torelli`` load the decision path too, through ``bqdomain`` and
``cli``'s module-level imports.  No module loads ``dataclasses`` or the
``inspect`` it pulls in: every launch would pay for them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import bqdomain.cli
assert "bqdomain.render" not in sys.modules, "render"
assert "bqdomain.fib" not in sys.modules, "fib"
assert "bqdomain.torelli" not in sys.modules, "torelli"
import bqdomain
assert bqdomain.SliceConfig is bqdomain.render.SliceConfig
names = {}
exec("from bqdomain import *", names)
missing = [n for n in bqdomain.__all__ if n not in names]
assert not missing, missing
import bqdomain.fib
from bqdomain.algebra import BoundaryData, MarkoffQuad
quad = MarkoffQuad((4, 4, 4, -63.30495168499706), BoundaryData((0, 0, 0)),
                   on_variety=False)
bqdomain.decide_bq(bqdomain.MarkoffMap(quad))
loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert not loaded, loaded
print("ok")
"""


def test_cli_imports_neither_render_nor_fib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
