"""A fresh interpreter that imports edspin and builds the benchmark's specs
must not load scipy's sparse or linalg submodules: set-up is timed before
every benchmark call and those imports were most of it.  They load on first
use, which the same interpreter then exercises with one `verify`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph",
         "scipy.linalg")

PROGRAM = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import edspin, edspin.cli
import workloads
for make in workloads.WORKLOADS.values():
    make()
loaded = [m for m in {HEAVY!r} if m in sys.modules]
g = edspin.path_graph(4)
report = edspin.verify_mlm_class(
    edspin.ModelSpec("heisenberg", g, j=edspin.coupling_matrix(g, 1.0, "nn")))
print(json.dumps({{"loaded": loaded, "verdict": report.verdict}}))
"""


def test_setup_loads_no_heavy_scipy_submodule():
    done = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["verdict"] == "pass"
