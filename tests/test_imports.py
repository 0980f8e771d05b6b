"""Each run imports only the scipy modules its code path calls.

scipy.sparse, scipy.sparse.csgraph and scipy.optimize each add a quarter of a
second or so to a fresh process's start, more than the arithmetic of a small
run.  Each case runs in a fresh subprocess and reads `sys.modules` at its
end: a TFIM `verify` stays on dense numpy and loads no scipy at all, and the
truncation study, which takes its large commutator norms sparsely, loads
scipy.sparse but neither the graph routines nor the optimizer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

RUN = """
import json, runpy, sys
out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
if kind == "cli":
    from lrlab import cli
    rc = cli.main(argv)
else:
    sys.argv = argv
    try:
        runpy.run_path(argv[0], run_name="__main__")
        rc = 0
    except SystemExit as e:
        rc = e.code
with open(out, "w") as f:
    json.dump({"rc": rc, "modules": sorted(sys.modules)}, f)
"""

CASES = {
    "tfim_verify": (
        "cli",
        ["verify", "--config", str(REPO_ROOT / "configs" / "tfim_small.json")],
        {"scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse", "scipy"},
        set(),
    ),
    "dicke_truncation": (
        "script",
        [
            str(REPO_ROOT / "scripts" / "run_dicke_truncation.py"),
            "--length", "3", "--truncations", "2", "3",
        ],
        {"scipy.optimize", "scipy.sparse.csgraph"},
        {"scipy.sparse"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_imports_only_the_scipy_it_uses(tmp_path, case):
    kind, argv, absent, present = CASES[case]
    result = tmp_path / "modules.json"
    env = dict(
        os.environ,
        LRLAB_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(result), kind, *argv,
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    modules = set(run["modules"])
    assert "lrlab.lattice" in modules
    assert not absent & modules
    # The check sees modules imported inside functions too.
    assert present <= modules
