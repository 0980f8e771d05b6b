"""A run loads no third-party package but numpy.

A fresh process pays for every package it imports: scipy.sparse, csgraph
and optimize each added a quarter of a second or so to a run's start, and
jsonschema with its eight dependencies about a tenth, more than the
arithmetic of a small run.  The package needs none of them: the large
spin-boson commutator norms and a non-diagonal `O_Q` in the sweep take
numpy's row-padded sparse form, and `config` walks its own schema.  Each
case runs in a fresh subprocess and reads `sys.modules` at its end, against
the modules a bare interpreter loads (`site` may bring in packages of its
own): a TFIM `verify` with `Z` observables (the free-fermion sweep), one
with `X` observables (the structured sweep, whose `O_Q` is not diagonal),
the `Z` run again with jsonschema made unimportable, the truncation study
(sparse union norms), and the truncation study with `--occupation-cap`
(spin `X` observables in the sweep).  Each case also states whether it loads
`lrlab.dynamics`: the truncation study sweeps only with `--occupation-cap`,
so without it the sweep module stays unloaded.  No case loads `numpy.ma`,
which a plain `np.unique` imports (about 16 ms and 1 MB).
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
if kind == "cli_without_jsonschema":
    sys.modules["jsonschema"] = None  # so that importing it raises
if kind.startswith("cli"):
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
    json.dump({"rc": rc, "modules": sorted(m for m, v in sys.modules.items() if v)}, f)
"""

BARE = "import json, sys; print(json.dumps(sorted(sys.modules)))"

TFIM_X_CONFIG = {
    "model": {"name": "tfim", "length": 5},
    "observables": {
        "op_site": 0, "op_pauli": "X", "oq_sites": [3, 4], "oq_pauli": "X",
    },
    "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
    "methods": ["closed_form"],
}

TRUNCATION = str(REPO_ROOT / "scripts" / "run_dicke_truncation.py")

# (kind, argv, whether the run loads lrlab.dynamics); "{config}" stands for
# TFIM_X_CONFIG written to a file.
CASES = {
    "tfim_verify": (
        "cli",
        ["verify", "--config", str(REPO_ROOT / "configs" / "tfim_small.json")],
        True,
    ),
    "tfim_verify_x": ("cli", ["verify", "--config", "{config}"], True),
    "tfim_verify_without_jsonschema": (
        "cli_without_jsonschema",
        ["verify", "--config", str(REPO_ROOT / "configs" / "tfim_small.json")],
        True,
    ),
    "dicke_truncation": (
        "script", [TRUNCATION, "--length", "3", "--truncations", "2", "3"], False,
    ),
    "dicke_occupation_cap": (
        "script",
        [TRUNCATION, "--length", "3", "--truncations", "2", "--occupation-cap", "1"],
        True,
    ),
}


ENV = dict(
    os.environ,
    LRLAB_THREADS="1",
    PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    ),
)


@pytest.fixture(scope="module")
def bare_packages():
    """The top-level packages a bare interpreter loads."""
    proc = subprocess.run(
        [sys.executable, "-c", BARE], env=ENV, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return {m.split(".")[0] for m in json.loads(proc.stdout)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_imports_only_the_scipy_it_uses(tmp_path, bare_packages, case):
    kind, argv, sweeps = CASES[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TFIM_X_CONFIG))
    argv = [str(config) if arg == "{config}" else arg for arg in argv]
    result = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(result), kind, *argv,
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    modules = set(run["modules"])
    # The check sees modules imported inside functions too.
    assert "lrlab.lattice" in modules
    assert ("lrlab.dynamics" in modules) == sweeps
    assert "numpy.ma" not in modules
    packages = {m.split(".")[0] for m in modules}
    assert packages - bare_packages - set(sys.stdlib_module_names) == {
        "lrlab", "numpy"
    }
