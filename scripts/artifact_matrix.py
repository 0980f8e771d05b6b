"""Run every CLI command and study script once, keeping what each run leaves.

A change that should not move any number is checked by running this in the
parent checkout and in the change, into two fresh directories, and comparing
them with `diff -r`.  The runs use the checkout's own `src/` and
LRLAB_THREADS=1, one at a time:

* check, constants, chains, bound, simulate and verify on every
  configs/*.json, and on the ten WRITTEN_CONFIGS, written into OUT/configs:
  a TFIM with X observables (the structured sweep) and the same with an
  occupation cap (a cap without bosons, on the full-space route); a
  projected Dicke chain with an occupation cap, and the same at 8 spins and
  m = 12, whose full space is above the cap (simulate and verify exit 2); a
  TFIM with all four bound methods, and the same at "lambda": 0.8; a
  12-site TFIM at "chain_order": 60 (sequence counts at depth); a 10-site
  TFIM whose time grid starts at t = 1, where most O_Q are already past the
  threshold (the velocity fit); a 10-site TFIM at "g": 0 with the two
  methods that need v_LR > 0 (bound and verify exit 2); and a 96-site TFIM
  with O_Q from d = 3 to d = 94 (term overlaps and separations at a size
  where an index and one search differ most from all-pairs scans);
* the two study scripts in the SCRIPT_RUNS settings: their defaults, union
  norms whose blocks come in many sizes (--truncations 12 16), a capped
  sweep, 60 O_Q at L = 64 (series values and chain tables at depth),
  couplings away from 1 (one negative), four argument errors and a config
  error (each exit 2).

That is 99 runs: 6 commands on 14 configs, and 15 script runs.

OUT/<run>/ holds the run's artifacts (out/), stdout, stderr and exit_code.
Every path a run sees is relative to its own directory, so two checkouts
write the same bytes.

Usage:
  python scripts/artifact_matrix.py OUT
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "constants", "chains", "bound", "simulate", "verify")
WRITTEN_CONFIGS = {
    "tfim_x": {
        "model": {"name": "tfim", "length": 8},
        "observables": {
            "op_site": 0,
            "op_pauli": "X",
            "oq_sites": [2, 4, 7],
            "oq_pauli": "X",
        },
        "time_grid": {"start": 0.0, "stop": 1.5, "points": 16},
        "methods": ["closed_form"],
    },
    "dicke_capped": {
        "model": {"name": "dicke_chain", "length": 3, "truncation": 3},
        "observables": {
            "op_site": 1,
            "op_pauli": "X",
            "oq_sites": [3, 5],
            "oq_pauli": "Z",
        },
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
        "methods": ["closed_form"],
        "projected": True,
        "occupation_cap": 1,
    },
    "tfim_all_methods": {
        "model": {"name": "tfim", "length": 7},
        "observables": {"op_site": 0, "oq_sites": [2, 3, 5]},
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
        "methods": [
            "closed_form",
            "series_exact_cn",
            "observable",
            "bounded_reference",
        ],
    },
}
WRITTEN_CONFIGS["tfim_x_capped"] = {**WRITTEN_CONFIGS["tfim_x"], "occupation_cap": 1}
# Its full space, 24^8 dimensions, is far above the cap; its constants are not.
WRITTEN_CONFIGS["dicke_over_cap"] = {
    **WRITTEN_CONFIGS["dicke_capped"],
    "model": {"name": "dicke_chain", "length": 8, "truncation": 12},
    "observables": {"op_site": 1, "op_pauli": "X", "oq_sites": [15], "oq_pauli": "X"},
}
WRITTEN_CONFIGS["tfim_lambda"] = {**WRITTEN_CONFIGS["tfim_all_methods"], "lambda": 0.8}
WRITTEN_CONFIGS["tfim_deep_chains"] = {
    "model": {"name": "tfim", "length": 12},
    "observables": {"op_site": 0, "oq_sites": [5, 11]},
    "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
    "chain_order": 60,
}
WRITTEN_CONFIGS["tfim_late_grid"] = {
    "model": {"name": "tfim", "length": 10},
    "observables": {"op_site": 0, "oq_sites": [3, 4, 5, 6, 7, 8]},
    "time_grid": {"start": 1.0, "stop": 3.0, "points": 41},
    "methods": ["closed_form"],
    "threshold": 1e-6,
}
WRITTEN_CONFIGS["tfim_zero_coupling"] = {
    "model": {"name": "tfim", "length": 10, "g": 0},
    "observables": {"op_site": 0, "oq_sites": [5, 7]},
    "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
    "methods": ["observable", "bounded_reference"],
}
WRITTEN_CONFIGS["tfim_96"] = {
    "model": {"name": "tfim", "length": 96},
    "observables": {"op_site": 0, "oq_sites": [3, 10, 30, 60, 94]},
    "time_grid": {"start": 0.0, "stop": 3.0, "points": 31},
}
SCRIPT_RUNS = {
    "dicke_truncation-defaults": ("run_dicke_truncation.py",),
    "dicke_truncation-capped": (
        "run_dicke_truncation.py", "--length", "3", "--occupation-cap", "1"
    ),
    "dicke_truncation-truncations": (
        "run_dicke_truncation.py", "--truncations", *"2 3 4 5 6 8 10".split()
    ),
    "dicke_truncation-truncations-deep": (
        "run_dicke_truncation.py", "--truncations", "12", "16"
    ),
    "dicke_truncation-h0.5": ("run_dicke_truncation.py", "--h", "0.5"),
    "dicke_truncation-truncations1": ("run_dicke_truncation.py", "--truncations", "1"),
    "dicke_truncation-truncations-empty": ("run_dicke_truncation.py", "--truncations"),
    "dicke_truncation-h-nan": ("run_dicke_truncation.py", "--h", "nan"),
    "dicke_truncation-cap-over-limit": (
        "run_dicke_truncation.py", "--length", "5", "--truncations", "4",
        "--occupation-cap", "1",
    ),
    "tfim_verify-defaults": ("run_tfim_verify.py",),
    "tfim_verify-length5": ("run_tfim_verify.py", "--length", "5"),
    "tfim_verify-length64": (
        "run_tfim_verify.py", "--length", "64", "--t-max", "4"
    ),
    "tfim_verify-length128-j1-g0.6": (
        "run_tfim_verify.py", "--length", "128", "--j", "1", "--g", "0.6",
        "--t-max", "4",
    ),
    "tfim_verify-length64-j-0.5-g0.5": (
        "run_tfim_verify.py", "--length", "64", "--j=-0.5", "--g", "0.5",
        "--t-max", "4",
    ),
    "tfim_verify-lambda-1": ("run_tfim_verify.py", "--lambda", "-1"),
}


def runs(out: Path):
    """(name, argv) of every run; config paths relative to the run's
    directory."""
    for name in sorted(p.stem for p in (out / "configs").glob("*.json")):
        for command in COMMANDS:
            argv = ["-m", "lrlab.cli", command, "--config", f"../configs/{name}.json"]
            if command != "check":  # check writes nothing and takes no --out
                argv += ["--out", "out"]
            yield f"{command}-{name}", argv
    for name, (script, *args) in SCRIPT_RUNS.items():
        yield name, [str(ROOT / "scripts" / script), *args, "--out", "out"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="a directory that does not exist yet")
    args = ap.parse_args()
    out = args.out.resolve()
    if out.exists():
        ap.error(f"{out} exists; give a fresh directory")
    (out / "configs").mkdir(parents=True)
    for path in sorted((ROOT / "configs").glob("*.json")):
        (out / "configs" / path.name).write_bytes(path.read_bytes())
    for name, raw in WRITTEN_CONFIGS.items():
        (out / "configs" / f"{name}.json").write_text(json.dumps(raw, indent=2))

    env = dict(os.environ, LRLAB_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    total = time.perf_counter()
    for name, argv in runs(out):
        cwd = out / name
        cwd.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, capture_output=True
        )
        (cwd / "stdout").write_bytes(proc.stdout)
        (cwd / "stderr").write_bytes(proc.stderr)
        (cwd / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}, {time.perf_counter() - start:.1f} s")
    print(f"done in {time.perf_counter() - total:.1f} s; results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
