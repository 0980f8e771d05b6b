"""End-to-end TFIM verification run.

Generates a config, then drives the ``lrlab verify`` pipeline: exact
commutator sweep, closed-form and exact-coefficient series bounds, margin
check, empirical velocity extraction.  Artifacts land in --out.

Usage:
  python scripts/run_tfim_verify.py
  python scripts/run_tfim_verify.py --length 128 --t-max 6 --out out/tfim128

The observables are single-site Z, so the sweep is the free-fermion one and
needs no full Hamiltonian.  At 128 sites (124 observables, 61 times) the
run takes about 1.6 s on 2 cores with LRLAB_THREADS=1, about half of it the
series bound's chain tables; the sweep takes a tenth of a second.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=10)
    ap.add_argument("--j", type=float, default=1.0)
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--t-max", type=float, default=3.0)
    ap.add_argument("--points", type=int, default=61)
    ap.add_argument("--lambda", dest="lam", type=float, default=None)
    ap.add_argument("--out", default="out/tfim_verify")
    args = ap.parse_args()
    if args.length < 5:
        ap.error("need at least 5 sites for a nontrivial separation range")

    from lrlab import cli

    config = {
        "model": {"name": "tfim", "length": args.length, "j": args.j, "g": args.g},
        "observables": {
            "op_site": 0,
            "op_pauli": "Z",
            "oq_sites": list(range(3, args.length - 1)),
            "oq_pauli": "Z",
        },
        "time_grid": {"start": 0.0, "stop": args.t_max, "points": args.points},
        "methods": ["closed_form", "series_exact_cn"],
    }
    if args.lam is not None:
        config["lambda"] = args.lam

    # The config joins the artifacts only once verify has run on it: a
    # rejected one must not land in --out, or replace an earlier run's.
    out = Path(args.out)
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(text)
        rc = cli.main(["verify", "--config", str(cfg_path), "--out", str(out)])
    if rc not in (0, 1):  # no verification was written
        return rc
    (out / "config.json").write_text(text)
    summary = json.loads((out / "verification.json").read_text())
    vel = summary["velocity"]
    if "v_emp" in vel:
        print(
            f"empirical velocity {vel['v_emp']:.4f} vs bound {vel['v_lr']:.4f} "
            f"({len(vel['crossings'])} cone crossings)"
        )
    else:
        print(f"velocity not resolved: {vel['error']}")
    print("artifacts in", out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
