"""Record the default-seed outputs of every workload in reference.json.

Usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted; the benchmark then fails
any default-seed sample whose outputs move away from these.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    env = run.child_env(run._nproc())
    reference = {}
    for name in workloads.WORKLOADS:
        job, result = run.run_sample(
            name, workloads.DEFAULT_SEED, False, run.WORK / name, env,
            run.RUN_LIMIT_S)
        if result["rc"] != 0:
            print(f"{name}: exit code {result['rc']}", file=sys.stderr)
            return 1
        got = workloads.outputs(name, Path(job["out"]), result["chains"])
        errors = workloads.invariants(name, job, got, result["chains"], {})
        if errors:
            print(f"{name}: " + "; ".join(errors), file=sys.stderr)
            return 1
        got.pop("verdict", None)
        reference[name] = got
        print(f"{name}: {len(got['bounds'])} bounds, {len(got['norms'])} norms, "
              f"{len(got['chains'])} chain tables")
    shutil.rmtree(run.WORK.parent, ignore_errors=True)
    path = Path(run.HERE / "reference.json")
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
