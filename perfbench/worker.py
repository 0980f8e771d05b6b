"""Run one benchmark workload in this (fresh) process.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout root, the workload kind (`cli` runs `lrlab.cli.main`
with `argv`; `script` runs a repository script as `__main__`), whether to
trace, and where to write the result: exit code, the monotonic times at which
set-up ended and the artifacts were written, peak RSS, CPU time, the chain
tables, and the spans of a traced run.
"""

from __future__ import annotations

import json
import resource
import runpy
import sys
import time
from pathlib import Path

import tracer


def _run(job, root: Path) -> int:
    if job["kind"] == "cli":
        from lrlab import cli

        return cli.main(job["argv"])
    script = str(root / job["script"])
    sys.argv = [script] + job["argv"]
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return 0


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    probe = tracer.Probe()
    spans = tracer.Tracer() if job["trace"] else None
    missing = tracer.install(probe, spans)
    rc = _run(job, root)
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_done": probe.setup_done,
        "done": done,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "chains": probe.chains,
        "missing": missing,
    }
    if spans is not None:
        result["spans"] = spans.spans
    Path(job["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
