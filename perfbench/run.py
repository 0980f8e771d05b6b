"""lrlab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload tfim_verify --seed 1 --seconds 30 --trace 0

Each sample is the workload run in a fresh process (`worker.py`), started
one after another while another sample still fits in `--seconds`.  With `--trace 0` every
sample is untraced and the end-to-end metrics are medians over the samples.
With `--trace 1` traced and untraced samples alternate, and the per-layer
metrics are medians over the traced ones; `trace.overhead_s` is the
difference of the traced and untraced median wall times.  Every sample's
outputs are checked (`workloads.check`); a sample that exits non-zero or
fails a check counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
the environment record and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / str(os.getpid())
# A sample still running once the run has taken this long is killed, so the
# benchmark ends within 180 s.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "models.build_s": "s", "models.full_hamiltonian_s": "s",
    "models.hilbert_dim": "dim",
    "lattice.adjacency_s": "s", "lattice.adjacency_calls": "count",
    "lattice.constants_s": "s", "lattice.observable_conditions_s": "s",
    "lattice.union_norm_s": "s", "lattice.union_norm_calls": "count",
    "lattice.union_dim_max": "dim", "lattice.triple_calls": "count",
    "lattice.triple_nonzero_frac": "ratio",
    "operators.embed_s": "s", "operators.commutator_s": "s",
    "operators.commutator_work_n3": "n3", "operators.spectral_norm_s": "s",
    "operators.spectral_norm_calls": "count", "operators.norm_work_n3": "n3",
    "operators.eigvalsh_s": "s",
    "chains.dp_s": "s", "chains.dp_calls": "count", "chains.order_max": "count",
    "bounds.series_s": "s", "bounds.series_calls": "count",
    "bounds.terms_needed_s": "s", "bounds.terms_needed_calls": "count",
    "bounds.closed_form_s": "s",
    "dynamics.sweep_s": "s", "dynamics.sweep_points": "count",
    "dynamics.decompose_s": "s", "dynamics.norm_s": "s",
    "dynamics.rotate_self_s": "s", "dynamics.verify_s": "s",
    "config.parse_s": "s", "reporting.write_s": "s", "reporting.bytes": "B",
    "process.cpu_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}
# Layer totals reported as shares of the traced wall time, to check each
# workload's design from the trace.
SHARES = ("dynamics.sweep_s", "lattice.constants_s", "chains.dp_s",
          "bounds.series_s", "operators.eigvalsh_s", "dynamics.rotate_self_s")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _threads(nproc: int) -> int:
    try:
        n = int(os.environ.get("LRLAB_THREADS") or nproc)
    except ValueError:
        n = nproc
    return max(1, min(n, nproc))


def child_env(nproc: int) -> dict:
    """Environment of every sample: BLAS threads pinned to at most nproc."""
    env = dict(os.environ)
    n = str(_threads(nproc))
    env["LRLAB_THREADS"] = n
    for var in THREAD_VARS:
        env[var] = n
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(env: dict, nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: env[v] for v in ("LRLAB_THREADS",) + THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
    }


def run_sample(workload: str, seed: int, trace: bool, sample: Path,
               env: dict, timeout: float) -> tuple:
    """Run the workload once in a fresh process, with its files in the new
    directory `sample`; returns (job, result)."""
    sample.mkdir(parents=True)
    job = workloads.make_job(workload, seed, sample)
    job.update(root=str(ROOT), trace=trace, result=str(sample / "result.json"))
    if job["kind"] == "cli":
        cfg = sample / "config.json"
        cfg.write_text(json.dumps(job["config"]))
        job["argv"] = [job["command"], "--config", str(cfg), "--out", job["out"]]
    job_path = sample / "job.json"
    job_path.write_text(json.dumps(job))
    with open(sample / "log.txt", "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=sample, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = Path(job["result"])
    if not result_path.exists():
        tail = (sample / "log.txt").read_text()[-2000:]
        return job, {"rc": proc.returncode or 1, "log": tail}
    result = json.loads(result_path.read_text())
    if result["setup_done"] is None:  # exited before building a model
        return job, {"rc": result["rc"] or 1, "log": "no model was built"}
    result["wall_s"] = result["done"] - launched
    result["setup_s"] = result["setup_done"] - launched
    return job, result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            env: dict) -> tuple:
    """Samples while another one fits in `seconds` (at least one of each
    kind), so that a run takes about `seconds` whatever a sample costs.

    Returns the timed untraced and traced results, the number of samples
    attempted and the number that failed.
    """
    reference = json.loads((HERE / "reference.json").read_text())
    brute_cache = {}
    plain, traced, failed = [], [], 0
    durations = []  # of each sample with its checks
    start = time.monotonic()
    index = 0
    while (not plain or (trace and not traced) or time.monotonic() - start
           + statistics.median(durations) <= seconds):
        as_traced = trace and index % 2 == 1
        began = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        sample = WORK / f"{workload}-{index}"
        job, result = run_sample(workload, seed, as_traced, sample, env, timeout)
        errors = workloads.check(workload, seed, job, result, reference,
                                 brute_cache)
        if result.get("missing"):
            print(f"# trace targets not found: {result['missing']}",
                  file=sys.stderr)
        if "wall_s" in result:
            # Timed even when the workload reported a failure or a check
            # failed; `correct` then reports it.
            print(f"# sample {index}{' traced' if as_traced else ''}: wall "
                  f"{result['wall_s']:.3f} s, setup {result['setup_s']:.3f} s, "
                  f"peak {result['peak_rss_mb']:.1f} MB, "
                  f"cpu {result['cpu_s']:.3f} s", file=sys.stderr)
            (traced if as_traced else plain).append(result)
        if errors:
            failed += 1
            print(f"# sample {index} FAILED: " + "; ".join(errors[:5]),
                  file=sys.stderr)
            if "log" in result:
                print(result["log"], file=sys.stderr)
        shutil.rmtree(sample, ignore_errors=True)
        durations.append(time.monotonic() - began)
        index += 1
        if (index >= 2 and not plain and not traced
                or time.monotonic() - start >= RUN_LIMIT_S):
            break
    return plain, traced, index, failed


def end_to_end(plain: list) -> dict:
    return {k: statistics.median(r[k] for r in plain) for k in END_TO_END_UNITS}


def per_layer(plain: list, traced: list) -> dict:
    per_run = [tracer.layer_metrics(r["spans"]) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(r["wall_s"] for r in plain))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lrlab" / "cli.py").is_file():
        print(f"error: no lrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an exception, so the running sample is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = _nproc()
    env = child_env(nproc)
    load_start = os.getloadavg()
    try:
        plain, traced, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not plain or (args.trace and not traced):
        print("error: no sample of the workload completed", file=sys.stderr)
        return 1

    record = environment(env, nproc)
    record.update(load_avg_start=load_start, load_avg_end=os.getloadavg(),
                  workload=args.workload, seed=args.seed,
                  samples={"untraced": len(plain), "traced": len(traced)})
    print("# env " + json.dumps(record, sort_keys=True))
    if args.trace:
        values, units = per_layer(plain, traced), LAYER_UNITS
        wall = values["trace.wall_s"]
        print("# share of traced wall: " + ", ".join(
            f"{k} {values[k] / wall:.1%}" for k in SHARES))
    else:
        values, units = end_to_end(plain), END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
