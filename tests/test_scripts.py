"""The study scripts keep the README's exit codes.

Exit 1 means a failed check or a bound violation, so a bad argument or an
invalid config must exit 2 with a message, not 1 with a traceback.  Each
once did: `run_dicke_truncation.py` died inside the library on a truncation
below 2, a chain too short for its end modes and a negative lambda, and
`run_tfim_verify.py` read a `verification.json` that a failed `verify` had
not written (a `FileNotFoundError`, or an earlier run's summary printed as
its own).  Others exited 0 on an input they cannot use (no truncation, a
non-finite field or time, a negative occupation cap) and wrote an empty or
NaN study as a success, and `run_tfim_verify.py` left a rejected config in
--out.  `run_dicke_truncation.py` also died with exit 1 on an --out that is a
file, and on an occupation cap whose sweep needs a Hamiltonian above the
dense cap, after making an empty --out.

The artifact matrix's docstring counts its runs; the count is checked
against the run table, in process.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENV = dict(
    os.environ,
    LRLAB_THREADS="1",
    PYTHONPATH=os.pathsep.join(
        [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    ),
)


def _run(script, *args, out):
    # --out comes first, so that a case can name its own.
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(out), *args],
        env=ENV, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("--truncations", "1"),
        ("--truncations", "2", "1"),
        ("--length", "1"),
        ("--length", "2"),
        ("--lambda", "-1"),
        ("--lambda", "nan"),
        ("--length", "3", "--occupation-cap", "1", "--points", "1"),
        ("--truncations",),
        ("--h", "nan"),
        ("--h", "inf"),
        ("--h", "0"),
        ("--time", "nan"),
        ("--time", "inf"),
        ("--length", "3", "--occupation-cap", "1", "--t-max", "nan"),
        ("--t-max", "0"),
        ("--occupation-cap", "-1"),
        # (2 m)^5 = 32768 at m = 4, above the 2^14 dense cap
        ("--length", "5", "--truncations", "4", "--occupation-cap", "1"),
        ("--out", "{file}"),
        ("--out", "{file}/out"),
    ],
    ids=["truncation1", "truncations2-1", "length1", "length2", "lambda-1",
         "lambda-nan", "points1", "truncations-empty", "h-nan", "h-inf", "h0",
         "time-nan", "time-inf", "t-max-nan", "t-max0", "occupation-cap-1",
         "cap-over-limit", "out-file", "out-under-file"],
)
def test_dicke_truncation_rejects_bad_arguments(tmp_path, args):
    out = tmp_path / "out"
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    args = [a.replace("{file}", str(blocker)) for a in args]
    proc = _run("run_dicke_truncation.py", *args, out=out)
    assert proc.returncode == 2, proc.stderr
    assert "run_dicke_truncation.py: error: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert blocker.read_text() == "kept"


def test_tfim_verify_rejects_a_short_chain(tmp_path):
    out = tmp_path / "out"
    proc = _run("run_tfim_verify.py", "--length", "4", out=out)
    assert proc.returncode == 2, proc.stderr
    assert "need at least 5 sites" in proc.stderr
    assert not out.exists()


def test_tfim_verify_exits_2_on_a_config_error(tmp_path):
    # Into a fresh directory, and into one that holds an earlier run, whose
    # config must keep its bytes: a rejected config is never written.
    out = tmp_path / "out"
    for earlier in (False, True):
        if earlier:
            good = _run("run_tfim_verify.py", "--length", "5", "--t-max", "0.5",
                        "--points", "3", out=out)
            assert good.returncode == 0, good.stderr
            assert "artifacts in" in good.stdout
            config = (out / "config.json").read_bytes()
        proc = _run("run_tfim_verify.py", "--lambda", "-1", out=out)
        assert proc.returncode == 2, proc.stderr
        assert "config invalid at 'lambda'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert (out / "verification.json").exists() == earlier
        if earlier:
            assert (out / "config.json").read_bytes() == config
        else:
            assert not out.exists()


def test_artifact_matrix_docstring_counts_its_distinct_runs(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "artifact_matrix", SCRIPTS / "artifact_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    said = re.search(
        r"That is (\d+) runs: (\d+) commands on (\d+) configs, and (\d+) script runs\.",
        " ".join(matrix.__doc__.split()),
    )
    total, commands, configs, scripts = map(int, said.groups())
    shipped = [p.stem for p in (SCRIPTS.parent / "configs").glob("*.json")]
    assert len(matrix.COMMANDS) == commands
    assert len(shipped) + len(matrix.WRITTEN_CONFIGS) == configs
    assert len(matrix.SCRIPT_RUNS) == scripts
    assert len(matrix.COMMANDS) * configs + scripts == total
    # The run names, as `runs` gives them for the configs it would write.
    (tmp_path / "configs").mkdir()
    for name in (*shipped, *matrix.WRITTEN_CONFIGS):
        (tmp_path / "configs" / f"{name}.json").write_text("{}")
    names = [name for name, _ in matrix.runs(tmp_path)]
    assert len(set(names)) == len(names) == total
