"""The study scripts keep the README's exit codes.

Exit 1 means a failed check or a bound violation, so a bad argument or an
invalid config must exit 2 with a message, not 1 with a traceback.  Each
once did: `run_dicke_truncation.py` died inside the library on a truncation
below 2, a chain too short for its end modes and a negative lambda, and
`run_tfim_verify.py` read a `verification.json` that a failed `verify` had
not written (a `FileNotFoundError`, or an earlier run's summary printed as
its own).
"""

from __future__ import annotations

import os
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
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
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
    ],
    ids=["truncation1", "truncations2-1", "length1", "length2", "lambda-1",
         "lambda-nan", "points1"],
)
def test_dicke_truncation_rejects_bad_arguments(tmp_path, args):
    out = tmp_path / "out"
    proc = _run("run_dicke_truncation.py", *args, out=out)
    assert proc.returncode == 2, proc.stderr
    assert "run_dicke_truncation.py: error: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_tfim_verify_rejects_a_short_chain(tmp_path):
    out = tmp_path / "out"
    proc = _run("run_tfim_verify.py", "--length", "4", out=out)
    assert proc.returncode == 2, proc.stderr
    assert "need at least 5 sites" in proc.stderr
    assert not out.exists()


def test_tfim_verify_exits_2_on_a_config_error(tmp_path):
    # Into a fresh directory, and into one that holds an earlier run.
    out = tmp_path / "out"
    for earlier in (False, True):
        if earlier:
            good = _run("run_tfim_verify.py", "--length", "5", "--t-max", "0.5",
                        "--points", "3", out=out)
            assert good.returncode == 0, good.stderr
            assert "artifacts in" in good.stdout
        proc = _run("run_tfim_verify.py", "--lambda", "-1", out=out)
        assert proc.returncode == 2, proc.stderr
        assert "config invalid at 'lambda'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert (out / "verification.json").exists() == earlier
