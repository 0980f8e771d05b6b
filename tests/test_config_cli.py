"""Config parsing, schema validation, CLI exit codes, artifact determinism."""

from __future__ import annotations

import copy
import csv
import errno
import json
import math
import os
from pathlib import Path

import pytest

import lrlab
from lrlab import cli
from lrlab.config import ConfigError, parse_config

COMMANDS = ("check", "constants", "chains", "bound", "simulate", "verify")

GOOD = {
    "model": {"name": "tfim", "length": 5},
    "observables": {
        "op_site": 0,
        "op_pauli": "Z",
        "oq_sites": [3, 4],
        "oq_pauli": "Z",
    },
    "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
    "methods": ["closed_form", "series_exact_cn"],
}


def _write(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, {"model": {"name": "tfim", "length": 4}}))
    assert cfg.model.j == 1.0
    assert cfg.model.g == 1.0
    assert cfg.observables.op_site == 0
    assert cfg.time_grid.points == 61
    assert cfg.lam is None
    assert cfg.slack == 1e-9
    assert cfg.projected is False


def test_parse_config_full(tmp_path):
    raw = dict(GOOD)
    raw["lambda"] = 0.75
    cfg = parse_config(_write(tmp_path, raw))
    assert cfg.lam == 0.75
    assert cfg.observables.oq_sites == (3, 4)
    assert cfg.time_grid.times()[-1] == 1.0


def test_unknown_key_named_in_error(tmp_path):
    raw = dict(GOOD)
    raw["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(_write(tmp_path, raw))


def test_wrong_type_names_path(tmp_path):
    raw = {"model": {"name": "tfim", "length": "ten"}}
    with pytest.raises(ConfigError, match="model/length"):
        parse_config(_write(tmp_path, raw))


def test_bad_model_name_rejected(tmp_path):
    raw = {"model": {"name": "heisenberg", "length": 4}}
    with pytest.raises(ConfigError, match="model/name"):
        parse_config(_write(tmp_path, raw))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")
    p = tmp_path / "broken.json"
    p.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(p)


def test_thread_env_translation(monkeypatch):
    for var in lrlab._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("LRLAB_THREADS", "1")
    lrlab._apply_thread_env()
    assert os.environ["OMP_NUM_THREADS"] == "2"  # an explicit setting wins
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["MKL_NUM_THREADS"] == "1"
    # OpenBLAS reads 0, a negative count or garbage as "every core", so only
    # a positive integer is copied; anything else is named and ignored.
    for bad in ("0", "-3", "abc", "1.5"):
        for var in lrlab._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("LRLAB_THREADS", bad)
        with pytest.warns(RuntimeWarning, match=f"LRLAB_THREADS='{bad}'"):
            lrlab._apply_thread_env()
        assert not any(var in os.environ for var in lrlab._THREAD_VARS)


def test_cli_verify_passes_and_is_deterministic(tmp_path):
    cfg = _write(tmp_path, GOOD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == [
        "constants.json",
        "simulation.csv",
        "verification.csv",
        "verification.json",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "verification.csv").read_text().splitlines()
    assert lines[0] == "method,d,t,measured,bound,margin,oq"
    assert lines[1].endswith(",Z@3")


def test_cli_verify_violated_bound_fails_with_exit_1(tmp_path, monkeypatch, capsys):
    # A closed form of 0 is broken by every nonzero measured norm.
    monkeypatch.setattr("lrlab.bounds.closed_form_bound", lambda consts, t, d: 0.0)
    cfg = _write(tmp_path, GOOD)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    summary = json.loads((out / "verification.json").read_text())
    assert summary["passed"] is False
    assert summary["worst_margin"] < -summary["slack"]


def test_cli_config_errors_exit_2(tmp_path, capsys):
    raw = dict(GOOD)
    raw["bogus"] = True
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err
    assert cli.main(["check", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_check_commuting_model(tmp_path):
    cfg = _write(tmp_path, {"model": {"name": "commuting_ising", "length": 5}})
    assert cli.main(["check", "--config", str(cfg)]) == 0


def test_cli_constants_writes_json(tmp_path):
    cfg = _write(tmp_path, {"model": {"name": "tfim", "length": 4}})
    out = tmp_path / "o"
    assert cli.main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["K"] == pytest.approx(2.0)
    assert data["R"] == 2
    assert data["zero_velocity"] is False


def test_cli_lambda_override(tmp_path):
    # The config's `lambda` replaces the default decay rate xi.
    raw = {"model": {"name": "tfim", "length": 4}, "lambda": 0.8}
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["lambda"] == 0.8


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_rejects_the_lambda_flag(tmp_path, capsys, command):
    # lambda has one source, the config; a flag would be a second.
    cfg = _write(tmp_path, GOOD)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--lambda", "0.5", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --lambda 0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
def test_cli_invalid_lambda_exits_2(tmp_path, capsys, lam):
    # The schema rejects -1 and 0, `parse_config` NaN and Infinity, before
    # any command runs: `check` and `simulate`, which never read lambda,
    # exit 2 too.
    cfg = _write(tmp_path, dict(GOOD, **{"lambda": float(lam)}))
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(_argv(command, cfg, out)) == 2, command
        assert capsys.readouterr().err.startswith("error: config invalid")
        assert not out.exists()


def _argv(command, cfg, out):
    """A run of `command` on `cfg`, writing to `out` (check writes nothing
    and takes no --out)."""
    argv = [command, "--config", str(cfg)]
    return argv if command == "check" else argv + ["--out", str(out)]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_file_errors_exit_2(tmp_path, capsys, command):
    # Exit 1 means a failed check: a --config that is a directory, and an
    # --out that is a file or lies under one, once exited 1 with a traceback.
    cfg = _write(tmp_path, GOOD)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    runs = [_argv(command, tmp_path, tmp_path / "o")]
    if command != "check":
        runs += [_argv(command, cfg, blocker), _argv(command, cfg, blocker / "o")]
    for argv in runs:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
    assert blocker.read_text() == "kept"
    assert not (tmp_path / "o").exists()


def test_cli_check_takes_no_out(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --out {out}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_uncertifiable_series_exits_3(tmp_path, capsys):
    raw = dict(GOOD)
    raw["time_grid"] = {"start": 0.0, "stop": 1e6, "points": 2}
    cfg = _write(tmp_path, raw)
    assert cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "series tail does not certify" in capsys.readouterr().err


def test_cli_overflowing_bound_exits_3(tmp_path, capsys):
    # lambda = 1000 puts e^{lambda/xi} = e^2000 into the closed form.
    raw = dict(GOOD, methods=["closed_form"])
    raw["lambda"] = 1000
    cfg = _write(tmp_path, raw)
    argv = ["bound", "--config", str(cfg), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "math range error" in capsys.readouterr().err


def test_cli_chains_csv_schema(tmp_path):
    raw = dict(GOOD)
    raw["chain_order"] = 6
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["chains", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "chains.csv").read_text().splitlines()
    assert lines[0] == "n,c_n,closed_form"
    assert len(lines) == 8  # header + orders 0..6
    extra = json.loads((out / "chains.json").read_text())
    assert set(extra) == {"counts", "n_max", "start", "target_sites"}
    assert set(extra["counts"]) == {str(n) for n in range(7)}


def test_cli_bound_and_simulate(tmp_path):
    cfg = _write(tmp_path, GOOD)
    out_b, out_s = tmp_path / "b", tmp_path / "s"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_s)]) == 0
    b_lines = (out_b / "bounds.csv").read_text().splitlines()
    assert b_lines[0] == "method,d,t,value,oq"
    s_lines = (out_s / "simulation.csv").read_text().splitlines()
    assert s_lines[0] == "d,t,measured,oq"
    meta = json.loads((out_s / "meta.json").read_text())
    assert meta["model"] == "tfim"
    assert meta["separations"] == [3, 4]


def test_cli_series_requires_matching_observable(tmp_path):
    raw = dict(GOOD)
    raw["observables"] = {"op_site": 0, "op_pauli": "X", "oq_sites": [3]}
    cfg = _write(tmp_path, raw)
    rc = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_pauli_on_boson_site_rejected(tmp_path):
    raw = {
        "model": {"name": "dicke_chain", "length": 2, "truncation": 3},
        "observables": {"op_site": 0, "oq_sites": [3]},
        "methods": ["closed_form"],
    }
    cfg = _write(tmp_path, raw)
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_runs_the_observable_methods_beyond_r(tmp_path, capsys):
    # R = 2 on the TFIM, so Z@2 is too close for the observable-route
    # methods: `bound` skips it for them and `verify` reports it excluded.
    raw = {
        "model": {"name": "tfim", "length": 7},
        "observables": {"op_site": 0, "oq_sites": [2, 3, 5]},
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 6},
        "methods": [
            "closed_form",
            "series_exact_cn",
            "observable",
            "bounded_reference",
        ],
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "b"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "bounds.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    seps = {"closed_form": [2, 3, 5], "series_exact_cn": [2, 3, 5]}
    seps.update(observable=[3, 5], bounded_reference=[3, 5])
    for method, ds in seps.items():
        mine = [r for r in rows if r["method"] == method]
        assert len(mine) == 6 * len(ds)
        assert sorted({int(r["d"]) for r in mine}) == ds
        assert all(0.0 <= float(r["value"]) < math.inf for r in mine)
    capsys.readouterr()
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "excluded separations d <= R: [2]" in lines
    assert lines[-1] == "PASS"


def test_cli_bound_scores_each_observable_at_equal_separation(tmp_path):
    # Z@1 and Z@9 both sit 4 sites from Z@5 on a 10-site chain, but Z@1 has
    # more chains reaching it (c_10 = 230 against 218 for the chain end), so
    # each must get its own series bound.
    from lrlab.bounds import series_bound, series_terms_needed
    from lrlab.chains import count_chains_dp
    from lrlab.lattice import compute_bound_constants, noncommuting_adjacency, region
    from lrlab.models import build_tfim

    raw = {
        "model": {"name": "tfim", "length": 10},
        "observables": {"op_site": 5, "oq_sites": [1, 9]},
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
        "methods": ["series_exact_cn"],
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "bounds.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["d"] for r in rows} == {"4"}

    model = build_tfim(10)
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    start = len(model.family0) + 5  # the field term Z@5
    n_max = max(12, series_terms_needed(consts, 1.0, 1e-9))
    got = {}
    for site in (1, 9):
        table = count_chains_dp(adj, start, region(model.graph, (site,)), n_max)
        assert table.counts[10] == {1: 230, 9: 218}[site]
        mine = [r for r in rows if r["oq"] == f"Z@{site}"]
        assert [float(r["t"]) for r in mine] == [0.0, 0.5, 1.0]
        for r in mine:
            expected = series_bound(consts, table, float(r["t"]), tol=1e-9)
            assert float(r["value"]) == pytest.approx(expected, rel=1e-12)
        got[site] = float(mine[-1]["value"])
    assert got[1] > got[9]


@pytest.mark.parametrize(
    "pauli,extra,route",
    [
        ("Z", {}, "free_fermion_sweep"),
        # The TFIM has no boson sites, so the cap changes nothing.
        ("Z", {"occupation_cap": 1}, "free_fermion_sweep"),
        ("X", {}, "commutator_norm_sweep"),
    ],
)
def test_cli_takes_the_free_fermion_sweep_for_tfim_z_runs_only(
    tmp_path, monkeypatch, pauli, extra, route
):
    from lrlab import dynamics

    calls = []
    for name in ("free_fermion_sweep", "commutator_norm_sweep"):
        fn = getattr(dynamics, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, recorded)
    raw = dict(GOOD, methods=["closed_form"], **extra)
    raw["observables"] = dict(GOOD["observables"], op_pauli=pauli, oq_pauli=pauli)
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == [route]


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return refused


# Small versions of the refusals that the config, the model and the
# observables decide: (config, the commands that make it, the error line).
REFUSALS = {
    "op-on-a-mode-site": (
        {"model": {"name": "dicke_chain", "length": 3, "truncation": 3},
         "projected": True},
        ("chains", "bound", "verify"),
        "config invalid at 'observables/op_site': Pauli observables need a "
        "2-dimensional site, site 0 has dimension 3",
    ),
    "series-with-x": (
        {"model": {"name": "tfim", "length": 6},
         "observables": {"op_site": 0, "op_pauli": "X", "oq_sites": [4, 5],
                         "oq_pauli": "X"}},
        ("bound", "verify"),
        "method 'series_exact_cn' needs O_P and every O_Q to be Hamiltonian terms",
    ),
    "observable-within-r": (
        {"model": {"name": "tfim", "length": 6},
         "observables": {"op_site": 0, "oq_sites": [1, 2]},
         "methods": ["observable"]},
        ("bound", "verify"),
        "config invalid at 'observables/oq_sites': every O_Q lies within R = 2 "
        "of O_P, so {}",
    ),
    "full-space-over-the-cap": (  # (2 m)^4 = 65536 at m = 8
        {"model": {"name": "dicke_chain", "length": 4, "truncation": 8},
         "observables": {"op_site": 1, "op_pauli": "X", "oq_sites": [7],
                         "oq_pauli": "X"},
         "methods": ["closed_form"], "projected": True, "occupation_cap": 1},
        ("verify",),
        "Hilbert dimension 65536 exceeds cap 16384",
    ),
}
WITHIN_R = {"bound": "methods ['observable'] would write no value",
            "verify": "verify would score no point"}


@pytest.mark.parametrize(
    "case,command",
    [(case, command) for case, (_, commands, _) in REFUSALS.items()
     for command in commands],
)
def test_cli_refuses_before_any_commutator_norm(
    tmp_path, monkeypatch, capsys, case, command
):
    from lrlab import lattice

    monkeypatch.setattr(lattice, "noncommuting_adjacency", _refuse("the adjacency"))
    monkeypatch.setattr(lattice, "operator_norm_on_union", _refuse("a norm"))
    raw, _, message = REFUSALS[case]
    raw = dict(raw, time_grid={"start": 0.0, "stop": 1.0, "points": 3})
    out = tmp_path / "o"
    argv = [command, "--config", str(_write(tmp_path, raw)), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: " + message.format(WITHIN_R.get(command))]
    assert not out.exists()


def test_cli_verify_records_crossings_at_one_time_as_unresolved(tmp_path):
    # Every point of the grid is at t = 2, where every O_Q is past the
    # threshold: there is no slope to fit.
    raw = {
        "model": {"name": "tfim", "length": 10},
        "observables": {"op_site": 0, "oq_sites": [3, 4, 5, 6, 7, 8]},
        "time_grid": {"start": 2.0, "stop": 2.0, "points": 3},
        "threshold": 1e-6,
    }
    out = tmp_path / "o"
    argv = ["verify", "--config", str(_write(tmp_path, raw)), "--out", str(out)]
    assert cli.main(argv) == 0
    velocity = json.loads((out / "verification.json").read_text())["velocity"]
    assert velocity["error"] == "cone not resolved: every crossing at t = 2.0"
    assert "v_emp" not in velocity


@pytest.mark.parametrize("command", ("simulate", "verify"))
def test_cli_checks_the_full_space_cap_before_building_the_projector(
    tmp_path, monkeypatch, capsys, command
):
    # 40 qubits: the projector diagonal alone would take 2^40 floats.
    from lrlab import dynamics, lattice

    for module in (dynamics, lattice):
        monkeypatch.setattr(
            module, "occupation_projector_diagonal", _refuse("the projector")
        )
    raw = {
        "model": {"name": "tfim", "length": 40},
        "observables": {
            "op_site": 0, "op_pauli": "X", "oq_sites": [5, 39], "oq_pauli": "X",
        },
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 2},
        "methods": ["closed_form"],
        "occupation_cap": 1,
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Hilbert dimension 1099511627776 exceeds cap 16384"]
    assert not out.exists()


def test_cli_simulates_a_capped_tfim_z_run_on_the_free_fermion_route(
    tmp_path, monkeypatch
):
    # The TFIM has no boson sites, so the cap builds no projector either.
    from lrlab import dynamics

    monkeypatch.setattr(
        dynamics, "occupation_projector_diagonal", _refuse("the projector")
    )
    monkeypatch.setattr(dynamics, "commutator_norm_sweep", _refuse("the full sweep"))
    raw = {
        "model": {"name": "tfim", "length": 64},
        "observables": {"op_site": 0, "oq_sites": [5, 63]},
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
        "occupation_cap": 1,
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["hilbert_dim"] == 2**64
    assert meta["occupation_cap"] == 1
    assert len((out / "simulation.csv").read_text().splitlines()) == 1 + 3 * 2


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "check"])
def test_cli_checks_out_before_building_the_model(
    tmp_path, monkeypatch, capsys, command
):
    from lrlab import models

    monkeypatch.setattr(models, "build_model", _refuse("build_model"))
    cfg = _write(tmp_path, GOOD)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    # The error mkdir itself raises, one `error:` line.
    for out, code in (
        (blocker, errno.EEXIST),
        (blocker / "o", errno.ENOTDIR),
        (blocker / "a" / "b", errno.ENOTDIR),
    ):
        assert cli.main(_argv(command, cfg, out)) == 2, out
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [Errno {code}] {os.strerror(code)}: '{out}'"]
    assert blocker.read_text() == "kept"


def test_cli_verify_tfim_past_the_full_hamiltonian_cap(tmp_path, capsys):
    # 128 sites is 2^128 dimensions; the free-fermion sweep needs 256 modes.
    raw = {
        "model": {"name": "tfim", "length": 128, "j": 1.0, "g": 1.0},
        "observables": {"op_site": 0, "oq_sites": list(range(3, 40, 3))},
        "time_grid": {"start": 0.0, "stop": 6.0, "points": 61},
        "methods": ["closed_form", "series_exact_cn"],
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    summary = json.loads((out / "verification.json").read_text())
    assert summary["passed"]
    assert summary["row_count"] == 2 * 13 * 61


# Each of these once FAILed: the couplings were counted twice in the rates,
# and a negative h0*h1 zeroed K.
@pytest.mark.parametrize("j,g", [(1.0, 0.6), (0.5, 0.5), (-1.0, 1.0)])
def test_cli_verify_passes_away_from_unit_couplings(tmp_path, capsys, j, g):
    raw = {
        "model": {"name": "tfim", "length": 16, "j": j, "g": g},
        "observables": {"op_site": 0, "oq_sites": list(range(3, 16))},
        "time_grid": {"start": 0.0, "stop": 4.0, "points": 41},
        "methods": ["closed_form", "series_exact_cn"],
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert json.loads((out / "verification.json").read_text())["passed"] is True


def test_cli_bound_ignores_the_sign_of_a_coupling(tmp_path):
    # Only |h0*h1| and the imbalance of |h0| and |h1| enter any bound.
    methods = ["closed_form", "series_exact_cn", "observable", "bounded_reference"]
    for j in (1.0, -1.0):
        raw = dict(
            GOOD,
            model={"name": "tfim", "length": 8, "j": j},
            observables=dict(GOOD["observables"], oq_sites=[3, 5, 7]),
            methods=methods,
        )
        cfg = _write(tmp_path, raw, name=f"j{j}.json")
        out = tmp_path / f"{j}"
        assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    plus = (tmp_path / "1.0" / "bounds.csv").read_bytes()
    assert (tmp_path / "-1.0" / "bounds.csv").read_bytes() == plus


def test_cli_verify_that_would_score_nothing_exits_2(tmp_path, capsys):
    # R = 2 on the TFIM, so both separations are excluded from scoring.
    raw = dict(
        GOOD,
        model={"name": "tfim", "length": 6},
        observables=dict(GOOD["observables"], oq_sites=[1, 2]),
    )
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config invalid at 'observables/oq_sites'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "methods", [["observable"], ["observable", "bounded_reference"]]
)
def test_cli_bound_that_would_write_nothing_exits_2(tmp_path, capsys, methods):
    # R = 2 on the TFIM, and the observable-route methods skip d <= R.
    raw = dict(
        GOOD,
        model={"name": "tfim", "length": 6},
        observables=dict(GOOD["observables"], oq_sites=[1, 2]),
        methods=methods,
    )
    cfg = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config invalid at 'observables/oq_sites'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bound_sizes_series_tables_by_the_tolerance_alone(tmp_path, monkeypatch):
    # chain_order sizes the `chains` table only; the series needs
    # series_terms_needed orders at the largest |t|, whatever chain_order says.
    from lrlab import chains
    from lrlab.bounds import series_terms_needed
    from lrlab.lattice import compute_bound_constants, noncommuting_adjacency
    from lrlab.models import build_tfim

    count = chains.count_chains_dp
    orders = []

    def counted(adj, start, target, n_max):
        orders.append(n_max)
        return count(adj, start, target, n_max)

    monkeypatch.setattr(chains, "count_chains_dp", counted)
    model = build_tfim(5)
    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    needed = series_terms_needed(consts, 1.0, 1e-9)
    written = []
    for chain_order in (200, 0):
        cfg = _write(tmp_path, dict(GOOD, chain_order=chain_order))
        out = tmp_path / str(chain_order)
        assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        written.append((out / "bounds.csv").read_bytes())
    assert orders == [needed] * 4  # two O_Q per run
    assert written[0] == written[1]


# json.loads reads NaN and Infinity, and the schema cannot see them: each of
# these once ran, to a FAIL, a PASS, NaN margins or an uncertified series.
# A 401-digit integer literal once ran too, to exit 3 ("int too large to
# convert to float") or, as lambda, through `check` to exit 0.
BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "key,literal",
    [
        ("slack", "NaN"),
        ("series_tol", "NaN"),
        ("lambda", "Infinity"),
        ("time_grid", '{"stop": Infinity}'),
        ("threshold", "1e400"),
        pytest.param("lambda", BEYOND_FLOAT, id="lambda-int401"),
        pytest.param(
            "model",
            f'{{"name": "tfim", "length": 5, "j": {BEYOND_FLOAT}}}',
            id="model-j-int401",
        ),
        pytest.param(
            "time_grid", f'{{"stop": {BEYOND_FLOAT}}}', id="time_grid-stop-int401"
        ),
    ],
)
def test_cli_non_finite_number_exits_2(tmp_path, capsys, key, literal):
    text = json.dumps(GOOD)[:-1] + f', "{key}": {literal}}}'
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(_argv(command, cfg, out)) == 2, command
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()


# json.loads keeps the last value of a repeated key, so a stale duplicate
# once ran silently with whichever came last.
@pytest.mark.parametrize(
    "key,text",
    [
        ("lambda", json.dumps(GOOD)[:-1] + ', "lambda": 0.5, "lambda": 2.0}'),
        ("model", json.dumps(GOOD)[:-1] + ', "model": {"name": "tfim", "length": 6}}'),
        ("j", json.dumps(GOOD).replace('"length": 5', '"length": 5, "j": 1, "j": 2')),
    ],
    ids=["lambda", "model", "model-j"],
)
def test_cli_repeated_key_exits_2(tmp_path, capsys, key, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(_argv(command, cfg, out)) == 2, command
        assert f"key {key!r} is repeated" in capsys.readouterr().err
        assert not out.exists()


def test_model_key_of_another_model_rejected(tmp_path, capsys):
    raw = dict(GOOD, model={"name": "tfim", "length": 5, "h": 0.5, "truncation": 7})
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert (
        "config invalid at 'model/h': model 'tfim' takes no 'h'"
        in capsys.readouterr().err
    )


def test_observable_on_a_mode_site_names_its_path(tmp_path, capsys):
    # Site 0 of the spin-boson chain is a mode, with no Pauli operators.
    raw = {
        "model": {"name": "dicke_chain", "length": 3, "truncation": 3},
        "observables": {"op_site": 0},
    }
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert (
        "config invalid at 'observables/op_site': Pauli observables need a "
        "2-dimensional site, site 0 has dimension 3"
    ) in capsys.readouterr().err


def test_oq_site_outside_the_model_names_its_index(tmp_path, capsys):
    raw = dict(GOOD, observables=dict(GOOD["observables"], oq_sites=[3, 9]))
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert (
        "config invalid at 'observables/oq_sites/1': site 9 outside model with 5 "
        "sites"
    ) in capsys.readouterr().err


def test_repeated_oq_site_rejected(tmp_path, capsys):
    raw = dict(GOOD, observables=dict(GOOD["observables"], oq_sites=[3, 3]))
    cfg = _write(tmp_path, raw)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "observables/oq_sites" in capsys.readouterr().err


TFIM_SMALL = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "tfim_small.json").read_text()
)


# JSON Schema counts 6.0 as an integer, so each of these passes validation;
# each once died with a TypeError traceback (exit 1, a failed check).
@pytest.mark.parametrize(
    "path,as_int,as_float,commands",
    [
        (("time_grid", "points"), 16, 16.0, ["verify"]),
        (("model", "length"), 6, 6.0, ["verify", "chains"]),
        (("observables", "op_site"), 0, 0.0, ["verify", "chains"]),
        (("observables", "oq_sites"), [3, 4, 5], [3.0, 4, 5], ["verify", "chains"]),
        (("chain_order",), 12, 12.0, ["chains"]),
    ],
    ids=["points", "length", "op_site", "oq_sites", "chain_order"],
)
def test_integer_valued_floats_run_as_integers(
    tmp_path, path, as_int, as_float, commands
):
    cfgs = []
    for name, value in (("int", as_int), ("float", as_float)):
        raw = copy.deepcopy(TFIM_SMALL)
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfgs.append(_write(tmp_path, raw, name=f"{name}.json"))
    assert cfgs[0].read_text() != cfgs[1].read_text()
    for command in commands:
        outs = [tmp_path / f"{command}-{cfg.stem}" for cfg in cfgs]
        for cfg, out in zip(cfgs, outs):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
