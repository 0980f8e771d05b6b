"""Command line front end.

Subcommands: check, constants, chains, bound, simulate, verify.  Each takes
--config (JSON, validated against the shipped schema), and each but check,
which writes nothing, takes --out for the artifact directory; every run
setting, the decay rate lambda included, comes from the config alone.  Exit
codes: 0 success, 1 a checked invariant or bound failed, 2 usage, config or
file errors (a non-positive or non-finite lambda, a --config that cannot be
read and an --out that cannot be made a directory included), 3 a numerical
failure (an overflowing bound included).

A command builds the model, then the observables, then raises every refusal
they decide, and only then takes a commutator norm.

LRLAB_THREADS is translated into the BLAS thread-count variables on
`import lrlab`.  The model, lattice and bound modules are imported inside the
commands, so a command loads only what it needs and finds the functions the
benchmark's probe puts in place after importing this module.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import os
import sys
from pathlib import Path

from .config import MODEL_PARAMS, ConfigError, RunConfig, invalid, parse_config
from .operators import NumericalError
from .reporting import write_csv, write_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrlab",
        description="Lieb-Robinson bounds for commutator-bounded lattice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "validate the model structure (intra-family commutation)",
        "constants": "extract bound constants (K, Q, nu, R, rates)",
        "chains": "count operator chains and write the coefficient table",
        "bound": "evaluate bound curves on the time grid",
        "simulate": "exact Heisenberg commutator norms on the time grid",
        "verify": "simulate, bound, and compare with margins",
    }
    for name, help_text in helps.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, type=Path, help="JSON run config")
        if name in _WRITERS:
            s.add_argument(
                "--out", type=Path, default=Path("out"), help="artifact directory"
            )
    return parser


def _model(cfg: RunConfig):
    from .models import build_model

    m = cfg.model
    params = {key: getattr(m, key) for key in MODEL_PARAMS[m.name]}
    return build_model(m.name, m.length, **params)


def _constants(cfg: RunConfig, model):
    """The noncommuting adjacency, built once, and the constants from it."""
    from .lattice import compute_bound_constants, noncommuting_adjacency

    adj = noncommuting_adjacency(model, projected=cfg.projected)
    return adj, compute_bound_constants(model, adj, lam=cfg.lam)


def _observables(cfg: RunConfig):
    """(model, O_P, the O_Q list, each O_Q's separation from O_P)."""
    from .lattice import observable_from_sites, region_distances
    from .models import PAULI_X, PAULI_Y, PAULI_Z

    model = _model(cfg)
    paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    o = cfg.observables
    n = model.graph.site_count

    def one(site: int, pauli: str, *path):
        path = ("observables", *path)
        if site >= n:
            raise invalid(path, f"site {site} outside model with {n} sites")
        if model.site_dims[site] != 2:
            raise invalid(
                path,
                f"Pauli observables need a 2-dimensional site, site {site} has "
                f"dimension {model.site_dims[site]}",
            )
        return observable_from_sites(
            model, (site,), paulis[pauli], label=f"{pauli}@{site}"
        )

    op = one(o.op_site, o.op_pauli, "op_site")
    oq_sites = o.oq_sites or (n - 1,)
    oqs = [one(s, o.oq_pauli, "oq_sites", i) for i, s in enumerate(oq_sites)]
    seps = region_distances(model.graph, op.support, [oq.support for oq in oqs])
    return model, op, oqs, seps


# The methods that hold, and write rows, only at separations d > R.
_BEYOND_R = {"observable", "bounded_reference"}


def _check_methods(cfg: RunConfig, model, op, oqs, seps, verify: bool) -> dict:
    """Raise the refusals of a bound or verify run that its model and
    observables decide, and return each method's columns: the indices of
    the O_Q it gets bounds for.

    The one rule for bound cells: a `_BEYOND_R` method covers only the O_Q
    at d > R, where it holds (and where it needs v_LR > 0), and so does
    every method of `verify`, which scores only there; the others cover
    every O_Q.
    """
    R = model.locality_radius
    far = tuple(i for i, d in enumerate(seps) if d > R)
    every = far if verify else tuple(range(len(oqs)))
    columns = {m: far if m in _BEYOND_R else every for m in cfg.methods}
    if not any(columns.values()):
        what = "verify would score no point" if verify else (
            f"methods {sorted(cfg.methods)} would write no value")
        raise invalid(("observables", "oq_sites"),
                      f"every O_Q lies within R = {R} of O_P, so {what}")
    if "series_exact_cn" in cfg.methods and any(
        model.term_id(o) is None for o in (op, *oqs)
    ):
        raise ConfigError("method 'series_exact_cn' needs O_P and every O_Q "
                          "to be Hamiltonian terms")
    if verify:
        from .dynamics import check_sweep

        check_sweep(model, (op, *oqs))
    if model.decoupled and any(columns[m] for m in _BEYOND_R & columns.keys()):
        from .lattice import ZERO_VELOCITY_REFUSAL

        raise ValueError(ZERO_VELOCITY_REFUSAL)
    return columns


def _cmd_check(cfg: RunConfig) -> int:
    from .lattice import validate_two_family

    model = _model(cfg)
    failures = validate_two_family(model)
    print(
        f"{model.name}: {len(model.family0)} family-0 terms, "
        f"{len(model.family1)} family-1 terms, dim {model.hilbert_dim}"
    )
    if not failures:
        print("structure OK")
        return 0
    for line in failures:
        print(f"FAIL {line}")
    return 1


def _cmd_constants(cfg: RunConfig, out: Path) -> int:
    _, consts = _constants(cfg, _model(cfg))
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "constants.json", consts.as_dict())
    for key, val in sorted(consts.as_dict().items()):
        print(f"{key} = {val}")
    return 0


def _cmd_chains(cfg: RunConfig, out: Path) -> int:
    from .chains import closed_form_chain_bound, count_chains_dp
    from .lattice import region, region_distance

    model, op, oqs, _ = _observables(cfg)
    adj, consts = _constants(cfg, model)
    # O_P's own term, or else the first term that meets it.
    start = model.term_id(op)
    if start is None:
        start = min(adj.touching(op.support))
    target = region(model.graph, [s for oq in oqs for s in oq.support.sites])
    table = count_chains_dp(adj, start, target, cfg.chain_order)
    out.mkdir(parents=True, exist_ok=True)
    d0 = region_distance(model.graph, model.terms[start].support, target)
    rows = [
        (n, table.counts[n], closed_form_chain_bound(consts, n, d0))
        for n in range(cfg.chain_order + 1)
    ]
    write_csv(out / "chains.csv", ("n", "c_n", "closed_form"), rows)
    write_json(
        out / "chains.json",
        {
            "start": start,
            "target_sites": list(target.sites),
            "n_max": cfg.chain_order,
            "counts": {str(n): table.counts[n] for n in table.counts},
        },
    )
    total = sum(table.counts.values())
    print(f"start term {start}, target sites {target.sites}")
    print(f"orders 0..{cfg.chain_order}: {total} chains")
    return 0


def _bound_grid(cfg: RunConfig, model, adj, consts, op, oqs, seps, columns):
    """{method: values}, values[k, j] the method's bound at the k-th time on
    oqs[columns[method][j]], for the columns `_check_methods` returned; each
    covered O_Q gets its own chain table and conditions."""
    import numpy as np

    from . import bounds
    from .chains import count_chains_dp
    from .lattice import observable_conditions
    from .operators import spectral_norm

    times = cfg.time_grid.times()
    if "series_exact_cn" in columns:
        start = model.term_id(op)
        n_max = bounds.series_terms_needed(consts, max(map(abs, times)), cfg.series_tol)
        tables = [count_chains_dp(adj, start, oqs[i].support, n_max)
                  for i in columns["series_exact_cn"]]
    # Both `_BEYOND_R` methods cover the same O_Q, those at d > R.
    far = columns.get("observable", columns.get("bounded_reference", ()))
    conds = {i: observable_conditions(model, op, oqs[i], consts, adj) for i in far}
    if "bounded_reference" in columns:
        op_norm, *oq_norms = [spectral_norm(o.payload, structure="hermitian")
                              for o in (op, *oqs)]

    grid = {}
    for method, cols in sorted(columns.items()):
        if method == "series_exact_cn":
            values = bounds.series_bound(consts, tables, times, cfg.series_tol)
        elif method == "closed_form":
            values = [[bounds.closed_form_bound(consts, t, seps[i]) for i in cols]
                      for t in times]
        elif method == "observable":
            values = [[bounds.observable_bound(consts, conds[i], t) for i in cols]
                      for t in times]
        else:
            values = [[bounds.bounded_reference_bound(
                consts, op_norm, oq_norms[i], conds[i].n_P, t, seps[i])
                for i in cols] for t in times]
        grid[method] = np.array(values).reshape(len(times), len(cols))
    return grid


def _cmd_bound(cfg: RunConfig, out: Path) -> int:
    model, op, oqs, seps = _observables(cfg)
    columns = _check_methods(cfg, model, op, oqs, seps, verify=False)
    adj, consts = _constants(cfg, model)
    grid = _bound_grid(cfg, model, adj, consts, op, oqs, seps, columns)
    times = cfg.time_grid.times()
    rows = []
    for method, values in grid.items():
        for i, column in zip(columns[method], values.T.tolist()):
            oq = oqs[i].label
            rows.extend((method, seps[i], t, v, oq) for t, v in zip(times, column))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "bounds.csv", ("method", "d", "t", "value", "oq"), rows)
    write_json(out / "constants.json", consts.as_dict())
    print(f"wrote {len(rows)} bound values for methods {sorted(grid)}")
    return 0


def _write_simulation(out: Path, sweep) -> None:
    grid = itertools.product(sweep.times, zip(sweep.separations, sweep.oq_labels))
    write_csv(
        out / "simulation.csv",
        ("d", "t", "measured", "oq"),
        ((d, t, v, oq) for (t, (d, oq)), v in zip(grid, sweep.points.tolist())),
    )


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    from .dynamics import exact_sweep

    model, op, oqs, _ = _observables(cfg)
    sweep = exact_sweep(model, op, oqs, cfg.time_grid.times(), cfg.occupation_cap)
    out.mkdir(parents=True, exist_ok=True)
    _write_simulation(out, sweep)
    write_json(
        out / "meta.json",
        {
            "model": model.name,
            "hilbert_dim": sweep.hilbert_dim,
            "op": sweep.op_label,
            "oq": list(sweep.oq_labels),
            "separations": list(sweep.separations),
            "time_points": len(sweep.times),
            "occupation_cap": cfg.occupation_cap,
        },
    )
    print(
        f"swept {len(sweep.times)} times x {len(oqs)} observables "
        f"on dim {sweep.hilbert_dim}"
    )
    return 0


def _cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .dynamics import exact_sweep, extract_velocity, verify_bound

    model, op, oqs, seps = _observables(cfg)
    columns = _check_methods(cfg, model, op, oqs, seps, verify=True)
    adj, consts = _constants(cfg, model)
    grid = _bound_grid(cfg, model, adj, consts, op, oqs, seps, columns)
    sweep = exact_sweep(model, op, oqs, cfg.time_grid.times(), cfg.occupation_cap)
    (scored,) = set(columns.values())  # the O_Q at d > R, for every method
    report = verify_bound(sweep, scored, grid, slack=cfg.slack)

    try:
        vel = extract_velocity(sweep, threshold=cfg.threshold)
        velocity = dict(dataclasses.asdict(vel), v_lr=consts.v_lr)
    except ValueError as e:
        velocity = {"error": str(e), "v_lr": consts.v_lr}

    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "constants.json", consts.as_dict())
    _write_simulation(out, sweep)
    write_csv(
        out / "verification.csv",
        ("method", "d", "t", "measured", "bound", "margin", "oq"),
        report.rows(),
    )
    write_json(
        out / "verification.json",
        {
            "model": model.name,
            "passed": report.passed,
            "slack": report.slack,
            "worst_margin": report.worst_margin(),
            "excluded_separations": list(report.excluded_separations),
            "methods": sorted(grid),
            "row_count": report.bounds.size,
            "constants": consts.as_dict(),
            "velocity": velocity,
        },
    )
    for method, margins in zip(report.methods, report.margins):
        worst = margins.min() if margins.size else float("inf")
        print(f"{method}: {margins.size} points, worst margin {worst:.3e}")
    if report.excluded_separations:
        print(f"excluded separations d <= R: {list(report.excluded_separations)}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


# The commands that write artifacts, into --out; check writes nothing.
_WRITERS = {
    "constants": _cmd_constants,
    "chains": _cmd_chains,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def _check_out(out: Path) -> None:
    """Raise the OSError that making `out` a directory would raise, before
    any computation and without creating anything."""
    for path in (out, *out.parents):
        if path.is_dir():
            return
        if path.exists():
            code = errno.EEXIST if path == out else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "check":
            return _cmd_check(cfg)
        _check_out(args.out)
        return _WRITERS[args.command](cfg, args.out)
    except (NumericalError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
