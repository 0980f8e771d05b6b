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
    """(model, O_P, the O_Q list, each O_Q's separation from O_P by label)."""
    from .lattice import observable_from_sites, region_distance
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
    seps = {
        oq.label: region_distance(model.graph, op.support, oq.support) for oq in oqs
    }
    return model, op, oqs, seps


# The methods that hold, and write rows, only at separations d > R.
_BEYOND_R = {"observable", "bounded_reference"}


def _check_methods(cfg: RunConfig, model, op, oqs, seps, verify: bool) -> None:
    """Raise the refusals of a bound or verify run that its model and
    observables decide.  Separations d <= R are not scored, and the
    `_BEYOND_R` methods write no row there and need v_LR > 0 beyond it."""
    R = model.locality_radius
    if max(seps.values()) <= R and (verify or set(cfg.methods) <= _BEYOND_R):
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
    if model.decoupled and _BEYOND_R & set(cfg.methods) and max(seps.values()) > R:
        from .lattice import ZERO_VELOCITY_REFUSAL

        raise ValueError(ZERO_VELOCITY_REFUSAL)


def _cmd_check(cfg: RunConfig) -> int:
    from .lattice import validate_two_family

    model = _model(cfg)
    report = validate_two_family(model)
    print(
        f"{model.name}: {len(model.family0)} family-0 terms, "
        f"{len(model.family1)} family-1 terms, dim {model.hilbert_dim}"
    )
    if report.passed:
        print("structure OK")
        return 0
    for line in report.failures:
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
    d0 = region_distance(model.graph, adj.supports[start], target)
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


def _bound_functions(cfg: RunConfig, model, adj, consts, op, oqs, seps):
    """Per-method (t, oq_label) -> bound callables for observables that
    `_check_methods` passed; each O_Q gets its own chain table and conditions."""
    from .bounds import (
        bounded_reference_bound,
        closed_form_bound,
        observable_bound,
        series_bound,
        series_terms_needed,
    )
    from .chains import count_chains_dp
    from .lattice import observable_conditions
    from .operators import spectral_norm

    fns = {}

    if "closed_form" in cfg.methods:
        fns["closed_form"] = lambda t, label: closed_form_bound(consts, t, seps[label])

    if "series_exact_cn" in cfg.methods:
        start = model.term_id(op)
        t_max = max(abs(t) for t in cfg.time_grid.times())
        n_max = series_terms_needed(consts, t_max, cfg.series_tol)
        tables = {
            oq.label: count_chains_dp(adj, start, oq.support, n_max) for oq in oqs
        }
        fns["series_exact_cn"] = lambda t, label: series_bound(
            consts, tables[label], t, tol=cfg.series_tol
        )

    if "observable" in cfg.methods or "bounded_reference" in cfg.methods:
        conds = {
            oq.label: observable_conditions(model, op, oq, consts, adj)
            for oq in oqs
            if seps[oq.label] > consts.R
        }
        if "observable" in cfg.methods:
            fns["observable"] = lambda t, label: observable_bound(
                consts, conds[label], t
            )
        if "bounded_reference" in cfg.methods:
            op_norm = spectral_norm(op.payload, structure="hermitian")
            oq_norms = {
                oq.label: spectral_norm(oq.payload, structure="hermitian")
                for oq in oqs
            }
            fns["bounded_reference"] = lambda t, label: bounded_reference_bound(
                consts, op_norm, oq_norms[label], conds[label].n_P, t, seps[label]
            )
    return fns


def _cmd_bound(cfg: RunConfig, out: Path) -> int:
    model, op, oqs, seps = _observables(cfg)
    _check_methods(cfg, model, op, oqs, seps, verify=False)
    adj, consts = _constants(cfg, model)
    fns = _bound_functions(cfg, model, adj, consts, op, oqs, seps)
    times = cfg.time_grid.times()
    rows = []
    for method, fn in sorted(fns.items()):
        for oq in oqs:
            d = seps[oq.label]
            if method in _BEYOND_R and d <= consts.R:
                continue
            for t in times:
                rows.append((method, d, float(t), float(fn(t, oq.label)), oq.label))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "bounds.csv", ("method", "d", "t", "value", "oq"), rows)
    write_json(out / "constants.json", consts.as_dict())
    print(f"wrote {len(rows)} bound values for methods {sorted(fns)}")
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
    _check_methods(cfg, model, op, oqs, seps, verify=True)
    adj, consts = _constants(cfg, model)
    fns = _bound_functions(cfg, model, adj, consts, op, oqs, seps)
    sweep = exact_sweep(model, op, oqs, cfg.time_grid.times(), cfg.occupation_cap)
    report = verify_bound(sweep, fns, min_separation=consts.R, slack=cfg.slack)

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
            "methods": sorted(fns),
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
