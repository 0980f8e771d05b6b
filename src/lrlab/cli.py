"""Command line front end.

Subcommands: check, constants, chains, bound, simulate, verify.  Each takes
--config (JSON, validated against the shipped schema), and each but check,
which writes nothing, takes --out for the artifact directory; every run
setting, the decay rate lambda included, comes from the config alone.  Exit
codes: 0 success, 1 a checked invariant or bound failed, 2 usage, config or
file errors (a non-positive or non-finite lambda, a --config that cannot be
read and an --out that cannot be made a directory included), 3 a numerical
failure (an overflowing bound included).

LRLAB_THREADS is translated into the BLAS thread-count variables on
`import lrlab`.  The model, lattice and bound modules are imported inside the
commands that use them, so a command loads only what it needs.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _setup(cfg: RunConfig, constants: bool = True):
    """(model, adjacency, constants) for one command.

    The noncommuting adjacency is built once and shared by everything the
    command computes from it; both it and the constants are None when
    `constants` is false.
    """
    from .lattice import compute_bound_constants, noncommuting_adjacency
    from .models import build_model

    m = cfg.model
    params = {key: getattr(m, key) for key in MODEL_PARAMS[m.name]}
    model = build_model(m.name, m.length, **params)
    if not constants:
        return model, None, None
    adj = noncommuting_adjacency(model, projected=cfg.projected)
    consts = compute_bound_constants(model, adj, lam=cfg.lam)
    return model, adj, consts


def _pauli(name: str):
    from . import models

    return {"X": models.PAULI_X, "Y": models.PAULI_Y, "Z": models.PAULI_Z}[name]


def _observables(cfg: RunConfig, model):
    """(O_P, the O_Q list, each O_Q's separation from O_P by label)."""
    from .lattice import observable_from_sites, region_distance

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
            model, (site,), _pauli(pauli), label=f"{pauli}@{site}"
        )

    op = one(o.op_site, o.op_pauli, "op_site")
    oq_sites = o.oq_sites or (n - 1,)
    oqs = [one(s, o.oq_pauli, "oq_sites", i) for i, s in enumerate(oq_sites)]
    seps = {
        oq.label: region_distance(model.graph, op.support, oq.support) for oq in oqs
    }
    return op, oqs, seps


def _matching_term_scale(model, obs):
    """Global id and scale for a term equal to `obs.payload` up to a factor.

    The series route bounds commutators of Hamiltonian terms, so the
    observable must coincide with one (up to scale) for it to apply.
    """
    import numpy as np

    for gid, term in enumerate(model.terms):
        if term.support.sites != obs.support.sites:
            continue
        t_scale = float(np.abs(term.payload).max())
        o_scale = float(np.abs(obs.payload).max())
        if t_scale == 0.0 or o_scale == 0.0:
            continue
        alpha = o_scale / t_scale
        if np.allclose(obs.payload, alpha * term.payload, atol=1e-12):
            return gid, alpha
    return None, None


def _fallback_start(model, obs):
    for gid, term in enumerate(model.terms):
        if set(obs.support.sites) <= set(term.support.sites):
            return gid
    raise invalid(
        ("observables", "op_site"),
        f"no Hamiltonian term touches sites {obs.support.sites}",
    )


def _cmd_check(cfg: RunConfig) -> int:
    from .lattice import validate_two_family

    model, _, _ = _setup(cfg, constants=False)
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
    _, _, consts = _setup(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "constants.json", consts.as_dict())
    for key, val in sorted(consts.as_dict().items()):
        print(f"{key} = {val}")
    return 0


def _cmd_chains(cfg: RunConfig, out: Path) -> int:
    from .chains import closed_form_chain_bound, count_chains_dp
    from .lattice import region, region_distance

    model, adj, consts = _setup(cfg)
    op, oqs, _ = _observables(cfg, model)
    start, _ = _matching_term_scale(model, op)
    if start is None:
        start = _fallback_start(model, op)
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
    """Per-method (t, oq_label) -> bound callables for the configured
    observables at `seps`; each O_Q gets its own chain table and conditions."""
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
        start, alpha_p = _matching_term_scale(model, op)
        if start is None:
            raise ConfigError(
                "method 'series_exact_cn' needs O_P to match a Hamiltonian "
                "term up to scale"
            )
        t_max = max(abs(t) for t in cfg.time_grid.times())
        n_max = series_terms_needed(consts, t_max, cfg.series_tol)
        tables = {}
        scales = {}
        for oq in oqs:
            tgt, alpha_q = _matching_term_scale(model, oq)
            if tgt is None:
                raise ConfigError(
                    "method 'series_exact_cn' needs O_Q to match a "
                    "Hamiltonian term up to scale"
                )
            tables[oq.label] = count_chains_dp(adj, start, oq.support, n_max)
            scales[oq.label] = abs(alpha_p) * abs(alpha_q)
        fns["series_exact_cn"] = lambda t, label: scales[label] * series_bound(
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
    model, adj, consts = _setup(cfg)
    op, oqs, seps = _observables(cfg, model)
    fns = _bound_functions(cfg, model, adj, consts, op, oqs, seps)
    times = cfg.time_grid.times()
    rows = []
    for method, fn in sorted(fns.items()):
        for oq in oqs:
            d = seps[oq.label]
            if method in ("observable", "bounded_reference") and d <= consts.R:
                continue
            for t in times:
                rows.append((method, d, float(t), float(fn(t, oq.label)), oq.label))
    # Only the observable-route methods skip a pair, so no row means they
    # were all the methods and every O_Q lay within R: as in verify, a run
    # that computes nothing is a config error rather than a success.
    if not rows:
        raise invalid(
            ("observables", "oq_sites"),
            f"every O_Q lies within R = {consts.R} of O_P, so methods "
            f"{sorted(fns)} would write no value",
        )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "bounds.csv", ("method", "d", "t", "value", "oq"), rows)
    write_json(out / "constants.json", consts.as_dict())
    print(f"wrote {len(rows)} bound values for methods {sorted(fns)}")
    return 0


def _run_sweep(cfg: RunConfig, model, op, oqs):
    from .dynamics import commutator_norm_sweep, free_fermion_sweep
    from .lattice import occupation_projector_diagonal

    o = cfg.observables
    if model.name == "tfim" and o.op_pauli == o.oq_pauli == "Z":
        # Exact and O(L^3); the TFIM has no boson sites to project.
        return free_fermion_sweep(model, op, oqs, cfg.time_grid.times())
    projector = None
    if cfg.occupation_cap is not None:
        projector = occupation_projector_diagonal(model, cfg.occupation_cap)
    return commutator_norm_sweep(
        model, op, oqs, cfg.time_grid.times(), projector_diag=projector
    )


def _write_simulation(out: Path, sweep) -> None:
    write_csv(
        out / "simulation.csv",
        ("d", "t", "measured", "oq"),
        [(p.d, p.t, p.value, p.oq) for p in sweep.points],
    )


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    model, _, _ = _setup(cfg, constants=False)
    op, oqs, _ = _observables(cfg, model)
    sweep = _run_sweep(cfg, model, op, oqs)
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
    from .dynamics import extract_velocity, verify_bound

    model, adj, consts = _setup(cfg)
    op, oqs, seps = _observables(cfg, model)
    # Separations d <= R are not scored; a run that scores nothing proves
    # nothing, so it is a config error rather than a PASS.
    if max(seps.values()) <= consts.R:
        raise invalid(
            ("observables", "oq_sites"),
            f"every O_Q lies within R = {consts.R} of O_P, so verify would "
            "score no point",
        )
    fns = _bound_functions(cfg, model, adj, consts, op, oqs, seps)
    sweep = _run_sweep(cfg, model, op, oqs)
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
        [
            (r.method, r.d, r.t, r.measured, r.bound, r.margin, r.oq)
            for r in report.rows
        ],
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
            "row_count": len(report.rows),
            "constants": consts.as_dict(),
            "velocity": velocity,
        },
    )
    for method in sorted(fns):
        margins = [r.margin for r in report.rows if r.method == method]
        worst = min(margins) if margins else float("inf")
        print(f"{method}: {len(margins)} points, worst margin {worst:.3e}")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "check":
            return _cmd_check(cfg)
        return _WRITERS[args.command](cfg, args.out)
    except (NumericalError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
