"""Truncation study for the Dicke-type spin-boson chain.

For each Fock truncation m the script reports the raw and interior-projected
bound constants, the quadrature observable bound (truncation-independent by
construction), and the norm-based reference prefactor (which grows with m).
With --occupation-cap it also sweeps the exact commutator norm of adjacent
spin observables restricted to the low-occupancy sector, to show the
dynamics itself has converged in m.  Adjacent spins are the only interesting
pair here: because the Hamiltonian rewrites as a sum of mutually commuting
terms, Heisenberg supports stop growing after one layer of terms and every
longer-range commutator vanishes identically (the bounds hold with room to
spare).

Usage:
  python scripts/run_dicke_truncation.py
  python scripts/run_dicke_truncation.py --length 3 --occupation-cap 1 --t-max 2
  LRLAB_THREADS=1 python scripts/run_dicke_truncation.py
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=4, help="number of spins")
    ap.add_argument("--truncations", type=int, nargs="*", default=[2, 3, 4, 5])
    ap.add_argument("--h", type=float, default=1.0)
    ap.add_argument("--time", type=float, default=1.0, help="bound evaluation time")
    ap.add_argument("--lambda", dest="lam", type=float, default=None)
    ap.add_argument("--occupation-cap", type=int, default=None)
    # short horizon: with m <= 6 the capped dynamics is only converged in m
    # while little weight has leaked into the upper Fock levels
    ap.add_argument("--t-max", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=6)
    ap.add_argument("--out", default="out/dicke_truncation")
    args = ap.parse_args()
    # The two end modes are 2 (length - 1) sites apart and must lie beyond R = 3.
    if args.length < 3:
        ap.error(f"--length must be at least 3, got {args.length}")
    if not args.truncations:
        ap.error("--truncations needs at least one value")
    if any(m < 2 for m in args.truncations):
        ap.error(f"--truncations must each be at least 2, got {args.truncations}")
    if args.lam is not None and not (math.isfinite(args.lam) and args.lam > 0):
        ap.error(f"--lambda must be positive and finite, got {args.lam}")
    if not (math.isfinite(args.h) and args.h != 0):
        ap.error(f"--h must be finite and nonzero, got {args.h}")
    if not math.isfinite(args.time):
        ap.error(f"--time must be finite, got {args.time}")
    if args.occupation_cap is not None and args.occupation_cap < 0:
        ap.error(f"--occupation-cap must be at least 0, got {args.occupation_cap}")
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        ap.error(f"--t-max must be positive and finite, got {args.t_max}")
    if args.points < 2:
        ap.error(f"--points must be at least 2, got {args.points}")

    from lrlab.bounds import bounded_reference_bound, observable_bound
    from lrlab.lattice import (
        compute_bound_constants,
        noncommuting_adjacency,
        observable_conditions,
        observable_from_sites,
        pair_commutator_norm,
    )
    from lrlab.models import PAULI_X, build_dicke_chain, mode_quadratures
    from lrlab.operators import spectral_norm
    from lrlab.reporting import write_csv, write_json

    def spins(model):  # the capped sweep's pair: X on spins 0 and 1
        return [observable_from_sites(model, (s,), PAULI_X, f"X@spin{s // 2}")
                for s in (1, 3)]

    # The capped sweep takes the full space at every truncation.
    if args.occupation_cap is not None:
        from lrlab.dynamics import check_sweep, exact_sweep

        m = max(args.truncations)
        model = build_dicke_chain(args.length, h=args.h, truncation=m)
        try:
            check_sweep(model, spins(model))
        except ValueError as e:
            ap.error(f"--occupation-cap at --length {args.length} and m = {m}: {e}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        ap.error(f"--out {out}: {e.strerror}")

    rows = []
    capped_finals = {}
    last_mode = 2 * (args.length - 1)
    for m in args.truncations:
        model = build_dicke_chain(args.length, h=args.h, truncation=m)
        gid = {t.index: g for g, t in enumerate(model.terms)}
        h_0, h_1 = model.terms[gid[0]], model.terms[gid[1]]
        pair_full = pair_commutator_norm(model, h_0, h_1)
        adj = noncommuting_adjacency(model, projected=True)
        # The adjacency keeps the projected norm of each noncommuting pair.
        pair_proj = adj.pair_norms.get((gid[0], gid[1]), 0.0)
        consts = compute_bound_constants(model, adj, lam=args.lam)
        _, q_op = mode_quadratures(m)
        obs_p = observable_from_sites(model, (0,), q_op, "Qt@mode0")
        obs_q = observable_from_sites(model, (last_mode,), q_op, f"Qt@mode{last_mode // 2}")
        cond = observable_conditions(model, obs_p, obs_q, consts, adj)
        bound = observable_bound(consts, cond, args.time)
        norms = [spectral_norm(o.payload, "hermitian") for o in (obs_p, obs_q)]
        # The reference bound at t = 0 and d = 0 is its prefactor alone.
        prefactor = bounded_reference_bound(consts, *norms, cond.n_P, 0.0, 0)
        rows.append((m, pair_full, pair_proj, consts.K, consts.Q, bound, prefactor))
        print(
            f"m={m}: pair norm {pair_full:.6f} (projected {pair_proj:.6f}), "
            f"K={consts.K:.6f}, observable bound {bound:.6e}, "
            f"reference prefactor {prefactor:.6f}"
        )

        if args.occupation_cap is not None:
            times = tuple(
                args.t_max * k / (args.points - 1) for k in range(args.points)
            )
            spin_p, spin_q = spins(model)
            sweep = exact_sweep(model, spin_p, [spin_q], times, args.occupation_cap)
            capped_finals[m] = float(sweep.values[-1, 0])

    write_csv(
        out / "truncation.csv",
        ("m", "pair_norm", "pair_norm_projected", "K", "Q", "observable_bound",
         "reference_prefactor"),
        rows,
    )
    summary = {
        "length": args.length,
        "h": args.h,
        "time": args.time,
        "truncations": list(args.truncations),
        "observable_bounds": [r[5] for r in rows],
        "reference_prefactors": [r[6] for r in rows],
    }
    if capped_finals:
        finals = [capped_finals[m] for m in args.truncations]
        diffs = [abs(b - a) for a, b in zip(finals, finals[1:])]
        summary["occupation_cap"] = args.occupation_cap
        summary["capped_final_values"] = {
            str(m): v for m, v in zip(args.truncations, finals)
        }
        summary["capped_final_diffs"] = diffs
        print(
            f"occupancy <= {args.occupation_cap} sector, t={args.t_max}: "
            f"final norms " + " ".join(f"{v:.6f}" for v in finals)
        )
        print("successive truncation differences: "
              + " ".join(f"{d:.3e}" for d in diffs))
    write_json(out / "summary.json", summary)
    print("artifacts in", out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
