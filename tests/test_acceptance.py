"""Acceptance criteria, one test (and one verbose pass/fail line) each.

The TFIM length-10 sweep is shared between the margin and velocity criteria
through a module-scoped fixture; its wall time is charged to the margin
criterion's budget.  Budgets assume a single CPU.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from dicke_rewriting import dicke_commuting_terms
from lambda_optimum import optimize_lambda
from lemma_checks import bounded_term_check, derivative_identity_check
from lrlab import cli
from lrlab.bounds import (
    closed_form_bound,
    observable_bound,
    series_bound,
    series_terms_needed,
)
from lrlab.chains import count_chains_bruteforce, count_chains_dp
from lrlab.dynamics import (
    commutator_norm_sweep,
    extract_velocity,
    verify_bound,
)
from lrlab.lattice import (
    BoundConstants,
    LocalTerm,
    TwoFamilyHamiltonian,
    build_graph,
    compute_bound_constants,
    noncommuting_adjacency,
    observable_conditions,
    observable_from_sites,
    pair_commutator_norm,
    region,
    region_distance,
)
from lrlab.models import (
    PAULI_Z,
    build_commuting_ising,
    build_dicke_chain,
    build_tfim,
    full_hamiltonian,
    mode_quadratures,
)
from lrlab.operators import embed_dense, spectral_norm

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def tfim10_sweep():
    model = build_tfim(10)
    op = observable_from_sites(model, (0,), PAULI_Z, "Z@0")
    oqs = [
        observable_from_sites(model, (s,), PAULI_Z, f"Z@{s}") for s in range(3, 9)
    ]
    times = tuple(3.0 * k / 60 for k in range(61))
    t0 = time.perf_counter()
    sweep = commutator_norm_sweep(model, op, oqs, times)
    elapsed = time.perf_counter() - t0
    return model, sweep, elapsed


def test_criterion_01_commuting_model_stays_flat():
    # Commuting Ising, 10 sites: ||[Z_0(t), Z_5]|| <= 1e-10 over [0, 10],
    # inside 30 s.
    model = build_commuting_ising(10)
    op = observable_from_sites(model, (0,), PAULI_Z, "Z@0")
    oq = observable_from_sites(model, (5,), PAULI_Z, "Z@5")
    times = tuple(10.0 * k / 40 for k in range(41))
    t0 = time.perf_counter()
    sweep = commutator_norm_sweep(model, op, [oq], times)
    elapsed = time.perf_counter() - t0
    worst = sweep.values.max()
    _report(
        1,
        worst <= 1e-10 and elapsed < 30.0,
        f"max norm {worst:.3e} (tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_tfim_margins(tfim10_sweep):
    # TFIM 10 sites, separations 3..8, t in [0, 3]: closed-form and
    # exact-coefficient series bounds dominate with margin >= -1e-9,
    # everything inside 5 minutes.
    model, sweep, sweep_elapsed = tfim10_sweep
    t0 = time.perf_counter()
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    start = len(model.family0)  # field on site 0
    t_max = max(sweep.times)
    n_max = series_terms_needed(consts, t_max, 1e-9)
    # O_Q = Z@d sits at separation d from O_P = Z@0, every d > R.
    ds = range(3, 9)
    assert sweep.separations == tuple(ds) and min(ds) > consts.R
    tables = [count_chains_dp(adj, start, region(model.graph, (d,)), n_max)
              for d in ds]
    bounds = {
        "closed_form": [[closed_form_bound(consts, t, d) for d in ds]
                        for t in sweep.times],
        "series_exact_cn": series_bound(consts, tables, sweep.times, tol=1e-9),
    }
    report = verify_bound(sweep, range(len(ds)), bounds, slack=1e-9)
    elapsed = sweep_elapsed + (time.perf_counter() - t0)
    worst = report.worst_margin()
    _report(
        2,
        report.passed and elapsed < 300.0,
        f"worst margin {worst:.3e} over {report.bounds.size} points "
        f"(slack -1e-9), {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_03_velocity_below_lr(tfim10_sweep):
    model, sweep, _ = tfim10_sweep
    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    est = extract_velocity(sweep, threshold=1e-3)
    v_bound = consts.v_lr
    _report(
        3,
        0.0 < est.v_emp <= v_bound,
        f"v_emp {est.v_emp:.4f} <= v_lr {v_bound:.4f} "
        f"({len(est.crossings)} crossings, threshold 1e-3)",
    )


def test_criterion_04_dicke_truncation_constants():
    # 4 spins + 4 modes: interior-projected adjacent commutators pin 2,
    # the full-space ones grow as 2(m-1); the commutator-route observable
    # bound is truncation-independent while the norm-based reference
    # prefactor strictly grows.
    obs_bounds = []
    ref_prefactors = []
    tol = 1e-9
    ok = True
    detail_parts = []
    for m in range(2, 9):
        model = build_dicke_chain(4, truncation=m)
        by_n = {t.index: t for t in model.terms}
        for n in range(3):
            full = pair_commutator_norm(model, by_n[n], by_n[n + 1])
            proj = pair_commutator_norm(model, by_n[n], by_n[n + 1], projected=True)
            ok = ok and abs(full - 2.0 * (m - 1)) <= tol and abs(proj - 2.0) <= tol
        adj = noncommuting_adjacency(model, projected=True)
        consts = compute_bound_constants(model, adj)
        _, q_op = mode_quadratures(m)
        obs_p = observable_from_sites(model, (0,), q_op, "Qt@mode0")
        obs_q = observable_from_sites(model, (6,), q_op, "Qt@mode3")
        cond = observable_conditions(model, obs_p, obs_q, consts, adj)
        obs_bounds.append(observable_bound(consts, cond, 1.0))
        ref_prefactors.append(
            spectral_norm(obs_p.payload)
            * spectral_norm(obs_q.payload)
            * cond.n_P
            * consts.Mtildetilde
        )
    spread = (max(obs_bounds) - min(obs_bounds)) / obs_bounds[0]
    ok = ok and spread <= 1e-9
    growing = all(b > a for a, b in zip(ref_prefactors, ref_prefactors[1:]))
    ok = ok and growing
    detail_parts.append(f"observable bound relative spread {spread:.3e} (tol 1e-9)")
    detail_parts.append(
        "reference prefactors "
        + " < ".join(f"{p:.3f}" for p in ref_prefactors)
        + (" strictly growing" if growing else " NOT growing")
    )
    _report(4, ok, "; ".join(detail_parts))


def test_criterion_05_dicke_commuting_rewriting():
    # For every truncation the rewritten terms sum to the Hamiltonian to
    # 1e-12 and commute pairwise to 1e-12.
    worst_sum = 0.0
    worst_comm = 0.0
    for m in (2, 3, 4, 5):
        model = build_dicke_chain(3, truncation=m)
        terms = dicke_commuting_terms(model)
        dims = list(model.site_dims)
        total = sum(embed_dense(t.payload, t.support.sites, dims) for t in terms)
        worst_sum = max(worst_sum, float(np.abs(total - full_hamiltonian(model)).max()))
        for i in range(len(terms)):
            for k in range(i + 1, len(terms)):
                worst_comm = max(
                    worst_comm, pair_commutator_norm(model, terms[i], terms[k])
                )
    _report(
        5,
        worst_sum <= 1e-12 and worst_comm <= 1e-12,
        f"sum deviation {worst_sum:.3e}, worst pair commutator {worst_comm:.3e} "
        f"(tol 1e-12, truncations 2..5)",
    )


def test_criterion_06_chain_counts_dual_route():
    # On a path model with 11 terms: DP and brute force agree exactly as
    # integers through order 8, counts respect the reachability cutoff and
    # the (sqrt 2 nu)^n envelope; inside a minute.
    t0 = time.perf_counter()
    model = build_tfim(6)
    assert len(model.terms) <= 12
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    checked = 0
    ok = True
    for start in range(len(model.terms)):
        for site in (0, 2, 4, 5):
            target = region(model.graph, (site,))
            dp = count_chains_dp(adj, start, target, 8)
            bf = count_chains_bruteforce(adj, start, target, 8)
            ok = ok and dp.counts == bf.counts
            d = region_distance(model.graph, model.terms[start].support, target)
            for n in range(9):
                if consts.R * n < d:
                    ok = ok and dp.counts[n] == 0
                envelope = 2 ** (n // 2) * adj.nu**n
                ok = ok and dp.counts[n] <= envelope
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        ok and elapsed < 60.0,
        f"{checked} start/target pairs, orders <= 8, DP == enumeration, "
        f"cutoff and envelope hold, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_07_lambda_optimum_is_xi():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        gamma, xi = rng.uniform(0.1, 10.0, size=2)
        consts = BoundConstants(
            K=1.0,
            Q=1.0,
            nu=2,
            R=2,
            gamma=float(gamma),
            xi=float(xi),
            lam=float(xi),
            M=1.0,
            Mtilde=1.0,
            Mtildetilde=1.0,
            h0=1.0,
            h1=1.0,
            v_lr=0.0,
            zero_velocity=False,
        )
        lam_star, v_min = optimize_lambda(consts)
        # v_lr = 0.0 above is a placeholder; the velocity is written out here.
        v_lr = (
            2.0
            * (consts.gamma / consts.xi)
            * np.e
            * np.sqrt(consts.h0 * consts.h1 * consts.K)
        )
        worst = max(worst, abs(lam_star - xi) / xi, abs(v_min - v_lr) / v_lr)
    _report(
        7,
        worst <= 1e-6,
        f"20 random (gamma, xi) in [0.1, 10]^2, worst relative error "
        f"{worst:.3e} (tol 1e-6)",
    )


def _random_bounded_model(rng):
    """Single-site two-family model with random Hermitian bounded terms."""
    dim = int(rng.integers(2, 17))
    graph = build_graph(1, [])
    sup = region(graph, (0,))

    def herm():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return a + a.conj().T

    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=(dim,),
        family0=(LocalTerm(0, sup, herm()),),
        family1=(LocalTerm(0, sup, herm()),),
        h0=float(rng.uniform(0.2, 2.0)),
        h1=float(rng.uniform(0.2, 2.0)),
        name="random_bounded",
    )


def test_criterion_08_bounded_implies_commutator_bounded():
    chk = bounded_term_check(build_tfim(6))
    saturated = chk["K"] == pytest.approx(
        2.0 * chk["Ktilde"] ** 2, rel=1e-12
    ) and chk["Q"] == pytest.approx(4.0 * chk["Ktilde"] ** 3, rel=1e-12)
    rng = np.random.default_rng(42)
    all_ok = chk["ok"]
    for _ in range(50):
        model = _random_bounded_model(rng)
        all_ok = all_ok and bounded_term_check(model)["ok"]
    _report(
        8,
        all_ok and saturated,
        "K <= 2 Ktilde^2 and Q <= 4 Ktilde^3 on TFIM (saturated) and 50 "
        "random bounded term sets (dim <= 16)",
    )


def test_criterion_09_derivative_identity():
    model = build_tfim(6)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        family_a = int(rng.integers(0, 2))
        family_b = int(rng.integers(0, 2))
        idx_a = int(rng.integers(0, 5 if family_a == 0 else 6))
        idx_b = int(rng.integers(0, 5 if family_b == 0 else 6))
        t = float(rng.uniform(0.2, 2.0))
        worst = max(
            worst,
            derivative_identity_check(
                model, family_a, idx_a, family_b, idx_b, t, step=1e-4
            ),
        )
    _report(
        9,
        worst <= 1e-6,
        f"5 seeded term pairs on 6-site TFIM, central step 1e-4, worst "
        f"relative defect {worst:.3e} (tol 1e-6)",
    )


def test_criterion_10_deterministic_artifacts(tmp_path):
    cfg = str(REPO_ROOT / "configs" / "tfim_small.json")
    out1, out2 = tmp_path / "first", tmp_path / "second"
    rc1 = cli.main(["verify", "--config", cfg, "--out", str(out1)])
    rc2 = cli.main(["verify", "--config", cfg, "--out", str(out2)])
    names = sorted(p.name for p in out1.iterdir())
    identical = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    _report(
        10,
        rc1 == 0 and rc2 == 0 and identical and len(names) == 4,
        f"two verify runs, artifacts {names} byte-identical",
    )
