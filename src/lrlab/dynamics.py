"""Exact Heisenberg dynamics, and checking bounds against it.

Two sweeps give the same `SimulationSweep`; `check_sweep` picks one, and
`exact_sweep` runs it.  `free_fermion_sweep` takes single-site Z observables on the TFIM
through its free-fermion form: under Jordan-Wigner, Z_j and X_j X_{j+1} are
Majorana bilinears, so each norm is a 4x4 eigenproblem after one eigh of a
2L x 2L single-particle matrix, and the chain can have hundreds of sites.
`commutator_norm_sweep` takes any model and observables on the full Hilbert
space, and is the free-fermion sweep's test oracle.

The full-space sweep diagonalizes H once, sector by sector
(`operators.decompose`, which also checks each sector's reconstruction),
and walks the time grid with `operators.heisenberg_evolve`, which rotates
only the blocks of O_P that are nonzero between two sectors.  The commutator
norm with O_Q takes one of two exact routes:

* a diagonal O_Q with two distinct values q1, q2 (every Pauli Z) is embedded
  as its diagonal alone and gives ||[A, Q]|| = |q1 - q2| ||P1 A P2|| for
  Hermitian A, the norm of one off-diagonal block read from the largest
  eigenvalue of its Gram matrix.  It works per sector when O_P stays inside
  the sectors, since A(t) and [A(t), Q] then do too, one half block per
  sector.  The half blocks are what keep the 10-qubit acceptance sweeps
  inside their budgets: on a 2-core host the criterion-01 sweep took 5.3 s
  this way and 20.3 s through the row-padded route below;
* any other O_Q is embedded sparsely and gives a sparse product, read as one
  column gather of A per slot of O_Q's row-padded embedding
  (`operators.embed_sparse`).

Every point carries the label of its O_Q, so two observables at the same
separation are scored against their own bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Observable,
    TwoFamilyHamiltonian,
    occupation_projector_diagonal,
    region_distance,
)
from .models import PAULI_Z, full_hamiltonian, full_space_dim
# Unused here, but perfbench/tracer.py wraps `commutator` under this name too.
from .operators import commutator  # noqa: F401
from .operators import (
    decompose,
    embed_dense,
    embed_diagonal,
    embed_sparse,
    heisenberg_evolve,
    spectral_norm,
)


@dataclass(frozen=True)
class SweepPoint:
    d: int
    t: float
    value: float
    oq: str


@dataclass(frozen=True)
class SimulationSweep:
    op_label: str
    oq_labels: tuple
    separations: tuple
    times: tuple
    points: tuple
    hilbert_dim: int

    def curve(self, oq: str):
        """(times, values) of the observable labelled `oq`, time-ordered."""
        pts = sorted((p.t, p.value) for p in self.points if p.oq == oq)
        return tuple(t for t, _ in pts), tuple(v for _, v in pts)


def check_sweep(model, observables) -> bool:
    """Whether `exact_sweep` takes `observables` on `model` by the free-fermion
    route, decided without building anything; ValueError if it would take the
    full-space route above the cap of `models.full_space_dim`."""
    if _free_fermion_refusal(model, observables) is None:
        return True
    full_space_dim(model)
    return False


def exact_sweep(model, op_p, oq_list, times, occupation_cap=None) -> SimulationSweep:
    """The sweep by the route `check_sweep` picks: free-fermion if it can
    (the TFIM has no boson sites to cap), else full-space, its size checked
    first, with boson occupations <= `occupation_cap` when given."""
    if check_sweep(model, (op_p, *oq_list)):
        return free_fermion_sweep(model, op_p, oq_list, times)
    projector = None
    if occupation_cap is not None:
        projector = occupation_projector_diagonal(model, occupation_cap)
    return commutator_norm_sweep(model, op_p, oq_list, times, projector_diag=projector)


def _commutator_norm_fn(oq: Observable, dims, groups, kept):
    """a -> ||[a, Q]|| for Hermitian `a` and Q = `oq` embedded in the
    space of site dimensions `dims`, restricted to the basis indices `kept`
    (None: all of them).  A diagonal Q with two distinct values is embedded
    as its diagonal, any other Q row-padded.

    For a diagonal Q, `groups` are index sets, each a subset of `kept`, that
    `a` has no entry between; the norm is then the largest over the groups.
    """
    diag = np.diagonal(oq.payload)
    # Not plain np.unique, which imports numpy.ma (about 16 ms and 1 MB).
    values = np.unique(diag, return_inverse=True)[0]
    if np.count_nonzero(oq.payload - np.diag(diag)) or len(values) != 2:
        cols, vals = embed_sparse(oq.payload, oq.support.sites, dims)
        vals = vals.conj()
        if not cols.shape[1]:  # Q = 0
            return lambda a: 0.0

        def sparse_norm(a):
            # Q is Hermitian, so (a Q)[i, j] = sum_k a[i, k] conj(Q[j, k]):
            # one column gather of `a` per slot of Q's row-padded form.
            b = a[:, cols[:, 0]] * vals[:, 0]
            for k in range(1, cols.shape[1]):
                b += a[:, cols[:, k]] * vals[:, k]
            c = b - b.conj().T
            if kept is not None:
                c = c[np.ix_(kept, kept)]
            return spectral_norm(c, structure="antihermitian")

        return sparse_norm
    # Q = q1 P1 + q2 P2, so [A, Q] has only the off-diagonal blocks
    # (q2 - q1) P1 A P2 and its adjoint: ||[A, Q]|| = |q1 - q2| ||P1 A P2||.
    q = embed_diagonal(diag, oq.support.sites, dims)
    gap = float(abs(values[1] - values[0]))
    blocks = []
    for g in groups:
        rows, cols = g[q[g] == values[0]], g[q[g] == values[1]]
        if rows.size and cols.size:
            blocks.append(np.ix_(rows, cols))
    return lambda a: gap * max((spectral_norm(a[h]) for h in blocks), default=0.0)


def commutator_norm_sweep(
    model: TwoFamilyHamiltonian,
    op_p: Observable,
    oq_list,
    times,
    projector_diag=None,
) -> SimulationSweep:
    """||[O_P(t), O_Q]|| on the full space for each O_Q and each t.

    `projector_diag` (a 0/1 diagonal) restricts the commutator to a subspace,
    used for truncation-convergence checks on bosonic models.  P and a
    diagonal Q commute, so P[A, Q]P = [PAP, Q]: the restriction keeps every
    route exact.
    """
    decomp = decompose(full_hamiltonian(model))
    dims = list(model.site_dims)
    p_full = embed_dense(op_p.payload, op_p.support.sites, dims)

    kept = None
    if projector_diag is not None:
        projector_diag = np.asarray(projector_diag)
        if projector_diag.shape != (len(p_full),) or not np.isin(
            projector_diag, (0, 1)
        ).all():
            raise ValueError(
                f"projector_diag must be a 0/1 vector of length {len(p_full)}"
            )
        kept = np.flatnonzero(projector_diag)
    # A(t) has a nonzero block between two sectors only where O_P has one.
    pairs = decomp.sector_pairs(p_full)
    if all(i == j for i, j in pairs):
        groups = [decomp.sectors[i] for i, _ in pairs]
    else:
        groups = [np.arange(len(p_full))]
    if kept is not None:
        # Sectors and `kept` are sorted and unique; saying so skips the plain
        # np.unique inside, which imports numpy.ma.
        groups = [np.intersect1d(g, kept, assume_unique=True) for g in groups]

    norms = [_commutator_norm_fn(oq, dims, groups, kept) for oq in oq_list]
    ts = tuple(float(t) for t in times)
    values = (
        [norm(a_t) for norm in norms]
        for a_t in heisenberg_evolve(p_full, decomp, ts)
    )
    return _sweep(model, op_p, oq_list, ts, values)


def _sweep(model, op_p, oq_list, ts, values) -> SimulationSweep:
    """The sweep with values[k][i] = ||[O_P(ts[k]), oq_list[i]]||."""
    seps = tuple(
        region_distance(model.graph, op_p.support, oq.support) for oq in oq_list
    )
    points = tuple(
        SweepPoint(d=d, t=t, value=float(v), oq=oq.label)
        for t, row in zip(ts, values)
        for v, oq, d in zip(row, oq_list, seps)
    )
    return SimulationSweep(
        op_label=op_p.label,
        oq_labels=tuple(oq.label for oq in oq_list),
        separations=seps,
        times=ts,
        points=points,
        hilbert_dim=model.hilbert_dim,
    )


def _majorana_pair(x, y):
    """-2 (x y^T - y x^T) for stacks of vectors x, y: the W of the bilinear
    -i (x.c)(y.c) = (i/4) c^T W c, for x orthogonal to y."""
    outer = x[..., :, None] * y[..., None, :]
    return -2.0 * (outer - np.swapaxes(outer, -1, -2))


def _free_fermion_refusal(model, observables) -> str | None:
    """Why `free_fermion_sweep` cannot take `observables` on `model`, or None."""
    if model.name != "tfim":
        return f"free-fermion sweep needs the tfim, got {model.name!r}"
    for obs in observables:
        if len(obs.support.sites) != 1 or not np.array_equal(obs.payload, PAULI_Z):
            return f"free-fermion sweep needs single-site Pauli Z, got {obs.label!r}"
    return None


def free_fermion_sweep(
    model: TwoFamilyHamiltonian, op_p: Observable, oq_list, times
) -> SimulationSweep:
    """The sweep of `commutator_norm_sweep` for Z observables on the TFIM,
    from its free-fermion form.

    With the Majorana operators c_{2j} = (prod_{k<j} Z_k) X_j and
    c_{2j+1} = (prod_{k<j} Z_k) Y_j, Z_j = -i c_{2j} c_{2j+1} and
    X_j X_{j+1} = -i c_{2j+1} c_{2j+2}: every operator here is a bilinear
    (i/4) c^T W c with W real antisymmetric.  H has h_{2j,2j+1} = -2g and
    h_{2j+1,2j+2} = -2J, so c(t) = R(t) c with R(t) = e^{ht}, and Z_p(t) has
    W_P(t) = R^T W_P R.  [Z_p(t), Z_q] is the bilinear of i[W_P(t), W_Q], and
    its norm is a quarter of the sum of the absolute eigenvalues of
    i[W_P(t), W_Q].  That matrix lives in the span of rows 2p and 2p+1 of R
    and of e_{2q}, e_{2q+1}, so each point is a 4x4 eigenproblem in the
    coordinates of these four vectors in an orthonormal basis of their span,
    the triangular factor of their QR.  The cost is one eigh of the 2L x 2L
    matrix ih, O(L^2) per time and O(L) per point, with no full Hamiltonian,
    so chains of hundreds of sites are cheap.

    Raises ValueError off the TFIM, or for an observable not single-site Pauli Z.
    """
    refusal = _free_fermion_refusal(model, (op_p, *oq_list))
    if refusal is not None:
        raise ValueError(refusal)
    modes = 2 * model.graph.site_count
    # h_{2j,2j+1} = -2g (fields), h_{2j+1,2j+2} = -2J (bonds).
    h = np.diag(-2.0 * np.where(np.arange(modes - 1) % 2, model.h0, model.h1), 1)
    lam, u = np.linalg.eigh(1j * (h - h.T))
    ts = tuple(float(t) for t in times)
    p = op_p.support.sites[0]
    # Rows 2p, 2p+1 of R(t) = Re(U e^{-i lam t} U^dag), for every t: (T, 2, 2L).
    phases = np.exp(-1j * np.multiply.outer(ts, lam))[:, None, :]
    rows = ((u[2 * p : 2 * p + 2] * phases) @ u.conj().T).real
    q_sites = np.array([oq.support.sites[0] for oq in oq_list], dtype=int)
    e_q = np.eye(modes)[2 * q_sites[:, None] + [0, 1]]  # (n_Q, 2, 2L)
    # (T, n_Q, 2L, 4): columns R[2p], R[2p+1], e_{2q}, e_{2q+1}.
    basis = np.concatenate(
        np.broadcast_arrays(rows[:, None], e_q[None]), axis=2
    ).swapaxes(-1, -2)
    r = np.linalg.qr(basis, mode="r")
    w_p = _majorana_pair(r[..., :, 0], r[..., :, 1])
    w_q = _majorana_pair(r[..., :, 2], r[..., :, 3])
    values = 0.25 * np.abs(np.linalg.eigvalsh(1j * (w_p @ w_q - w_q @ w_p))).sum(-1)
    return _sweep(model, op_p, oq_list, ts, values)


@dataclass(frozen=True)
class VelocityEstimate:
    v_emp: float
    intercept: float
    residual: float
    threshold: float
    crossings: tuple  # (d, t_star) pairs


def extract_velocity(sweep: SimulationSweep, threshold: float) -> VelocityEstimate:
    """Empirical cone velocity: fit d = v * t_star + c over the first
    threshold crossing of each observable's measured commutator norm, with d
    its separation from O_P (crossings ordered by d, then label).

    Raises ValueError unless the crossings span at least three distinct
    separations (several observables at one separation count once) and two
    distinct times, without which the fit has no slope to find.
    """
    crossings = []
    for d, oq in sorted(zip(sweep.separations, sweep.oq_labels)):
        ts, vals = sweep.curve(oq)
        t_star = None
        for k, val in enumerate(vals):
            if val >= threshold:
                if k == 0:
                    t_star = ts[0]
                else:
                    t0, t1 = ts[k - 1], ts[k]
                    v0, v1 = vals[k - 1], vals[k]
                    t_star = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0)
                break
        if t_star is not None:
            crossings.append((d, float(t_star)))
    crossed = len({d for d, _ in crossings})
    if crossed < 3:
        raise ValueError(
            f"cone not resolved: only {crossed} separations crossed "
            f"threshold {threshold}; extend the time grid or lower the threshold"
        )
    if len({t for _, t in crossings}) < 2:
        raise ValueError(f"cone not resolved: every crossing at t = {crossings[0][1]}")
    ds = np.array([c[0] for c in crossings], dtype=float)
    tstars = np.array([c[1] for c in crossings])
    slope, intercept = np.polyfit(tstars, ds, 1)
    resid = float(np.sqrt(np.mean((ds - (slope * tstars + intercept)) ** 2)))
    return VelocityEstimate(
        v_emp=float(slope),
        intercept=float(intercept),
        residual=resid,
        threshold=threshold,
        crossings=tuple(crossings),
    )


@dataclass(frozen=True)
class VerificationRow:
    method: str
    d: int
    t: float
    measured: float
    bound: float
    margin: float
    oq: str


@dataclass(frozen=True)
class VerificationReport:
    slack: float
    rows: tuple
    excluded_separations: tuple
    passed: bool

    def worst_margin(self) -> float:
        return min((r.margin for r in self.rows), default=float("inf"))


def verify_bound(
    sweep: SimulationSweep,
    bound_fns: dict,
    min_separation: int = 0,
    *,
    slack: float,
) -> VerificationReport:
    """Compare measured norms against each named bound function
    (t, oq_label) -> value, so every point is scored against the bound for
    its own observable.

    Separations at or below `min_separation` (typically R) are excluded and
    reported rather than scored.
    """
    excluded = tuple(
        sorted(set(p.d for p in sweep.points if p.d <= min_separation))
    )
    rows = []
    for method, fn in sorted(bound_fns.items()):
        for p in sweep.points:
            if p.d <= min_separation:
                continue
            bound = float(fn(p.t, p.oq))
            rows.append(
                VerificationRow(
                    method=method,
                    d=p.d,
                    t=p.t,
                    measured=p.value,
                    bound=bound,
                    margin=bound - p.value,
                    oq=p.oq,
                )
            )
    passed = all(r.margin >= -slack for r in rows)
    return VerificationReport(
        slack=slack,
        rows=tuple(rows),
        excluded_separations=excluded,
        passed=passed,
    )
