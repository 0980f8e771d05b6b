"""Exact Heisenberg dynamics, and checking bounds against it.

A sweep is one (T, n_Q) grid of norms, a row per time and a labelled column
per O_Q, so two observables at one separation are scored against their own
bounds.  `check_sweep` picks one of two routes to it, `exact_sweep` runs it.
`free_fermion_sweep` takes single-site Z observables on the TFIM: under
Jordan-Wigner they and H are Majorana bilinears, so after one eigh of a
2L x 2L single-particle matrix each norm is read from two principal angles,
and the chain can have a thousand sites.  `commutator_norm_sweep` takes any
model and observables on the full Hilbert space, and is the free-fermion
sweep's test oracle.  `verify_bound` scores the columns it is given (those
at d > R in a `verify` run, picked by `cli._bound_grid`) against one (T, n)
bound array per method.

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
  sector (the 10-qubit criterion-01 sweep: 5.3 s on a 2-core host, against
  20.3 s row-padded);
* any other O_Q is embedded sparsely and gives a sparse product, read as one
  column gather of A per slot of O_Q's row-padded embedding
  (`operators.embed_sparse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    Observable,
    TwoFamilyHamiltonian,
    check_occupation_cap,
    occupation_projector_diagonal,
    region_distances,
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
class SimulationSweep:
    """values[k, i] = ||[O_P(times[k]), O_Q_i]||, for the O_Q labelled
    oq_labels[i] at separations[i] from O_P; `==` skips the values."""

    op_label: str
    oq_labels: tuple
    separations: tuple
    times: tuple
    values: np.ndarray = field(compare=False)
    hilbert_dim: int

    @property
    def points(self) -> np.ndarray:
        """The values, flat and t-major."""
        return self.values.reshape(-1)


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
    first, with boson occupations <= `occupation_cap` when given.  A
    negative cap raises ValueError on either route."""
    check_occupation_cap(occupation_cap)
    if check_sweep(model, (op_p, *oq_list)):
        return free_fermion_sweep(model, op_p, oq_list, times)
    return commutator_norm_sweep(model, op_p, oq_list, times, occupation_cap)


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
    occupation_cap=None,
) -> SimulationSweep:
    """||[O_P(t), O_Q]|| on the full space for each O_Q and each t.

    `occupation_cap` restricts the commutator to boson occupations <= the
    cap, by the projector P of `lattice.occupation_projector_diagonal`.  P
    and a diagonal Q commute, so P[A, Q]P = [PAP, Q]: the restriction keeps
    every route exact.
    """
    full_space_dim(model)  # before any full-space array, the projector's too
    kept = None
    if occupation_cap is not None:
        kept = np.flatnonzero(occupation_projector_diagonal(model, occupation_cap))
    decomp = decompose(full_hamiltonian(model))
    dims = list(model.site_dims)
    p_full = embed_dense(op_p.payload, op_p.support.sites, dims)

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
    sweep = _sweep(model, op_p, oq_list, times)
    for row, a_t in zip(sweep.values, heisenberg_evolve(p_full, decomp, sweep.times)):
        row[:] = [norm(a_t) for norm in norms]
    return sweep


def _sweep(model, op_p, oq_list, times) -> SimulationSweep:
    """The sweep of `oq_list` at `times`, its values still to be filled."""
    ts = tuple(float(t) for t in times)
    labels = tuple(oq.label for oq in oq_list)
    seps = region_distances(model.graph, op_p.support, [q.support for q in oq_list])
    values = np.zeros((len(ts), len(oq_list)))
    return SimulationSweep(op_p.label, labels, seps, ts, values, model.hilbert_dim)


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
    X_j X_{j+1} = -i c_{2j+1} c_{2j+2}: every operator here is a Majorana
    bilinear.  H has h_{2j,2j+1} = -2g and h_{2j+1,2j+2} = -2J, so
    c(t) = R(t) c with R(t) = e^{(h - h^T)t} orthogonal, and Z_p(t) is the
    bilinear of rows u0, u1 of R at 2p and 2p+1.  With D = diag(i^k),
    i(h - h^T) = D S D* for the real symmetric S = -(h + h^T), so one real
    eigh S = V diag(lam) V^T gives R(t) = D V e^{-i lam t} V^T D*: with
    C = V cos(lam t) V^T and Sn = V sin(lam t) V^T, the real R(t) has
    R_jk = Re(i^{j-k}) C_jk + Im(i^{j-k}) Sn_jk, one of the two per entry.

    With theta_1, theta_2 the principal angles between span(u0, u1) and
    span(e_{2q}, e_{2q+1}), ||[Z_p(t), Z_q]|| = 2 sin(theta_1 + theta_2)
    = 2 (cos theta_1 sin theta_2 + cos theta_2 sin theta_1).

    Each point reads both from the triangular factor r of the QR of the
    columns (u0, u1, e_{2q}, e_{2q+1}): the singular values of r[:2, 2:] are
    the cosines, those of r[2:, 2:] the sines.  Both come in descending
    order, the cosines with theta ascending and the sines with theta
    descending, so the sum of their products pairs each cosine with the
    other angle's sine.  The sines are the size of what the QR leaves of
    e_{2q}, e_{2q+1} outside span(u0, u1), so their error stays at rounding
    near theta = 0, where sqrt(1 - cos^2) would lose half the digits and a
    norm of 0 could read 1e-8.

    The cost is one eigh of the 2L x 2L matrix S, then O(L^2) per time for
    the two rows and O(L) per point; only one time's (n_Q, 2L, 4) stack is
    held at once, O(n_Q L) memory, so chains of a thousand sites fit.

    Raises ValueError off the TFIM, or for an observable not single-site Pauli Z.
    """
    refusal = _free_fermion_refusal(model, (op_p, *oq_list))
    if refusal is not None:
        raise ValueError(refusal)
    modes = 2 * model.graph.site_count
    # h_{2j,2j+1} = -2g (fields), h_{2j+1,2j+2} = -2J (bonds).
    h = np.diag(-2.0 * np.where(np.arange(modes - 1) % 2, model.h0, model.h1), 1)
    lam, v = np.linalg.eigh(-(h + h.T))
    rows = 2 * op_p.support.sites[0] + np.arange(2)
    # Re(i^{j-k}) and Im(i^{j-k}) for rows j = 2p, 2p+1 and columns k.
    power = (rows[:, None] - np.arange(modes)) % 4
    re, im = np.array([1, 0, -1, 0])[power], np.array([0, 1, 0, -1])[power]
    sweep = _sweep(model, op_p, oq_list, times)
    # Columns (u0, u1, e_{2q}, e_{2q+1}) for each O_Q; u0, u1 change with t.
    basis = np.zeros((len(oq_list), modes, 4))
    for i, oq in enumerate(oq_list):
        basis[i, 2 * oq.support.sites[0] + np.arange(2), [2, 3]] = 1.0
    for row, t in zip(sweep.values, sweep.times):
        # Rows 2p, 2p+1 of C and Sn, with no copy of V.
        cos_rows = (v[rows] * np.cos(lam * t)) @ v.T
        sin_rows = (v[rows] * np.sin(lam * t)) @ v.T
        basis[..., :2] = (re * cos_rows + im * sin_rows).T
        r = np.linalg.qr(basis, mode="r")
        cos = np.linalg.svd(r[:, :2, 2:], compute_uv=False)
        sin = np.linalg.svd(r[:, 2:, 2:], compute_uv=False)
        row[:] = 2.0 * (cos * sin).sum(-1)
    return sweep


@dataclass(frozen=True)
class VelocityEstimate:
    v_emp: float
    intercept: float
    residual: float
    threshold: float
    crossings: tuple  # (d, t_star) pairs


def extract_velocity(sweep: SimulationSweep, threshold: float) -> VelocityEstimate:
    """Empirical cone velocity: fit d = v * t_star + c over the first
    threshold crossing of each observable's measured commutator norm (a
    column of the grid, its times ascending), with d its separation from O_P
    (crossings ordered by d, then label).  An observable already at or
    above the threshold at the grid's first time crossed unseen before it,
    and is left out like one that never crosses.

    Raises ValueError unless the crossings span at least three distinct
    separations (several observables at one separation count once) and two
    distinct times, without which the fit has no slope to find.
    """
    # The first time index at or above the threshold; 0 if there is none.
    first = np.argmax(sweep.values >= threshold, axis=0).tolist()
    crossings = []
    for d, _, i in sorted(zip(sweep.separations, sweep.oq_labels, range(len(first)))):
        k = first[i]
        if k:  # 0: never crosses, or already past the threshold at the first time
            t0, t1 = sweep.times[k - 1 : k + 1]
            v0, v1 = sweep.values[k - 1 : k + 1, i].tolist()
            crossings.append((d, float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))))
    crossed = len({d for d, _ in crossings})
    if crossed < 3:
        raise ValueError(
            f"cone not resolved: only {crossed} separations crossed "
            f"threshold {threshold}; extend the time grid or lower the threshold"
        )
    if len({t for _, t in crossings}) < 2:
        raise ValueError(f"cone not resolved: every crossing at t = {crossings[0][1]}")
    ds, tstars = np.array(crossings, dtype=float).T
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
class VerificationReport:
    """bounds[m, k, j]: the bound `methods[m]` at sweep.times[k] on the O_Q
    of the sweep's column columns[j]; the other columns are not scored."""

    slack: float
    sweep: SimulationSweep
    columns: tuple
    methods: tuple
    bounds: np.ndarray = field(compare=False)

    @property
    def excluded_separations(self) -> tuple:
        seps = np.delete(self.sweep.separations, self.columns).tolist()
        return tuple(sorted(set(seps)))

    @property
    def margins(self) -> np.ndarray:
        return self.bounds - self.sweep.values[:, self.columns]

    @property
    def passed(self) -> bool:
        return bool((self.margins >= -self.slack).all())

    def worst_margin(self) -> float:
        return float(self.margins.min()) if self.bounds.size else float("inf")

    def rows(self):
        """(method, d, t, measured, bound, margin, oq) per scored point:
        by method, then t, then O_Q."""
        sweep = self.sweep
        cols = [(sweep.separations[i], sweep.oq_labels[i]) for i in self.columns]
        measured = sweep.values[:, self.columns].tolist()
        per_method = zip(self.methods, self.bounds.tolist(), self.margins.tolist())
        for method, bounds, margins in per_method:
            for t, vs, bs, ms in zip(sweep.times, measured, bounds, margins):
                for (d, oq), v, b, m in zip(cols, vs, bs, ms):
                    yield method, d, t, v, b, m, oq


def verify_bound(
    sweep: SimulationSweep, columns, bounds: dict, *, slack: float
) -> VerificationReport:
    """Score the sweep's `columns` against each method's bounds,
    bounds[method][k, j] at sweep.times[k] on the O_Q of column columns[j],
    so every point is scored against the bound for its own observable.  The
    other columns (typically those at d <= R) are reported as excluded."""
    columns, methods = tuple(columns), tuple(sorted(bounds))
    shape = (len(sweep.times), len(columns))
    if any(np.shape(bounds[m]) != shape for m in methods):
        raise ValueError(f"each method's bounds must have the grid's shape {shape}")
    values = np.array([bounds[m] for m in methods], dtype=float)
    return VerificationReport(
        slack, sweep, columns, methods, values.reshape(len(methods), *shape)
    )
