"""Operator algebra on finite tensor-product Hilbert spaces.

Embedding local operators into a labeled product space (dense, row-padded
sparse, or only the diagonal), commutators (dense, and sparse on the
row-padded form), spectral norms, connected-component labelling, the one
Hermiticity test, a checked Hermitian eigendecomposition, and the one
Heisenberg-evolution routine.

The basis order is owned by one index grid (`_index_grid`), and every
embedding is a scatter through it.  Site 0 is the first (leftmost) Kronecker
factor, so a basis index decomposes as b = sum_k s_k * prod_{j>k} d_j.

`decompose` splits H into its sectors, the connected components of H's exact
nonzero pattern (the prod-Z parity sectors of the TFIM, one sector per joint
spin sigma^z label on the Dicke chain), and diagonalizes each on its own.
`heisenberg_evolve` then rotates only the blocks of an operator that are
nonzero between two sectors, so an operator that stays inside the sectors
costs a fraction of a full-space rotation.  Nothing is cut by a tolerance:
an entry of H that is not exactly zero joins its two basis states.

`spectral_norm` takes the structure of its input from the caller, who knows
it by construction, rather than guessing it from the entries, and reads every
norm from one Hermitian eigvalsh; no SVD is taken here (the tests keep it as
the oracle).

The sparse form is numpy's own, row-padded: an n x n matrix is a pair
(cols, vals) of (n, w) arrays, row r holding the entries vals[r, s] at
columns cols[r, s], padded by one rule (`row_padded`), exact zeros in
column 0, to the width w of the fullest row.  A product gathers whole rows
(`sparse_commutator`), so nothing here needs scipy: numpy is the only import.
The bracket fixes its order of additions: each entry sums its AB terms in
slot order, and apart from them its BA terms in slot order, then subtracts
the BA sum from the AB sum, so a cancellation such as 1e16 + 1 - 1e16 rounds
the same way on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
EIG_RECONSTRUCTION_TOL = 1e-9


class NumericalError(ValueError):
    """A computation whose result cannot be trusted: a check on the
    arithmetic failed, or a series tail does not certify."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenbasis of a Hermitian operator, sector by sector.

    `sectors[k]` holds the sorted basis indices of sector k; H has no entry
    between two sectors, and on sector k it is V_k diag(w_k) V_k^dagger with
    w_k = eigenvalues[k], V_k = eigenvectors[k].
    """

    sectors: tuple
    eigenvalues: tuple
    eigenvectors: tuple

    def sector_pairs(self, a) -> list:
        """The pairs (i, j) of sectors between which `a` has a nonzero entry,
        in increasing order."""
        n = len(self.sectors)
        label = np.empty(sum(len(idx) for idx in self.sectors), dtype=np.intp)
        for k, idx in enumerate(self.sectors):
            label[idx] = k
        rows, cols = np.nonzero(a)
        # Not plain np.unique, which imports numpy.ma (about 16 ms and 1 MB).
        pairs = np.unique(label[rows] * n + label[cols], return_inverse=True)[0]
        return [divmod(int(p), n) for p in pairs]


def _index_grid(payload_shape, op_sites, site_dims) -> np.ndarray:
    """The one owner of the basis order.

    grid[r, i] is the basis index of the state in which the payload's sites
    are in joint state i and the other sites in joint state r, both counted
    in increasing site order.  Raises on a malformed support or a payload
    whose shape does not match it.
    """
    op_sites = [int(s) for s in op_sites]
    n = len(site_dims)
    if not op_sites:
        raise ValueError("operator must act on at least one site")
    if op_sites != sorted(op_sites) or len(set(op_sites)) != len(op_sites):
        raise ValueError(f"operator sites must be sorted and unique, got {op_sites}")
    if op_sites[0] < 0 or op_sites[-1] >= n:
        raise ValueError(f"operator sites {op_sites} outside lattice of {n} sites")
    # math.prod on Python ints: a numpy product wraps past 2^63.
    d_op = math.prod(int(site_dims[k]) for k in op_sites)
    if payload_shape != (d_op, d_op):
        raise ValueError(
            f"payload shape {payload_shape} does not match support dimension {d_op}"
        )
    rest = [k for k in range(n) if k not in set(op_sites)]
    total = math.prod(int(d) for d in site_dims)
    index = np.arange(total).reshape(site_dims).transpose(rest + op_sites)
    return index.reshape(total // d_op, d_op)


def embed_dense(payload, op_sites, site_dims) -> np.ndarray:
    """Embed `payload` (acting on the sorted sites `op_sites`) into the full space.

    The payload's tensor factors follow increasing site order.  For a 2-qubit
    lattice, embedding Z on site 0 yields diag(1, 1, -1, -1): site 0 varies
    slowest.
    """
    payload = np.asarray(payload)
    grid = _index_grid(payload.shape, op_sites, site_dims)
    out = np.zeros((grid.size, grid.size), dtype=payload.dtype)
    out[grid[:, :, None], grid[:, None, :]] = payload
    return out


def embed_sparse(payload, op_sites, site_dims):
    """Row-padded version of `embed_dense`, for operators used only in
    products: (cols, vals), each of shape (n, w), with entry
    [r, cols[r, k]] = vals[r, k] and w the largest nonzero count of a
    payload row.  Each row lists its nonzeros in increasing column order,
    then the padding of `row_padded`."""
    payload = np.asarray(payload)
    rows, cols = np.nonzero(payload)
    padded = row_padded(rows, cols, payload[rows, cols], len(payload))
    return embed_rows(*padded, op_sites, site_dims)


def embed_rows(cols, vals, op_sites, site_dims):
    """Embed the row-padded payload (cols, vals), acting on the sorted sites
    `op_sites`, into the full space, row-padded; see `embed_sparse`."""
    cols, vals = np.asarray(cols), np.asarray(vals)
    grid = _index_grid((len(cols), len(cols)), op_sites, site_dims)
    out_cols = np.empty((grid.size, cols.shape[1]), dtype=np.intp)
    out_vals = np.empty((grid.size, cols.shape[1]), dtype=vals.dtype)
    out_cols[grid] = grid[:, cols]
    out_vals[grid] = vals
    return out_cols, out_vals


def sparse_commutator(a, b, rows=None):
    """COO (rows, cols, vals) of [A, B] for two row-padded matrices: sorted
    by row, then column, one entry per position, no exact zeros.  `rows`
    (sorted basis indices, default all) restricts it to those rows.

    Row r of AB is the sum over r's slots s of a_vals[r, s] times row
    a_cols[r, s] of B: one gather of B's rows, and likewise for BA.  As in
    `a @ b - b @ a`, each entry sums its AB terms and its BA terms apart,
    each in slot order (A's slot, then B's; for BA, B's, then A's), and
    then subtracts the BA sum from the AB sum.
    """
    (ac, av), (bc, bv) = a, b
    rows = np.arange(len(ac)) if rows is None else rows
    # The left factor's rows; the right factor's are gathered whole.
    rac, rav, rbc, rbv = (np.take(x, rows, axis=0) for x in (ac, av, bc, bv))
    n, k = len(rows), ac.shape[1] * bc.shape[1]
    dtype = np.result_type(av, bv)
    if k == 0:
        return rows[:0], rows[:0], np.zeros(0, dtype)
    # A row's 2k terms: AB's k in slot order, then BA's.  An entry is one
    # (row, column) position, numbered in row, then column order.
    cols = np.take(bc, rac, axis=0).reshape(n, k)
    cols = np.concatenate([cols, np.take(ac, rbc, axis=0).reshape(n, k)], axis=1)
    # return_inverse also keeps np.unique from importing numpy.ma.
    keys, entry = np.unique(rows[:, None] * len(bc) + cols, return_inverse=True)
    entry, size = entry.reshape(n, 2 * k), keys.size

    def total(at, terms):
        # np.bincount adds in input order: each entry's terms in slot order.
        out = np.empty(size, dtype)
        out.real = np.bincount(at.reshape(-1), terms.real.reshape(-1), size)
        if dtype.kind == "c":
            out.imag = np.bincount(at.reshape(-1), terms.imag.reshape(-1), size)
        return out

    sums = total(entry[:, :k], rav[:, :, None] * np.take(bv, rac, axis=0))
    sums -= total(entry[:, k:], rbv[:, :, None] * np.take(av, rbc, axis=0))
    nonzero = sums != 0
    keys = keys[nonzero]
    return keys // len(bc), keys % len(bc), sums[nonzero]


def row_padded(rows, cols, vals, n):
    """The row-padded form of an n x n matrix from COO data sorted by row
    with one entry per position; padding slots hold exact zeros in column 0."""
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    out_cols = np.zeros((n, int(counts.max(initial=0))), dtype=np.intp)
    out_vals = np.zeros(out_cols.shape, dtype=vals.dtype)
    out_cols[rows, slot] = cols
    out_vals[rows, slot] = vals
    return out_cols, out_vals


def embed_diagonal(diag, op_sites, site_dims) -> np.ndarray:
    """The diagonal of `embed_dense(np.diag(diag), op_sites, site_dims)`,
    without the matrix."""
    diag = np.asarray(diag)
    grid = _index_grid((diag.size, diag.size), op_sites, site_dims)
    out = np.empty(grid.size, dtype=diag.dtype)
    out[grid] = diag
    return out


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def spectral_norm(a, structure: str = "general") -> float:
    """Largest singular value of a dense matrix, or the largest over a stack
    of matrices of one shape (k, m, n).

    `structure` is what the caller knows about `a` by construction:
    "hermitian" or "antihermitian" (a commutator of Hermitian matrices) take
    the eigenvalues of `a` itself.  eigvalsh reads one triangle of its
    input, so the hint is trusted, never tested: every term and observable
    is a Hermitian matrix by construction (`lattice.TwoFamilyHamiltonian`
    and `lattice.observable_from_sites` refuse any other), and so is each
    bracket of them, up to a factor i.

    "general" reads the norm as s sqrt(lambda_max(G)) from one eigvalsh of
    the Gram matrix G = (a/s)(a/s)^dagger over the smaller side, with
    s = max|a|; an SVD costs more and runs slower on two BLAS threads than
    on one.  The scaling keeps G's entries from under- or overflowing:
    without it, entries below about 1e-154 square to 0 and the norm reads
    low.  A complex `a` is scaled part by part, so a subnormal s scales it
    too.  After scaling lambda_max(G) >= 1, so eigvalsh's rounding error is
    small relative to it; the clamp at 0 only guards the square root.
    """
    if structure not in ("general", "hermitian", "antihermitian"):
        raise ValueError(f"unknown structure {structure!r}")
    m = np.asarray(a)
    if m.size == 0 or not m.any():
        return 0.0
    if structure == "hermitian":
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if structure == "antihermitian":
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    s = float(np.abs(m).max())
    if np.iscomplexobj(m):
        # numpy divides a complex array by s through 1/s, which overflows
        # for a subnormal s and turns the zeros into NaN; each part divides
        # on its own exactly.
        scaled = np.empty(m.shape, m.dtype)
        np.divide(m.real, s, out=scaled.real)
        np.divide(m.imag, s, out=scaled.imag)
        m = scaled
    else:
        m = m / s
    mh = m.conj().swapaxes(-1, -2)
    gram = m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m
    return s * math.sqrt(max(float(np.linalg.eigvalsh(gram).max()), 0.0))


def connected_components(rows, cols, n: int):
    """(count, labels) of the undirected graph on nodes 0..n-1 with edges
    rows[k] -- cols[k]; self-loops and repeated edges are allowed.

    Components are numbered in the order of their smallest member, as
    scipy.sparse.csgraph.connected_components numbers them.  Every node
    points at a node of its own component, never a larger one; each round
    hooks both ends of every edge, and their pointers' targets, onto the
    smaller of the two pointers, then replaces every pointer by its target's
    pointer.  Once a round changes nothing, both ends of every edge share a
    pointer, so each component points at one node: its smallest, which never
    points away.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    label = np.arange(n)
    while True:
        lr, lc = label[rows], label[cols]
        low = np.minimum(lr, lc)
        new = label.copy()
        for ends in (rows, cols, lr, lc):
            np.minimum.at(new, ends, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots, labels = np.unique(label, return_inverse=True)
    return len(roots), labels


def hermiticity_defect(a) -> float | None:
    """max|A - A^dagger|, or None when it is within HERMITICITY_TOL *
    max(1, max|A|): lrlab's one Hermiticity test, which a NaN entry fails."""
    m = np.asarray(a)
    dev = float(np.abs(m - m.conj().T).max())
    return None if dev <= HERMITICITY_TOL * max(1.0, float(np.abs(m).max())) else dev


def decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, one sector at a time.

    The sectors are the connected components of the exact nonzero pattern of
    `h`.  Raises NumericalError on non-Hermitian input, and on a sector whose
    eigenbasis does not reconstruct its block of `h` to
    EIG_RECONSTRUCTION_TOL relative to the block's largest eigenvalue.
    """
    m = np.asarray(h)
    dev = hermiticity_defect(m)
    if dev is not None:
        raise NumericalError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    n_sectors, labels = connected_components(*np.nonzero(m), len(m))
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_sectors)
    sectors = tuple(np.split(order, np.cumsum(sizes)[:-1]))
    ws, vs = [], []
    for idx in sectors:
        block = m[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(block)
        dev = float(np.abs((v * w) @ v.conj().T - block).max())
        if dev > EIG_RECONSTRUCTION_TOL * max(float(np.abs(w).max()), 1.0):
            raise NumericalError(f"eigendecomposition reconstruction off by {dev:.3e}")
        ws.append(w)
        vs.append(v)
    return SpectralDecomposition(
        sectors=sectors, eigenvalues=tuple(ws), eigenvectors=tuple(vs)
    )


def _sandwich(v, m, w) -> np.ndarray:
    """v @ m @ w^dagger; in real arithmetic when v and w are real (H real
    symmetric), which halves the work of complex products."""
    if np.isrealobj(v) and np.isrealobj(w):
        re = v @ np.ascontiguousarray(m.real) @ w.T
        im = v @ np.ascontiguousarray(m.imag) @ w.T
        return re + 1j * im
    return v @ m @ w.conj().T


def heisenberg_evolve(a, decomp: SpectralDecomposition, times):
    """Yield A(t) = e^{iHt} A e^{-iHt}, dense on the full space, for each t
    in `times`.

    H has no entry between sectors, so the block of A(t) between sectors i
    and j is V_i (A_eig[i, j] * e^{i (w_i - w_j) t}) V_j^dagger, with
    A_eig[i, j] = V_i^dagger A[i, j] V_j and the phase taken elementwise, and
    a block of A that is zero stays zero.  Only A's nonzero blocks are
    rotated, into the eigenbasis once and back at each step.
    """
    a = np.asarray(a)
    sec, ws, vs = decomp.sectors, decomp.eigenvalues, decomp.eigenvectors
    pairs = decomp.sector_pairs(a)
    a_eig = [vs[i].conj().T @ a[np.ix_(sec[i], sec[j])] @ vs[j] for i, j in pairs]

    def at(t):
        # A function, so that no temporary outlives the step it serves.
        out = np.zeros(a.shape, dtype=np.complex128)
        for (i, j), block in zip(pairs, a_eig):
            phase = np.outer(np.exp(1j * ws[i] * t), np.exp(-1j * ws[j] * t))
            out[np.ix_(sec[i], sec[j])] = _sandwich(vs[i], block * phase, vs[j])
        return out

    for t in times:
        yield at(t)
