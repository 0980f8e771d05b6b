"""Operator algebra on finite tensor-product Hilbert spaces.

Embedding local operators into a labeled product space (dense, sparse as
CSR, or only the diagonal), commutators, spectral norms, connected-component
labelling, a checked Hermitian eigendecomposition, and the one
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

Only numpy is imported at module level.  scipy.sparse is imported inside
`embed_sparse`, the one function here that needs it, so a run whose operators
all stay dense never loads scipy.
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
        return [divmod(int(p), n) for p in np.unique(label[rows] * n + label[cols])]


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
    """Sparse version of `embed_dense` (a scipy CSR matrix), for operators
    used only in products."""
    import scipy.sparse as sp

    payload = np.asarray(payload)
    grid = _index_grid(payload.shape, op_sites, site_dims)
    i, j = np.nonzero(payload)
    data = np.tile(payload[i, j], grid.shape[0])
    rows, cols = grid[:, i].reshape(-1), grid[:, j].reshape(-1)
    return sp.csr_matrix((data, (rows, cols)), shape=(grid.size, grid.size))


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
    the eigenvalues of `a` itself.  The hint is trusted, not checked:
    eigvalsh reads one triangle of its input.

    "general" reads the norm as s sqrt(lambda_max(G)) from one eigvalsh of
    the Gram matrix G = (a/s)(a/s)^dagger over the smaller side, with
    s = max|a|; an SVD costs more and runs slower on two BLAS threads than
    on one.  The scaling keeps G's entries from under- or overflowing:
    without it, entries below about 1e-154 square to 0 and the norm reads
    low.  After scaling lambda_max(G) >= 1, so eigvalsh's rounding error is
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


def decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, one sector at a time.

    The sectors are the connected components of the exact nonzero pattern of
    `h`.  Raises NumericalError on non-Hermitian input, and on a sector whose
    eigenbasis does not reconstruct its block of `h` to
    EIG_RECONSTRUCTION_TOL relative to the block's largest eigenvalue.
    """
    m = np.asarray(h)
    dev = float(np.abs(m - m.conj().T).max())
    scale = max(float(np.abs(m).max()), 1.0)
    if dev > HERMITICITY_TOL * scale:
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
