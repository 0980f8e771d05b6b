"""Operator algebra on finite tensor-product Hilbert spaces.

Embedding local operators into a labeled product space (dense, or sparse as
CSR), commutators, spectral norms, a checked Hermitian eigendecomposition,
and the one Heisenberg-evolution routine, which rotates an operator into that
eigenbasis once and then costs two matrix products per time point.

The basis order is owned by one index grid (`_index_grid`), and every
embedding is a scatter through it.  Site 0 is the first (leftmost) Kronecker
factor, so a basis index decomposes as b = sum_k s_k * prod_{j>k} d_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

HERMITICITY_TOL = 1e-10
EIG_RECONSTRUCTION_TOL = 1e-9

# Detection threshold for (anti-)Hermitian structure, relative to the largest
# entry.  Commutators of Hermitian matrices land well inside this.
_SYMMETRY_DETECT_TOL = 1e-12


class NumericalError(ValueError):
    """A computation whose result cannot be trusted: a check on the
    arithmetic failed, or a series tail does not certify."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenbasis of a Hermitian operator, H = V diag(w) V^dagger."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def embed_sparse(payload, op_sites, site_dims) -> sp.csr_matrix:
    """Sparse version of `embed_dense`, for operators used only in products."""
    payload = np.asarray(payload)
    grid = _index_grid(payload.shape, op_sites, site_dims)
    i, j = np.nonzero(payload)
    data = np.tile(payload[i, j], grid.shape[0])
    rows, cols = grid[:, i].reshape(-1), grid[:, j].reshape(-1)
    return sp.csr_matrix((data, (rows, cols)), shape=(grid.size, grid.size))


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def spectral_norm(a) -> float:
    """Largest singular value.

    Hermitian and anti-Hermitian inputs (commutators of Hermitians are the
    latter) take the eigvalsh path, which is about twice as fast as SVD.
    """
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return 0.0
    tol = _SYMMETRY_DETECT_TOL * max(scale, 1.0)
    adj = m.conj().T
    if np.abs(m - adj).max() <= tol:
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if np.abs(m + adj).max() <= tol:
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix.

    Raises NumericalError on non-Hermitian input, and on an eigenbasis that
    does not reconstruct the input to EIG_RECONSTRUCTION_TOL relative to its
    largest eigenvalue.
    """
    m = np.asarray(h)
    dev = float(np.abs(m - m.conj().T).max())
    scale = max(float(np.abs(m).max()), 1.0)
    if dev > HERMITICITY_TOL * scale:
        raise NumericalError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    w, v = np.linalg.eigh(m)
    dev = float(np.abs((v * w) @ v.conj().T - m).max())
    if dev > EIG_RECONSTRUCTION_TOL * max(float(np.abs(w).max()), 1.0):
        raise NumericalError(f"eigendecomposition reconstruction off by {dev:.3e}")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def heisenberg_evolve(a, decomp: SpectralDecomposition, times):
    """Yield A(t) = e^{iHt} A e^{-iHt} for each t in `times`.

    A is rotated into the eigenbasis of H once; each time point is then
    u A_eig u^dagger with u = V diag(e^{iwt}).  No n x n temporary outlives
    its step, so the caller's work between steps sees no extra array.
    """
    w, v = decomp.eigenvalues, decomp.eigenvectors
    a_eig = v.conj().T @ a @ v
    for t in times:
        phase = np.exp(1j * w * t)
        yield (v * phase) @ a_eig @ (v * phase).conj().T
