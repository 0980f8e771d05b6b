"""Dense operator algebra on finite tensor-product Hilbert spaces.

Everything here is plain ndarray manipulation: embedding local operators into
a labeled product space, commutators, spectral norms, a checked Hermitian
eigendecomposition, and the one Heisenberg-evolution routine, which rotates
an operator into that eigenbasis once and then costs two matrix products per
time point.  Site 0 is the first (leftmost) Kronecker factor, so a basis
index decomposes as b = sum_k s_k * prod_{j>k} d_j.
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


def _embedding_layout(op_sites, site_dims):
    op_sites = [int(s) for s in op_sites]
    n = len(site_dims)
    if not op_sites:
        raise ValueError("operator must act on at least one site")
    if op_sites != sorted(op_sites) or len(set(op_sites)) != len(op_sites):
        raise ValueError(f"operator sites must be sorted and unique, got {op_sites}")
    if op_sites[0] < 0 or op_sites[-1] >= n:
        raise ValueError(f"operator sites {op_sites} outside lattice of {n} sites")
    rest = [k for k in range(n) if k not in set(op_sites)]
    # math.prod on Python ints: a numpy product wraps past 2^63.
    d_op = math.prod(int(site_dims[k]) for k in op_sites)
    d_rest = math.prod(int(site_dims[k]) for k in rest)
    return op_sites, rest, d_op, d_rest


def embed_dense(payload, op_sites, site_dims) -> np.ndarray:
    """Embed `payload` (acting on the sorted sites `op_sites`) into the full space.

    The payload's tensor factors follow increasing site order.  For a 2-qubit
    lattice, embedding Z on site 0 yields diag(1, 1, -1, -1): site 0 varies
    slowest.
    """
    payload = np.asarray(payload)
    op_sites, rest, d_op, d_rest = _embedding_layout(op_sites, site_dims)
    if payload.shape != (d_op, d_op):
        raise ValueError(
            f"payload shape {payload.shape} does not match support dimension {d_op}"
        )
    n = len(site_dims)
    full = np.kron(payload, np.eye(d_rest, dtype=payload.dtype))
    if not rest:
        return full
    # Axes currently follow (op_sites..., rest...); permute back to site order.
    mixed = list(op_sites) + rest
    perm = list(np.argsort(mixed))
    shape = [site_dims[k] for k in mixed]
    total = d_op * d_rest
    t = full.reshape(shape + shape)
    t = t.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(total, total))


def embed_sparse(payload, op_sites, site_dims) -> sp.csr_matrix:
    """Sparse version of `embed_dense`, for operators used only in products."""
    payload = np.asarray(payload)
    op_sites, rest, d_op, d_rest = _embedding_layout(op_sites, site_dims)
    if payload.shape != (d_op, d_op):
        raise ValueError(
            f"payload shape {payload.shape} does not match support dimension {d_op}"
        )
    mixed_full = sp.kron(sp.csr_matrix(payload), sp.identity(d_rest, format="csr"))
    if not rest:
        return sp.csr_matrix(mixed_full)
    # Permute basis states from (op_sites..., rest...) layout to site order.
    mixed = list(op_sites) + rest
    perm = list(np.argsort(mixed))
    shape = [site_dims[k] for k in mixed]
    order = np.arange(d_op * d_rest).reshape(shape).transpose(perm).reshape(-1)
    out = sp.csr_matrix(mixed_full)[order][:, order]
    return sp.csr_matrix(out)


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
