"""Dense complex linear algebra kernel for small dimensions.

Everything here operates on plain numpy arrays (complex128). Subspaces are
carried around as matrices whose columns form an orthonormal basis, which
keeps compressions (``basis.conj().T @ operator @ basis``) one-liners.

Rank and support decisions use a threshold relative to the matrix norm
(default 1e-10); double precision at dimensions up to a few hundred keeps
roundoff far below that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NegativeEigenvalueError,
    NotHermitianError,
    SingularMatrixError,
)

TOL_ORTHO = 1e-10
TOL_RANK = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a*)/2."""
    return 0.5 * (a + a.conj().T)


def require_hermitian(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    dev = np.linalg.norm(h - h.conj().T)
    if dev > tol:
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return hermitian_part(h)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n given by an orthonormal basis (columns of ``basis``)."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError("basis must be ambient_dim x dim")
        gram = b.conj().T @ b
        if gram.size and np.linalg.norm(gram - np.eye(b.shape[1])) > TOL_ORTHO:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, np.eye(n, dtype=complex))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, np.zeros((n, 0), dtype=complex))

    @staticmethod
    def from_span(vectors: np.ndarray, tol: float = TOL_RANK) -> "Subspace":
        """Orthonormalize a spanning set (columns), dropping null directions."""
        v = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if v.shape[1] == 0:
            return Subspace.zero(v.shape[0])
        q, s, _ = np.linalg.svd(v, full_matrices=False)
        scale = s[0] if s.size else 0.0
        rank = int(np.sum(s > tol * max(scale, 1.0)))
        return Subspace(v.shape[0], q[:, :rank])


def support_projection(h: np.ndarray, tol: float = 1e-10) -> Subspace:
    """Support (range) of a positive semidefinite matrix, as a subspace.

    Eigenvalues above ``tol * ||h||`` count toward the support. Raises
    NotHermitianError / NegativeEigenvalueError when ``h`` is not a valid
    positive operator within tolerance.
    """
    h = np.asarray(h, dtype=complex)
    hh = require_hermitian(h, tol)
    w, v = np.linalg.eigh(hh)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -tol * max(scale, 1.0):
        raise NegativeEigenvalueError(f"minimum eigenvalue {w[0]:.3e}")
    keep = w > tol * max(scale, 1.0)
    return Subspace(h.shape[0], v[:, keep])


def _dominant_index(vals: np.ndarray) -> int:
    """Index of the dominant eigenvalue. Among eigenvalues tied in modulus,
    prefers the largest real part, then the smallest |imaginary part|; for
    channel superoperators this selects the real Perron root rather than a
    peripheral phase."""
    moduli = np.abs(vals)
    top = float(np.max(moduli))
    tied = np.flatnonzero(moduli >= top * (1.0 - 1e-9))
    order = sorted(tied, key=lambda k: (-vals[k].real, abs(vals[k].imag)))
    return int(order[0])


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for square a, rejecting rank-deficient systems."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularMatrixError(
            f"singular system (smallest/largest singular value {sv[-1]:.3e}/{sv[0]:.3e})"
            if sv.size
            else "empty system"
        )
    x = scipy.linalg.solve(a, b)
    resid = np.linalg.norm(a @ x - b)
    bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
    if resid > max(bound, 1e-300):
        raise SingularMatrixError(f"solution residual {resid:.3e} exceeds bound")
    return x


def orthonormal_complement(s: Subspace) -> Subspace:
    """Orthogonal complement of ``s`` in its ambient space."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    if s.dim == s.ambient_dim:
        return Subspace.zero(s.ambient_dim)
    comp = scipy.linalg.null_space(s.basis.conj().T)
    return Subspace(s.ambient_dim, comp)


def subspace_intersection(a: Subspace, b: Subspace, tol: float = 1e-9) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.basis, -b.basis])
    null = scipy.linalg.null_space(stacked, rcond=tol)
    if null.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    vectors = a.basis @ null[: a.dim, :]
    return Subspace.from_span(vectors)


def project_subspace(p: np.ndarray, s: Subspace) -> Subspace:
    """Image of subspace ``s`` under the orthogonal projector ``p``."""
    return Subspace.from_span(p @ s.basis)
