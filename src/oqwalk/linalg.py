"""Dense linear algebra kernel for small dimensions.

Everything here operates on plain numpy arrays. Subspaces are
carried around as matrices whose columns form an orthonormal basis, which
keeps compressions (``basis.conj().T @ operator @ basis``) one-liners.

Rank and support decisions use the threshold TOL_RANK relative to the
matrix norm; double precision at dimensions up to a few hundred keeps
roundoff far below that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalDegeneracyError, SingularMatrixError

TOL_ORTHO = 1e-10
TOL_RANK = 1e-10
TOL_INTERSECTION = 1e-9  # rcond of the null space that meets two subspaces


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a*)/2."""
    return 0.5 * (a + a.conj().T)


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
    def from_span(vectors: np.ndarray) -> "Subspace":
        """Orthonormalize a spanning set (columns), dropping null directions."""
        v = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if v.shape[1] == 0:
            return Subspace.zero(v.shape[0])
        q, s, _ = np.linalg.svd(v, full_matrices=False)
        scale = s[0] if s.size else 0.0
        rank = int(np.sum(s > TOL_RANK * max(scale, 1.0)))
        return Subspace(v.shape[0], q[:, :rank])


def support_eigenpairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a positive semidefinite matrix that count toward its
    support, ascending, and their orthonormal eigenvectors (columns).

    Eigenvalues above ``TOL_RANK * ||h||`` count toward the support. Raises
    NumericalDegeneracyError when ``h`` is not a valid positive operator
    within TOL_RANK.
    """
    h = np.asarray(h, dtype=complex)
    dev = np.linalg.norm(h - h.conj().T)
    if dev > TOL_RANK:
        raise NumericalDegeneracyError(f"matrix deviates from Hermitian by {dev:.3e}")
    w, v = np.linalg.eigh(hermitian_part(h))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -TOL_RANK * max(scale, 1.0):
        raise NumericalDegeneracyError(f"minimum eigenvalue {w[0]:.3e}")
    keep = w > TOL_RANK * max(scale, 1.0)
    return w[keep], v[:, keep]


def support_projection(h: np.ndarray) -> Subspace:
    """Support (range) of a positive semidefinite matrix, as a subspace (see
    ``support_eigenpairs``)."""
    return Subspace(np.shape(h)[0], support_eigenpairs(h)[1])


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
    """Solve a x = b for square a, rejecting rank-deficient systems.

    The singular values gate the system, so the solve is a plain LU:
    getrf/getrs, as ``scipy.linalg.solve`` runs on a general matrix, without
    its condition estimate.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularMatrixError(
            f"singular system (smallest/largest singular value {sv[-1]:.3e}/{sv[0]:.3e})"
            if sv.size
            else "empty system"
        )
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
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


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.basis, -b.basis])
    null = scipy.linalg.null_space(stacked, rcond=TOL_INTERSECTION)
    if null.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    vectors = a.basis @ null[: a.dim, :]
    return Subspace.from_span(vectors)


def project_subspace(p: np.ndarray, s: Subspace) -> Subspace:
    """Image of subspace ``s`` under the orthogonal projector ``p``."""
    return Subspace.from_span(p @ s.basis)
