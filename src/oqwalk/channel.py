"""Walk models and the local channel, its dual, restrictions and deformations.

A walk on Z^d is specified by shift vectors s_i and Kraus operators L_i with
sum_i L_i* L_i = 1. The local channel acts on internal states as
sigma -> sum_i L_i sigma L_i*. Compressing to a subspace means replacing each
L_i by its compression to that subspace; exponential deformation in direction
u in R^d reweights the i-th term by exp(u . s_i).

Superoperator matrices use column-major vectorization throughout:
vec(A X B) = (B^T kron A) vec(X), so the channel matrix is
sum_i w_i kron(conj(L_i), L_i) and the dual channel matrix is its conjugate
transpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotTracePreservingError,
)
from .linalg import Subspace, _dominant_index, hermitian_part

TOL_TRACE_PRESERVING = 1e-9


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(x: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(x.size)))
    return np.asarray(x, dtype=complex).reshape((n, n), order="F")


@dataclass(frozen=True)
class WalkModel:
    """Shift vectors and Kraus operators of a homogeneous open quantum walk.

    A model is immutable: it holds read-only copies of the arrays it was
    given, so structure computed from it (see ``structure.recurrent_space``
    and ``structure.absorption``) is stored in ``_memo`` once and never goes
    stale.
    """

    shifts: np.ndarray  # (v, d) integer lattice vectors
    kraus: np.ndarray  # (v, h, h) complex
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shifts = np.atleast_2d(np.array(self.shifts, dtype=int))
        kraus = np.array(self.kraus, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
            raise ValueError("kraus must be a stack of square matrices")
        if shifts.shape[0] != kraus.shape[0]:
            raise ValueError("one shift vector per Kraus operator required")
        if shifts.shape[0] < 1:
            raise ValueError("at least one Kraus operator required")
        if not np.any(shifts):
            raise ValueError("shift vectors must not all be zero")
        if not np.all(np.isfinite(kraus)):
            raise ValueError("Kraus entries must be finite")
        shifts.flags.writeable = False
        kraus.flags.writeable = False
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "kraus", kraus)

    def __reduce__(self):
        # rebuild through __post_init__: copies stay read-only, the memo empty
        return (WalkModel, (self.shifts, self.kraus))

    @property
    def lattice_dim(self) -> int:
        return self.shifts.shape[1]

    @property
    def local_dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def num_kraus(self) -> int:
        return self.kraus.shape[0]

    def normalization_defect(self) -> float:
        acc = sum(l.conj().T @ l for l in self.kraus)
        return float(np.linalg.norm(acc - np.eye(self.local_dim)))

    def to_json_dict(self) -> dict:
        return {
            "lattice_dim": self.lattice_dim,
            "shifts": self.shifts.tolist(),
            "kraus": [
                [[[float(z.real), float(z.imag)] for z in row] for row in l]
                for l in self.kraus
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "WalkModel":
        shifts = np.asarray(data["shifts"], dtype=int)
        kraus = np.asarray(
            [[[complex(re, im) for re, im in row] for row in l] for l in data["kraus"]]
        )
        model = WalkModel(shifts=shifts, kraus=kraus)
        if model.lattice_dim != int(data["lattice_dim"]):
            raise ValueError("lattice_dim inconsistent with shift vectors")
        return model

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "WalkModel":
        with open(path) as fh:
            return WalkModel.from_json_dict(json.load(fh))


def validate(model: WalkModel) -> None:
    """Check the Kraus normalization sum_i L_i* L_i = 1."""
    defect = model.normalization_defect()
    if defect > TOL_TRACE_PRESERVING:
        raise NotTracePreservingError(defect)


@dataclass(frozen=True)
class ChannelView:
    """The local channel compressed to a subspace and deformed in direction u.

    The compressed Kraus family acting on the subspace coordinates is
    {B* L_i B} for basis B; ``apply`` weighs term i by exp(u . s_i).
    """

    model: WalkModel
    subspace: Subspace
    u: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.subspace.ambient_dim != self.model.local_dim:
            raise DimensionMismatchError("subspace ambient dim != local dim")
        u = self.u
        if u is None:
            u = np.zeros(self.model.lattice_dim)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.model.lattice_dim,):
            raise DimensionMismatchError("deformation direction has wrong dimension")
        object.__setattr__(self, "u", u)

    @staticmethod
    def full(model: WalkModel, u=None) -> "ChannelView":
        return ChannelView(model, Subspace.full(model.local_dim), u)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @cached_property
    def compressed_kraus(self) -> np.ndarray:
        b = self.subspace.basis
        return np.asarray([b.conj().T @ l @ b for l in self.model.kraus])

    @cached_property
    def weights(self) -> np.ndarray:
        """exp(u . s_i) per Kraus term."""
        return np.exp(self.model.shifts @ self.u)


def apply(view: ChannelView, sigma: np.ndarray) -> np.ndarray:
    """Deformed compressed channel: sum_i e^{u.s_i} K_i sigma K_i*."""
    sigma = np.asarray(sigma, dtype=complex)
    k = view.dim
    if sigma.shape != (k, k):
        raise DimensionMismatchError(f"expected {k}x{k} operator, got {sigma.shape}")
    out = np.zeros((k, k), dtype=complex)
    for w, kr in zip(view.weights, view.compressed_kraus):
        out += w * (kr @ sigma @ kr.conj().T)
    return out


def apply_dual(view: ChannelView, x: np.ndarray) -> np.ndarray:
    """Dual (Heisenberg) action: sum_i e^{u.s_i} K_i* x K_i."""
    x = np.asarray(x, dtype=complex)
    k = view.dim
    if x.shape != (k, k):
        raise DimensionMismatchError(f"expected {k}x{k} operator, got {x.shape}")
    out = np.zeros((k, k), dtype=complex)
    for w, kr in zip(view.weights, view.compressed_kraus):
        out += w * (kr.conj().T @ x @ kr)
    return out


def to_matrix(view: ChannelView) -> np.ndarray:
    """Superoperator matrix in the column-major vectorization convention."""
    k = view.dim
    m = np.zeros((k * k, k * k), dtype=complex)
    for w, kr in zip(view.weights, view.compressed_kraus):
        m += w * np.kron(kr.conj(), kr)
    return m


@dataclass(frozen=True)
class PerronData:
    """Spectral radius of a (deformed, compressed) channel and its eigenpair.

    ``state`` is the positive right eigenvector normalized to unit trace;
    ``dual_weight`` the positive left eigenvector with unit Frobenius norm;
    ``eigenvalues`` the whole spectrum of the superoperator, from the same
    eigensolve, with multiplicity.
    """

    value: float
    state: np.ndarray
    dual_weight: np.ndarray
    eigenvalues: np.ndarray

    @property
    def spectral_gap(self) -> float:
        """``value`` minus the largest eigenvalue modulus strictly below it
        (0 when every eigenvalue ties with ``value`` in modulus)."""
        moduli = np.abs(self.eigenvalues)
        below = moduli[moduli < self.value * (1.0 - 1e-9)]
        return self.value - float(np.max(below)) if below.size else 0.0


def perron(view: ChannelView, psd_tol: float = 1e-8) -> PerronData:
    """Perron data of the deformed compressed channel.

    Dense eigendecomposition of the superoperator; ties in modulus resolve
    toward the real Perron root. When the dominant eigenspace is degenerate
    (reducible domains, multiplicity blocks) a raw eigenvector need not be
    positive; projecting the maximally mixed seed onto the dominant spectral
    cluster then recovers a positive one, since that projection equals the
    Cesaro limit of the normalized channel iterates.
    """
    if view.dim == 0:
        raise NoConvergenceError("empty compression domain")
    m = to_matrix(view)
    try:
        vals, left, right = scipy.linalg.eig(m, left=True, right=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: inf or NaN
        raise NoConvergenceError(str(exc)) from exc
    idx = _dominant_index(vals)
    lam = vals[idx]
    if abs(lam.imag) > 1e-9 * max(abs(lam), 1.0) or lam.real <= 0:
        raise NoConvergenceError(f"dominant eigenvalue {lam} is not a positive real")
    value = float(lam.real)

    tau = _positive_eigenvector(m, value, vals, right, psd_tol)
    if tau is None:
        raise NoConvergenceError("no positive dominant eigenvector found")
    tau = tau / float(np.trace(tau).real)

    # left eigenvectors of m are eigenvectors of m* for the conjugate values
    w = _positive_eigenvector(m.conj().T, value, np.conj(vals), left, psd_tol)
    if w is None:
        raise NoConvergenceError("no positive dominant dual eigenvector found")
    w = w / np.linalg.norm(w)

    return PerronData(value=value, state=tau, dual_weight=w, eigenvalues=vals)


def _positive_eigenvector(m, value, vals, vecs, psd_tol):
    """PSD eigenvector of m for the (real, dominant) eigenvalue ``value``."""
    k = int(round(np.sqrt(m.shape[0])))
    scale = max(np.linalg.norm(m), 1.0)
    cluster = np.abs(vals - value) <= 1e-8 * max(abs(value), 1.0)

    def accept(t):
        t = hermitian_part(t)
        norm = np.linalg.norm(t)
        if norm < 1e-12:
            return None
        t = t / norm
        if np.linalg.norm(unvec(m @ vec(t)) - value * t) > 1e-9 * scale:
            return None
        if float(np.min(np.linalg.eigvalsh(t))) < -psd_tol:
            return None
        if float(np.trace(t).real) <= psd_tol:
            return None
        return t

    # Spectral projection of the maximally mixed seed onto the dominant
    # cluster; exact for semisimple peripheral spectrum.
    try:
        coeff = np.linalg.solve(vecs, vec(np.eye(k, dtype=complex) / k))
        coeff[~cluster] = 0.0
        fixed = accept(unvec(vecs @ coeff))
        if fixed is not None:
            return fixed
    except np.linalg.LinAlgError:
        pass

    # Phase-fixed raw eigenvectors as a fallback.
    for j in np.flatnonzero(cluster):
        t = unvec(vecs[:, j])
        tr = np.trace(t)
        if abs(tr) > 1e-10 * np.linalg.norm(t):
            fixed = accept(t * np.exp(-1j * np.angle(tr)))
            if fixed is not None:
                return fixed
    return None
