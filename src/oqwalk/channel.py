"""Walk models and the local channel, its dual, restrictions and deformations.

A walk on Z^d is specified by shift vectors s_i and Kraus operators L_i with
sum_i L_i* L_i = 1. The local channel acts on internal states as
sigma -> sum_i L_i sigma L_i*. Compressing to a subspace means replacing each
L_i by its compression to that subspace; exponential deformation in direction
u in R^d reweights the i-th term by exp(u . s_i).

Each of these maps preserves Hermiticity, so in an orthonormal Hermitian
operator basis it is a real matrix, and its dual (Heisenberg) map is the
transpose. This module alone knows the basis: E_aa, then (E_ab + E_ba)/sqrt 2,
then i(E_ab - E_ba)/sqrt 2 for a < b. ``hvec`` takes stacks of Hermitian
operators to real coordinates, whose dot product is the Hilbert-Schmidt one,
and ``hunvec`` takes them back. A view builds its real superoperator once
(``ChannelView.matrix``); every Perron step, bordered solve and fixed-point
analysis of the view reads it or its transpose. ``perron`` takes both Perron
vectors from one eigensolve.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import NoConvergenceError, NotTracePreservingError
from .linalg import Subspace, _dominant_index

TOL_TRACE_PRESERVING = 1e-9
TOL_PSD = 1e-8  # negative eigenvalue and trace a Perron vector may carry


def matrix_to_json(a) -> list:
    """Complex array as nested lists, each entry a [re, im] pair: the one
    matrix encoding of every JSON file oqwalk reads or writes."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def write_json(path, payload) -> None:
    """Write ``payload`` with sorted keys, a two-space indent and a final
    newline, making the parent directory: the one layout of every JSON file
    oqwalk writes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def matrix_from_json(data) -> np.ndarray:
    """Inverse of ``matrix_to_json``; ValueError when an entry is not a
    [re, im] pair of numbers."""
    pairs = np.array(data, dtype=float)
    if pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return pairs.view(complex)[..., 0]


def lattice_coords(values, what: str) -> np.ndarray:
    """``values`` as an int64 array of lattice coordinates: each must be an
    integer, or a float with an integral value, that fits in int64. A bool,
    a string or anything else is a ValueError about ``what``."""
    values = np.asarray(values, dtype=object)
    for c in values.flat:
        if (
            isinstance(c, (bool, np.bool_))
            or not isinstance(c, numbers.Real)
            or not (-(2**63) <= c < 2**63 and float(c).is_integer())
        ):
            raise ValueError(f"{what} must be integers in the int64 range, got {c!r}")
    return values.astype(np.int64)


@cache
def _hermitian_basis(k: int) -> np.ndarray:
    """The basis operators, in order, as rows of their row-major entries."""
    a, b = np.triu_indices(k, 1)
    diag, sym, anti = np.arange(k), np.arange(k, k + a.size), np.arange(k + a.size, k * k)
    e = np.zeros((k * k, k, k), dtype=complex)
    e[diag, diag, diag] = 1.0
    e[sym, a, b] = e[sym, b, a] = np.sqrt(0.5)
    e[anti, a, b], e[anti, b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    e = e.reshape(k * k, k * k)
    e.flags.writeable = False
    return e


def hvec(a) -> np.ndarray:
    """Real coordinates (..., k^2) of Hermitian (..., k, k) operators, c_j =
    Tr(B_j a); of an operator that is not Hermitian, those of its Hermitian part."""
    a = np.asarray(a).swapaxes(-1, -2)  # Tr(B a) pairs B's entries with a^T's
    flat = a.reshape(*a.shape[:-2], a.shape[-1] ** 2)
    return (flat @ _hermitian_basis(a.shape[-1]).T).real.copy()


def hunvec(c) -> np.ndarray:
    """The Hermitian (..., k, k) operators sum_j c_j B_j of a stack of real
    coordinates (..., k^2); inverse of ``hvec``."""
    c = np.asarray(c)
    k = math.isqrt(c.shape[-1])
    return (c @ _hermitian_basis(k)).reshape(*c.shape[:-1], k, k)


@dataclass(frozen=True)
class WalkModel:
    """Shift vectors and Kraus operators of a homogeneous open quantum walk.

    A model whose Kraus normalization misses the identity by more than
    TOL_TRACE_PRESERVING is refused with NotTracePreservingError, after the
    structural checks (ValueError). A model is immutable: it holds read-only
    copies of the arrays it was given, so structure computed from it never
    goes stale. ``cached`` is the one memo: the recurrent split, each
    absorption operator, ``decompose(model)`` and the Legendre anchors (log
    lambda with its gradient and Hessian at u = 0, and at u = +-U_MAX in
    d = 1, per compression) are built on first use and shared after, so what
    they return is read-only. Copies and pickles start with an empty memo.
    """

    shifts: np.ndarray  # (v, d) integer lattice vectors
    kraus: np.ndarray  # (v, h, h) complex
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shifts = np.atleast_2d(lattice_coords(self.shifts, "shift coordinates"))
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
        defect = self.normalization_defect()
        if defect > TOL_TRACE_PRESERVING:
            raise NotTracePreservingError(defect)

    def __reduce__(self):
        # rebuild through __post_init__: copies stay read-only, the memo empty
        return (WalkModel, (self.shifts, self.kraus))

    def cached(self, key, build):
        """The value stored under ``key``, made by ``build()`` on first use.

        The stored value is shared by every later caller, so ``build`` must
        return it read-only (tuples, frozen dataclasses, arrays with
        ``writeable`` off).
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def lattice_dim(self) -> int:
        return self.shifts.shape[1]

    @property
    def local_dim(self) -> int:
        return self.kraus.shape[1]

    def normalization_defect(self) -> float:
        acc = sum(l.conj().T @ l for l in self.kraus)
        return float(np.linalg.norm(acc - np.eye(self.local_dim)))

    def to_json_dict(self) -> dict:
        return {
            "lattice_dim": self.lattice_dim,
            "shifts": self.shifts.tolist(),
            "kraus": matrix_to_json(self.kraus),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "WalkModel":
        dim = lattice_coords(data["lattice_dim"], "lattice_dim")
        model = WalkModel(shifts=data["shifts"], kraus=matrix_from_json(data["kraus"]))
        if dim.shape != () or dim != model.lattice_dim:
            raise ValueError("lattice_dim inconsistent with shift vectors")
        return model

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "WalkModel":
        with open(path) as fh:
            return WalkModel.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class ChannelView:
    """The local channel compressed to a subspace and deformed in direction u.

    The compressed Kraus family acting on the subspace coordinates is
    {B* L_i B} for basis B; ``weights`` holds term i's factor exp(u . s_i).
    """

    model: WalkModel
    subspace: Subspace
    u: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.subspace.ambient_dim != self.model.local_dim:
            raise ValueError("subspace ambient dim != local dim")
        u = self.u
        if u is None:
            u = np.zeros(self.model.lattice_dim)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.model.lattice_dim,):
            raise ValueError("deformation direction has wrong dimension")
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

    @cached_property
    def matrix(self) -> np.ndarray:
        """The real superoperator ``to_matrix(self)``, built on first use
        and shared by every later reader, so it is read-only. Its transpose
        is the matrix of the dual channel."""
        m = to_matrix(self)
        m.flags.writeable = False
        return m


def to_matrix(view: ChannelView) -> np.ndarray:
    """Real superoperator matrix in the Hermitian basis: Re(conj(E) S E^T),
    entry (j, l) being Tr(B_j T(B_l)), with E the basis operators' row-major
    entries as rows and S = sum_i e^{u.s_i} kron(K_i, conj(K_i)). The
    Kronecker products come from one broadcast product, entry for entry those
    np.kron forms, and are added from zeros in Kraus order. Callers read
    ``view.matrix``, which builds it once."""
    k, kr = view.dim, view.compressed_kraus
    terms = (kr[:, :, None, :, None] * kr.conj()[:, None, :, None, :]).reshape(
        len(kr), k * k, k * k
    )
    m = np.zeros((k * k, k * k), dtype=complex)
    for w, term in zip(view.weights, terms):
        m += w * term
    del terms, term  # free k^4 entries per Kraus term before the basis change
    e = _hermitian_basis(k)
    return (e.conj() @ m @ e.T).real.copy()


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


def perron(view: ChannelView) -> PerronData:
    """Perron data of the deformed compressed channel.

    One dense eigendecomposition of the superoperator; ties in modulus
    resolve toward the real Perron root. Both Perron vectors come from the
    left and right eigenvectors L_C, R_C of its dominant cluster: with
    G = L_C* R_C, the maximally mixed seed s gives the state R_C G^-1 L_C* s
    and the dual weight L_C G^-* R_C* s. For a semisimple cluster (reducible
    domains, multiplicity blocks) that state is the Cesaro limit of the
    normalized channel iterates, so it is positive where a raw eigenvector
    need not be. A singular G (a defective cluster, as at a crossing of two
    roots) or a vector that is not positive raises NoConvergenceError.
    """
    if view.dim == 0:
        raise NoConvergenceError("empty compression domain")
    m = view.matrix
    try:
        vals, left, right = scipy.linalg.eig(m, left=True, right=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: inf or NaN
        raise NoConvergenceError(str(exc)) from exc
    lam = vals[_dominant_index(vals)]
    if abs(lam.imag) > 1e-9 * max(abs(lam), 1.0) or lam.real <= 0:
        raise NoConvergenceError(f"dominant eigenvalue {lam} is not a positive real")
    value = float(lam.real)

    cluster = np.abs(vals - value) <= 1e-8 * max(abs(value), 1.0)
    left, right = left[:, cluster], right[:, cluster]
    seed = hvec(np.eye(view.dim) / view.dim)
    gram = left.conj().T @ right
    try:
        tau = right @ np.linalg.solve(gram, left.conj().T @ seed)
        w = left @ np.linalg.solve(gram.conj().T, right.conj().T @ seed)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError("dominant spectral cluster is defective") from exc
    # the residual scale; m and its transpose have the same Frobenius norm
    scale = max(np.linalg.norm(m), 1.0)
    tau = _positive_eigenvector(m, value, tau, scale, "eigenvector")
    w = _positive_eigenvector(m.T, value, w, scale, "dual eigenvector")
    tau = tau / float(np.trace(tau).real)  # unit trace; w keeps unit norm
    return PerronData(value=value, state=tau, dual_weight=w, eigenvalues=vals)


def _positive_eigenvector(m, value, x, scale, name):
    """The coordinates ``x`` (real up to roundoff: m and the seed are real) as
    a unit-norm Hermitian operator, checked to be a PSD eigenvector of m for
    ``value`` with a residual of at most 1e-9 * ``scale``; NoConvergenceError
    otherwise."""
    x = x.real
    norm = np.linalg.norm(x)
    if norm >= 1e-12:
        x = x / norm
        t = hunvec(x)
        if (
            np.linalg.norm(m @ x - value * x) <= 1e-9 * scale
            and float(np.min(np.linalg.eigvalsh(t))) >= -TOL_PSD
            and float(np.trace(t).real) > TOL_PSD
        ):
            return t
    raise NoConvergenceError(f"no positive dominant {name} found")
