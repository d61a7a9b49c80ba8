"""Fixed-point structure of the local channel.

Computes invariant operators, the recurrent/transient split, the canonical
blocks of the recurrent space with one decomposition into minimal enclosures,
absorption operators, reachable enclosures, and the induced mixture weights
of an initial diagonal state.

The block decomposition follows the fixed-point-algebra route: a generic
Hermitian element of the dual fixed-point space on the recurrent subspace is
block-diagonal with one (random) eigenvalue per minimal enclosure copy, so
its eigenspaces are minimal enclosures; two of them share a block exactly
when some fixed-point element has a nonzero off-diagonal part between them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import ChannelView, WalkModel, apply_dual, to_matrix, unvec, vec, perron
from .errors import (
    NotAnEnclosureError,
    NumericalDegeneracyError,
    SingularTransientSystemError,
)
from .linalg import (
    Subspace,
    hermitian_part,
    orthonormal_complement,
    subspace_intersection,
    support_projection,
)

TOL_ENCLOSURE = 1e-9
TOL_FIXED = 1e-9
AMBIGUITY_BAND = 1e-7


@dataclass(frozen=True)
class DiagonalState:
    """Initial state diagonal in position: a map from lattice site to operator."""

    entries: dict  # tuple[int, ...] -> (h, h) positive semidefinite ndarray

    def __post_init__(self):
        entries = {}
        dim = None
        total = 0.0
        for site, mat in self.entries.items():
            site = tuple(int(c) for c in np.atleast_1d(site))
            mat = np.asarray(mat, dtype=complex)
            if dim is None:
                dim = mat.shape[0]
            if mat.shape != (dim, dim):
                raise ValueError("all site matrices must share one dimension")
            if np.linalg.norm(mat - mat.conj().T) > 1e-10:
                raise ValueError(f"site {site}: matrix not Hermitian")
            if float(np.min(np.linalg.eigvalsh(hermitian_part(mat)))) < -1e-12:
                raise ValueError(f"site {site}: matrix not positive semidefinite")
            total += float(np.trace(mat).real)
            entries[site] = mat
        if not entries:
            raise ValueError("state needs at least one site")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"total trace {total} != 1")
        object.__setattr__(self, "entries", entries)

    @property
    def local_dim(self) -> int:
        return next(iter(self.entries.values())).shape[0]

    @property
    def lattice_dim(self) -> int:
        return len(next(iter(self.entries.keys())))

    def site_average(self) -> np.ndarray:
        """Sum of the site matrices (a unit-trace state)."""
        return sum(self.entries.values())

    @staticmethod
    def single_site(matrix: np.ndarray, site=(0,)) -> "DiagonalState":
        return DiagonalState({tuple(site): np.asarray(matrix, dtype=complex)})

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "site": list(site),
                    "matrix": [
                        [[float(z.real), float(z.imag)] for z in row] for row in mat
                    ],
                }
                for site, mat in sorted(self.entries.items())
            ]
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiagonalState":
        entries = {}
        for item in data["entries"]:
            mat = np.asarray(
                [[complex(re, im) for re, im in row] for row in item["matrix"]]
            )
            entries[tuple(item["site"])] = mat
        return DiagonalState(entries)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "DiagonalState":
        with open(path) as fh:
            return DiagonalState.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class Block:
    """One canonical block of the recurrent space."""

    subspace: Subspace
    minimal_enclosures: list
    invariant_state: np.ndarray  # ambient, supported on one minimal enclosure

    @property
    def multiplicity(self) -> int:
        return len(self.minimal_enclosures)


@dataclass(frozen=True)
class SpaceDecomposition:
    recurrent: Subspace
    transient: Subspace
    blocks: list

    @property
    def is_recurrent(self) -> bool:
        return self.transient.dim == 0

    def block_ids(self) -> list:
        return [f"block-{i}" for i in range(len(self.blocks))]


def enclosure_defect(model: WalkModel, subspace: Subspace) -> float:
    """max_i ||L_i P - P L_i P||; zero exactly when the subspace is an enclosure."""
    p = subspace.projector()
    return max(
        float(np.linalg.norm(l @ p - p @ l @ p)) for l in model.kraus
    )


def _fixed_space_hermitian_basis(m: np.ndarray, guard_ambiguity: bool = False) -> list:
    """Orthonormal Hermitian basis of the eigenvalue-1 eigenspace of a superoperator."""
    vals, vecs = np.linalg.eig(m)
    dist = np.abs(vals - 1.0)
    close = dist <= TOL_FIXED
    if guard_ambiguity and np.any((dist > TOL_FIXED) & (dist < AMBIGUITY_BAND)):
        raise NumericalDegeneracyError(
            "eigenvalues too close to 1 to resolve the fixed space"
        )
    mats = [unvec(vecs[:, j]) for j in np.flatnonzero(close)]
    candidates = []
    for t in mats:
        candidates.append(hermitian_part(t))
        candidates.append(hermitian_part(1j * t))
    if not candidates:
        return []
    # orthonormalize the real span (Hilbert-Schmidt inner product)
    rows = np.array(
        [np.concatenate([vec(c).real, vec(c).imag]) for c in candidates]
    )
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    k = int(round(np.sqrt(m.shape[0])))
    basis = []
    for r in vt[:rank]:
        mat = unvec(r[: k * k] + 1j * r[k * k :])
        basis.append(hermitian_part(mat))
    return basis


def invariant_operators(view: ChannelView) -> list:
    """Hermitian basis of the fixed-point space {sigma : channel(sigma) = sigma}."""
    if np.any(view.u):
        raise ValueError("fixed-point analysis requires the undeformed channel")
    return _fixed_space_hermitian_basis(to_matrix(view))


def recurrent_space(model: WalkModel) -> Subspace:
    """Span of the supports of all invariant states.

    Every invariant state lies in the real span of the Hermitian fixed-point
    basis, so the union of supports equals the support of sum_m |x_m|
    (absolute values, since basis elements carry arbitrary sign).

    Memoized per model: the dense eigensolve of the h^2 x h^2 superoperator
    runs on the first call only, together with the orthogonal complement
    (see ``transient_space``); later calls return the stored read-only
    subspace.
    """
    split = model._memo.get("recurrent")
    if split is None:
        rec = _recurrent_support(model)
        split = (rec, orthonormal_complement(rec))
        for sub in split:
            sub.basis.flags.writeable = False
        model._memo["recurrent"] = split
    return split[0]


def transient_space(model: WalkModel) -> Subspace:
    """Orthogonal complement of the recurrent space, memoized with it."""
    recurrent_space(model)
    return model._memo["recurrent"][1]


def _recurrent_support(model: WalkModel) -> Subspace:
    basis = invariant_operators(ChannelView.full(model))
    acc = np.zeros((model.local_dim, model.local_dim), dtype=complex)
    for x in basis:
        w, v = np.linalg.eigh(x)
        acc += (v * np.abs(w)) @ v.conj().T
    if np.linalg.norm(acc) == 0:
        return Subspace.zero(model.local_dim)
    return support_projection(acc / np.trace(acc).real)


def fixed_space_dim(model: WalkModel, subspace: Subspace) -> int:
    """Dimension of the fixed space of the channel compressed to a subspace:
    its eigenvalues within TOL_FIXED of 1, counted with multiplicity."""
    m = to_matrix(ChannelView(model, subspace))
    vals = np.linalg.eigvals(m)
    return int(np.sum(np.abs(vals - 1.0) <= TOL_FIXED))


def decompose(model: WalkModel, seed: int = 0) -> SpaceDecomposition:
    """Recurrent/transient split plus the canonical block structure.

    Random draws are controlled by ``seed``; the block subspaces are
    canonical, while the minimal enclosures inside a multiplicity block are
    one valid choice among infinitely many.
    """
    rec = recurrent_space(model)
    tra = transient_space(model)
    view_r = ChannelView(model, rec)
    m_r = to_matrix(view_r)
    # fixed points of the dual channel restricted to the recurrent space
    dual_basis = _fixed_space_hermitian_basis(m_r.conj().T, guard_ambiguity=True)
    if not dual_basis:
        raise NumericalDegeneracyError("empty dual fixed-point space on recurrent part")

    rng = np.random.default_rng(seed)
    enclosures_r = None
    for _ in range(5):
        coeffs = rng.standard_normal(len(dual_basis))
        x = sum(c * b for c, b in zip(coeffs, dual_basis))
        w, v = np.linalg.eigh(x)
        clusters = _cluster_eigenvalues(w)
        candidates = [
            Subspace(rec.dim, v[:, idx]) for idx in clusters
        ]
        if _all_minimal(model, rec, candidates):
            enclosures_r = candidates
            break
    if enclosures_r is None:
        raise NumericalDegeneracyError(
            "failed to split the recurrent space into minimal enclosures"
        )

    groups = _group_by_connection(enclosures_r, dual_basis)
    blocks = []
    for group in groups:
        members = [enclosures_r[i] for i in group]
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise NumericalDegeneracyError(
                "minimal enclosures in one block have unequal dimensions"
            )
        ambient_members = [
            Subspace(model.local_dim, rec.basis @ m.basis) for m in members
        ]
        block_sub = Subspace(
            model.local_dim, np.hstack([m.basis for m in ambient_members])
        )
        rep = ambient_members[0]
        tau_local = perron(ChannelView(model, rep)).state
        tau = rep.basis @ tau_local @ rep.basis.conj().T
        blocks.append(
            Block(
                subspace=block_sub,
                minimal_enclosures=ambient_members,
                invariant_state=tau,
            )
        )

    blocks.sort(key=_block_sort_key)
    return SpaceDecomposition(recurrent=rec, transient=tra, blocks=blocks)


def _cluster_eigenvalues(w: np.ndarray) -> list:
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    clusters = [[0]]
    for j in range(1, len(w)):
        if w[j] - w[clusters[-1][-1]] <= 1e-8 * scale:
            clusters[-1].append(j)
        else:
            clusters.append([j])
    return clusters


def _all_minimal(model, rec, candidates) -> bool:
    for cand in candidates:
        ambient = Subspace(model.local_dim, rec.basis @ cand.basis)
        if enclosure_defect(model, ambient) > TOL_ENCLOSURE:
            return False
        if fixed_space_dim(model, ambient) != 1:
            return False
    return True


def _group_by_connection(enclosures, dual_basis) -> list:
    n = len(enclosures)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for a in range(n):
        for b in range(a + 1, n):
            ba, bb = enclosures[a].basis, enclosures[b].basis
            linked = any(
                np.linalg.norm(ba.conj().T @ x @ bb) > 1e-8 for x in dual_basis
            )
            if linked:
                union(a, b)

    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def _block_sort_key(block: Block):
    diag = np.round(np.diag(block.subspace.projector()).real, 6)
    return (-block.subspace.dim, tuple(-diag))


@dataclass(frozen=True)
class AbsorptionOperator:
    """Positive contraction measuring eventual absorption into an enclosure."""

    enclosure: Subspace
    matrix: np.ndarray

    def support(self) -> Subspace:
        return support_projection(self.matrix)

    def weight(self, state: np.ndarray) -> float:
        return float(np.trace(self.matrix @ state).real)


def absorption(model: WalkModel, enclosure: Subspace) -> AbsorptionOperator:
    """Absorption operator of an enclosure.

    Writes the operator as p + B with B supported on W, the transient part
    of the orthogonal complement; harmonicity there gives the linear system
    (Id - dual channel compressed to W)(B) = compressed dual image of p.
    Its resolvent is invertible: the channel compressed to W is completely
    positive and trace non-increasing, and W holds no invariant state, so by
    Perron-Frobenius for positive maps (Evans & Hoegh-Krohn 1978) its
    spectral radius is < 1. (Solving on the full complement instead is
    singular whenever the complement contains another recurrent block.)
    A solve that fails or does not verify raises
    SingularTransientSystemError.

    Memoized per model, keyed by the exact bytes and shape of
    ``enclosure.basis``: identical inputs return the identical (read-only)
    operator.
    """
    basis = enclosure.basis
    key = ("absorption", basis.shape, basis.tobytes())
    op = model._memo.get(key)
    if op is None:
        stored = basis.copy(order="K")
        stored.flags.writeable = False
        op = _absorption(model, Subspace(enclosure.ambient_dim, stored))
        op.matrix.flags.writeable = False
        model._memo[key] = op
    return op


def _absorption(model: WalkModel, enclosure: Subspace) -> AbsorptionOperator:
    defect = enclosure_defect(model, enclosure)
    if defect > TOL_ENCLOSURE:
        raise NotAnEnclosureError(f"enclosure defect {defect:.3e}")

    p = enclosure.projector()
    full = ChannelView.full(model)

    w_space = subspace_intersection(
        transient_space(model), orthonormal_complement(enclosure)
    )

    a = p
    if w_space.dim:
        dual_w = to_matrix(ChannelView(model, w_space)).conj().T
        c = w_space.basis
        rhs = vec(c.conj().T @ apply_dual(full, p) @ c)
        try:
            y = unvec(np.linalg.solve(np.eye(dual_w.shape[0]) - dual_w, rhs))
        except np.linalg.LinAlgError as exc:
            raise SingularTransientSystemError(str(exc)) from exc
        a = p + c @ y @ c.conj().T

    defect = _absorption_defect(full, enclosure, a)
    if not defect <= 1e-9:  # also catches NaN
        raise SingularTransientSystemError(
            f"absorption operator fails its defining properties by {defect:.3e}"
        )
    return AbsorptionOperator(enclosure, hermitian_part(a))


def _absorption_defect(view, enclosure, a) -> float:
    """Worst violation of the absorption-operator properties."""
    h = a.shape[0]
    p = enclosure.projector()
    q = np.eye(h) - p
    herm = np.linalg.norm(a - a.conj().T)
    harmonic = np.linalg.norm(apply_dual(view, a) - a)
    split = np.linalg.norm(a - (p + q @ a @ q))
    evals = np.linalg.eigvalsh(hermitian_part(a))
    bounds = max(0.0, float(-np.min(evals)), float(np.max(evals) - 1.0))
    return max(herm, harmonic, split, bounds)


def reachable_space(model: WalkModel, rho: DiagonalState) -> Subspace:
    """Smallest enclosure containing the supports of all site matrices."""
    supports = []
    for mat in rho.entries.values():
        sub = support_projection(mat)
        if sub.dim:
            supports.append(sub.basis)
    current = Subspace.from_span(np.hstack(supports))
    for _ in range(model.local_dim):
        images = [current.basis] + [l @ current.basis for l in model.kraus]
        grown = Subspace.from_span(np.hstack(images))
        if grown.dim == current.dim:
            break
        current = grown
    return current


def weights(
    model: WalkModel, decomposition: SpaceDecomposition, rho: DiagonalState
) -> tuple[list, list]:
    """Mixture weights per block and per minimal enclosure.

    The block weight is the trace of the block's absorption operator against
    the site-summed initial state; enclosure weights refine each block weight.
    """
    rho_bar = rho.site_average()
    block_weights = []
    enclosure_weights = []
    for block in decomposition.blocks:
        a_block = absorption(model, block.subspace)
        block_weights.append(a_block.weight(rho_bar))
        enclosure_weights.append(
            [
                absorption(model, sub).weight(rho_bar)
                for sub in block.minimal_enclosures
            ]
        )
    total = sum(block_weights)
    if abs(total - 1.0) > 1e-9:
        raise NumericalDegeneracyError(f"block weights sum to {total}, not 1")
    for bw, row in zip(block_weights, enclosure_weights):
        if abs(sum(row) - bw) > 1e-9:
            raise NumericalDegeneracyError("enclosure weights do not refine block weight")
    return block_weights, enclosure_weights
