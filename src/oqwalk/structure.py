"""Fixed-point structure of the local channel.

Computes invariant operators, the recurrent/transient split, the canonical
blocks of the recurrent space with one decomposition into minimal enclosures,
absorption operators, reachable enclosures, and the induced mixture weights
of an initial diagonal state.

The block decomposition follows the fixed-point-algebra route (Carbone and
Pautrat 2016): on the recurrent subspace the dual fixed points form an
algebra (+) M_m (x) I. Its minimal projections are the minimal enclosures,
found by cutting along spectral projections of its elements, with no random
draw. Compressed to them, the algebra is scalar on each one and nonzero
exactly between two copies in one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelView,
    WalkModel,
    hunvec,
    hvec,
    lattice_coords,
    matrix_from_json,
    matrix_to_json,
    perron,
    write_json,
)
from .errors import NumericalDegeneracyError
from .linalg import (
    Subspace,
    hermitian_part,
    orthonormal_complement,
    subspace_intersection,
    support_eigenpairs,
    support_projection,
)

TOL_ENCLOSURE = 1e-9
TOL_FIXED = 1e-9
AMBIGUITY_BAND = 1e-7
TOL_LINK = 1e-8  # Frobenius norm up to which a compressed dual fixed point is 0


def _site(coords) -> tuple:
    """Lattice site of integer ``coords`` (``lattice_coords``' rule)."""
    coords = np.asarray(coords, dtype=object).reshape(-1)
    return tuple(lattice_coords(coords, f"site {tuple(coords.tolist())}: coordinates").tolist())


@dataclass(frozen=True)
class DiagonalState:
    """Initial state diagonal in position: a map from lattice site to operator."""

    entries: dict  # tuple[int, ...] -> (h, h) positive semidefinite ndarray

    def __post_init__(self):
        entries = {}
        dim = None
        total = 0.0
        for site, mat in self.entries.items():
            site = _site(site)
            if site in entries:
                raise ValueError(f"site {site} is given twice")
            if entries and len(site) != len(next(iter(entries))):
                raise ValueError(f"site {site}: all sites must share one lattice dimension")
            mat = np.asarray(mat, dtype=complex)
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"site {site}: entries must be finite")
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
        # a small-trace site can pass the absolute checks, not once normalized
        for site, trace, mat in zip(*self.normalized_sites()):
            try:
                support_eigenpairs(mat)
            except NumericalDegeneracyError as exc:
                raise ValueError(f"site {site} over its trace {trace:.3e}: {exc}") from exc

    @property
    def local_dim(self) -> int:
        return next(iter(self.entries.values())).shape[0]

    @property
    def lattice_dim(self) -> int:
        return len(next(iter(self.entries.keys())))

    def normalized_sites(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Sorted sites, their traces, and each matrix over its trace (if not 0)."""
        sites = sorted(self.entries)
        traces = np.array([float(np.trace(self.entries[s]).real) for s in sites])
        scale = np.where(traces > 0, traces, 1.0)
        return sites, traces, np.array([self.entries[s] / t for s, t in zip(sites, scale)])

    def site_average(self) -> np.ndarray:
        """Sum of the site matrices (a unit-trace state)."""
        return sum(self.entries.values())

    @staticmethod
    def single_site(matrix: np.ndarray, site=(0,)) -> "DiagonalState":
        return DiagonalState({tuple(site): np.asarray(matrix, dtype=complex)})

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"site": list(site), "matrix": matrix_to_json(mat)}
                for site, mat in sorted(self.entries.items())
            ]
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiagonalState":
        entries = {}
        for item in data["entries"]:
            site = _site(item["site"])
            if site in entries:
                raise ValueError(f"site {site} is given twice")
            entries[site] = matrix_from_json(item["matrix"])
        return DiagonalState(entries)

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "DiagonalState":
        with open(path) as fh:
            return DiagonalState.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class Block:
    """One canonical block of the recurrent space."""

    subspace: Subspace
    minimal_enclosures: tuple
    invariant_state: np.ndarray  # ambient, supported on one minimal enclosure

    @property
    def multiplicity(self) -> int:
        return len(self.minimal_enclosures)


@dataclass(frozen=True)
class SpaceDecomposition:
    recurrent: Subspace
    transient: Subspace
    blocks: tuple

    @property
    def is_recurrent(self) -> bool:
        return self.transient.dim == 0

    def block_ids(self) -> list:
        return [f"block-{i}" for i in range(len(self.blocks))]

    def enclosure_ids(self) -> list:
        """Per block, the ids of its minimal enclosures: ``block-i/min-j``."""
        return [
            [f"{bid}/min-{j}" for j in range(block.multiplicity)]
            for bid, block in zip(self.block_ids(), self.blocks)
        ]


def enclosure_defect(model: WalkModel, subspace: Subspace) -> float:
    """max_i ||L_i P - P L_i P||; zero exactly when the subspace is an enclosure."""
    p = subspace.projector()
    return max(
        float(np.linalg.norm(l @ p - p @ l @ p)) for l in model.kraus
    )


def _fixed_space_hermitian_basis(m: np.ndarray, guard_ambiguity: bool = False) -> np.ndarray:
    """Stacked orthonormal Hermitian basis of the fixed space of a real superoperator."""
    vals, vecs = np.linalg.eig(m)
    dist = np.abs(vals - 1.0)
    close = dist <= TOL_FIXED
    if guard_ambiguity and np.any((dist > TOL_FIXED) & (dist < AMBIGUITY_BAND)):
        raise NumericalDegeneracyError(
            "eigenvalues too close to 1 to resolve the fixed space"
        )
    # the real and imaginary parts of the eigenvectors span it
    rows = np.vstack([vecs[:, close].real.T, vecs[:, close].imag.T])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * np.max(s, initial=1.0)))
    return hunvec(vt[:rank])


def recurrent_space(model: WalkModel) -> Subspace:
    """Span of the supports of all invariant states.

    Every invariant state lies in the real span of the Hermitian fixed-point
    basis, so the union of supports equals the support of sum_m |x_m|
    (absolute values, since basis elements carry arbitrary sign).

    Memoized per model (``WalkModel.cached``): the dense eigensolve of the
    h^2 x h^2 superoperator runs on the first call only; later calls return
    the stored read-only subspace.
    """
    return model.cached("recurrent", lambda: _frozen(_recurrent_support(model)))


def transient_space(model: WalkModel) -> Subspace:
    """Orthogonal complement of the recurrent space, memoized like it."""
    rec = recurrent_space(model)
    return model.cached("transient", lambda: _frozen(orthonormal_complement(rec)))


def _frozen(sub: Subspace) -> Subspace:
    """``sub`` with a read-only basis, fit to be shared through the memo."""
    sub.basis.flags.writeable = False
    return sub


def _recurrent_support(model: WalkModel) -> Subspace:
    # a Hermitian basis of the fixed points {sigma : channel(sigma) = sigma}
    basis = _fixed_space_hermitian_basis(ChannelView.full(model).matrix)
    acc = np.zeros((model.local_dim, model.local_dim), dtype=complex)
    for x in basis:
        w, v = np.linalg.eigh(x)
        acc += (v * np.abs(w)) @ v.conj().T
    if np.linalg.norm(acc) == 0:
        return Subspace.zero(model.local_dim)
    return support_projection(acc / np.trace(acc).real)


def fixed_space_dim(model: WalkModel, subspace: Subspace) -> int:
    """Dimension of the fixed space of the channel compressed to a subspace:
    its eigenvalues within TOL_FIXED of 1, counted with multiplicity. Only the
    benchmark's model generator and the tests call it."""
    return _count_fixed(np.linalg.eigvals(ChannelView(model, subspace).matrix))


def _count_fixed(eigenvalues: np.ndarray) -> int:
    return int(np.sum(np.abs(eigenvalues - 1.0) <= TOL_FIXED))


def decompose(model: WalkModel, seed: int = 0) -> SpaceDecomposition:
    """Recurrent/transient split plus the canonical block structure.

    The split draws nothing (``_minimal_projections``), and ``seed`` is
    accepted and ignored. The block subspaces are canonical; the minimal
    enclosures inside a multiplicity block are one valid choice, fixed by the
    model's basis. Every candidate must be an enclosure with scalar dual
    fixed points, else NumericalDegeneracyError; it joins the first block
    whose first member a dual fixed point links it to.

    Memoized per model through ``WalkModel.cached``: a repeated call returns
    the same shared decomposition and runs no eigensolve. Its containers are
    tuples and its arrays read-only.
    """
    return model.cached("decompose", lambda: _decompose(model))


def _decompose(model: WalkModel) -> SpaceDecomposition:
    rec = recurrent_space(model)
    m_r = ChannelView(model, rec).matrix
    # fixed points of the dual channel restricted to the recurrent space
    ops = _fixed_space_hermitian_basis(m_r.T, guard_ambiguity=True)
    if not len(ops):
        raise NumericalDegeneracyError("empty dual fixed-point space on recurrent part")

    leaves = _minimal_projections(ops, np.eye(rec.dim))
    candidates = [Subspace(model.local_dim, rec.basis @ leaf) for leaf in leaves]
    if not all(
        enclosure_defect(model, sub) <= TOL_ENCLOSURE and _is_scalar(leaf.conj().T @ ops @ leaf)
        for sub, leaf in zip(candidates, leaves)
    ):
        raise NumericalDegeneracyError(
            "failed to split the recurrent space into minimal enclosures"
        )

    # in (+) M_m (x) I every two copies of one block are linked directly, so
    # comparing with each group's first member finds the whole block
    groups = []
    for i, leaf in enumerate(leaves):
        for group in groups:
            link = leaves[group[0]].conj().T @ ops @ leaf
            if np.any(np.linalg.norm(link, axis=(1, 2)) > TOL_LINK):
                group.append(i)
                break
        else:
            groups.append([i])

    blocks = []
    for group in groups:
        members = tuple(_frozen(candidates[i]) for i in group)
        if len({m.dim for m in members}) != 1:
            raise NumericalDegeneracyError(
                "minimal enclosures in one block have unequal dimensions"
            )
        block_sub = Subspace(model.local_dim, np.hstack([m.basis for m in members]))
        rep = members[0]
        tau_local = perron(ChannelView(model, rep)).state
        tau = rep.basis @ tau_local @ rep.basis.conj().T
        tau.flags.writeable = False
        blocks.append(Block(_frozen(block_sub), members, tau))

    blocks.sort(key=_block_sort_key)
    return SpaceDecomposition(recurrent=rec, transient=transient_space(model), blocks=tuple(blocks))


def _minimal_projections(ops: np.ndarray, space: np.ndarray) -> list:
    """Bases of minimal projections of the algebra spanned by ``ops`` that tile
    ``space``, the range of a projection in it. A ``space`` on which some
    compression of ``ops`` is not scalar is cut at the widest gap between
    consecutive eigenvalues of one compression: each half is a spectral
    projection of an algebra element."""
    comp = space.conj().T @ ops @ space
    if _is_scalar(comp):
        return [space]
    w, vecs = np.linalg.eigh(comp)
    gaps = np.diff(w, axis=1)
    k, cut = np.unravel_index(np.argmax(gaps), gaps.shape)
    halves = space @ vecs[k, :, : cut + 1], space @ vecs[k, :, cut + 1 :]
    return [leaf for half in halves for leaf in _minimal_projections(ops, half)]


def _is_scalar(stack: np.ndarray) -> bool:
    """Whether each (n, n) matrix of ``stack`` is within TOL_LINK of a scalar."""
    n = stack.shape[-1]
    off = stack - np.trace(stack, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    return bool(np.all(np.linalg.norm(off, axis=(1, 2)) <= TOL_LINK))


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
    NumericalDegeneracyError.

    Memoized per model (``WalkModel.cached``), keyed by the exact bytes and
    shape of ``enclosure.basis``: identical inputs return the identical
    (read-only) operator.
    """
    basis = enclosure.basis

    def build():
        stored = Subspace(enclosure.ambient_dim, basis.copy(order="K"))
        return _absorption(model, _frozen(stored))

    return model.cached(("absorption", basis.shape, basis.tobytes()), build)


def _absorption(model: WalkModel, enclosure: Subspace) -> AbsorptionOperator:
    defect = enclosure_defect(model, enclosure)
    if defect > TOL_ENCLOSURE:
        raise NumericalDegeneracyError(f"enclosure defect {defect:.3e}")

    p = enclosure.projector()
    dual = ChannelView.full(model).matrix.T

    w_space = subspace_intersection(
        transient_space(model), orthonormal_complement(enclosure)
    )

    a = p
    if w_space.dim:
        dual_w = ChannelView(model, w_space).matrix.T
        c = w_space.basis
        rhs = hvec(c.conj().T @ hunvec(dual @ hvec(p)) @ c)
        try:
            y = hunvec(np.linalg.solve(np.eye(dual_w.shape[0]) - dual_w, rhs))
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(str(exc)) from exc
        a = p + c @ y @ c.conj().T

    defect = _absorption_defect(dual, enclosure, a)
    if not defect <= 1e-9:  # also catches NaN
        raise NumericalDegeneracyError(
            f"absorption operator fails its defining properties by {defect:.3e}"
        )
    a = hermitian_part(a)
    a.flags.writeable = False
    return AbsorptionOperator(enclosure, a)


def _absorption_defect(dual, enclosure, a) -> float:
    """Worst violation of the absorption-operator properties; ``dual``: the full dual channel."""
    h = a.shape[0]
    p = enclosure.projector()
    q = np.eye(h) - p
    herm = np.linalg.norm(a - a.conj().T)
    harmonic = np.linalg.norm(dual @ hvec(a) - hvec(a))
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
