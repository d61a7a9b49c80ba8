"""One-trajectory-at-a-time reference simulator.

The oracle of the batched engine in ``oqwalk.simulate.run``. Trajectory i
of a run seeded with ``seed`` draws from ``reference_stream(seed, i)``, a
``Generator`` over ``Philox(SeedSequence((seed, i)))`` that numpy builds
itself, not ``simulate.trajectory_rng``, which derives the same Philox keys
in its own code: first the start's uniform, then one per step. Fed this
stream, the oracle draws the same site (and, for a run without tracks, the
same eigenvector of it) and the same Kraus indices, so positions must agree
exactly. It steps density matrices, where the engine steps factors of them.
"""

from dataclasses import dataclass

import numpy as np

from oqwalk.channel import WalkModel
from oqwalk.errors import NumericalDegeneracyError
from oqwalk.linalg import support_eigenpairs
from oqwalk.structure import DiagonalState


@dataclass(frozen=True)
class TrajectoryState:
    position: np.ndarray  # (d,) integers
    state: np.ndarray  # (h, h) unit-trace positive matrix


def reference_stream(seed: int, index: int) -> np.random.Generator:
    """The uniforms that trajectory ``index`` of a run seeded with ``seed``
    draws, in order: the start's, then one per step."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def branch_probabilities(model: WalkModel, state: np.ndarray) -> np.ndarray:
    probs = np.array(
        [float(np.trace(l @ state @ l.conj().T).real) for l in model.kraus]
    )
    return np.clip(probs, 0.0, None)


def _pick(cdf_row: np.ndarray, u: float) -> int:
    j = int(np.searchsorted(cdf_row, u, side="right"))
    return min(j, len(cdf_row) - 1)


def sample_initial(
    rho: DiagonalState, rng: np.random.Generator, pure: bool = False
) -> TrajectoryState:
    """Draw the starting site with probability Tr(rho(k)) and normalize.

    With ``pure``, as ``run`` does without tracks, the same uniform also
    draws an eigenvector psi of the normalized site matrix with probability
    its eigenvalue, by splitting the site's slice of the CDF in proportion
    to the eigenvalues, and the start is psi psi*.
    """
    sites = sorted(rho.entries.keys())
    traces = np.array([float(np.trace(rho.entries[s]).real) for s in sites])
    cdf = np.cumsum(traces)
    cdf /= cdf[-1]
    u = float(rng.random())
    k = _pick(cdf, u)
    site = sites[k]
    state = rho.entries[site] / traces[k]
    if pure:
        w, vecs = support_eigenpairs(state)
        lo, hi = (cdf[k - 1] if k else 0.0), cdf[k]
        bounds = np.append(np.minimum(lo + (hi - lo) * np.cumsum(w[:-1]) / w.sum(), hi), hi)
        psi = vecs[:, _pick(bounds, u)]
        state = np.outer(psi, psi.conj())
    return TrajectoryState(position=np.array(site, dtype=int), state=state)


def step(
    state: TrajectoryState, model: WalkModel, rng: np.random.Generator
) -> TrajectoryState:
    """One jump of the trajectory Markov chain."""
    probs = branch_probabilities(model, state.state)
    total = probs.sum()
    if not total >= 1e-14:  # also rejects NaN
        raise NumericalDegeneracyError("all branch probabilities vanish")
    cdf = np.cumsum(probs / total)
    j = _pick(cdf, float(rng.random()))
    new = model.kraus[j] @ state.state @ model.kraus[j].conj().T
    tr = float(np.trace(new).real)
    if not tr >= 1e-14:
        raise NumericalDegeneracyError("selected branch has vanishing probability")
    return TrajectoryState(
        position=state.position + model.shifts[j],
        state=new / tr,
    )
