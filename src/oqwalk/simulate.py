"""Seeded Monte Carlo simulation of the walk's quantum trajectories.

Each trajectory carries a lattice position and a normalized internal state;
one step draws a Kraus index with probability Tr(L_j rho L_j*), shifts the
position by the corresponding vector, and renormalizes L_j rho L_j*.

Reproducibility: trajectory i draws from a Philox (counter-based) stream
keyed by (seed, i), so ensembles are bit-identical across runs, chunk sizes
and any parallel schedule. The engine advances all trajectories of a chunk
in lockstep with batched contractions; this changes nothing statistically
because the streams are per-trajectory.

The batched step precomputes the effects M_j = L_j* L_j once per run, so the
branch probabilities p_j = Tr(M_j rho) = Re<M_j, rho> of a whole chunk are
one real matrix product, O(v h^2) per trajectory. The update then gathers
each trajectory's chosen L_j and L_j* and applies (L_j rho) L_j* in one
batched product. Uniforms are drawn in blocks of ``DRAW_BLOCK`` steps from
the chunk's generators; consecutive draws continue the same stream, so
blocking changes no value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .channel import WalkModel
from .errors import DegenerateStepError, MissingTrackError, NumericalDegeneracyError
from .structure import DiagonalState

CHUNK = 4096
DRAW_BLOCK = 256
REHERMITIZE_EVERY = 50


@dataclass(frozen=True)
class SimConfig:
    steps: int
    trajectories: int
    seed: int
    y_stride: int = 1

    def __post_init__(self):
        if self.steps < 0 or self.trajectories < 1 or self.y_stride < 1:
            raise ValueError("invalid simulation configuration")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    config: SimConfig
    initial_positions: np.ndarray  # (N, d)
    final_positions: np.ndarray  # (N, d)
    y_snapshot_steps: np.ndarray  # (S,)
    y_tracks: dict = field(default_factory=dict)  # id -> (N, S)

    @property
    def displacements(self) -> np.ndarray:
        return self.final_positions - self.initial_positions

    def final_track(self, track_id: str) -> np.ndarray:
        if track_id not in self.y_tracks:
            raise MissingTrackError(f"no track named {track_id!r}")
        return self.y_tracks[track_id][:, -1]


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory, independent of all others."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed), int(index))))
    )


def _snapshot_steps(steps: int, stride: int) -> np.ndarray:
    marks = sorted(set(range(0, steps + 1, stride)) | {steps})
    return np.array(marks, dtype=int)


def run(
    model: WalkModel,
    rho: DiagonalState,
    config: SimConfig,
    tracks: dict | None = None,
) -> TrajectoryEnsemble:
    """Simulate an ensemble of independent trajectories.

    ``tracks`` maps an id to a Hermitian observable with spectrum in [0, 1]
    (absorption operators, projectors); its expectation in the internal state
    is recorded every ``y_stride`` steps. A recorded value outside [0, 1]
    (beyond 1e-9) raises NumericalDegeneracyError.
    """
    tracks = tracks or {}
    n_traj, n_steps = config.trajectories, config.steps
    d, h = model.lattice_dim, model.local_dim
    snap = _snapshot_steps(n_steps, config.y_stride)
    snap_set = {int(s): i for i, s in enumerate(snap)}

    sites = sorted(rho.entries.keys())
    site_mats = np.array(
        [rho.entries[s] / np.trace(rho.entries[s]).real for s in sites]
    )
    site_pos = np.array(sites, dtype=int).reshape(len(sites), d)
    traces = np.array([float(np.trace(rho.entries[s]).real) for s in sites])
    site_cdf = np.cumsum(traces)
    site_cdf /= site_cdf[-1]

    kraus = model.kraus
    kraus_dag = np.ascontiguousarray(kraus.conj().transpose(0, 2, 1))
    num_kraus = kraus.shape[0]
    # Re<M_j, rho> is the dot product of the interleaved (re, im) entries
    effects = (kraus_dag @ kraus).view(float).reshape(num_kraus, 2 * h * h).T.copy()
    shifts = model.shifts
    track_ids = sorted(tracks.keys())
    track_ops = [np.asarray(tracks[t], dtype=complex) for t in track_ids]

    initial = np.empty((n_traj, d), dtype=int)
    final = np.empty((n_traj, d), dtype=int)
    y_out = {t: np.empty((n_traj, len(snap))) for t in track_ids}

    for lo in range(0, n_traj, CHUNK):
        hi = min(lo + CHUNK, n_traj)
        c = hi - lo
        rngs = [trajectory_rng(config.seed, i) for i in range(lo, hi)]
        block = np.empty((c, min(DRAW_BLOCK, n_steps)))

        site_idx = np.minimum(
            np.searchsorted(site_cdf, [g.random() for g in rngs], side="right"),
            len(sites) - 1,
        )
        states = site_mats[site_idx].copy()
        positions = site_pos[site_idx].copy()
        initial[lo:hi] = positions

        def record(step_index):
            col = snap_set.get(step_index)
            if col is None:
                return
            for tid, op in zip(track_ids, track_ops):
                vals = np.einsum("ab,nba->n", op, states).real
                if not (np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)):
                    raise NumericalDegeneracyError(
                        f"track {tid!r} left [0,1]: range "
                        f"[{vals.min():.3e}, {vals.max():.3e}]"
                    )
                y_out[tid][lo:hi, col] = vals

        record(0)
        for n in range(1, n_steps + 1):
            k = (n - 1) % DRAW_BLOCK
            if k == 0:
                uniforms = block[:, : min(DRAW_BLOCK, n_steps - n + 1)]
                for g, row in zip(rngs, uniforms):
                    g.random(out=row)
            probs = states.view(float).reshape(c, 2 * h * h) @ effects
            np.clip(probs, 0.0, None, out=probs)
            totals = probs.sum(axis=1)
            if not np.all(totals >= 1e-14):
                raise DegenerateStepError("all branch probabilities vanish")
            cdf = np.cumsum(probs / totals[:, None], axis=1)
            chosen = np.minimum(
                (cdf < uniforms[:, k, None]).sum(axis=1), num_kraus - 1
            )
            states = kraus[chosen] @ states @ kraus_dag[chosen]
            tr = np.einsum("naa->n", states).real
            if not np.all(tr >= 1e-14):
                raise DegenerateStepError("selected branch has vanishing probability")
            states /= tr[:, None, None]
            positions += shifts[chosen]
            if n % REHERMITIZE_EVERY == 0:
                states = 0.5 * (states + states.conj().transpose(0, 2, 1))
            record(n)

        final[lo:hi] = positions

    return TrajectoryEnsemble(
        config=config,
        initial_positions=initial,
        final_positions=final,
        y_snapshot_steps=snap,
        y_tracks=y_out,
    )


def martingale_check(
    model: WalkModel, observable: np.ndarray, states: list
) -> float:
    """Worst one-step violation of E[Tr(A rho_{n+1}) | rho_n] = Tr(A rho_n).

    The conditional expectation collapses algebraically to
    sum_j Tr(A L_j rho L_j*), so this is an exact identity check (no
    sampling) that the observable is harmonic.
    """
    a = np.asarray(observable, dtype=complex)
    worst = 0.0
    for rho in states:
        stepped = sum(
            float(np.trace(a @ (l @ rho @ l.conj().T)).real) for l in model.kraus
        )
        worst = max(worst, abs(stepped - float(np.trace(a @ rho).real)))
    return worst


def classify_absorption(
    ensemble: TrajectoryEnsemble,
    track_id: str,
    hi: float = 0.99,
    lo: float = 0.01,
) -> tuple[float, float, float]:
    """Fractions of trajectories whose final tracked value is above ``hi``,
    below ``lo``, or in between."""
    final = ensemble.final_track(track_id)
    n = len(final)
    frac_hi = float(np.sum(final > hi)) / n
    frac_lo = float(np.sum(final < lo)) / n
    return frac_hi, frac_lo, 1.0 - frac_hi - frac_lo


def model_hash(model: WalkModel) -> str:
    payload = json.dumps(model.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def ensemble_to_csv_rows(ensemble: TrajectoryEnsemble) -> tuple[list, list]:
    """Header and rows for the one-line-per-trajectory export."""
    d = ensemble.final_positions.shape[1]
    track_ids = sorted(ensemble.y_tracks.keys())
    header = (
        [f"x0_{j + 1}" for j in range(d)]
        + [f"x_{j + 1}" for j in range(d)]
        + [f"y_{tid}" for tid in track_ids]
    )
    finals = {tid: ensemble.final_track(tid) for tid in track_ids}
    rows = []
    for i in range(ensemble.final_positions.shape[0]):
        row = [str(int(v)) for v in ensemble.initial_positions[i]]
        row += [str(int(v)) for v in ensemble.final_positions[i]]
        row += [repr(float(finals[tid][i])) for tid in track_ids]
        rows.append(row)
    return header, rows


def run_manifest(
    model: WalkModel, ensemble: TrajectoryEnsemble, wall_time: float
) -> dict:
    cfg = ensemble.config
    return {
        "model_sha256": model_hash(model),
        "steps": cfg.steps,
        "trajectories": cfg.trajectories,
        "seed": cfg.seed,
        "y_stride": cfg.y_stride,
        "tracks": sorted(ensemble.y_tracks.keys()),
        "wall_time_seconds": wall_time,
    }
