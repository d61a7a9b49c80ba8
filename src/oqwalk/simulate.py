"""Seeded Monte Carlo simulation of the walk's quantum trajectories.

Each trajectory carries a lattice position and a normalized internal state;
one step draws a Kraus index with probability Tr(L_j rho L_j*), shifts the
position by the corresponding vector, and renormalizes L_j rho L_j*. ``run``
returns arrays; ``cli`` writes and reads the ensemble files.

Reproducibility: trajectory i draws from a Philox (counter-based) stream
keyed by (seed, i), so ensembles are bit-identical across runs, chunk sizes
and worker counts. The engine advances all trajectories of a chunk in
lockstep with batched contractions; this changes nothing statistically
because the streams are per-trajectory.

Horizons: a trajectory consumes its stream the same way at every horizon, so
the first n steps of a longer run are, bit for bit, the run to n. One run
therefore serves every horizon: ``SimConfig.horizons`` lists the shorter
ones, the run keeps the positions at each of them and records the tracks on
the union of their snapshot grids, and ``TrajectoryEnsemble.at(n)`` returns
what a run with ``steps=n`` returns. A failure at any step fails the whole
run, so no horizon's ensemble comes back from it.

Parallel schedule: ``run`` splits the trajectories [0, N) into W contiguous
slices, one per core the process may run on (``os.sched_getaffinity``, or
``os.cpu_count`` where that is missing), each of at least
``PARALLEL_MIN_SLICE`` trajectories. The calling process steps slice 0; each
other slice runs in a ``fork``ed child that sends its rows of the outputs
back through a pipe. Every slice steps in ``CHUNK`` pieces, and a state's
update does not depend on how many states share its chunk, so the outputs
are the same bits for every W. An exception raised in a child is raised in
the caller with its type and message, and every child is reaped before
``run`` returns or raises.

Runs of fewer than 2 * ``PARALLEL_MIN_SLICE`` trajectories therefore keep
W = 1 and never fork. Each slice pays the per-step numpy-call cost of its
chunk again, and the fork and join cost about 11 ms in a 100-200 MB process.
On a 2-core Xeon (one BLAS thread, certify_h4's start), W = 2 took 1.05-1.34x
the time of W = 1 at 512 trajectories and 50 steps and 0.74-0.79x at 600
steps; at 1024 trajectories 0.84-1.07x at 50 steps and 0.63-0.82x at 600,
and at 2048 and 4096 0.52-1.01x and 0.58-0.76x. So from slices of 512
trajectories on a fork is about even at 50 steps and wins at 600.
Platforms without ``os.fork`` and processes in which other Python threads
run keep W = 1 too, and ``taskset -c 0`` gives a serial run. While the
slices run, every OpenBLAS the process has loaded is held to one thread, and
the children inherit that: two processes with two BLAS threads each made a
16384 x 600 run on two cores 2.7x slower than one process. The caller's thread counts are restored
afterwards; other BLAS libraries are left as they are.

State forms: a trajectory's state rho_n = F_n F_n* keeps the rank r of its
start, so it can be stepped as an h x r factor F <- L_j F / sqrt(p_j), with
p_j = ||L_j F||^2. This is the same trajectory as stepping rho, not another
unravelling. ``run`` factors each normalized site matrix as F = V sqrt(Lambda)
over the eigenpairs that ``linalg.support_eigenpairs`` keeps, pads F to the
largest rank, and steps factors when v r <= h (v branches) and every F F*
reproduces its site matrix to ``FACTOR_TOL`` in each entry; otherwise it
steps densities. The switch is measured (one BLAS thread, 2-core Xeon, run
time per trajectory-step): at v r <= h factors were faster at every (h, v, r)
tried on random models, h from 2 to 16 and v = 2 and 4, and from v r = 1.5 h
on densities mostly were. At h = 4 and v = 2 on four_state_p3_sixth, 4096 x
600 steps, factors took 0.32-0.41x the time of densities from rank 1
(``certify_h4``'s start), 0.83x from rank 2, 1.55x from rank 3 (criterion
07's start) and 1.60x from full rank; full-rank starts took 1.25x at h = 8
and 1.05x at h = 16 (measured before the branch choice read columns). Both
forms share the chunk loop (streams, site draw, branch choice, positions and
records); they differ only in how they get the branch probabilities, apply
the chosen branch and read a track:

- ``_Densities`` precomputes the effects M_j = L_j* L_j once per run, so the
  probabilities p_j = Re<M_j, rho> of a whole chunk are one row-stacked
  complex matrix product. The update groups the chunk by chosen branch: the
  trajectories that drew branch j share two BLAS products with L_j
  (``_apply_branches``).
  Renormalization scales the real view of each state by 1/Tr, and every
  ``REHERMITIZE_EVERY`` steps the states are made Hermitian again.
- ``_Factors`` holds the rows of F^T, a (c, r, h) array. One row-stacked
  product with [L_1^T ... L_v^T] gives every branch's L_j F, whose real view
  gives the p_j; the chosen product is scaled by 1/sqrt(p_j). F F* is
  Hermitian and positive semidefinite by construction, so this form needs no
  rehermitization. A track is sum_k f_k* A f_k over the columns f_k of F.

The complex products stack the chunk's states as rows (``_apply_branches``,
``_rows_times``), so a state's result does not depend on the chunk size.
A real product would not do for the density-form probabilities: OpenBLAS
rounds the last c mod 4 rows of a (c x 2h^2) @ (2h^2 x 2) product otherwise
than the same rows inside a longer one.

Positions agree between the forms bit for bit wherever no uniform falls
within roundoff of a branch boundary; track values agree to about 1e-14.

Branch choice (``_choose_branches``): the (c, v) probabilities of a chunk
(c states, v branches) are clipped at 0 into a contiguous branch-major
(v, c) copy, so that every later pass is a whole-column operation; a loop of
O(v) such operations costs less than one row-wise numpy call over (c, v)
when v is small. Each state's total is the sum of its column entries, and a
state picks the number of j < v - 1 whose partial sum q_0 + ... + q_j,
q_j = p_j / total, lies below its uniform: the first branch whose cumulative
weight reaches the uniform, and the last branch where rounding leaves every
partial sum below it. These are the additions, in the order, of numpy's
row-wise ``cumsum`` and, for v < 8, of its row ``sum``: numpy adds a row of
fewer than 8 entries from left to right, but a longer one in 8 interleaved
lanes, so for v >= 8 the totals come from numpy's row sum of a row-major
copy (``_branch_totals``). The choice is therefore the same bits as the
row-wise form ``min(sum(cumsum(p / total) < u), v - 1)``. A total below
1e-14 or not a number, and a chosen weight below 1e-14 or not a number,
raise NumericalDegeneracyError.

Uniforms are drawn in blocks of ``DRAW_BLOCK`` steps from the chunk's
generators; consecutive draws continue the same stream, so blocking changes
no value.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import WalkModel
from .errors import NumericalDegeneracyError
from .linalg import support_eigenpairs
from .structure import DiagonalState

CHUNK = 4096
DRAW_BLOCK = 256
REHERMITIZE_EVERY = 50
# largest entry by which F F* may miss a normalized site matrix on the factor path
FACTOR_TOL = 1e-14
# fewest trajectories a slice of a forked run steps (see the module text)
PARALLEL_MIN_SLICE = 512
# final absorption-track values that count as absorbed / as escaped
ABSORBED_HI, ABSORBED_LO = 0.99, 0.01


@dataclass(frozen=True)
class SimConfig:
    steps: int
    trajectories: int
    seed: int
    y_stride: int = 1
    # shorter horizons whose ensembles ``TrajectoryEnsemble.at`` cuts from this run
    horizons: tuple = ()

    def __post_init__(self):
        if self.steps < 0 or self.trajectories < 1 or self.y_stride < 1:
            raise ValueError("invalid simulation configuration")
        if not all(0 <= n <= self.steps for n in self.horizons):
            raise ValueError(f"horizons must lie in [0, {self.steps}]: {self.horizons}")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    config: SimConfig
    initial_positions: np.ndarray  # (N, d)
    final_positions: np.ndarray  # (N, d)
    y_snapshot_steps: np.ndarray  # (S,)
    y_tracks: dict = field(default_factory=dict)  # id -> (N, S)
    horizon_positions: dict = field(default_factory=dict)  # n -> (N, d), n < steps

    @property
    def displacements(self) -> np.ndarray:
        return self.final_positions - self.initial_positions

    def at(self, n: int) -> TrajectoryEnsemble:
        """The ensemble that ``run`` with ``steps=n`` and no horizons returns,
        bit for bit; ``n`` is ``config.steps`` or one of ``config.horizons``."""
        cfg = self.config
        if n == cfg.steps:
            final = self.final_positions
        elif n in cfg.horizons:
            final = self.horizon_positions[n]
        else:
            raise ValueError(f"horizon {n} was not recorded by this run")
        snap = _snapshot_steps(n, cfg.y_stride)
        cols = np.searchsorted(self.y_snapshot_steps, snap)
        return TrajectoryEnsemble(
            config=replace(cfg, steps=n, horizons=()),
            initial_positions=self.initial_positions,
            final_positions=final,
            y_snapshot_steps=snap,
            y_tracks={t: y[:, cols] for t, y in self.y_tracks.items()},
        )

    def final_track(self, track_id: str) -> np.ndarray:
        if track_id not in self.y_tracks:
            raise KeyError(f"no track named {track_id!r}")
        return self.y_tracks[track_id][:, -1]


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory, independent of all others."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed), int(index))))
    )


def _snapshot_steps(steps: int, stride: int) -> np.ndarray:
    marks = sorted(set(range(0, steps + 1, stride)) | {steps})
    return np.array(marks, dtype=int)


def _apply_branches(
    states: np.ndarray, chosen: np.ndarray, kraus_t: np.ndarray, kraus_dag: np.ndarray
) -> None:
    """Replace each state S_i by L_j S_i L_j*, j = chosen[i], in place.

    ``kraus_t`` and ``kraus_dag`` hold the contiguous L_j^T and L_j*. The
    states that chose branch j are stacked along the row dimension of both
    products: the stacked S_i^T times L_j^T gives the (L_j S_i)^T, and the
    stacked L_j S_i times L_j* gives the new states. Stacked as rows, a
    state's result does not depend on how many states share its group, so
    not on ``CHUNK`` either; stacked as columns, L_j @ [S_1 ... S_c], its
    last bits depend on c at h = 2, 3, 5 and 6 with OpenBLAS.
    """
    h = states.shape[1]
    for j in range(kraus_t.shape[0]):
        idx = np.flatnonzero(chosen == j)
        left = states[idx].transpose(0, 2, 1).reshape(-1, h) @ kraus_t[j]
        left = left.reshape(-1, h, h).transpose(0, 2, 1).reshape(-1, h)
        states[idx] = (left @ kraus_dag[j]).reshape(-1, h, h)


class _Densities:
    """A chunk's states as (c, h, h) density matrices.

    ``branches`` gives p_j = Re<M_j, rho> from one row-stacked complex
    product with the effects M_j = L_j* L_j; ``take`` applies only the
    chosen branch (``_apply_branches``) and reads its weight off the new
    trace.
    """

    def __init__(self, kraus: np.ndarray, site_mats: np.ndarray):
        v, h = kraus.shape[0], kraus.shape[1]
        self.starts = site_mats
        self.kraus_t = np.ascontiguousarray(kraus.transpose(0, 2, 1))
        self.kraus_dag = np.ascontiguousarray(kraus.conj().transpose(0, 2, 1))
        # p_j = Re(vec(rho) . conj(vec(M_j))), complex (see the module text)
        self.effects = np.ascontiguousarray((self.kraus_dag @ kraus).conj().reshape(v, h * h).T)

    def branches(self, states):
        return _rows_times(states.reshape(len(states), -1), self.effects).real, None

    def take(self, states, products, probs, chosen):
        _apply_branches(states, chosen, self.kraus_t, self.kraus_dag)
        return states, np.einsum("naa->n", states).real

    @staticmethod
    def normalize(states, weights, n):
        # numpy divides by tr + 0j as (re, im) * (1 / tr): same rounding, half the cost
        states.view(float)[...] *= (1.0 / weights)[:, None, None]
        if n % REHERMITIZE_EVERY == 0:
            states = 0.5 * (states + states.conj().transpose(0, 2, 1))
        return states

    @staticmethod
    def track(op, states):
        return np.einsum("ab,nba->n", op, states).real


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` for a 2-D ``rows``, each row the same bits whatever the
    row count: numpy hands a single row to gemv, which rounds otherwise than
    gemm, so a single row is computed as two."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ mat)[:1]
    return rows @ mat


class _Factors:
    """A chunk's states rho = F F* as (c, r, h) arrays of the rows of F^T.

    ``branches`` forms every branch's (L_j F)^T with one row-stacked product
    (c r x h) @ [L_1^T ... L_v^T] and p_j = ||L_j F||^2 from its real view;
    ``take`` keeps the chosen branch's product. F F* is Hermitian and
    positive semidefinite by construction, so no step restores either.
    """

    def __init__(self, kraus: np.ndarray, factors: np.ndarray):
        self.starts = factors
        self.stacked = np.hstack(kraus.transpose(0, 2, 1))

    def branches(self, states):
        c, r, h = states.shape
        products = _rows_times(states.reshape(c * r, h), self.stacked).reshape(c, r, -1, h)
        parts = products.view(float)
        return np.einsum("nrjk,nrjk->nj", parts, parts), products

    @staticmethod
    def take(states, products, probs, chosen):
        rows = np.arange(len(chosen))
        return products[rows, :, chosen], probs[chosen, rows]

    @staticmethod
    def normalize(states, weights, n):
        states.view(float)[...] *= (1.0 / np.sqrt(weights))[:, None, None]
        return states

    @staticmethod
    def track(op, states):
        # sum over the columns f of F of Re f* A f, a dot product of real views
        c, r, h = states.shape
        applied = _rows_times(states.reshape(c * r, h), op.T).view(float).reshape(c, -1)
        return np.einsum("nk,nk->n", states.view(float).reshape(c, -1), applied)


def _branch_totals(probs: np.ndarray) -> np.ndarray:
    """Sums over the branches of branch-major (v, c) probabilities, each the
    bits that numpy's row sum of the (c, v) transpose gives: numpy adds a row
    of fewer than 8 entries from left to right, as this loop over whole
    columns does, and a longer row in 8 interleaved lanes, so longer rows are
    summed by numpy itself."""
    if len(probs) >= 8:
        return probs.T.copy().sum(axis=1)
    totals = probs[0].copy()
    for p in probs[1:]:
        totals += p
    return totals


def _choose_branches(probs: np.ndarray, uniforms: np.ndarray) -> tuple:
    """Each state's branch: the fewest j < v - 1 whose normalized partial sum
    q_0 + ... + q_j, q_j = p_j / total, is not below the state's uniform, and
    v - 1 where there is none (see the module text).

    ``probs`` holds the (c, v) branch probabilities in any layout; they are
    clipped at 0 into a contiguous branch-major (v, c) copy, which is
    returned with the chosen branches. Raises NumericalDegeneracyError where
    a state's total is below 1e-14 or not a number.
    """
    probs = np.clip(probs.T, 0.0, None, out=np.empty(probs.shape[::-1]))
    totals = _branch_totals(probs)
    if not totals.min() >= 1e-14:  # also true on NaN
        raise NumericalDegeneracyError("all branch probabilities vanish")
    chosen = np.zeros(len(uniforms), dtype=np.intp)
    cdf = np.zeros(len(uniforms))
    for p in probs[:-1]:
        cdf += p / totals
        chosen += cdf < uniforms
    return probs, chosen


def _factors_pay(num_kraus: int, rank: int, h: int) -> bool:
    """The measured switch between the state forms (see the module text)."""
    return num_kraus * rank <= h


def _site_factors(site_mats: np.ndarray, num_kraus: int) -> np.ndarray | None:
    """Rows of F^T for each site matrix rho = F F*, F = V sqrt(Lambda) over
    the support eigenpairs, zero-padded to the largest rank r: an (S, r, h)
    array. None where factors do not pay (``_factors_pay``) or where some
    F F* misses its site matrix by more than FACTOR_TOL in an entry, so that
    dropped eigenvalues cannot move a branch pick."""
    h = site_mats.shape[1]
    pairs = [support_eigenpairs(m) for m in site_mats]
    r = max(len(w) for w, _ in pairs)
    if not _factors_pay(num_kraus, r, h):
        return None
    rows = np.zeros((len(site_mats), r, h), dtype=complex)
    for k, (w, vecs) in enumerate(pairs):
        rows[k, : len(w)] = (vecs * np.sqrt(w)).T
    miss = np.abs(rows.transpose(0, 2, 1) @ rows.conj() - site_mats).max()
    return rows if miss <= FACTOR_TOL else None


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _worker_count(n_traj: int) -> int:
    """Slices a run is split into: one per available core, each of at least
    ``PARALLEL_MIN_SLICE`` trajectories, and 1 without ``os.fork`` or while
    other Python threads run (a forked child could inherit a lock one of them
    holds)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_available_cores(), n_traj // PARALLEL_MIN_SLICE))


def _run_slices(step_slice, bounds: list, outputs: list) -> None:
    """Run ``step_slice(lo, hi)`` on each slice [bounds[k], bounds[k + 1]).

    Slice 0 runs here; every other slice runs in a forked child, which sends
    back its rows of each array in ``outputs`` (or the exception it raised)
    through a pipe, and those rows are copied into ``outputs``. An exception
    from the lowest failing slice is raised here. Every child is reaped before
    this returns or raises.
    """
    children = []
    blas = _openblas_thread_controls() if len(bounds) > 2 else []
    blas_threads = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(1)  # the children inherit it
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((lo, hi) + _fork_slice(step_slice, lo, hi, outputs))
        step_slice(bounds[0], bounds[1])
        while children:
            lo, hi, pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            children.pop(0)
            _, status = os.waitpid(pid, 0)
            if not data:
                raise RuntimeError(f"simulation worker {pid} ended with wait status {status}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for array, rows in zip(outputs, value):
                array[lo:hi] = rows
    finally:
        for _, _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for (_, set_threads), n in zip(blas, blas_threads):
            set_threads(n)


@functools.cache
def _openblas_thread_controls() -> list:
    """``(get, set)`` thread-count functions of each OpenBLAS loaded in this
    process, found once through ``/proc/self/maps``; empty where there is
    none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # for example a mapped file deleted since
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_threads is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
                controls.append((get, set_threads))
                break
    return controls


def _fork_slice(step_slice, lo: int, hi: int, outputs: list) -> tuple:
    """Fork a child that steps [lo, hi) and writes the pickled
    ``(True, rows)`` or ``(False, exception)`` to a pipe; returns
    ``(pid, read end of the pipe as a file)``. The child never returns."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        try:
            step_slice(lo, hi)
            payload = (True, [array[lo:hi] for array in outputs])
        except Exception as exc:
            payload = (False, exc)
        with open(write_fd, "wb") as fh:
            pickle.dump(payload, fh, -1)
        code = 0
    finally:
        os._exit(code)


def run(
    model: WalkModel,
    rho: DiagonalState,
    config: SimConfig,
    tracks: dict | None = None,
) -> TrajectoryEnsemble:
    """Simulate an ensemble of independent trajectories.

    The run steps to ``config.steps``; on the way it keeps the positions at
    each of ``config.horizons`` and records the tracks on every horizon's
    snapshot grid, so that ``.at(n)`` gives each horizon's ensemble.
    ``tracks`` maps an id to a Hermitian observable with spectrum in [0, 1]
    (absorption operators, projectors); its expectation in the internal state
    is recorded every ``y_stride`` steps. A recorded value outside [0, 1]
    (beyond 1e-9) raises NumericalDegeneracyError.
    """
    tracks = tracks or {}
    n_traj, n_steps = config.trajectories, config.steps
    d = model.lattice_dim
    # the columns of every horizon's snapshot grid; each horizon is among them
    snap = np.union1d(
        _snapshot_steps(n_steps, config.y_stride), np.array(config.horizons, dtype=int)
    )
    cuts = {n: np.empty((n_traj, d), dtype=int) for n in set(config.horizons) - {n_steps}}
    marks = {int(s): (i, cuts.get(int(s))) for i, s in enumerate(snap)}

    sites, traces, site_mats = rho.normalized_sites()  # trace-0 sites are never drawn
    site_pos = np.array(sites, dtype=int).reshape(len(sites), d)
    site_cdf = np.cumsum(traces)
    site_cdf /= site_cdf[-1]

    kraus = model.kraus
    num_kraus = kraus.shape[0]
    factors = _site_factors(site_mats, num_kraus)
    form = _Densities(kraus, site_mats) if factors is None else _Factors(kraus, factors)
    shifts = model.shifts
    track_ids = sorted(tracks.keys())
    track_ops = [np.asarray(tracks[t], dtype=complex) for t in track_ids]

    initial = np.empty((n_traj, d), dtype=int)
    final = np.empty((n_traj, d), dtype=int)
    y_out = {t: np.empty((n_traj, len(snap))) for t in track_ids}

    def step_slice(first, last):
        for lo in range(first, last, CHUNK):
            step_chunk(lo, min(lo + CHUNK, last))

    def step_chunk(lo, hi):
        c = hi - lo
        rngs = [trajectory_rng(config.seed, i) for i in range(lo, hi)]
        block = np.empty((c, min(DRAW_BLOCK, n_steps)))

        site_idx = np.minimum(
            np.searchsorted(site_cdf, [g.random() for g in rngs], side="right"),
            len(sites) - 1,
        )
        states = form.starts[site_idx]
        positions = site_pos[site_idx].copy()
        initial[lo:hi] = positions

        def record(step_index):
            mark = marks.get(step_index)
            if mark is None:
                return
            col, cut = mark
            if cut is not None:
                cut[lo:hi] = positions
            for tid, op in zip(track_ids, track_ops):
                vals = form.track(op, states)
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
            probs, products = form.branches(states)
            probs, chosen = _choose_branches(probs, uniforms[:, k])
            states, weights = form.take(states, products, probs, chosen)
            if not weights.min() >= 1e-14:  # also true on NaN
                raise NumericalDegeneracyError("selected branch has vanishing probability")
            states = form.normalize(states, weights, n)
            positions += shifts[chosen]
            record(n)

        final[lo:hi] = positions

    workers = _worker_count(n_traj)
    bounds = [n_traj * k // workers for k in range(workers + 1)]
    outputs = [initial, final] + [y_out[t] for t in track_ids] + list(cuts.values())
    _run_slices(step_slice, bounds, outputs)

    return TrajectoryEnsemble(
        config=config,
        initial_positions=initial,
        final_positions=final,
        y_snapshot_steps=snap,
        y_tracks=y_out,
        horizon_positions=cuts,
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
    ensemble: TrajectoryEnsemble, track_id: str
) -> tuple[float, float, float]:
    """Fractions of trajectories whose final tracked value is above
    ``ABSORBED_HI``, below ``ABSORBED_LO``, or in between."""
    final = ensemble.final_track(track_id)
    n = len(final)
    frac_hi = float(np.sum(final > ABSORBED_HI)) / n
    frac_lo = float(np.sum(final < ABSORBED_LO)) / n
    return frac_hi, frac_lo, 1.0 - frac_hi - frac_lo

