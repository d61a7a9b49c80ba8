"""Seeded Monte Carlo simulation of the walk's quantum trajectories.

Each trajectory carries a lattice position and a normalized internal state;
one step draws a Kraus index with probability Tr(L_j rho L_j*), shifts the
position by the corresponding vector, and renormalizes L_j rho L_j*. ``run``
returns arrays; ``cli`` writes and reads the ensemble files.

Reproducibility: trajectory i draws from the Philox (counter-based; Salmon
et al., SC'11) stream that numpy seeds with ``SeedSequence(entropy=(seed,
i))``, so ensembles are bit-identical across runs, chunk sizes and worker
counts. The engine advances all trajectories of a chunk in lockstep with
batched contractions; this changes nothing statistically because the
streams are per-trajectory. ``trajectory_rng`` builds a chunk's streams at
once: ``_philox_keys`` runs numpy's ``SeedSequence`` mixing on whole arrays
of the entropy words (the seed's 32-bit words, then i) and gives every
Philox key, and each ``Philox`` takes its key through ``_PhiloxKey``, an
``ISeedSequence`` (numpy's public seeding interface) that returns it, so no
``SeedSequence`` is built and no OS entropy is read per trajectory. Any seed
>= 0 is taken, and indices lie below 2**32, which ``SimConfig`` ensures by
refusing more than 2**32 trajectories. Per trajectory (one core of a 2-core
Xeon, 4096 streams) the keys took 0.05 us and a ``Generator`` over a Philox
from its key about 4 us (3.5-4.1), against 11.5-13.7 us for a
``SeedSequence``, a ``Philox`` and a ``Generator``.

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

State: a trajectory's state rho_n = F_n F_n* keeps the rank r of its start,
so it is stepped as an h x r factor F <- L_j F / sqrt(p_j), with
p_j = ||L_j F||^2; F F* is Hermitian and positive semidefinite by
construction, so no step restores either. Each normalized site matrix is
factored as F = V sqrt(Lambda) over its support eigenpairs
(``linalg.support_eigenpairs``, the rule ``DiagonalState`` validates by). A
run with tracks steps every site's whole F, zero-padded to the largest rank,
because a track, sum_k f_k* A f_k, reads the mixed conditional state. A run
without tracks steps one column f_k = sqrt(lambda_k) psi_k of F, a pure
atom: the position law is linear in the start, so drawing the pair (x, k)
with probability tr rho(x) lambda_k and stepping the pure state gives the
positions exactly the law of the mixed start (the pure-start unravelling of
Attal, Guillotin-Plantard and Sabot, Ann. Henri Poincare 2015). The pair is
drawn with the one uniform of the site draw: each site's slice of the site
CDF is split among its atoms in proportion to their eigenvalues, so the site
drawn does not change, and a rank-1 site steps the factor a tracked run
steps.

Step: a chunk's states are a (c, r, h) array of the rows of F^T; one
row-stacked product (``_rows_times``) with [L_1^T ... L_v^T] gives every
branch's (L_j F)^T. ``_take_chosen`` copies branch j of state n by
``np.take`` at flat indices: rows (n r + k) v + j of the (c r v, h)
products, from (c, r) rows (n r + k) v built once per chunk, and entry
j c + n of the (v, c) probabilities. What rounds (the ``zgemm``, the
``einsum`` sums of p_j, the divisions, the normalization) keeps operands
and order, so no output moves a bit. A tracked 2048 x 600 run on one core
of a 2-core Xeon: 78-87 ns a trajectory-step, 0.85x the fancy-index time.

Branch choice (``_choose_branches``): the (c, v) probabilities of a chunk
(c states, v branches) are clipped at 0 into a contiguous branch-major
(v, c) copy, so that every later pass is a whole-column operation; a loop of
O(v) such operations costs less than one row-wise numpy call over (c, v)
when v is small. Each state's total is the sum of its column entries, and a
state picks the number of j < v - 1 whose partial sum q_0 + ... + q_j,
q_j = p_j / total, lies below its uniform: the first branch whose cumulative
weight reaches the uniform, and the last branch where rounding leaves every
partial sum below it. The sum starts at q_0, the bits of 0.0 + q_0, and at
v = 1, q_0 = p_0 / p_0 = 1 is below no uniform. These are the additions, in
order, of numpy's row-wise ``cumsum`` and ``sum`` (``_branch_totals``), so
the choice is the same bits as ``min(sum(cumsum(p / total) < u), v - 1)``.
A total below 1e-14 or not a number, and a chosen weight below 1e-14 or not
a number, raise NumericalDegeneracyError.

Uniforms: each stream's ``Generator.random`` fills its row of a reused
float64 block, once per block of ``DRAW_BLOCK`` steps, and its first call
also gives the start's uniform. Consecutive calls continue the same stream,
so the uniforms are, bit for bit, those that
``Generator(Philox(SeedSequence((seed, i)))).random()`` returns one by one,
and blocking changes no value. A call cost about 0.6 us plus 5 ns a word.
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
        # a bool or a float is refused, a numpy integer accepted
        def integer(v):
            return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

        for name, low in (("steps", 0), ("trajectories", 1), ("y_stride", 1), ("seed", 0)):
            if not integer(value := getattr(self, name)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        # stream indices lie below 2**32 (``trajectory_rng``); no run nears
        # them, as 2**32 trajectories' start and end positions take 64 GiB
        if self.trajectories > 2**32:
            raise ValueError(f"trajectories must be at most 2**32, got {self.trajectories}")
        if not all(integer(n) and 0 <= n <= self.steps for n in self.horizons):
            raise ValueError(f"horizons must be integers in [0, {self.steps}]: {self.horizons!r}")


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


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seeding interface that hands ``np.random.Philox`` a key computed
    beforehand, so that no ``SeedSequence`` is built for it."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _philox_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(entropy=(seed, i)).generate_state(2, np.uint64)``
    for a seed >= 0 and every i of the uint32 array ``indices``, a
    (len(indices), 2) array: numpy's mixing, run on whole uint32 arrays whose
    arithmetic wraps modulo 2**32 as numpy's does. The entropy words are the
    seed's 32-bit words, least significant first (one zero word for 0), then
    i; the first four seed a pool of four words and every later one is mixed
    into each pool word. The constants are those of
    ``numpy/random/bit_generator.pyx``."""
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & 0xFFFFFFFF  # MULT_A
        value *= hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = 0xCA01F9DD * x - 0x4973F715 * y  # MIX_MULT_L, MIX_MULT_R
        return result ^ (result >> 16)

    n = len(indices)
    offsets = range(0, max(seed.bit_length(), 1), 32)
    words = [np.full(n, seed >> s & 0xFFFFFFFF, dtype=np.uint32) for s in offsets] + [indices]
    pool = [hashmix(w) for w in (words + [np.zeros(n, dtype=np.uint32)] * 2)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD  # INIT_B
    state = []
    for value in pool:
        value = value ^ hash_const
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF  # MULT_B
        value *= hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def trajectory_rng(seed: int, lo: int, hi: int) -> list:
    """Counter-based streams of trajectories [lo, hi), each independent of
    all others: trajectory i's ``Generator`` is the one numpy builds over
    ``np.random.Philox(np.random.SeedSequence(entropy=(seed, i)))``, its
    Philox keyed by ``_philox_keys``. Any seed >= 0 is taken and indices
    must lie below 2**32; ValueError is raised otherwise."""
    if seed < 0 or hi > 2**32:
        raise ValueError(f"streams take a seed >= 0 and indices below 2**32: {seed}, [{lo}, {hi})")
    keys = _philox_keys(int(seed), np.arange(lo, hi, dtype=np.uint32))
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys]


def _snapshot_steps(steps: int, stride: int) -> np.ndarray:
    marks = sorted(set(range(0, steps + 1, stride)) | {steps})
    return np.array(marks, dtype=int)


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` for a 2-D ``rows``, each row the same bits whatever the
    row count: numpy hands a single row to gemv, which rounds otherwise than
    gemm, so a single row is computed as two."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ mat)[:1]
    return rows @ mat


def _branch_probabilities(states: np.ndarray, stacked: np.ndarray) -> tuple:
    """Every branch's (L_j F)^T for the (c, r, h) rows of F^T in ``states``,
    a (c, r, v, h) array, and the (c, v) probabilities p_j = ||L_j F||^2.

    ``stacked`` is [L_1^T ... L_v^T]. The p_j are summed over the columns
    f_k of F one at a time, each ||L_j f_k||^2 a dot product of real views.
    """
    c, r, h = states.shape
    products = _rows_times(states.reshape(c * r, h), stacked).reshape(c, r, -1, h)
    parts = products.view(float)
    probs = np.einsum("njk,njk->nj", parts[:, 0], parts[:, 0])
    for k in range(1, r):
        probs += np.einsum("njk,njk->nj", parts[:, k], parts[:, k])
    return probs, products


def _track(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr(A F F*) = sum over the columns f of F of Re f* A f, for the (c, r, h)
    rows of F^T in ``states``: a dot product of real views."""
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
    probs = np.maximum(probs.T, 0.0, out=np.empty(probs.shape[::-1]))  # = np.clip(p, 0, None)
    totals = _branch_totals(probs)
    if not totals.min() >= 1e-14:  # also true on NaN
        raise NumericalDegeneracyError("all branch probabilities vanish")
    cdf = probs[0] / totals  # 0.0 + q_0 in its bits (see the module text)
    chosen = (cdf < uniforms).astype(np.intp)
    for p in probs[1:-1]:
        cdf += p / totals
        chosen += cdf < uniforms
    return probs, chosen


def _take_chosen(products: np.ndarray, probs: np.ndarray, chosen: np.ndarray, rows: np.ndarray):
    """``products[traj, :, chosen]`` and ``probs[chosen, traj]``, taken at flat indices."""
    flat = products.reshape(-1, products.shape[-1])
    weights = probs.ravel().take(chosen * len(chosen) + np.arange(len(chosen)))
    return flat.take(rows + chosen[:, None], axis=0), weights


def _starts(site_mats: np.ndarray, site_cdf: np.ndarray, pure: bool) -> tuple:
    """The states a trajectory may start in, as rows of F^T, with each one's
    site index and the upper end of its slice of [0, 1), ascending.

    Each normalized site matrix rho = F F* is factored as F = V sqrt(Lambda)
    over its support eigenpairs. With ``pure`` the starts are the columns of
    every F, an (A, 1, h) array, and a site's slice of ``site_cdf`` is split
    among them in proportion to their eigenvalues; otherwise they are the F
    themselves, zero-padded to the largest rank r, an (S, r, h) array with
    ``site_cdf`` (see the module text).
    """
    pairs = [support_eigenpairs(m) for m in site_mats]
    cols = [(vecs * np.sqrt(w)).T for w, vecs in pairs]  # (rank, h) each
    if not pure:
        rows = np.zeros((len(cols), max(map(len, cols)), site_mats.shape[1]), dtype=complex)
        for x, f in enumerate(cols):
            rows[x, : len(f)] = f
        return rows, np.arange(len(cols)), site_cdf
    bounds = []
    for x, (w, _) in enumerate(pairs):
        if len(w):  # a trace-0 site has no atoms and is never drawn
            lo, hi = (site_cdf[x - 1] if x else 0.0), site_cdf[x]
            bounds += [np.minimum(lo + (hi - lo) * np.cumsum(w[:-1]) / w.sum(), hi), [hi]]
    sites = np.repeat(np.arange(len(cols)), [len(f) for f in cols])
    return np.concatenate(cols)[:, None], sites, np.concatenate(bounds)


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
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # -signal if killed
            if not data:
                raise RuntimeError(f"simulation worker {pid} ended with exit code {code}")
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
    (beyond 1e-9) raises NumericalDegeneracyError. Without tracks, each
    trajectory starts in a pure state drawn from its site's eigenvectors,
    which gives the positions the law of the mixed start (see the module
    text). A run whose positions could leave int64, max|site coordinate| +
    steps * max|shift coordinate| above its maximum, raises ValueError
    before any step.
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
    reach = max(abs(int(x)) for site in sites for x in site)
    reach += n_steps * max(abs(int(s)) for s in model.shifts.flat)
    if reach > np.iinfo(np.int64).max:
        raise ValueError(
            f"positions could reach {reach} in {n_steps} steps, beyond the int64 maximum"
        )
    site_cdf = np.cumsum(traces)
    site_cdf /= site_cdf[-1]
    starts, start_sites, start_cdf = _starts(site_mats, site_cdf, pure=not tracks)
    start_pos = np.array(sites, dtype=int).reshape(len(sites), d)[start_sites]

    stacked = np.hstack(model.kraus.transpose(0, 2, 1))
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
        streams = trajectory_rng(config.seed, lo, hi)
        block = np.empty((c, 1 + min(DRAW_BLOCK, n_steps)))

        def draw(width):
            """The next ``width`` uniforms of every stream, one call each."""
            for g, row in zip(streams, block[:, :width]):
                g.random(out=row)
            return block[:, :width]

        rows = np.arange(c * starts.shape[1]).reshape(c, -1) * len(shifts)
        uniforms = draw(block.shape[1])  # the start's uniform, then a block
        start_idx = np.minimum(
            np.searchsorted(start_cdf, uniforms[:, 0], side="right"), len(start_cdf) - 1
        )
        uniforms = uniforms[:, 1:]
        states = starts[start_idx]
        positions = start_pos[start_idx].copy()
        initial[lo:hi] = positions

        def record(step_index):
            mark = marks.get(step_index)
            if mark is None:
                return
            col, cut = mark
            if cut is not None:
                cut[lo:hi] = positions
            for tid, op in zip(track_ids, track_ops):
                vals = _track(op, states)
                if not (np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)):
                    raise NumericalDegeneracyError(
                        f"track {tid!r} left [0,1]: range "
                        f"[{vals.min():.3e}, {vals.max():.3e}]"
                    )
                y_out[tid][lo:hi, col] = vals

        record(0)
        for n in range(1, n_steps + 1):
            k = (n - 1) % DRAW_BLOCK
            if k == 0 and n > 1:
                uniforms = draw(min(DRAW_BLOCK, n_steps - n + 1))
            probs, products = _branch_probabilities(states, stacked)
            probs, chosen = _choose_branches(probs, uniforms[:, k])
            states, weights = _take_chosen(products, probs, chosen, rows)
            if not weights.min() >= 1e-14:  # also true on NaN
                raise NumericalDegeneracyError("selected branch has vanishing probability")
            states.view(float)[...] *= (1.0 / np.sqrt(weights))[:, None, None]
            positions += shifts.take(chosen, axis=0)
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

