import dataclasses
import hashlib
import os
import threading

import numpy as np
import pytest

from oqwalk import cli, models, simulate
from oqwalk.channel import ChannelView, WalkModel
from oqwalk.cli import main
from oqwalk.errors import NumericalDegeneracyError
from oqwalk.linalg import orthonormal_complement
from oqwalk.simulate import SimConfig, classify_absorption, run
from oqwalk.structure import DiagonalState, absorption, recurrent_space
from scalar_walk import (
    TrajectoryState,
    branch_probabilities,
    reference_stream,
    sample_initial,
    step,
)
from util import (
    apply,
    basis_subspace,
    dkw_band,
    enumerate_displacement_law,
    martingale_check,
    random_densities,
    random_density,
    random_irreducible_model,
    random_walk_model,
)


@pytest.fixture(scope="module")
def edge_absorption(four_state_module):
    return absorption(four_state_module, basis_subspace(4, [3])).matrix


@pytest.fixture(scope="module")
def four_state_module():
    return models.four_state_family(1 / 6, 1 / 6, 1 / 6)


@pytest.fixture(scope="module")
def transient_rho():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    return DiagonalState.single_site(mat)


def force_workers(monkeypatch, workers):
    """Make every run, however small, split into ``workers`` slices; returns
    a list that collects the pid of every child forked from now on."""
    monkeypatch.setattr(simulate, "PARALLEL_MIN_SLICE", 1)
    monkeypatch.setattr(simulate, "_available_cores", lambda: workers)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def full_and_low_rank(dims):
    """Each local dimension h with a full-rank start (id "h") and with a
    start of rank max(1, h // 4) (id "h-low-rank")."""
    return [pytest.param(h, None, id=str(h)) for h in dims] + [
        pytest.param(h, max(1, h // 4), id=f"{h}-low-rank") for h in dims
    ]


def assert_same_ensemble(a, b):
    """Every field of two ensembles is equal, arrays bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            assert all(np.array_equal(x[k], y[k]) for k in x), f.name
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def scalar_trajectory(model, rho, seed, index, snapshots, ops, pure=False):
    """Trajectory ``index`` stepped by ``scalar_walk`` to the last of
    ``snapshots``: its start and end positions and, per op, the values
    Tr(A rho_n) at the snapshot steps."""
    rng = reference_stream(seed, index)
    st = sample_initial(rho, rng, pure)
    start = st.position
    values = [[] for _ in ops]
    for n in range(snapshots[-1] + 1):
        if n:
            st = step(st, model, rng)
        if n in snapshots:
            for vals, op in zip(values, ops):
                vals.append(float(np.trace(op @ st.state).real))
    return start, st.position, values


class FixedDraws:
    """Bit generator stand-in whose every raw word makes the uniform ``u``,
    a multiple of 2**-53."""

    def __init__(self, u):
        self.word = np.uint64(int(u * 2**53) << 11)
        assert (self.word >> 11) * 2.0**-53 == u

    def random_raw(self, size):
        return np.full(size, self.word)


def cut_model():
    """Branches (0.05, 0.5, 0.45, 0) on e_0 and (0, 0, 0, 1) on e_1: both
    basis states are fixed, and on e_0 a uniform beyond the normalized CDF
    clamps to the empty last branch."""
    kraus = np.zeros((4, 2, 2), dtype=complex)
    kraus[:3, 0, 0] = np.sqrt([0.05, 0.5, 0.45])
    kraus[3, 1, 1] = 1.0
    return WalkModel(shifts=np.array([[-1], [1], [2], [3]]), kraus=kraus)


def draws_from(first, u):
    """``trajectory_rng`` whose trajectories from index ``first`` on draw ``u``
    and the others 0.25, which keeps ``cut_model`` on e_0 with branch 1."""
    return lambda seed, lo, hi: [FixedDraws(u if i >= first else 0.25) for i in range(lo, hi)]


class TestSampleInitial:
    def test_single_site(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        rho = DiagonalState.single_site(tau, site=(5,))
        rng = np.random.default_rng(0)
        for _ in range(10):
            st = sample_initial(rho, rng)
            assert st.position[0] == 5
            np.testing.assert_allclose(st.state, tau, atol=1e-12)

    def test_site_frequencies(self):
        mat = np.eye(2, dtype=complex)
        rho = DiagonalState({(0,): 0.25 * mat / 2, (1,): 0.75 * mat / 2})
        rng = np.random.default_rng(1)
        n = 100_000
        hits = sum(sample_initial(rho, rng).position[0] for _ in range(n))
        p = hits / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(p - 0.75) <= 3 * sigma

    def test_zero_trace_site_never_selected(self):
        mat = np.eye(2, dtype=complex) / 2
        rho = DiagonalState({(0,): 0.0 * mat, (1,): mat})
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert sample_initial(rho, rng).position[0] == 1


class TestStep:
    def test_two_state_branch_probabilities(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        probs = branch_probabilities(two_state, tau)
        assert probs == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        rng = np.random.default_rng(3)
        st = TrajectoryState(position=np.array([0]), state=tau)
        out = step(st, two_state, rng)
        np.testing.assert_allclose(out.state, tau, atol=1e-12)
        assert out.position[0] in (-1, 1)

    def test_commuting_eigenstate_probabilities(self, commuting):
        proj = np.zeros((3, 3), dtype=complex)
        proj[2, 2] = 1.0
        probs = branch_probabilities(commuting, proj)
        assert probs == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_deterministic_model(self):
        model = models.single_shift_walk(shift=1, dim=2)
        st = TrajectoryState(position=np.array([0]), state=np.eye(2, dtype=complex) / 2)
        rng = np.random.default_rng(4)
        out = step(st, model, rng)
        assert out.position[0] == 1

    def test_degenerate_state_rejected(self, two_state):
        st = TrajectoryState(position=np.array([0]), state=np.zeros((2, 2), dtype=complex))
        with pytest.raises(NumericalDegeneracyError, match="all branch probabilities vanish"):
            step(st, two_state, np.random.default_rng(5))

    def test_nan_state_rejected(self, two_state):
        nan = np.full((2, 2), np.nan, dtype=complex)
        st = TrajectoryState(position=np.array([0]), state=nan)
        with pytest.raises(NumericalDegeneracyError, match="all branch probabilities vanish"):
            step(st, two_state, np.random.default_rng(5))

    def test_one_step_marginal(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        rho = DiagonalState.single_site(tau)
        ens = run(two_state, rho, SimConfig(steps=1, trajectories=100_000, seed=11))
        disp = ens.displacements[:, 0]
        p_right = np.mean(disp == 1)
        sigma = np.sqrt((2 / 3) * (1 / 3) / 100_000)
        assert abs(p_right - 2 / 3) <= 4 * sigma


class TestRun:
    def test_bit_identical_reruns(self, four_state_module, transient_rho, edge_absorption):
        cfg = SimConfig(steps=60, trajectories=500, seed=9, y_stride=10)
        a = run(four_state_module, transient_rho, cfg, tracks={"edge": edge_absorption})
        b = run(four_state_module, transient_rho, cfg, tracks={"edge": edge_absorption})
        assert np.array_equal(a.final_positions, b.final_positions)
        assert np.array_equal(a.y_tracks["edge"], b.y_tracks["edge"])

    def test_schedule_independence(self, monkeypatch, four_state_module, transient_rho):
        cfg = SimConfig(steps=40, trajectories=300, seed=10)
        a = run(four_state_module, transient_rho, cfg)
        monkeypatch.setattr(simulate, "CHUNK", 7)
        b = run(four_state_module, transient_rho, cfg)
        assert np.array_equal(a.final_positions, b.final_positions)
        assert np.array_equal(a.initial_positions, b.initial_positions)

    @pytest.mark.parametrize("local_dim, rank", full_and_low_rank([2, 3, 5, 8]))
    def test_schedule_independence_with_tracks(self, monkeypatch, local_dim, rank):
        # the last bits of a state must not depend on how many trajectories
        # share its chunk, so the tracks are compared exactly
        rng = np.random.default_rng(40 + local_dim)
        model = random_walk_model(rng, local_dim)
        rho = DiagonalState.single_site(random_density(rng, local_dim, rank))
        proj = np.diag([1.0] * (local_dim // 2) + [0.0] * (local_dim - local_dim // 2))
        cfg = SimConfig(steps=60, trajectories=120, seed=local_dim, y_stride=7)
        ensembles = []
        for chunk in (simulate.CHUNK, 37, 7):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            ensembles.append(run(model, rho, cfg, tracks={"p": proj.astype(complex)}))
        first = ensembles[0]
        for other in ensembles[1:]:
            assert np.array_equal(first.final_positions, other.final_positions)
            assert np.array_equal(first.y_tracks["p"], other.y_tracks["p"])

    def test_matches_scalar_stepping(self, four_state_module, transient_rho):
        cfg = SimConfig(steps=35, trajectories=24, seed=13)
        ens = run(four_state_module, transient_rho, cfg)
        for idx in (0, 7, 23):
            start, end, _ = scalar_trajectory(
                four_state_module, transient_rho, cfg.seed, idx, [cfg.steps], []
            )
            assert np.array_equal(start, ens.initial_positions[idx])
            assert np.array_equal(end, ens.final_positions[idx])
        # without tracks, a mixed start steps the eigenvector that the site's
        # uniform draws; the scalar walk draws the same one
        rng = np.random.default_rng(13)
        rho = DiagonalState(
            {(0,): 0.4 * random_density(rng, 4, 3), (2,): 0.6 * random_density(rng, 4, 2)}
        )
        ens = run(four_state_module, rho, cfg)
        for idx in range(cfg.trajectories):
            start, end, _ = scalar_trajectory(
                four_state_module, rho, cfg.seed, idx, [cfg.steps], [], pure=True
            )
            assert np.array_equal(start, ens.initial_positions[idx])
            assert np.array_equal(end, ens.final_positions[idx])

    def test_matches_scalar_stepping_planar(self):
        rng = np.random.default_rng(17)
        model = random_walk_model(rng, 8, lattice_dim=2)
        rho = DiagonalState(
            {(0, 0): 0.5 * random_density(rng, 8), (2, -1): 0.5 * random_density(rng, 8)}
        )
        proj = np.diag([1.0] * 3 + [0.0] * 5).astype(complex)
        cfg = SimConfig(steps=30, trajectories=16, seed=23, y_stride=6)
        ens = run(model, rho, cfg, tracks={"p": proj})
        for idx in (0, 5, 15):
            start, end, (values,) = scalar_trajectory(
                model, rho, cfg.seed, idx, list(ens.y_snapshot_steps), [proj]
            )
            assert np.array_equal(start, ens.initial_positions[idx])
            assert np.array_equal(end, ens.final_positions[idx])
            np.testing.assert_allclose(ens.y_tracks["p"][idx], values, rtol=0, atol=1e-12)

    def test_reproducible_digest(self, monkeypatch, four_state_module, edge_absorption):
        # pinned from the per-branch masked engine with one draw per trajectory:
        # any change to the streams, the site draw or the branch choice moves
        # these integer positions
        rho = DiagonalState({(0,): np.diag([0.5, 0, 0, 0]), (5,): np.diag([0, 0, 0, 0.5])})
        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "DRAW_BLOCK", 16)
        cfg = SimConfig(steps=40, trajectories=100, seed=21, y_stride=10)
        ens = run(four_state_module, rho, cfg, tracks={"edge": edge_absorption})
        digest = hashlib.sha256()
        for arr in (ens.initial_positions, ens.final_positions):
            digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "1786c4e9df798376fe8469670723adc5cd9acffc57ae605faee87bc104afbcf6"
        )

    def test_reproducible_digest_large_seed(self, monkeypatch, four_state_module, edge_absorption):
        # pinned while a seed of 2**40, which takes two entropy words, was
        # seeded through a SeedSequence per stream; its keys now come from
        # the same vectorized mixing as every other seed's
        rho = DiagonalState({(0,): np.diag([0.5, 0, 0, 0]), (5,): np.diag([0, 0, 0, 0.5])})
        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "DRAW_BLOCK", 16)
        cfg = SimConfig(steps=40, trajectories=100, seed=2**40, y_stride=10)
        ens = run(four_state_module, rho, cfg, tracks={"edge": edge_absorption})
        assert ensemble_digest(ens) == (
            "d87e69c1fd70f89f511bd3064063361fe190fc3db05813639c71920f5a5bc0a6"
        )

    def test_reproducible_digest_two_workers(self, monkeypatch, four_state_module, edge_absorption):
        forked = force_workers(monkeypatch, 2)
        self.test_reproducible_digest(monkeypatch, four_state_module, edge_absorption)
        assert len(forked) == 1

    @pytest.mark.parametrize("local_dim, rank", full_and_low_rank([2, 3, 4, 5, 8]))
    def test_worker_independence(self, monkeypatch, local_dim, rank):
        # 2 and 3 slices of 121 trajectories are uneven and end in part-filled
        # chunks; forked slices must return the caller's bits exactly
        rng = np.random.default_rng(60 + local_dim)
        model = random_walk_model(rng, local_dim)
        rho = DiagonalState(
            {
                (0,): 0.5 * random_density(rng, local_dim, rank),
                (3,): 0.5 * random_density(rng, local_dim, rank),
            }
        )
        proj = np.diag([1.0] * (local_dim // 2) + [0.0] * (local_dim - local_dim // 2))
        tracks = {"p": proj.astype(complex), "q": (np.eye(local_dim) - proj).astype(complex)}
        cfg = SimConfig(steps=45, trajectories=121, seed=local_dim, y_stride=9)
        monkeypatch.setattr(simulate, "CHUNK", 16)
        ensembles = []
        for workers in (1, 2, 3):
            forked = force_workers(monkeypatch, workers)
            ensembles.append(run(model, rho, cfg, tracks=tracks))
            assert len(forked) == workers - 1
        first = ensembles[0]
        for other in ensembles[1:]:
            assert np.array_equal(first.initial_positions, other.initial_positions)
            assert np.array_equal(first.final_positions, other.final_positions)
            for tid in tracks:
                assert np.array_equal(first.y_tracks[tid], other.y_tracks[tid])
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("local_dim, rank", full_and_low_rank([2, 3, 4, 5, 8]))
    def test_horizon_cuts_match_standalone(self, monkeypatch, local_dim, rank):
        # with y_stride 9 the horizons 13 and 20 are off the snapshot grid, and
        # with DRAW_BLOCK 8 the runs that stop there draw part-filled blocks
        # that the run to 45 draws whole; 37 trajectories end in a part-filled
        # chunk and split unevenly between two workers
        monkeypatch.setattr(simulate, "CHUNK", 16)
        monkeypatch.setattr(simulate, "DRAW_BLOCK", 8)
        horizons = (0, 13, 20, 20, 45)
        for lattice_dim in (1, 2):
            rng = np.random.default_rng(80 + local_dim)
            model = random_walk_model(rng, local_dim, lattice_dim)
            far = (3,) + (0,) * (lattice_dim - 1)
            rho = DiagonalState(
                {
                    (0,) * lattice_dim: 0.5 * random_density(rng, local_dim, rank),
                    far: 0.5 * random_density(rng, local_dim, rank),
                }
            )
            proj = np.diag([1.0] * (local_dim // 2) + [0.0] * (local_dim - local_dim // 2))
            tracks = {"p": proj.astype(complex), "q": (np.eye(local_dim) - proj).astype(complex)}
            cfg = SimConfig(steps=45, trajectories=37, seed=local_dim, y_stride=9, horizons=horizons)
            force_workers(monkeypatch, 1)
            alone = {
                n: run(model, rho, dataclasses.replace(cfg, steps=n, horizons=()), tracks=tracks)
                for n in horizons
            }
            for workers in (1, 2):
                forked = force_workers(monkeypatch, workers)
                full = run(model, rho, cfg, tracks=tracks)
                assert len(forked) == workers - 1
                for n in horizons:
                    assert_same_ensemble(full.at(n), alone[n])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("local_dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("ranks", [(1, 1), (2, 2), (1, 2)], ids=["rank-1", "rank-2", "mixed-rank"])
    def test_factor_and_density_forms_agree(self, local_dim, ranks):
        # a tracked run steps rank-r factors and the scalar walk steps density
        # matrices of the same trajectories: positions agree exactly (no
        # uniform falls within roundoff of a branch boundary here) and tracks
        # to roundoff
        rng = np.random.default_rng(100 + local_dim)
        model = random_walk_model(rng, local_dim)
        rho = DiagonalState(
            {(3 * k,): random_density(rng, local_dim, r) / 2 for k, r in enumerate(ranks)}
        )
        proj = np.diag([1.0] * (local_dim // 2) + [0.0] * (local_dim - local_dim // 2))
        tracks = {"p": proj.astype(complex), "q": (np.eye(local_dim) - proj).astype(complex)}
        cfg = SimConfig(steps=60, trajectories=200, seed=local_dim, y_stride=6)
        ens = run(model, rho, cfg, tracks=tracks)
        snapshots = list(ens.y_snapshot_steps)
        for idx in range(0, cfg.trajectories, 5):
            start, end, values = scalar_trajectory(
                model, rho, cfg.seed, idx, snapshots, [tracks["p"], tracks["q"]]
            )
            assert np.array_equal(start, ens.initial_positions[idx])
            assert np.array_equal(end, ens.final_positions[idx])
            for tid, vals in zip("pq", values):
                np.testing.assert_allclose(ens.y_tracks[tid][idx], vals, rtol=0, atol=1e-12)

    def test_near_pure_site_steps_at_rank_one(self, four_state_module, edge_absorption):
        # the eigenvalue 1e-12 lies below the support rule: the site steps
        # the rank-1 factor of its top eigenpair, and the step-0 track reads
        # Tr(A rho) of the full site matrix to within the dropped weight
        near_pure = np.diag([1.0 - 1e-12, 1e-12, 0.0, 0.0]).astype(complex)
        starts, _, _ = simulate._starts(near_pure[None], np.ones(1), pure=False)
        assert starts.shape == (1, 1, 4)
        rho = DiagonalState.single_site(near_pure)
        ens = run(
            four_state_module,
            rho,
            SimConfig(steps=3, trajectories=4, seed=0),
            tracks={"edge": edge_absorption},
        )
        exact = float(np.trace(edge_absorption @ near_pure).real)
        np.testing.assert_allclose(ens.y_tracks["edge"][:, 0], exact, rtol=0, atol=1e-12)

    def test_site_failing_the_support_rule_once_normalized(self):
        # the small site passes the absolute Hermiticity check, but divided by
        # its trace 1e-3, as the run steps it, it deviates by 7e-8 > TOL_RANK:
        # the state is refused before any run
        small = np.diag([1e-3, 0.0]).astype(complex)
        small[0, 1] = 5e-11
        with pytest.raises(ValueError, match=r"site \(1,\) over its trace"):
            DiagonalState({(0,): np.diag([0.999, 0.0]), (1,): small})

    def test_horizons_outside_the_run_rejected(self, four_state_module, transient_rho):
        for horizons in [(-1,), (3, 11)]:
            with pytest.raises(ValueError):
                SimConfig(steps=10, trajectories=4, seed=0, horizons=horizons)
        ens = run(four_state_module, transient_rho, SimConfig(10, 4, 0, horizons=(3,)))
        with pytest.raises(ValueError):
            ens.at(4)

    @pytest.mark.parametrize("name", ["steps", "trajectories", "y_stride"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_counts_must_be_integers(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{"steps": 4, "trajectories": 3, "seed": 0, name: bad})

    def test_trajectories_at_most_2_32(self):
        # trajectory i's stream takes i as one 32-bit entropy word
        SimConfig(steps=4, trajectories=2**32, seed=0)
        with pytest.raises(ValueError, match="trajectories must be at most 2\\*\\*32"):
            SimConfig(steps=4, trajectories=2**32 + 1, seed=0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(1.0), True, np.bool_(False), "2", None])
    def test_horizons_must_be_integers(self, bad):
        # a float horizon once ran, and its cut was never written
        with pytest.raises(ValueError, match="horizons must be integers"):
            SimConfig(steps=4, trajectories=3, seed=0, horizons=(bad,))

    def test_numpy_integer_counts_accepted(self, four_state_module, transient_rho):
        plain = SimConfig(steps=6, trajectories=5, seed=2, y_stride=2, horizons=(0, 3))
        typed = SimConfig(
            steps=np.int64(6), trajectories=np.uint16(5), seed=2, y_stride=np.int32(2),
            horizons=(np.int64(0), np.uint8(3)),
        )
        a, b = (run(four_state_module, transient_rho, cfg) for cfg in (plain, typed))
        for n in (0, 3, 6):
            assert np.array_equal(a.at(n).final_positions, b.at(n).final_positions)
            assert np.array_equal(a.at(n).y_snapshot_steps, b.at(n).y_snapshot_steps)

    def test_no_returned_row_is_left_unwritten(
        self, monkeypatch, four_state_module, transient_rho, edge_absorption
    ):
        # every buffer the run allocates starts poisoned, so a row that no
        # step writes would keep the poison
        empty = np.empty

        def poisoned(shape, dtype=float, **kwargs):
            out = empty(shape, dtype=dtype, **kwargs)
            out.fill(np.iinfo(out.dtype).max if out.dtype.kind in "iu" else np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        cfg = SimConfig(steps=7, trajectories=9, seed=4, y_stride=3, horizons=(0, 2, 5, 7))
        ens = run(four_state_module, transient_rho, cfg, tracks={"edge": edge_absorption})
        monkeypatch.undo()
        positions = [ens.initial_positions, ens.final_positions, *ens.horizon_positions.values()]
        assert sorted(ens.horizon_positions) == [0, 2, 5]
        assert all(np.all(np.abs(x) <= cfg.steps) for x in positions)
        assert all(np.all(np.isfinite(y)) for y in ens.y_tracks.values())
        for n in cfg.horizons:
            assert np.all(np.isfinite(ens.at(n).y_tracks["edge"]))

    @pytest.mark.parametrize("error", ["step", "track"])
    def test_worker_error_reaches_caller(self, monkeypatch, error):
        # only trajectories 4..7, the second slice, fail; with CHUNK = 4 the
        # in-process run fails on the same chunk, so the messages must agree
        e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        if error == "step":
            rho, tracks, u = DiagonalState.single_site(e0), {}, 1.0 - 2.0**-53
            expected = "selected branch has vanishing probability"
        else:
            # trajectories drawing 0.75 start on e_1, where the 4x track reads 4
            rho = DiagonalState({(0,): e0 / 2, (1,): e1 / 2})
            tracks, u = {"big": 4 * e1}, 0.75
            expected = r"track 'big' left \[0,1\]"
        cfg = SimConfig(steps=5, trajectories=8, seed=3)
        monkeypatch.setattr(simulate, "trajectory_rng", draws_from(4, u))
        monkeypatch.setattr(simulate, "CHUNK", 4)
        messages = []
        for workers in (1, 2):
            forked = force_workers(monkeypatch, workers)
            with pytest.raises(NumericalDegeneracyError, match=expected) as caught:
                run(cut_model(), rho, cfg, tracks=tracks)
            assert type(caught.value) is NumericalDegeneracyError
            assert len(forked) == workers - 1
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_exit_code(self, monkeypatch, tmp_path, capsys):
        cut_model().save(tmp_path / "model.json")
        DiagonalState.single_site(np.diag([1.0, 0.0]).astype(complex)).save(tmp_path / "state.json")
        monkeypatch.setattr(simulate, "trajectory_rng", draws_from(4, 1.0 - 2.0**-53))
        forked = force_workers(monkeypatch, 2)
        rc = main([
            "simulate", "--model", str(tmp_path / "model.json"),
            "--state", str(tmp_path / "state.json"), "--steps", "5", "--traj", "8",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert rc == 3 and len(forked) == 1
        assert "selected branch has vanishing probability" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_run_one_blas_thread(self, monkeypatch):
        # two processes with a multi-threaded BLAS each oversubscribe the
        # cores; the caller's thread counts come back after the run
        blas = simulate._openblas_thread_controls()
        if not blas:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get, _ in blas]
        caller = []

        def rng(seed, lo, hi):
            counts = [get() for get, _ in blas]
            if lo >= 4:  # the child's slice reports its counts as an error
                raise NumericalDegeneracyError(str(counts))
            caller.append(counts)
            return [FixedDraws(0.25)] * (hi - lo)

        monkeypatch.setattr(simulate, "trajectory_rng", rng)
        forked = force_workers(monkeypatch, 2)
        with pytest.raises(NumericalDegeneracyError) as caught:
            run(cut_model(), DiagonalState.single_site(np.diag([1.0, 0.0])), SimConfig(5, 8, 0))
        assert len(forked) == 1
        assert str(caught.value) == str([1] * len(blas))
        assert caller == [[1] * len(blas)]  # one call for the caller's one chunk
        assert [get() for get, _ in blas] == before

    @pytest.mark.parametrize("size", ["analysis_h16", "smoke", "few_trajectories"])
    def test_small_runs_stay_in_process(self, monkeypatch, four_state_module, transient_rho, size):
        def no_fork():
            raise AssertionError("run forked below 2 * PARALLEL_MIN_SLICE trajectories")

        monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        if size == "analysis_h16":
            rng = np.random.default_rng(16)
            model, rho = random_walk_model(rng, 16), DiagonalState.single_site(random_density(rng, 16))
            cfg = SimConfig(steps=32, trajectories=384, seed=1, y_stride=32)
        elif size == "smoke":  # certify_h4's longer horizon at the benchmark's smoke size
            model, rho = four_state_module, transient_rho
            cfg = SimConfig(steps=600, trajectories=256, seed=1, y_stride=50)
        else:  # many trajectory-steps, but too few trajectories for two slices
            model, rho = four_state_module, transient_rho
            cfg = SimConfig(steps=200, trajectories=2 * simulate.PARALLEL_MIN_SLICE - 1, seed=1)
        run(model, rho, cfg)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(simulate, "_available_cores", lambda: 8)
        least = simulate.PARALLEL_MIN_SLICE
        assert simulate._worker_count(10**6) == 8
        assert simulate._worker_count(4 * least) == 4
        assert simulate._worker_count(2 * least) == 2
        assert simulate._worker_count(2 * least - 1) == 1
        assert simulate._worker_count(384) == 1
        monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
        assert simulate._worker_count(4096) == 2  # certify_h4 forks
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            assert simulate._worker_count(4096) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_vanishing_selected_branch_rejected(self, monkeypatch):
        # on e_0 the branches have probabilities (0.05, 0.5, 0.45, 0); their
        # normalized CDF ends below u, so the draw clamps to the empty last branch
        u = 1.0 - 2.0**-53
        model = cut_model()
        e0 = np.diag([1.0, 0.0]).astype(complex)
        probs = branch_probabilities(model, e0)
        assert probs[-1] == 0.0 and np.cumsum(probs / probs.sum())[-1] < u

        monkeypatch.setattr(
            simulate, "trajectory_rng", lambda seed, lo, hi: [FixedDraws(u)] * (hi - lo)
        )
        with pytest.raises(NumericalDegeneracyError, match="selected branch has vanishing probability"):
            run(model, DiagonalState.single_site(e0), SimConfig(steps=3, trajectories=4, seed=0))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_zero_trace_site_never_drawn(self, two_state, rank):
        # the site's matrix cannot be normalized and has no atoms; it is never
        # drawn and raises no warning
        mat = random_density(np.random.default_rng(rank), 2, rank)
        rho = DiagonalState({(0,): 0.0 * mat, (1,): mat})
        ens = run(two_state, rho, SimConfig(steps=3, trajectories=50, seed=1))
        assert np.all(ens.initial_positions == 1)

    def test_positions_that_could_wrap_rejected(self, two_state):
        # positions are int64: max|site| + steps * max|shift| must fit, and a
        # run exactly at the bound goes ahead without wrapping
        top = np.iinfo(np.int64).max
        tau = np.diag([0.0, 1.0]).astype(complex)
        cfg = SimConfig(steps=40, trajectories=64, seed=3)
        for site in (top - 39, -(top - 39)):
            with pytest.raises(ValueError, match="int64 maximum"):
                run(two_state, DiagonalState.single_site(tau, site=(site,)), cfg)
        ens = run(two_state, DiagonalState.single_site(tau, site=(top - 40,)), cfg)
        assert np.all(ens.final_positions >= top - 80)
        ens = run(two_state, DiagonalState.single_site(tau, site=(-(top - 40),)), cfg)
        assert np.all(ens.final_positions <= -(top - 80))

    def test_zero_steps(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        rho = DiagonalState.single_site(tau)
        ens = run(two_state, rho, SimConfig(steps=0, trajectories=50, seed=1))
        assert np.array_equal(ens.final_positions, ens.initial_positions)

    def test_initial_track_value(self, four_state_module, transient_rho, edge_absorption):
        ens = run(
            four_state_module,
            transient_rho,
            SimConfig(steps=3, trajectories=20, seed=3),
            tracks={"edge": edge_absorption},
        )
        np.testing.assert_allclose(ens.y_tracks["edge"][:, 0], 1 / 3, atol=1e-12)

    def test_track_bounds_hold(self, four_state_module, transient_rho, edge_absorption):
        ens = run(
            four_state_module,
            transient_rho,
            SimConfig(steps=200, trajectories=300, seed=4, y_stride=20),
            tracks={"edge": edge_absorption},
        )
        track = ens.y_tracks["edge"]
        assert track.min() >= -1e-9 and track.max() <= 1 + 1e-9


class CountedDraws:
    """A bit generator that records the size of every ``random_raw`` call."""

    def __init__(self, stream, calls):
        self.stream, self.calls = stream, calls

    def random_raw(self, size):
        self.calls.append(size)
        return self.stream.random_raw(size)


class TestStreams:
    """``trajectory_rng`` keys a chunk's Philox streams in its own code; each
    must be the stream numpy makes for (seed, index)."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96, 2**130 + 1]
    )
    def test_keys_match_seed_sequence(self, seed):
        # a seed of k 32-bit words and the index make k + 1 entropy words; from
        # 2**96 on the index is the fifth, mixed into the pool after it
        for lo, hi in [(0, 40), (2**31 - 2, 2**31 + 2), (2**32 - 6, 2**32)]:
            streams = simulate.trajectory_rng(seed, lo, hi)
            assert len(streams) == hi - lo
            for i, g in zip(range(lo, hi), streams):
                key = np.random.SeedSequence(entropy=(seed, i)).generate_state(2, np.uint64)
                state = g.state["state"]
                assert np.array_equal(state["key"], key), (seed, i)
                assert not state["counter"].any()
                assert isinstance(g.seed_seq, simulate._PhiloxKey)
        with pytest.raises(ValueError, match="indices below 2"):
            simulate.trajectory_rng(seed, 2**32 - 1, 2**32 + 1)
        with pytest.raises(ValueError, match="seed >= 0"):  # not another seed's words
            simulate.trajectory_rng(-1 - seed, 0, 1)

    @pytest.mark.parametrize("seed", [7, 2**40])
    def test_uniforms_follow_numpy_random(self, monkeypatch, seed):
        # 2 * DRAW_BLOCK + 3 steps take three draw calls per trajectory: the
        # start's uniform with the first block, a whole block, then 3
        n_steps = 2 * simulate.DRAW_BLOCK + 3
        drawn, calls = [], {}
        uniforms, streams = simulate._uniforms, simulate.trajectory_rng

        def recording_uniforms(words):
            out = uniforms(words)
            drawn.append(out.copy())
            return out

        def counted_streams(seed, lo, hi):
            chunk = zip(range(lo, hi), streams(seed, lo, hi))
            return [CountedDraws(g, calls.setdefault(i, [])) for i, g in chunk]

        monkeypatch.setattr(simulate, "_uniforms", recording_uniforms)
        monkeypatch.setattr(simulate, "trajectory_rng", counted_streams)
        model = models.two_state_biased_walk()
        run(model, DiagonalState.single_site(np.eye(2) / 2), SimConfig(n_steps, 5, seed))
        block = simulate.DRAW_BLOCK
        assert calls == {i: [1 + block, block, 3] for i in range(5)}
        drawn = np.concatenate(drawn, axis=1)
        for i in range(5):
            assert np.array_equal(drawn[i], reference_stream(seed, i).random(1 + n_steps))

    def test_no_seed_sequence_for_any_seed(self, monkeypatch, four_state_module, transient_rho):
        # a SeedSequence per stream takes about three times what the keyed path does
        seed_sequence, built, streams = np.random.SeedSequence, [], []
        rng = simulate.trajectory_rng

        def counting_seed_sequence(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        def recorded_streams(seed, lo, hi):
            chunk = rng(seed, lo, hi)
            streams.extend(chunk)
            return chunk

        monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
        monkeypatch.setattr(simulate, "trajectory_rng", recorded_streams)
        monkeypatch.setattr(simulate, "CHUNK", 64)
        for seed in (2**32 - 1, 2**32):
            run(four_state_module, transient_rho, SimConfig(steps=5, trajectories=150, seed=seed))
        assert built == []
        assert len(streams) == 300
        assert all(isinstance(g.seed_seq, simulate._PhiloxKey) for g in streams)

    @pytest.mark.parametrize(
        "seed", [1.7, 1.0, np.float64(2.0), True, np.bool_(False), -1, np.int64(-3), "3", None]
    )
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SimConfig(steps=3, trajectories=4, seed=seed)

    def test_numpy_integer_seeds_accepted(self, four_state_module, transient_rho):
        ensembles = [
            run(four_state_module, transient_rho, SimConfig(steps=20, trajectories=30, seed=seed))
            for seed in (5, np.int64(5), np.uint32(5))
        ]
        for other in ensembles[1:]:
            assert np.array_equal(ensembles[0].initial_positions, other.initial_positions)
            assert np.array_equal(ensembles[0].final_positions, other.final_positions)


def digest(arrays) -> str:
    """sha256 of the little-endian bytes of ``arrays`` in order."""
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return sha.hexdigest()


def ensemble_digest(ens) -> str:
    """sha256 of every array a run returns: positions, tracks in id order and
    horizon cuts in horizon order."""
    arrays = [ens.initial_positions, ens.final_positions]
    arrays += [ens.y_tracks[t] for t in sorted(ens.y_tracks)]
    arrays += [ens.horizon_positions[n] for n in sorted(ens.horizon_positions)]
    return digest(arrays)


def position_digest(ens) -> str:
    """sha256 of a run's positions: start, end, then horizon cuts in horizon
    order."""
    cuts = [ens.horizon_positions[n] for n in sorted(ens.horizon_positions)]
    return digest([ens.initial_positions, ens.final_positions] + cuts)


def track_digest(ens) -> str:
    """sha256 of a run's tracks in id order."""
    return digest([ens.y_tracks[t] for t in sorted(ens.y_tracks)])


def row_choice(probs, u):
    """The branch choice written row-wise over (c, v) arrays: the reference
    that the column form must reproduce bit for bit. Returns the clipped
    probabilities, their row totals and the chosen branches."""
    p = np.clip(probs, 0.0, None)
    totals = p.sum(axis=1)
    if not np.all(totals >= 1e-14):
        raise NumericalDegeneracyError("all branch probabilities vanish")
    cdf = np.cumsum(p / totals[:, None], axis=1)
    return p, totals, np.minimum((cdf < u[:, None]).sum(axis=1), p.shape[1] - 1)


def branch_rows(rng, c, v, layout):
    """(c, v) branch probabilities over several magnitudes, some entries a
    roundoff below 0 and the middle branch v // 2 (the last at v = 2) empty
    in the first 50 rows, as a contiguous array or as the real view of a
    complex one (the density form's layout). Every row keeps a positive
    entry outside the middle branch."""
    p = rng.random((c, v)) * 10.0 ** rng.integers(-3, 4, size=(c, 1))
    negative = rng.random((c, v)) < 0.1
    negative[np.arange(c), (v // 2 + rng.integers(1, v, c)) % v] = False
    p[negative] = -1e-17
    p[:50, v // 2] = 0.0
    if layout == "rows":
        return p
    return (p + 1j * rng.random((c, v))).real


class TestBranchChoice:
    @pytest.mark.parametrize("layout", ["rows", "real-view"])
    @pytest.mark.parametrize("v", [2, 3, 7, 8, 9, 17])
    def test_matches_row_expression(self, v, layout):
        rng = np.random.default_rng(200 + v)
        c = 1000
        probs = branch_rows(rng, c, v, layout)
        u = rng.random(c)
        clipped, totals, _ = row_choice(probs, u)
        cdf = np.cumsum(clipped / totals[:, None], axis=1)
        rows = np.arange(50, 250)
        u[rows] = cdf[rows, rows % v]  # a uniform on a branch boundary
        u[250:300] = 1.0 - 2.0**-53  # beyond the last boundary when it rounds below 1
        clipped, totals, expected = row_choice(probs, u)

        weights, chosen = simulate._choose_branches(probs, u)
        assert weights.shape == (v, c) and weights.flags.c_contiguous
        assert np.array_equal(weights, clipped.T)
        assert np.array_equal(simulate._branch_totals(weights), totals)
        assert chosen.dtype == expected.dtype and np.array_equal(chosen, expected)
        assert np.any(chosen != expected[0])  # the rows do not all pick one branch
        for i in (0, 60, 260, c - 1):  # a chunk of one row picks the same branch
            one_weights, one = simulate._choose_branches(probs[i : i + 1], u[i : i + 1])
            assert np.array_equal(one_weights, clipped[i : i + 1].T)
            assert np.array_equal(one, expected[i : i + 1])

    @pytest.mark.parametrize("v", [2, 9])
    @pytest.mark.parametrize("row", ["nan", "zero", "negative"])
    def test_vanishing_rows_raise(self, v, row):
        rng = np.random.default_rng(v)
        probs = branch_rows(rng, 20, v, "rows")
        probs[7] = {"nan": np.nan, "zero": 0.0, "negative": -1e-17}[row]
        with pytest.raises(NumericalDegeneracyError, match="all branch probabilities vanish"):
            row_choice(probs, rng.random(20))
        with pytest.raises(NumericalDegeneracyError, match="all branch probabilities vanish"):
            simulate._choose_branches(probs, rng.random(20))

    def test_nine_branch_density_digest(self, monkeypatch):
        # pinned while the branch choice still made row-wise passes over (c, v)
        # arrays and this full-rank start stepped density matrices: the
        # positions keep every bit; the tracks, now read off rank-3 factors,
        # were re-pinned after agreeing with the density values to 1e-15
        model = random_irreducible_model(19, 3, shifts=[[k] for k in range(-4, 5)])
        rng = np.random.default_rng(19)
        rho = DiagonalState({(0,): random_density(rng, 3) / 2, (2,): random_density(rng, 3) / 2})
        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "DRAW_BLOCK", 16)
        cfg = SimConfig(steps=70, trajectories=150, seed=5, y_stride=10, horizons=(25,))
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        ens = run(model, rho, cfg, tracks={"p": proj})
        assert position_digest(ens) == (
            "1df47862bfc3243a423cb37d950093e2f0ea7b42d3aa8f4941f08cdbd2a14f95"
        )
        assert track_digest(ens) == (
            "c6fd31fdafba596de7b92b491fef15a0e9e9c767d85255b636cdeec51f3cd099"
        )

    def test_three_branch_factor_digest(self, monkeypatch):
        model = random_irreducible_model(23, 4, shifts=[[-1], [0], [2]])
        rng = np.random.default_rng(23)
        rho = DiagonalState.single_site(random_density(rng, 4, 1))
        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "DRAW_BLOCK", 16)
        cfg = SimConfig(steps=70, trajectories=150, seed=6, y_stride=10, horizons=(33,))
        proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        ens = run(model, rho, cfg, tracks={"p": proj})
        assert ensemble_digest(ens) == (
            "2b1f7f100996196df1eb3aa8c74694e96e9b74a48bbf5bc6a4b1a9fb749ef52f"
        )

    @pytest.mark.parametrize("c", [1, 2, 7, 1000])
    def test_one_branch_is_always_taken(self, c):
        rng = np.random.default_rng(c)
        probs = (0.5 + rng.random((c, 1))) * 10.0 ** rng.integers(-12, 4, size=(c, 1))
        u = rng.random(c)
        u[-1] = 1.0 - 2.0**-53  # the largest uniform
        weights, chosen = simulate._choose_branches(probs, u)
        assert np.array_equal(weights, probs.T)
        assert chosen.dtype == np.intp and np.array_equal(chosen, np.zeros(c, dtype=np.intp))


class TestChosenTakes:
    """``_take_chosen`` gathers each state's chosen branch at flat indices;
    it must give exactly what the fancy indices it replaces give."""

    @pytest.mark.parametrize("c", [1, 2, 7])
    @pytest.mark.parametrize("v", [1, 2, 3, 9])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_flat_takes_match_fancy_indexing(self, r, v, c):
        rng = np.random.default_rng(100 * r + 10 * v + c)
        h = 3
        kraus = rng.standard_normal((v, h, h)) + 1j * rng.standard_normal((v, h, h))
        states = rng.standard_normal((c, r, h)) + 1j * rng.standard_normal((c, r, h))
        probs, products = simulate._branch_probabilities(
            states, np.hstack(kraus.transpose(0, 2, 1))
        )
        probs, chosen = simulate._choose_branches(probs, rng.random(c))
        chosen[:] = np.arange(c) % v  # every branch, where there are states for it
        rows = np.arange(c * r).reshape(c, -1) * v  # as ``run`` builds them per chunk
        taken, weights = simulate._take_chosen(products, probs, chosen, rows)
        traj = np.arange(c)
        assert taken.shape == (c, r, h) and taken.flags.c_contiguous
        assert np.array_equal(taken, products[traj, :, chosen])
        assert np.array_equal(weights, probs[chosen, traj])


class TestPureStartLaw:
    """Without tracks, a mixed start steps one eigenvector psi_k of its site,
    drawn with probability lambda_k; the positions keep the law of the mixed
    start."""

    @pytest.mark.parametrize("start", ["two-level-full-rank", "four-level-rank-2"])
    def test_displacement_law_matches_enumeration(self, start):
        # within criterion 08(a)'s 4-sigma DKW band; stepping only the top
        # eigenvector, or weighting the eigenvectors equally, misses the exact
        # law by 0.02-0.04 in either case, twice the band or more
        steps, n_samples = 12, 50_000
        if start == "two-level-full-rank":
            model = models.two_state_biased_walk()
            rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        else:
            model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
            rho0 = random_density(np.random.default_rng(12), 4, 2)
        law = enumerate_displacement_law(model, rho0, steps)
        support = np.array(sorted(law))
        cdf_exact = np.cumsum([law[k] for k in support])
        ens = run(model, DiagonalState.single_site(rho0), SimConfig(steps, n_samples, seed=12))
        disp = np.sort(ens.displacements[:, 0])
        cdf_emp = np.searchsorted(disp, support, side="right") / n_samples
        assert np.max(np.abs(cdf_emp - cdf_exact)) <= dkw_band(n_samples)


class TestFactors:
    @pytest.mark.parametrize("local_dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("rank", [1, 2, pytest.param(None, id="full")])
    def test_rows_do_not_depend_on_chunk_size(self, local_dim, rank):
        # a chunk of one state must give the bits it gets among others: numpy
        # hands a single row to gemv, which rounds otherwise than gemm
        rng = np.random.default_rng(70 + local_dim)
        kraus = random_walk_model(rng, local_dim).kraus
        stacked = np.hstack(kraus.transpose(0, 2, 1))
        shape = (9, rank or local_dim, local_dim)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        op = random_density(rng, local_dim)
        probs, products = simulate._branch_probabilities(states, stacked)
        tracks = simulate._track(op, states)
        for i in range(len(states)):
            one = states[i : i + 1].copy()
            one_probs, one_products = simulate._branch_probabilities(one, stacked)
            assert np.array_equal(one_products, products[i : i + 1])
            assert np.array_equal(one_probs, probs[i : i + 1])
            assert np.array_equal(simulate._track(op, one), tracks[i : i + 1])


class TestMartingale:
    def test_exact_identity_on_random_states(self, four_state_module, edge_absorption):
        states = random_densities(20, 4, 20)
        assert martingale_check(four_state_module, edge_absorption, states) <= 1e-9

    def test_full_space_track_is_constant(self, four_state_module):
        a = absorption(four_state_module, basis_subspace(4, [0, 1, 2, 3])).matrix
        states = random_densities(21, 4, 5)
        assert martingale_check(four_state_module, a, states) <= 1e-12

    def test_initial_value_preserved_one_step(self, four_state_module, edge_absorption):
        e0 = np.zeros((4, 4), dtype=complex)
        e0[0, 0] = 1.0
        assert martingale_check(four_state_module, edge_absorption, [e0]) <= 1e-12


class TestClassification:
    def test_state_inside_enclosure(self, four_state_module, edge_absorption):
        mat = np.zeros((4, 4), dtype=complex)
        mat[3, 3] = 1.0
        rho = DiagonalState.single_site(mat)
        ens = run(
            four_state_module,
            rho,
            SimConfig(steps=50, trajectories=200, seed=5, y_stride=10),
            tracks={"edge": edge_absorption},
        )
        hi, lo, mid = classify_absorption(ens, "edge")
        assert (hi, lo) == (1.0, 0.0)

    def test_state_in_orthogonal_block(self, four_state_module, edge_absorption):
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0
        rho = DiagonalState.single_site(mat)
        ens = run(
            four_state_module,
            rho,
            SimConfig(steps=50, trajectories=200, seed=6, y_stride=10),
            tracks={"edge": edge_absorption},
        )
        hi, lo, mid = classify_absorption(ens, "edge")
        assert (hi, lo) == (0.0, 1.0)

    def test_missing_track(self, four_state_module, transient_rho):
        ens = run(four_state_module, transient_rho, SimConfig(steps=5, trajectories=10, seed=7))
        with pytest.raises(KeyError, match="no track named 'edge'"):
            classify_absorption(ens, "edge")


class TestTransientDecay:
    def test_mass_leaves_the_transient_space(self, four_state_module, transient_rho):
        p_t = orthonormal_complement(recurrent_space(four_state_module)).projector()
        ens = run(
            four_state_module,
            transient_rho,
            SimConfig(steps=200, trajectories=2000, seed=8, y_stride=20),
            tracks={"transient": p_t},
        )
        means = ens.y_tracks["transient"].mean(axis=0)
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        # nonincreasing up to Monte Carlo noise
        assert np.all(np.diff(means) <= 0.01)
        assert means[-1] < 0.05

        # exact oracle: ensemble mean of the transient mass equals the
        # channel-evolved expectation
        view = ChannelView.full(four_state_module)
        sigma = transient_rho.site_average()
        for _ in range(200):
            sigma = apply(view, sigma)
        exact = float(np.trace(p_t @ sigma).real)
        mc_sigma = np.sqrt(0.25 / 2000)
        assert abs(means[-1] - exact) <= 4 * mc_sigma


class TestExport:
    """The ensemble files that ``cli`` writes from a run."""

    def test_csv_rows(self, four_state_module, transient_rho, edge_absorption):
        ens = run(
            four_state_module,
            transient_rho,
            SimConfig(steps=5, trajectories=4, seed=9),
            tracks={"edge": edge_absorption},
        )
        x0_columns = [list(map(str, col)) for col in ens.initial_positions.T.tolist()]
        header, rows = cli._ensemble_rows(ens, x0_columns)
        assert header == ["x0_1", "x_1", "y_edge"]
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)

    def test_manifest_fields(self, four_state_module, transient_rho):
        cfg = SimConfig(steps=5, trajectories=4, seed=9)
        ens = run(four_state_module, transient_rho, cfg)
        manifest = cli._manifest(four_state_module, ens, wall_time=1.5)
        assert manifest["steps"] == 5
        assert manifest["seed"] == 9
        assert len(manifest["model_sha256"]) == 64
