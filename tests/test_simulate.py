import hashlib

import numpy as np
import pytest

from oqwalk import models, simulate
from oqwalk.channel import ChannelView, WalkModel, apply
from oqwalk.errors import DegenerateStepError, MissingTrackError
from oqwalk.linalg import orthonormal_complement
from oqwalk.simulate import (
    SimConfig,
    classify_absorption,
    martingale_check,
    run,
    trajectory_rng,
)
from oqwalk.structure import DiagonalState, absorption, recurrent_space
from scalar_walk import TrajectoryState, branch_probabilities, sample_initial, step
from util import basis_subspace, random_densities, random_density, random_walk_model


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
        with pytest.raises(DegenerateStepError):
            step(st, two_state, np.random.default_rng(5))

    def test_nan_state_rejected(self, two_state):
        nan = np.full((2, 2), np.nan, dtype=complex)
        st = TrajectoryState(position=np.array([0]), state=nan)
        with pytest.raises(DegenerateStepError):
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

    def test_matches_scalar_stepping(self, four_state_module, transient_rho):
        cfg = SimConfig(steps=35, trajectories=24, seed=13)
        ens = run(four_state_module, transient_rho, cfg)
        for idx in (0, 7, 23):
            rng = trajectory_rng(cfg.seed, idx)
            st = sample_initial(transient_rho, rng)
            assert np.array_equal(st.position, ens.initial_positions[idx])
            for _ in range(cfg.steps):
                st = step(st, four_state_module, rng)
            assert np.array_equal(st.position, ens.final_positions[idx])

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
            rng_i = trajectory_rng(cfg.seed, idx)
            st = sample_initial(rho, rng_i)
            assert np.array_equal(st.position, ens.initial_positions[idx])
            values = [float(np.trace(proj @ st.state).real)]
            for n in range(1, cfg.steps + 1):
                st = step(st, model, rng_i)
                if n in ens.y_snapshot_steps:
                    values.append(float(np.trace(proj @ st.state).real))
            assert np.array_equal(st.position, ens.final_positions[idx])
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

    def test_vanishing_selected_branch_rejected(self, monkeypatch):
        # on e_0 the branches have probabilities (0.05, 0.5, 0.45, 0); their
        # normalized CDF ends below u, so the draw clamps to the empty last branch
        u = 1.0 - 2.0**-53
        weights = np.array([0.05, 0.5, 0.45])
        kraus = np.zeros((4, 2, 2), dtype=complex)
        kraus[:3, 0, 0] = np.sqrt(weights)
        kraus[3, 1, 1] = 1.0
        model = WalkModel(shifts=np.array([[-1], [1], [2], [3]]), kraus=kraus)
        e0 = np.diag([1.0, 0.0]).astype(complex)
        probs = branch_probabilities(model, e0)
        assert probs[-1] == 0.0 and np.cumsum(probs / probs.sum())[-1] < u

        class FixedDraws:
            def random(self, out=None):
                if out is None:
                    return u
                out.fill(u)
                return out

        monkeypatch.setattr(simulate, "trajectory_rng", lambda seed, index: FixedDraws())
        with pytest.raises(DegenerateStepError):
            run(model, DiagonalState.single_site(e0), SimConfig(steps=3, trajectories=4, seed=0))

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
        with pytest.raises(MissingTrackError):
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
    def test_csv_rows(self, four_state_module, transient_rho, edge_absorption):
        ens = run(
            four_state_module,
            transient_rho,
            SimConfig(steps=5, trajectories=4, seed=9),
            tracks={"edge": edge_absorption},
        )
        header, rows = simulate.ensemble_to_csv_rows(ens)
        assert header == ["x0_1", "x_1", "y_edge"]
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)

    def test_manifest_fields(self, four_state_module, transient_rho):
        cfg = SimConfig(steps=5, trajectories=4, seed=9)
        ens = run(four_state_module, transient_rho, cfg)
        manifest = simulate.run_manifest(four_state_module, ens, wall_time=1.5)
        assert manifest["steps"] == 5
        assert manifest["seed"] == 9
        assert len(manifest["model_sha256"]) == 64
