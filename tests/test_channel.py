import json
import pickle
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk import models
from oqwalk.channel import (
    ChannelView,
    WalkModel,
    apply,
    apply_dual,
    perron,
    to_matrix,
    unvec,
    validate,
    vec,
)
from oqwalk.errors import DimensionMismatchError, NotTracePreservingError
from util import basis_subspace, random_densities


class TestValidate:
    def test_fixture_models_pass(self, two_state, four_state, four_state_half, commuting):
        for model in (two_state, four_state, four_state_half, commuting):
            validate(model)

    def test_identity_pair(self):
        kraus = np.array([np.eye(2), np.eye(2)]) / np.sqrt(2)
        validate(WalkModel(shifts=[[-1], [1]], kraus=kraus))

    def test_broken_normalization(self):
        kraus = np.array([np.eye(2), np.eye(2)])  # sums to 2*I
        with pytest.raises(NotTracePreservingError) as err:
            validate(WalkModel(shifts=[[-1], [1]], kraus=kraus))
        assert err.value.deviation == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_structural_invariants(self):
        with pytest.raises(ValueError):
            WalkModel(shifts=[[0], [0]], kraus=np.array([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError):
            WalkModel(shifts=np.zeros((0, 1), dtype=int), kraus=np.zeros((0, 2, 2)))
        bad = np.array([np.eye(2) * np.nan, np.eye(2)])
        with pytest.raises(ValueError):
            WalkModel(shifts=[[-1], [1]], kraus=bad)

    def test_model_arrays_are_read_only_copies(self):
        shifts = np.array([[-1], [1]])
        kraus = np.array([np.eye(2), np.eye(2)], dtype=complex) / np.sqrt(2)
        model = WalkModel(shifts=shifts, kraus=kraus)
        with pytest.raises(ValueError):
            model.kraus[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            model.shifts[0, 0] = 2
        # the caller's arrays stay writeable and are not aliased
        assert kraus.flags.writeable and shifts.flags.writeable
        assert not np.shares_memory(model.kraus, kraus)
        assert not np.shares_memory(model.shifts, shifts)
        kraus[0, 0, 0] = 0.0
        shifts[0, 0] = 2
        assert model.kraus[0, 0, 0] == 1 / np.sqrt(2)
        assert model.shifts[0, 0] == -1

    def test_copies_stay_read_only(self, four_state):
        for copy in (pickle.loads(pickle.dumps(four_state)), deepcopy(four_state)):
            assert not copy.kraus.flags.writeable
            assert not copy.shifts.flags.writeable
            assert copy._memo == {}
            np.testing.assert_array_equal(copy.kraus, four_state.kraus)
            np.testing.assert_array_equal(copy.shifts, four_state.shifts)


class TestSerialization:
    def test_roundtrip(self, four_state, tmp_path):
        path = tmp_path / "model.json"
        four_state.save(path)
        loaded = WalkModel.load(path)
        np.testing.assert_array_equal(loaded.shifts, four_state.shifts)
        np.testing.assert_allclose(loaded.kraus, four_state.kraus, atol=0)

    def test_schema_shape(self, two_state):
        data = two_state.to_json_dict()
        assert data["lattice_dim"] == 1
        assert data["shifts"] == [[-1], [1]]
        entry = data["kraus"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        json.dumps(data)  # serializable


class TestApply:
    def test_trace_preserved(self, four_state):
        view = ChannelView.full(four_state)
        for sigma in random_densities(0, 4, 5):
            out = apply(view, sigma)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_two_state_invariant_state(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        out = apply(ChannelView.full(two_state), tau)
        np.testing.assert_allclose(out, tau, atol=1e-12)

    def test_commuting_eigenstates_fixed(self, commuting):
        view = ChannelView.full(commuting)
        for i in range(3):
            proj = np.zeros((3, 3), dtype=complex)
            proj[i, i] = 1.0
            np.testing.assert_allclose(apply(view, proj), proj, atol=1e-12)

    def test_positivity_preserved(self, four_state):
        view = ChannelView.full(four_state)
        for sigma in random_densities(1, 4, 20):
            out = apply(view, sigma)
            assert float(np.min(np.linalg.eigvalsh(out))) >= -1e-12

    def test_dimension_mismatch(self, two_state):
        with pytest.raises(DimensionMismatchError):
            apply(ChannelView.full(two_state), np.eye(3))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_deformation_rescales_terms(self, seed):
        model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.5, 1.5, size=1)
        sigma = random_densities(seed, 4, 1)[0]
        deformed = apply(ChannelView.full(model, u), sigma)
        manual = sum(
            np.exp(u @ s) * (l @ sigma @ l.conj().T)
            for s, l in zip(model.shifts, model.kraus)
        )
        assert np.linalg.norm(deformed - manual) <= 1e-12


class TestApplyDual:
    def test_unital(self, four_state):
        out = apply_dual(ChannelView.full(four_state), np.eye(4, dtype=complex))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-12)

    def test_adjoint_identity(self, four_state):
        view = ChannelView.full(four_state)
        rng_states = random_densities(2, 4, 10)
        rng_obs = random_densities(3, 4, 10)
        for sigma, x in zip(rng_states, rng_obs):
            lhs = np.trace(apply(view, sigma) @ x)
            rhs = np.trace(sigma @ apply_dual(view, x))
            assert abs(lhs - rhs) <= 1e-10

    def test_absorption_operator_is_harmonic(self, four_state):
        from oqwalk.structure import absorption

        a = absorption(four_state, basis_subspace(4, [3]))
        out = apply_dual(ChannelView.full(four_state), a.matrix)
        assert np.linalg.norm(out - a.matrix) <= 1e-9


class TestToMatrix:
    def test_identity_channel(self):
        model = models.single_shift_walk(shift=1, dim=2)
        np.testing.assert_allclose(
            to_matrix(ChannelView.full(model)), np.eye(4), atol=1e-12
        )

    def test_matches_apply_on_vectorized_operators(self, four_state):
        view = ChannelView.full(four_state, u=[0.3])
        m = to_matrix(view)
        rng = np.random.default_rng(5)
        for _ in range(5):
            sigma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            direct = apply(view, sigma)
            via_matrix = unvec(m @ vec(sigma))
            assert np.linalg.norm(direct - via_matrix) <= 1e-10

    def test_two_state_dominant_eigenvalue(self, two_state):
        assert abs(perron(ChannelView.full(two_state)).value - 1.0) <= 1e-9

    def test_deformed_construction(self, two_state):
        u = np.array([0.1])
        m = to_matrix(ChannelView.full(two_state, u))
        expected = sum(
            np.exp(u @ s) * np.kron(l.conj(), l)
            for s, l in zip(two_state.shifts, two_state.kraus)
        )
        np.testing.assert_allclose(m, expected, atol=1e-12)


class TestPerron:
    def test_two_state_full(self, two_state):
        pd = perron(ChannelView.full(two_state))
        assert pd.value == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(pd.state, np.diag([0.0, 1.0]), atol=1e-9)

    def test_eigenpair_contracts(self, four_state):
        view = ChannelView.full(four_state, u=[0.4])
        pd = perron(view)
        assert np.linalg.norm(apply(view, pd.state) - pd.value * pd.state) <= 1e-9
        assert (
            np.linalg.norm(apply_dual(view, pd.dual_weight) - pd.value * pd.dual_weight)
            <= 1e-9
        )
        assert np.trace(pd.state).real == pytest.approx(1.0, abs=1e-12)
        assert float(np.min(np.linalg.eigvalsh(pd.state))) >= -1e-10

    def test_spectrum_and_gap(self, irreducible, four_state):
        view = ChannelView.full(irreducible, u=[0.4])
        pd = perron(view)
        expected = np.linalg.eigvals(to_matrix(view))
        np.testing.assert_allclose(
            np.sort_complex(pd.eigenvalues), np.sort_complex(expected), atol=1e-12
        )
        moduli = np.sort(np.abs(expected))[::-1]
        assert moduli[1] < pd.value - 1e-6
        assert pd.spectral_gap == pytest.approx(pd.value - moduli[1], abs=1e-12)
        # a 1x1 superoperator has no eigenvalue below the Perron root
        assert perron(ChannelView(four_state, basis_subspace(4, [3]))).spectral_gap == 0.0

    def test_restricted_bernoulli_rate(self, two_state):
        sub = basis_subspace(2, [1])
        for u in (-1.0, 0.0, 0.7):
            pd = perron(ChannelView(two_state, sub, [u]))
            expected = (1 / 3) * np.exp(-u) + (2 / 3) * np.exp(u)
            assert pd.value == pytest.approx(expected, abs=1e-12)

    def test_degenerate_block(self, commuting):
        # both basis rows of the first block share the Kraus action, so the
        # dominant eigenspace has dimension 4; a positive eigenvector must
        # still come out
        sub = basis_subspace(3, [0, 1])
        for u in (0.0, 0.9):
            pd = perron(ChannelView(commuting, sub, [u]))
            expected = 0.3 * np.exp(-u) + 0.7 * np.exp(u)
            assert pd.value == pytest.approx(expected, abs=1e-11)
            assert float(np.min(np.linalg.eigvalsh(pd.state))) >= -1e-10

    def test_log_convexity_along_lines(self, two_state, four_state):
        rng = np.random.default_rng(8)
        for model in (two_state, four_state):
            view = lambda u: ChannelView.full(model, [u])
            for _ in range(10):
                a, b = rng.uniform(-1.5, 1.5, size=2)
                la = np.log(perron(view(a)).value)
                lb = np.log(perron(view(b)).value)
                lm = np.log(perron(view((a + b) / 2)).value)
                assert lm <= 0.5 * (la + lb) + 1e-9
