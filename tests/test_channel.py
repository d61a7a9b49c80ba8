import json
import pickle
from copy import deepcopy

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk import models
from oqwalk.channel import (
    TOL_TRACE_PRESERVING,
    ChannelView,
    WalkModel,
    hunvec,
    hvec,
    perron,
    to_matrix,
)
from oqwalk.errors import NotTracePreservingError
from oqwalk.linalg import Subspace
from oqwalk.structure import _fixed_space_hermitian_basis
from util import (
    apply,
    apply_dual,
    basis_subspace,
    random_densities,
    random_irreducible_model,
    random_walk_model,
)


class TestValidate:
    def test_fixture_models_pass(self, two_state, four_state, four_state_half, commuting):
        for model in (two_state, four_state, four_state_half, commuting):
            assert model.normalization_defect() <= TOL_TRACE_PRESERVING

    def test_identity_pair(self):
        kraus = np.array([np.eye(2), np.eye(2)]) / np.sqrt(2)
        assert WalkModel(shifts=[[-1], [1]], kraus=kraus).normalization_defect() <= TOL_TRACE_PRESERVING

    def test_broken_normalization(self):
        kraus = np.array([np.eye(2), np.eye(2)])  # sums to 2*I
        with pytest.raises(NotTracePreservingError) as err:
            WalkModel(shifts=[[-1], [1]], kraus=kraus)
        assert err.value.deviation == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_structural_invariants(self):
        with pytest.raises(ValueError):
            WalkModel(shifts=[[0], [0]], kraus=np.array([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError):
            WalkModel(shifts=np.zeros((0, 1), dtype=int), kraus=np.zeros((0, 2, 2)))
        bad = np.array([np.eye(2) * np.nan, np.eye(2)])
        with pytest.raises(ValueError):
            WalkModel(shifts=[[-1], [1]], kraus=bad)

    @pytest.mark.parametrize("bad", [1.7, "2", True, np.True_, 1e30, 2**63, np.nan, None])
    def test_shifts_must_be_int64_integers(self, bad):
        # no value is cast onto a shift (1.7 is not shift 1, True not shift 1),
        # and the simulator keeps positions in int64
        kraus = np.array([np.eye(2), np.eye(2)]) / np.sqrt(2)
        with pytest.raises(ValueError, match="shift coordinates must be integers in the int64"):
            WalkModel(shifts=[[-1], [bad]], kraus=kraus)

    def test_integral_shifts_are_int64(self):
        kraus = np.array([np.eye(2), np.eye(2)]) / np.sqrt(2)
        model = WalkModel(shifts=[[-1.0], [np.int64(2**62)]], kraus=kraus)
        assert model.shifts.dtype == np.int64
        assert model.shifts.tolist() == [[-1], [2**62]]
        assert WalkModel(shifts=[[-(2**63)], [1]], kraus=kraus).shifts[0, 0] == -(2**63)

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


    @pytest.mark.parametrize("dim", [1.5, True, "1", None, [1], 2])
    def test_lattice_dim_must_be_the_integer_shift_dimension(self, two_state, dim):
        data = two_state.to_json_dict()
        data["lattice_dim"] = dim
        with pytest.raises(ValueError, match="lattice_dim"):
            WalkModel.from_json_dict(data)

    def test_integral_float_lattice_dim(self, two_state):
        data = two_state.to_json_dict()
        data["lattice_dim"] = 1.0
        assert WalkModel.from_json_dict(data).lattice_dim == 1


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
        with pytest.raises(ValueError, match="expected 2x2 operator"):
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


def hermitian_basis(k: int) -> np.ndarray:
    """The basis operators E_aa, then (E_ab + E_ba)/sqrt 2, then
    i(E_ab - E_ba)/sqrt 2 for a < b, built one by one from their definition."""
    def unit(a, b):
        e = np.zeros((k, k), dtype=complex)
        e[a, b] = 1.0
        return e

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return np.array(
        [unit(a, a) for a in range(k)]
        + [np.sqrt(0.5) * (unit(a, b) + unit(b, a)) for a, b in pairs]
        + [1j * np.sqrt(0.5) * unit(a, b) - 1j * np.sqrt(0.5) * unit(b, a) for a, b in pairs]
    )


def random_hermitian(rng, shape, k: int) -> np.ndarray:
    g = rng.standard_normal((*shape, k, k)) + 1j * rng.standard_normal((*shape, k, k))
    return g + g.conj().swapaxes(-1, -2)


class TestHermitianBasis:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_basis_is_orthonormal_and_hermitian(self, k):
        basis = hunvec(np.eye(k * k))
        np.testing.assert_array_equal(basis, hermitian_basis(k))
        assert np.array_equal(basis, basis.conj().swapaxes(-1, -2))
        gram = np.einsum("iab,jab->ij", basis.conj(), basis)  # Tr(B_i* B_j)
        np.testing.assert_allclose(gram, np.eye(k * k), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 4)])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_round_trip_on_stacks(self, k, shape):
        a = random_hermitian(np.random.default_rng(10 * k + len(shape)), shape, k)
        c = hvec(a)
        assert c.dtype == np.float64 and c.shape == (*shape, k * k)
        np.testing.assert_allclose(hunvec(c), a, rtol=0, atol=1e-14)
        np.testing.assert_allclose(hvec(hunvec(c)), c, rtol=0, atol=1e-14)

    def test_coordinates_pair_like_operators(self):
        # the Hilbert-Schmidt inner product is the dot product of coordinates
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng, (2,), 4)
        assert hvec(a) @ hvec(b) == pytest.approx(np.trace(a @ b).real, abs=1e-12)

    def test_coordinates_of_the_hermitian_part(self):
        a, b = np.random.default_rng(5).standard_normal((2, 3, 3))
        x = a + 1j * b
        np.testing.assert_allclose(hvec(x), hvec((x + x.conj().T) / 2), rtol=0, atol=1e-15)

    def test_fixed_space_basis_is_hermitian_and_orthonormal(self, four_state):
        view = ChannelView.full(four_state)
        basis = np.array(_fixed_space_hermitian_basis(view.matrix))
        assert len(basis) == 5
        np.testing.assert_array_equal(basis, basis.conj().swapaxes(-1, -2))
        gram = np.einsum("iab,jab->ij", basis.conj(), basis)
        np.testing.assert_allclose(gram, np.eye(5), rtol=0, atol=1e-12)
        for x in basis:
            assert np.linalg.norm(apply(view, x) - x) <= 1e-9


class TestApplyDual:
    """The dual channel is the transpose of ``ChannelView.matrix``."""

    @staticmethod
    def dual(view, x):
        return hunvec(view.matrix.T @ hvec(x))

    def test_unital(self, four_state):
        out = self.dual(ChannelView.full(four_state), np.eye(4))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-12)

    def test_adjoint_identity(self, four_state):
        view = ChannelView.full(four_state)
        rng_states = random_densities(2, 4, 10)
        rng_obs = random_densities(3, 4, 10)
        for sigma, x in zip(rng_states, rng_obs):
            lhs = np.trace(apply(view, sigma) @ x)
            rhs = np.trace(sigma @ self.dual(view, x))
            assert abs(lhs - rhs) <= 1e-10

    def test_absorption_operator_is_harmonic(self, four_state):
        from oqwalk.structure import absorption

        a = absorption(four_state, basis_subspace(4, [3]))
        out = self.dual(ChannelView.full(four_state), a.matrix)
        assert np.linalg.norm(out - a.matrix) <= 1e-9

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_transpose_matches_kraus_sum(self, k):
        rng = np.random.default_rng(k)
        model = random_walk_model(rng, 6, 2)
        sub = Subspace(6, np.linalg.qr(rng.standard_normal((6, k)))[0])
        view = ChannelView(model, sub, rng.standard_normal(2))
        for x in random_hermitian(rng, (4,), k):
            assert np.linalg.norm(self.dual(view, x) - apply_dual(view, x)) <= 1e-12


class TestToMatrix:
    def test_identity_channel(self):
        model = models.single_shift_walk(shift=1, dim=2)
        np.testing.assert_allclose(
            to_matrix(ChannelView.full(model)), np.eye(4), atol=1e-12
        )

    def test_matches_apply_on_vectorized_operators(self, four_state):
        # Hermitian inputs directly, general ones by linearity: X = H1 + i H2
        view = ChannelView.full(four_state, u=[0.3])
        m = to_matrix(view)
        assert m.dtype == np.float64
        rng = np.random.default_rng(5)
        for _ in range(5):
            sigma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h1, h2 = (sigma + sigma.conj().T) / 2, (sigma - sigma.conj().T) / 2j
            for h in (h1, h2):
                assert np.linalg.norm(apply(view, h) - hunvec(m @ hvec(h))) <= 1e-10
            via_matrix = hunvec(m @ hvec(h1)) + 1j * hunvec(m @ hvec(h2))
            assert np.linalg.norm(apply(view, sigma) - via_matrix) <= 1e-10

    def test_two_state_dominant_eigenvalue(self, two_state):
        assert abs(perron(ChannelView.full(two_state)).value - 1.0) <= 1e-9

    def test_deformed_construction(self, two_state):
        # entry (j, l) is Tr(B_j T_u(B_l)), with T_u as a Kraus sum
        u = np.array([0.1])
        m = to_matrix(ChannelView.full(two_state, u))
        terms = list(zip(two_state.shifts, two_state.kraus))
        basis = hermitian_basis(2)
        images = [sum(np.exp(u @ s) * (l @ b @ l.conj().T) for s, l in terms) for b in basis]
        expected = np.array([[np.trace(bj @ t) for t in images] for bj in basis])
        np.testing.assert_allclose(m, expected, atol=1e-12)

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize("lattice_dim", [1, 2])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_bitwise_equal_to_kron_sum(self, k, lattice_dim, deformed):
        # the broadcast product and the in-order sum from zeros round exactly
        # as S = sum_i e^{u.s_i} kron(K_i, conj K_i) does, signed zeros
        # included; S acts on row-major entries, and the matrix is
        # Re(conj(E) S E^T) for E the flattened basis operators as rows
        rng = np.random.default_rng(100 * k + 10 * lattice_dim + deformed)
        model = random_walk_model(rng, 8, lattice_dim)
        g = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        sub = Subspace(8, np.linalg.qr(g)[0])
        u = rng.standard_normal(lattice_dim) if deformed else None
        view = ChannelView(model, sub, u)
        kron_sum = np.zeros((k * k, k * k), dtype=complex)
        for w, kr in zip(view.weights, view.compressed_kraus):
            kron_sum += w * np.kron(kr, kr.conj())
        e = hermitian_basis(k).reshape(k * k, k * k)
        expected = (e.conj() @ kron_sum @ e.T).real
        m = to_matrix(view)
        assert np.array_equal(m, expected)
        assert m.tobytes() == expected.tobytes()

    def test_view_builds_its_matrix_once(self, four_state):
        view = ChannelView.full(four_state, u=[0.3])
        assert view.matrix is view.matrix
        assert not view.matrix.flags.writeable
        assert view.matrix.dtype == np.float64
        assert np.array_equal(view.matrix, to_matrix(view))


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
            # T_u is lam times the identity there, so the projection of the
            # maximally mixed seed is the seed itself
            np.testing.assert_allclose(pd.state, np.eye(2) / 2, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                pd.dual_weight, np.eye(2) / np.sqrt(2), rtol=0, atol=1e-12
            )

    def test_projection_is_the_limit_of_iterates(self, four_state):
        # fixed space of dimension 5, next eigenvalue modulus 0.9856: both
        # Perron vectors are the limits of the iterates of the seeds
        view = ChannelView.full(four_state)
        power = np.linalg.matrix_power(to_matrix(view), 4096)
        state = hunvec(power @ hvec(np.eye(4) / 4))
        dual = hunvec(power.T @ hvec(np.eye(4)))
        pd = perron(view)
        np.testing.assert_allclose(
            pd.state, state / np.trace(state).real, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            pd.dual_weight, dual / np.linalg.norm(dual), rtol=0, atol=1e-12
        )

    def test_eigensolve_budget(self, monkeypatch):
        # one eigensolve gives both Perron vectors: the projection solves
        # only the cluster's c x c Gram system (c = 1 here), never one of
        # the k^2 x k^2 superoperator's size
        view = ChannelView.full(random_irreducible_model(3, local_dim=3), u=[0.3])
        eigs, solved = [], []
        eig, solve = scipy.linalg.eig, np.linalg.solve

        def counting_eig(a, *args, **kwargs):
            eigs.append(np.shape(a))
            return eig(a, *args, **kwargs)

        def counting_solve(a, b):
            solved.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(scipy.linalg, "eig", counting_eig)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        perron(view)
        assert eigs == [(9, 9)]
        assert all(shape == (1, 1) for shape in solved)

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
