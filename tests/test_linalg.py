import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk.errors import NumericalDegeneracyError, SingularMatrixError
from oqwalk.linalg import (
    Subspace,
    _dominant_index,
    orthonormal_complement,
    solve_linear,
    subspace_intersection,
    support_projection,
)
from util import basis_subspace


def random_psd(seed, dim, rank=None):
    rng = np.random.default_rng(seed)
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


class TestSupportProjection:
    def test_identity(self):
        p = support_projection(np.eye(3, dtype=complex))
        assert p.dim == 3
        np.testing.assert_allclose(p.projector(), np.eye(3), atol=1e-12)

    def test_rank_one_diagonal(self):
        p = support_projection(np.diag([1.0, 0.0]).astype(complex))
        assert p.dim == 1
        np.testing.assert_allclose(p.projector(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_absorption_shaped_diagonal(self):
        # diag(2*p3, 0, 0, 1) with p3 = 1/6 supports the first and last axes
        h = np.diag([1 / 3, 0.0, 0.0, 1.0]).astype(complex)
        p = support_projection(h).projector()
        np.testing.assert_allclose(p, np.diag([1.0, 0, 0, 1.0]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalDegeneracyError, match="deviates from Hermitian"):
            support_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(NumericalDegeneracyError, match="minimum eigenvalue"):
            support_projection(np.diag([1.0, -1e-3]).astype(complex))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_projector_properties(self, seed, dim):
        h = random_psd(seed, dim, rank=max(1, dim - 1))
        p = support_projection(h).projector()
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        trace_h = np.trace(h).real
        assert np.trace(p @ h).real >= (1 - 1e-8) * trace_h


class TestEigDominant:
    """Selection of the dominant eigenvalue (``_dominant_index``, used by
    ``channel.perron``)."""

    @staticmethod
    def dominant(m):
        vals = np.linalg.eigvals(m)
        return vals[_dominant_index(vals)]

    def test_diagonal(self):
        assert self.dominant(np.diag([2.0, 1.0]).astype(complex)) == pytest.approx(2.0)

    def test_trace_preserving_superoperator(self, two_state):
        from oqwalk.channel import ChannelView, to_matrix

        lam = self.dominant(to_matrix(ChannelView.full(two_state)))
        assert abs(abs(lam) - 1.0) <= 1e-9

    def test_similarity_constructed_spectrum(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
        m = v @ np.diag([0.5, 0.3]) @ np.linalg.inv(v)
        assert self.dominant(m) == pytest.approx(0.5, abs=1e-10)

    def test_tie_break_prefers_real_root(self):
        # modulus-1 set {-1, i, 1}: the real positive root wins
        assert _dominant_index(np.array([-1.0, 1j, 1.0])) == 2


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_random_residual(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = a + 8 * np.eye(8)  # keep it well conditioned
        b = rng.standard_normal(8)
        x = solve_linear(a, b)
        resid = np.linalg.norm(a @ x - b)
        assert resid <= 1e-9 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))

    def test_singular_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.array([1.0, 0.0]))


class TestOrthonormalComplement:
    def test_axis(self):
        comp = orthonormal_complement(basis_subspace(2, [0]))
        np.testing.assert_allclose(np.abs(comp.basis[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_full_space(self):
        assert orthonormal_complement(Subspace.full(3)).dim == 0

    def test_diagonal_direction(self):
        v = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        comp = orthonormal_complement(Subspace(2, v))
        assert comp.dim == 1
        assert abs(v[:, 0].conj() @ comp.basis[:, 0]) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_projectors_resolve_identity(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, dim))
        vectors = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        s = Subspace.from_span(vectors)
        comp = orthonormal_complement(s)
        assert s.dim + comp.dim == dim
        total = s.projector() + comp.projector()
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)


class TestSubspaceUtilities:
    def test_from_span_drops_dependent_columns(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert Subspace.from_span(v).dim == 1

    def test_intersection(self):
        a = basis_subspace(3, [0, 1])
        b = basis_subspace(3, [1, 2])
        inter = subspace_intersection(a, b)
        assert inter.dim == 1
        np.testing.assert_allclose(np.abs(inter.basis[:, 0]), [0, 1, 0], atol=1e-9)

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
