from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oqwalk import asymptotics, models, structure
from oqwalk.channel import ChannelView, WalkModel, to_matrix
from oqwalk.errors import NotAnEnclosureError, SingularTransientSystemError
from oqwalk.linalg import Subspace, orthonormal_complement
from oqwalk.structure import (
    DiagonalState,
    absorption,
    decompose,
    enclosure_defect,
    invariant_operators,
    reachable_space,
    recurrent_space,
    transient_space,
    weights,
)
from util import basis_subspace, random_densities, subspace_angle


def tensor_multiplicity_model():
    """Kraus operators of the form 1_2 (x) k_i: one block of two isomorphic
    two-dimensional minimal enclosures."""
    inner = models.irreducible_two_state()
    kraus = np.array([np.kron(np.eye(2), k) for k in inner.kraus])
    return WalkModel(shifts=inner.shifts, kraus=kraus)


def rotated_commuting_model(theta=0.6):
    base = models.default_commuting_walk()
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
    # rotate within the multiplicity block and mix basis vectors 1 and 2
    v = scipy.linalg.expm(
        1j * 0.4 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    )
    w = v @ u
    kraus = np.array([w @ k @ w.conj().T for k in base.kraus])
    return WalkModel(shifts=base.shifts, kraus=kraus), w


class TestInvariantOperators:
    def test_two_state_unique(self, two_state):
        basis = invariant_operators(ChannelView.full(two_state))
        assert len(basis) == 1
        x = basis[0]
        np.testing.assert_allclose(x / x[1, 1], np.diag([0.0, 1.0]), atol=1e-9)

    def test_four_state_half_fixed_space(self, four_state_half):
        # invariant operators are x*sigma + (1-x)|e3><e3| with sigma on span{e1,e2}
        basis = invariant_operators(ChannelView.full(four_state_half))
        assert len(basis) == 5
        allowed = np.zeros((4, 4), dtype=bool)
        allowed[1:3, 1:3] = True
        allowed[3, 3] = True
        for x in basis:
            assert np.max(np.abs(x[~allowed])) <= 1e-9

    def test_identity_kraus_fixes_everything(self):
        model = models.single_shift_walk(shift=1, dim=2)
        basis = invariant_operators(ChannelView.full(model))
        assert len(basis) == 4


class TestRecurrentSpace:
    def test_two_state(self, two_state):
        sub = recurrent_space(two_state)
        assert subspace_angle(sub, basis_subspace(2, [1])) <= 1e-9

    def test_four_state(self, four_state):
        sub = recurrent_space(four_state)
        assert subspace_angle(sub, basis_subspace(4, [1, 2, 3])) <= 1e-9

    def test_faithful_channel_gives_full_space(self, irreducible):
        assert recurrent_space(irreducible).dim == 2


class TestDecompose:
    def test_four_state_blocks(self, four_state_dec):
        dec = four_state_dec
        assert dec.transient.dim == 1
        assert subspace_angle(dec.transient, basis_subspace(4, [0])) <= 1e-8
        dims = [b.subspace.dim for b in dec.blocks]
        mults = [b.multiplicity for b in dec.blocks]
        assert dims == [2, 1]
        assert mults == [2, 1]
        assert subspace_angle(dec.blocks[0].subspace, basis_subspace(4, [1, 2])) <= 1e-8
        assert subspace_angle(dec.blocks[1].subspace, basis_subspace(4, [3])) <= 1e-8

    def test_minimal_enclosures_tile_their_block(self, four_state, four_state_dec):
        block = four_state_dec.blocks[0]
        total = sum(sub.projector() for sub in block.minimal_enclosures)
        np.testing.assert_allclose(total, block.subspace.projector(), atol=1e-9)
        for sub in block.minimal_enclosures:
            assert enclosure_defect(four_state, sub) <= 1e-9

    def test_commuting_blocks(self, commuting_dec):
        dims = sorted(b.subspace.dim for b in commuting_dec.blocks)
        assert dims == [1, 2]
        assert commuting_dec.transient.dim == 0

    def test_distinct_rows_fully_split(self):
        zeta = np.array(
            [
                [np.sqrt(0.2), np.sqrt(0.8)],
                [np.sqrt(0.5), np.sqrt(0.5)],
                [np.sqrt(0.9), np.sqrt(0.1)],
            ]
        )
        model = models.commuting_diagonal_walk(zeta)
        dec = decompose(model, seed=0)
        assert [b.multiplicity for b in dec.blocks] == [1, 1, 1]

    def test_irreducible_single_block(self, irreducible):
        dec = decompose(irreducible, seed=0)
        assert dec.transient.dim == 0
        assert len(dec.blocks) == 1
        assert dec.blocks[0].subspace.dim == 2
        assert dec.blocks[0].multiplicity == 1

    def test_rotated_basis_recovered(self):
        model, w = rotated_commuting_model()
        dec = decompose(model, seed=0)
        big = next(b for b in dec.blocks if b.subspace.dim == 2)
        small = next(b for b in dec.blocks if b.subspace.dim == 1)
        expected_big = Subspace.from_span(w @ np.eye(3, dtype=complex)[:, :2])
        expected_small = Subspace.from_span(w @ np.eye(3, dtype=complex)[:, 2:])
        assert subspace_angle(big.subspace, expected_big) <= 1e-8
        assert subspace_angle(small.subspace, expected_small) <= 1e-8

    def test_tensor_multiplicity_block(self):
        model = tensor_multiplicity_model()
        dec = decompose(model, seed=0)
        assert dec.transient.dim == 0
        assert len(dec.blocks) == 1
        block = dec.blocks[0]
        assert block.multiplicity == 2
        assert all(sub.dim == 2 for sub in block.minimal_enclosures)

    def test_deterministic_given_seed(self, four_state):
        a = decompose(four_state, seed=3)
        b = decompose(four_state, seed=3)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.subspace.basis, bb.subspace.basis)

    def test_invariant_state_is_invariant(self, four_state, four_state_dec):
        view = ChannelView.full(four_state)
        for block in four_state_dec.blocks:
            tau = block.invariant_state
            out = sum(l @ tau @ l.conj().T for l in four_state.kraus)
            assert np.linalg.norm(out - tau) <= 1e-9
            assert np.trace(tau).real == pytest.approx(1.0, abs=1e-10)

    def test_minimal_enclosures_have_simple_fixed_space(self, four_state, four_state_dec):
        from oqwalk.asymptotics import fixed_space_dim

        for block in four_state_dec.blocks:
            for sub in block.minimal_enclosures:
                assert fixed_space_dim(four_state, sub) == 1


class TestAbsorption:
    def test_full_space_is_identity(self, four_state):
        a = absorption(four_state, Subspace.full(4))
        np.testing.assert_allclose(a.matrix, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("p3", [1 / 6, 1 / 2])
    def test_edge_block_closed_form(self, p3):
        rest = (0.5 - p3) / 2
        model = models.four_state_family(rest, rest, p3)
        a = absorption(model, basis_subspace(4, [3]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 2 * p3
        expected[3, 3] = 1.0
        assert np.max(np.abs(a.matrix - expected)) <= 1e-9

    def test_complementary_blocks(self, four_state, four_state_dec):
        mats = [absorption(four_state, b.subspace).matrix for b in four_state_dec.blocks]
        np.testing.assert_allclose(sum(mats), np.eye(4), atol=1e-9)

    def test_recurrent_space_absorbs_everything(self, four_state):
        a = absorption(four_state, recurrent_space(four_state))
        np.testing.assert_allclose(a.matrix, np.eye(4), atol=1e-9)

    def test_operator_properties(self, four_state, four_state_dec):
        from oqwalk.channel import apply_dual

        view = ChannelView.full(four_state)
        for block in four_state_dec.blocks:
            a = absorption(four_state, block.subspace)
            evals = np.linalg.eigvalsh(a.matrix)
            assert evals.min() >= -1e-9 and evals.max() <= 1 + 1e-9
            assert np.linalg.norm(apply_dual(view, a.matrix) - a.matrix) <= 1e-9
            p = block.subspace.projector()
            q = np.eye(4) - p
            recomposed = p + q @ a.matrix @ q
            assert np.linalg.norm(a.matrix - recomposed) <= 1e-9

    def test_rejects_non_enclosure(self, four_state):
        with pytest.raises(NotAnEnclosureError):
            absorption(four_state, basis_subspace(4, [0]))

    @pytest.mark.parametrize("failure", ["defect", "solve"])
    def test_unverified_solve_raises(self, monkeypatch, failure):
        # a fresh model, so that no memoized operator skips the solve
        model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
        if failure == "defect":
            monkeypatch.setattr(structure, "_absorption_defect", lambda *args: 1.0)
        else:

            def singular(*args, **kwargs):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularTransientSystemError):
            absorption(model, basis_subspace(4, [3]))

    def test_transient_compression_strictly_contractive(self, four_state):
        tra = orthonormal_complement(recurrent_space(four_state))
        radius = np.max(np.abs(np.linalg.eigvals(to_matrix(ChannelView(four_state, tra)))))
        assert radius < 1 - 1e-9


class TestMemo:
    FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "four_state_p3_sixth.json"

    def test_structure_computed_once_per_model(self, monkeypatch, transient_start):
        model = WalkModel.load(self.FIXTURE)
        full = model.local_dim**2
        solves = []

        def counting(fn):
            def wrapped(a, *args, **kwargs):
                if np.shape(a) == (full, full):
                    solves.append(fn.__name__)
                return fn(a, *args, **kwargs)

            return wrapped

        for module in (np.linalg, scipy.linalg):
            for name in ("eig", "eigvals"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        dec = decompose(model, seed=0)
        weights(model, dec, transient_start)
        asymptotics.clt_mixture(model, dec, transient_start, 50)
        for block in dec.blocks:
            for sub in block.minimal_enclosures:
                asymptotics.lambda_split_check(model, sub, transient_start, [0.3])
        assert solves == ["eig"]
        monkeypatch.undo()

        enclosures = [
            sub for b in dec.blocks for sub in [b.subspace] + b.minimal_enclosures
        ]
        fresh = WalkModel.load(self.FIXTURE)
        np.testing.assert_array_equal(
            recurrent_space(model).basis, recurrent_space(fresh).basis
        )
        np.testing.assert_array_equal(
            transient_space(model).basis, transient_space(fresh).basis
        )
        for sub in enclosures:
            np.testing.assert_array_equal(
                absorption(model, sub).matrix, absorption(fresh, sub).matrix
            )

    def test_repeat_calls_return_stored_read_only_values(self, four_state_dec):
        model = WalkModel.load(self.FIXTURE)
        rec = recurrent_space(model)
        assert recurrent_space(model) is rec
        assert transient_space(model) is transient_space(model)
        assert not rec.basis.flags.writeable
        assert not transient_space(model).basis.flags.writeable
        sub = four_state_dec.blocks[0].subspace
        op = absorption(model, sub)
        assert absorption(model, Subspace(4, sub.basis.copy())) is op
        assert not op.matrix.flags.writeable
        assert not op.enclosure.basis.flags.writeable
        assert sub.basis.flags.writeable


class TestReachableSpace:
    def test_full_support_start(self, four_state):
        rho = DiagonalState.single_site(np.eye(4, dtype=complex) / 4)
        assert reachable_space(four_state, rho).dim == 4

    def test_edge_state_stays_put(self, four_state):
        mat = np.zeros((4, 4), dtype=complex)
        mat[3, 3] = 1.0
        rho = DiagonalState.single_site(mat)
        sub = reachable_space(four_state, rho)
        assert subspace_angle(sub, basis_subspace(4, [3])) <= 1e-9

    def test_transient_start(self, four_state, transient_start):
        # From e0 the components injected into span{e1, e2} are always
        # proportional to (sqrt(p1), sqrt(p2)), so only one direction of the
        # multiplicity block is reachable: span{e0, v12, e3} with
        # v12 = (sqrt(p1) e1 + sqrt(p2) e2)/sqrt(p1+p2).
        sub = reachable_space(four_state, transient_start)
        assert sub.dim == 3
        v12 = np.zeros((4, 1), dtype=complex)
        v12[1, 0] = v12[2, 0] = 1 / np.sqrt(2)  # p1 = p2
        expected = Subspace.from_span(
            np.hstack([np.eye(4, dtype=complex)[:, [0, 3]], v12])
        )
        assert subspace_angle(sub, expected) <= 1e-9

    def test_multi_site_union(self, four_state):
        m1 = np.zeros((4, 4), dtype=complex)
        m1[3, 3] = 0.5
        m2 = np.zeros((4, 4), dtype=complex)
        m2[1, 1] = 0.5
        rho = DiagonalState({(0,): m1, (2,): m2})
        sub = reachable_space(four_state, rho)
        assert subspace_angle(sub, basis_subspace(4, [1, 3])) <= 1e-9


class TestWeights:
    def test_four_state_formula(self, four_state, four_state_dec):
        rng = np.random.default_rng(4)
        diag = rng.dirichlet(np.ones(4))
        rho = DiagonalState.single_site(np.diag(diag).astype(complex))
        bw, ew = weights(four_state, four_state_dec, rho)
        # blocks are ordered [span{e1,e2}, span{e3}]
        expected_edge = 2 * (1 / 6) * diag[0] + diag[3]
        assert bw[1] == pytest.approx(expected_edge, abs=1e-10)
        assert bw[0] == pytest.approx(1 - expected_edge, abs=1e-10)
        assert sum(ew[0]) == pytest.approx(bw[0], abs=1e-10)

    def test_transient_start(self, four_state, four_state_dec, transient_start):
        bw, _ = weights(four_state, four_state_dec, transient_start)
        assert bw[1] == pytest.approx(1 / 3, abs=1e-10)
        assert bw[0] == pytest.approx(2 / 3, abs=1e-10)

    def test_balanced_recurrent(self, four_state, four_state_dec, balanced_recurrent):
        bw, _ = weights(four_state, four_state_dec, balanced_recurrent)
        assert bw == pytest.approx([2 / 3, 1 / 3], abs=1e-10)

    def test_single_block_support(self, four_state, four_state_dec):
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0
        bw, _ = weights(four_state, four_state_dec, DiagonalState.single_site(mat))
        assert bw == pytest.approx([1.0, 0.0], abs=1e-10)


class TestDiagonalState:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            DiagonalState.single_site(np.eye(2, dtype=complex))

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            DiagonalState.single_site(np.diag([1.5, -0.5]).astype(complex))

    def test_roundtrip(self, tmp_path):
        mats = random_densities(6, 3, 2)
        rho = DiagonalState({(0,): mats[0] * 0.25, (2,): mats[1] * 0.75})
        path = tmp_path / "state.json"
        rho.save(path)
        loaded = DiagonalState.load(path)
        assert set(loaded.entries) == {(0,), (2,)}
        np.testing.assert_allclose(loaded.entries[(2,)], mats[1] * 0.75, atol=0)
