import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk import asymptotics, channel, models, structure
from oqwalk.channel import ChannelView, WalkModel, to_matrix
from oqwalk.errors import NumericalDegeneracyError
from oqwalk.linalg import Subspace, orthonormal_complement
from oqwalk.structure import (
    DiagonalState,
    _fixed_space_hermitian_basis,
    absorption,
    decompose,
    enclosure_defect,
    reachable_space,
    recurrent_space,
    transient_space,
    weights,
)
from util import (
    FIXTURE_PAIRS,
    apply_dual,
    basis_subspace,
    martingale_check,
    random_densities,
    random_density,
    slow_swap_walk,
    subspace_angle,
)


def _benchmark_generator():
    """``perfbench/reducible.py``, the benchmark's generator of models whose
    block structure is known by construction (read, never changed, here)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reducible.py"
    spec = importlib.util.spec_from_file_location("perfbench_reducible", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


reducible = _benchmark_generator()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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
        basis = _fixed_space_hermitian_basis(ChannelView.full(two_state).matrix)
        assert len(basis) == 1
        x = basis[0]
        np.testing.assert_allclose(x / x[1, 1], np.diag([0.0, 1.0]), atol=1e-9)

    def test_four_state_half_fixed_space(self, four_state_half):
        # invariant operators are x*sigma + (1-x)|e3><e3| with sigma on span{e1,e2}
        basis = _fixed_space_hermitian_basis(ChannelView.full(four_state_half).matrix)
        assert len(basis) == 5
        allowed = np.zeros((4, 4), dtype=bool)
        allowed[1:3, 1:3] = True
        allowed[3, 3] = True
        for x in basis:
            assert np.max(np.abs(x[~allowed])) <= 1e-9

    def test_identity_kraus_fixes_everything(self):
        model = models.single_shift_walk(shift=1, dim=2)
        basis = _fixed_space_hermitian_basis(ChannelView.full(model).matrix)
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

    def test_candidates_are_checked_without_eigensolves(self, monkeypatch):
        # minimality is read off the compressed dual fixed points, so no
        # candidate's superoperator gets an eigvals
        model = WalkModel.load(TestMemo.FIXTURE)
        calls, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda *args, **kw: calls.append(1) or eigvals(*args, **kw)
        )
        dec = decompose(model, seed=0)
        assert sum(b.multiplicity for b in dec.blocks) == 3
        assert calls == []

    def test_merged_candidates_fail_the_scalar_rule(self, monkeypatch):
        # merging two minimal projections gives a sum of two minimal
        # enclosures: an enclosure, but one on which the dual fixed points
        # are not scalar, so the split is refused at once
        model = WalkModel.load(TestMemo.FIXTURE)
        split, sizes, defects = structure._minimal_projections, [], []

        def merging(ops, space):
            leaves = split(ops, space)
            if space.shape[1] < ops.shape[1]:  # an inner cut
                return leaves
            first, second, *rest = leaves
            sizes.append(first.shape[1] + second.shape[1])
            return [np.hstack([first, second]), *rest]

        def recording(m, sub):
            defects.append(enclosure_defect(m, sub))
            return defects[-1]

        monkeypatch.setattr(structure, "_minimal_projections", merging)
        monkeypatch.setattr(structure, "enclosure_defect", recording)
        with pytest.raises(NumericalDegeneracyError, match="minimal enclosures"):
            decompose(model, seed=0)
        assert sizes == [2]
        assert max(defects) <= structure.TOL_ENCLOSURE

    def test_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decompose asked for a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        dec = decompose(WalkModel.load(TestMemo.FIXTURE))
        assert [b.multiplicity for b in dec.blocks] == [2, 1]

    def test_eigenvalue_near_1_is_refused(self):
        # 1 - 2e-8 lies between TOL_FIXED and AMBIGUITY_BAND; at eps = 1e-6
        # the same walk splits into two blocks
        assert [b.subspace.dim for b in decompose(slow_swap_walk(1e-6)).blocks] == [1, 1]
        with pytest.raises(NumericalDegeneracyError, match="too close to 1"):
            decompose(slow_swap_walk(1e-8))


class TestGroundTruth:
    """``decompose``, ``absorption`` and ``weights`` on generated models
    (A (x) C^m) + B + T at h <= 8, whose blocks are known by construction."""

    # (dim A, multiplicity m, dim B, dim T)
    STRUCTURES = st.tuples(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 3)
    ).filter(lambda s: s[0] * s[1] + s[2] + s[3] <= 8)

    @given(STRUCTURES, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_generated_structure_is_recovered(self, structure_dims, seed):
        enclosure_dim, multiplicity, simple_dim, transient_dim = structure_dims
        rm = reducible.reducible_model(
            seed,
            enclosure_dim=enclosure_dim,
            multiplicity=multiplicity,
            simple_dim=simple_dim,
            transient_dim=transient_dim,
        )
        model, h = rm.model, rm.local_dim
        dec = decompose(model, seed=0)
        assert dec.transient.dim == transient_dim
        assert len(dec.blocks) == 2
        for truth, enc_dim, mult in (
            (rm.multiple_block, enclosure_dim, multiplicity),
            (rm.simple_block, simple_dim, 1),
        ):
            block = min(dec.blocks, key=lambda b: subspace_angle(b.subspace, truth))
            assert subspace_angle(block.subspace, truth) < 1e-6
            assert block.multiplicity == mult
            assert all(sub.dim == enc_dim for sub in block.minimal_enclosures)

        total = sum(absorption(model, b.subspace).matrix for b in dec.blocks)
        assert np.max(np.abs(total - np.eye(h))) <= 1e-8

        rho = DiagonalState.single_site(random_density(np.random.default_rng(seed), h))
        block_weights, enclosure_weights = weights(model, dec, rho)
        assert sum(block_weights) == pytest.approx(1.0, abs=1e-9)
        for block, bw, row in zip(dec.blocks, block_weights, enclosure_weights):
            assert len(row) == block.multiplicity
            assert sum(row) == pytest.approx(bw, abs=1e-9)
            assert all(-1e-9 <= w <= bw + 1e-9 for w in row)

        # each absorption operator is harmonic: Tr(A rho) is a martingale
        states = random_densities(seed + 1, h, 3)
        for block in dec.blocks:
            for sub in (block.subspace, *block.minimal_enclosures):
                assert martingale_check(model, absorption(model, sub).matrix, states) <= 1e-9


def haar_unitary(rng, h: int) -> np.ndarray:
    """Haar-random h x h unitary: QR of a complex Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestUnitaryCovariance:
    """Conjugating every Kraus operator and the state by one unitary u moves
    each block projector P to u P u* and leaves the block weights, the
    mixture and the rates of a sweep whose parts are whole blocks as they
    were. (The minimal enclosures inside a multiplicity block are a choice
    of basis, so they may move.)"""

    @pytest.mark.parametrize("model_file, state_file", FIXTURE_PAIRS)
    def test_block_outputs_are_covariant(self, model_file, state_file):
        model = WalkModel.load(FIXTURES / model_file)
        rho = DiagonalState.load(FIXTURES / state_file)
        dec = decompose(model)
        block_weights, _ = weights(model, dec, rho)
        mixture = asymptotics.clt_mixture(model, dec, rho, 50)
        kept = [j for j, w in enumerate(block_weights) if w > asymptotics.WEIGHT_FLOOR]
        components = dict(zip(kept, mixture.components))
        # two_state's one block is one enclosure; commuting_diag is exact-LDP
        whole = model_file in ("two_state.json", "commuting_diag.json")
        points = np.linspace(-0.9, 0.9, 7)[:, None] if whole else np.empty((0, 1))
        rates = [ev.value for ev in asymptotics.rate_function(model, dec, rho, points)]
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = haar_unitary(rng, model.local_dim)
            turned = WalkModel(shifts=model.shifts, kraus=u @ model.kraus @ u.conj().T)
            turned_rho = DiagonalState({s: u @ m @ u.conj().T for s, m in rho.entries.items()})
            turned_dec = decompose(turned)
            # block i of the turned model is block order[i] of the model, turned
            moved = [u @ b.subspace.projector() @ u.conj().T for b in dec.blocks]
            order = []
            for block in turned_dec.blocks:
                gaps = [np.linalg.norm(block.subspace.projector() - p) for p in moved]
                order.append(int(np.argmin(gaps)))
                assert min(gaps) <= 1e-10
            assert sorted(order) == list(range(len(dec.blocks)))
            turned_weights, _ = weights(turned, turned_dec, turned_rho)
            np.testing.assert_allclose(
                turned_weights, [block_weights[j] for j in order], rtol=0, atol=1e-10
            )
            turned_mixture = asymptotics.clt_mixture(turned, turned_dec, turned_rho, 50)
            kept = [order[i] for i, w in enumerate(turned_weights) if w > asymptotics.WEIGHT_FLOOR]
            assert sorted(kept) == sorted(components)
            for j, (w, g) in zip(kept, turned_mixture.components):
                w0, g0 = components[j]
                assert abs(w - w0) <= 1e-10
                np.testing.assert_allclose(g.mean_rate, g0.mean_rate, rtol=0, atol=1e-10)
                np.testing.assert_allclose(g.covariance, g0.covariance, rtol=0, atol=1e-10)
            turned_rates = asymptotics.rate_function(turned, turned_dec, turned_rho, points)
            np.testing.assert_allclose(
                [ev.value for ev in turned_rates], rates, rtol=0, atol=1e-10
            )


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
        with pytest.raises(NumericalDegeneracyError, match="enclosure defect"):
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
        match = "fails its defining properties" if failure == "defect" else "Singular matrix"
        with pytest.raises(NumericalDegeneracyError, match=match):
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
            sub for b in dec.blocks for sub in [b.subspace, *b.minimal_enclosures]
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
        # a caller's writeable subspace: the memo stores a read-only copy
        sub = Subspace(4, four_state_dec.blocks[0].subspace.basis.copy())
        op = absorption(model, sub)
        assert absorption(model, Subspace(4, sub.basis.copy())) is op
        assert not op.matrix.flags.writeable
        assert not op.enclosure.basis.flags.writeable
        assert sub.basis.flags.writeable

    def test_repeat_decompose_is_shared_and_solves_nothing(self, monkeypatch):
        model = WalkModel.load(self.FIXTURE)
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(structure, "perron", counting(channel.perron))
        dec = decompose(model, seed=0)
        # three candidate enclosures, and one Perron pair per block
        assert sum(b.multiplicity for b in dec.blocks) == 3
        assert calls.count("perron") == len(dec.blocks) == 2

        calls.clear()
        for module in (np.linalg, scipy.linalg):
            for name in ("eig", "eigvals", "eigh", "eigvalsh"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        assert decompose(model, seed=0) is dec
        assert calls == []

    def test_other_seed_gives_the_same_blocks(self):
        # the split draws nothing, so the seed is ignored and not in the key
        model = WalkModel.load(self.FIXTURE)
        assert decompose(model, seed=0) is decompose(model, seed=7)

    def test_shared_decomposition_is_read_only(self):
        dec = decompose(tensor_multiplicity_model(), seed=0)
        assert isinstance(dec.blocks, tuple)
        arrays = [dec.recurrent.basis, dec.transient.basis]
        for block in dec.blocks:
            assert isinstance(block.minimal_enclosures, tuple)
            arrays += [block.subspace.basis, block.invariant_state]
            arrays += [sub.basis for sub in block.minimal_enclosures]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_pickled_model_starts_with_an_empty_memo(self):
        model = WalkModel.load(self.FIXTURE)
        dec = decompose(model, seed=0)
        copy = pickle.loads(pickle.dumps(model))
        assert copy._memo == {}
        again = decompose(copy, seed=0)
        assert again is not dec
        for ba, bb in zip(dec.blocks, again.blocks):
            assert np.array_equal(ba.subspace.basis, bb.subspace.basis)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_entries_must_be_finite(self, bad):
        # refused before any eigensolve, and without a RuntimeWarning
        mat = np.diag([0.5, 0.0]).astype(complex)
        mat[1, 1] = bad
        entries = {(0,): np.diag([0.5, 0.0]), (1,): mat}
        with pytest.raises(ValueError, match=r"site \(1,\): entries must be finite"):
            DiagonalState(entries)

    @pytest.mark.parametrize("coord", [1.9, 0.5, np.inf])
    def test_site_coordinates_must_be_integers(self, coord):
        # a fraction is not rounded onto a site: 0.5 would merge into site 0
        # after the total trace was checked
        entries = {(0,): np.diag([0.5, 0.0]), (coord,): np.diag([0.0, 0.5])}
        with pytest.raises(ValueError, match=rf"site \({coord},\): coordinates must be integers"):
            DiagonalState(entries)

    @pytest.mark.parametrize("coord", [True, "1", 1e30, 2**63, None])
    def test_site_coordinates_must_fit_in_int64(self, coord):
        # True is not site 1, and the simulator keeps positions in int64
        entries = {(0,): np.diag([0.5, 0.0]), (coord,): np.diag([0.0, 0.5])}
        with pytest.raises(ValueError, match="coordinates must be integers in the int64 range"):
            DiagonalState(entries)
        half = channel.matrix_to_json(np.diag([0.5, 0.0]))
        data = {"entries": [{"site": [0], "matrix": half}, {"site": [coord], "matrix": half}]}
        with pytest.raises(ValueError, match="coordinates must be integers in the int64 range"):
            DiagonalState.from_json_dict(data)

    def test_sites_are_int_tuples(self):
        entries = {(np.int64(-2), 1.0): np.diag([0.5, 0.0]), (3.0, 2**62): np.diag([0.0, 0.5])}
        rho = DiagonalState(entries)
        assert sorted(rho.entries) == [(-2, 1), (3, 2**62)]
        assert all(type(c) is int for site in rho.entries for c in site)

    def test_site_given_twice(self):
        half = channel.matrix_to_json(np.diag([0.5, 0.0]))
        with pytest.raises(ValueError, match=r"site \(1,\) is given twice"):
            DiagonalState({1: np.diag([0.5, 0.0]), (1,): np.diag([0.0, 0.5])})
        data = {"entries": [{"site": [1], "matrix": half}, {"site": [1.0], "matrix": half}]}
        with pytest.raises(ValueError, match=r"site \(1,\) is given twice"):
            DiagonalState.from_json_dict(data)

    def test_sites_share_one_lattice_dimension(self):
        entries = {(0,): np.diag([0.5, 0.0]), (0, 1): np.diag([0.0, 0.5])}
        with pytest.raises(ValueError, match=r"site \(0, 1\): all sites must share one lattice"):
            DiagonalState(entries)

    def test_zero_trace_site_allowed(self):
        rho = DiagonalState({(0,): np.diag([1.0, 0.0]), (1,): np.zeros((2, 2))})
        sites, traces, mats = rho.normalized_sites()
        assert sites == [(0,), (1,)] and list(traces) == [1.0, 0.0]
        assert not np.any(mats[1])

    def test_roundtrip(self, tmp_path):
        mats = random_densities(6, 3, 2)
        rho = DiagonalState({(0,): mats[0] * 0.25, (2,): mats[1] * 0.75})
        path = tmp_path / "state.json"
        rho.save(path)
        loaded = DiagonalState.load(path)
        assert set(loaded.entries) == {(0,), (2,)}
        np.testing.assert_allclose(loaded.entries[(2,)], mats[1] * 0.75, atol=0)
