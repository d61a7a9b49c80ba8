from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oqwalk import asymptotics, models
from oqwalk.asymptotics import (
    GaussianComponent,
    MixtureModel,
    RateEvaluation,
    clt_mixture,
    diffusion,
    drift,
    empirical_mean_limit,
    lambda_derivatives,
    lambda_split_check,
    legendre,
    log_lambda,
    poisson_solve,
    rate_function,
)
from oqwalk.channel import ChannelView, WalkModel, apply, perron
from oqwalk.errors import NotIrreducibleError
from oqwalk.linalg import Subspace
from oqwalk.structure import DiagonalState, decompose
from util import basis_subspace, bernoulli_rate, random_irreducible_model

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def edge_enclosure(dec):
    """The one-dimensional block subspace of the four-state decomposition."""
    return next(b for b in dec.blocks if b.subspace.dim == 1).subspace


def plane_enclosure(dec):
    return next(b for b in dec.blocks if b.subspace.dim == 2)


class TestDrift:
    def test_two_state(self, two_state):
        tau = np.diag([0.0, 1.0]).astype(complex)
        assert drift(two_state, tau) == pytest.approx([1 / 3], abs=1e-12)

    def test_four_state_blocks(self, four_state, four_state_dec):
        ms = [drift(four_state, b.invariant_state) for b in four_state_dec.blocks]
        assert ms[0] == pytest.approx([0.0], abs=1e-10)
        assert ms[1] == pytest.approx([-1 / 3], abs=1e-10)

    def test_commuting_formula(self, commuting, commuting_dec):
        for block in commuting_dec.blocks:
            m = drift(commuting, block.invariant_state)
            i = int(np.argmax(np.diag(block.subspace.projector()).real))
            probs = np.abs(commuting.kraus[:, i, i]) ** 2
            expected = probs @ commuting.shifts
            assert m == pytest.approx(expected, abs=1e-10)

    def test_matches_log_lambda_gradient(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        tau = two_state_dec.blocks[0].invariant_state
        h = 1e-4
        fd = (log_lambda(two_state, sub, [h]) - log_lambda(two_state, sub, [-h])) / (2 * h)
        assert drift(two_state, tau)[0] == pytest.approx(fd, abs=1e-7)


class TestPoisson:
    def test_one_dimensional_enclosure(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        eta = poisson_solve(two_state, sub, [1.0])
        assert np.linalg.norm(eta) == 0.0

    def test_plane_block_right_side_vanishes(self, four_state, four_state_dec):
        sub = plane_enclosure(four_state_dec).minimal_enclosures[0]
        eta = poisson_solve(four_state, sub, [1.0])
        assert np.linalg.norm(eta) <= 1e-12

    def test_residual_on_irreducible_model(self, irreducible):
        sub = Subspace.full(2)
        u = np.array([1.0])
        eta = poisson_solve(irreducible, sub, u)
        assert abs(np.trace(eta)) <= 1e-10
        view = ChannelView(irreducible, sub)
        tau = perron(view).state
        us = irreducible.shifts.astype(float) @ u
        lp_tau = sum(
            w * (k @ tau @ k.conj().T) for w, k in zip(us, view.compressed_kraus)
        )
        rhs = lp_tau - np.trace(lp_tau) * tau
        residual = eta - apply(view, eta) - rhs
        assert np.linalg.norm(residual) <= 1e-9

    def test_degenerate_fixed_space_rejected(self, four_state, four_state_dec):
        block = plane_enclosure(four_state_dec)
        with pytest.raises(NotIrreducibleError):
            poisson_solve(four_state, block.subspace, [1.0])


class TestLambdaDerivatives:
    def test_two_state_enclosure(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        l1, l2 = lambda_derivatives(two_state, sub, [1.0])
        assert l1 == pytest.approx(1 / 3, abs=1e-12)
        assert l2 == pytest.approx(1.0, abs=1e-12)

    def test_edge_block(self, four_state, four_state_dec):
        l1, l2 = lambda_derivatives(four_state, edge_enclosure(four_state_dec), [1.0])
        assert l1 == pytest.approx(-1 / 3, abs=1e-12)
        assert l2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_direction(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        l1, l2 = lambda_derivatives(two_state, sub, [0.0])
        assert l1 == 0.0 and l2 == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_cross_check(self, seed):
        model = random_irreducible_model(seed, local_dim=3)
        sub = Subspace.full(3)
        u = np.random.default_rng(seed + 100).standard_normal(1)
        l1, l2 = lambda_derivatives(model, sub, u)
        h = 1e-4

        def lam(t):
            return np.exp(log_lambda(model, sub, t * u))

        fd1 = (lam(h) - lam(-h)) / (2 * h)
        fd2 = (lam(h) - 2 * lam(0.0) + lam(-h)) / h**2
        assert abs(l1 - fd1) <= 1e-5
        assert abs(l2 - fd2) <= 1e-5


class TestDiffusion:
    def test_two_state(self, two_state, two_state_dec):
        d = diffusion(two_state, two_state_dec.blocks[0].minimal_enclosures[0])
        assert d[0, 0] == pytest.approx(8 / 9, abs=1e-12)

    def test_four_state_blocks(self, four_state, four_state_dec):
        plane = plane_enclosure(four_state_dec).minimal_enclosures[0]
        edge = edge_enclosure(four_state_dec)
        assert diffusion(four_state, plane)[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert diffusion(four_state, edge)[0, 0] == pytest.approx(8 / 9, abs=1e-10)

    def test_deterministic_walk_has_no_spread(self):
        # minimal enclosures of the identity channel are single lines
        model = models.single_shift_walk(shift=1, dim=2)
        assert abs(diffusion(model, basis_subspace(2, [0]))[0, 0]) <= 1e-12

    def test_planar_commuting_matrix(self):
        # two-dimensional lattice: D = diag(q_j + q_{j+d}) - m m^T in closed form
        probs = np.array([0.1, 0.4, 0.3, 0.2])
        zeta = np.sqrt(probs)[None, :]
        model = models.commuting_diagonal_walk(zeta)
        sub = Subspace.full(1)
        d = diffusion(model, sub)
        m = probs @ model.shifts
        second = np.diag(
            [probs[0] + probs[2], probs[1] + probs[3]]
        )
        expected = second - np.outer(m, m)
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_quadratic_form_identity(self):
        probs = np.array([0.1, 0.4, 0.3, 0.2])
        model = models.commuting_diagonal_walk(np.sqrt(probs)[None, :])
        sub = Subspace.full(1)
        d = diffusion(model, sub)
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = rng.standard_normal(2)
            l1, l2 = lambda_derivatives(model, sub, u)
            assert abs(u @ d @ u - (l2 - l1**2)) <= 1e-7

    def test_matches_log_lambda_hessian(self, two_state, two_state_dec):
        # a central-difference Hessian of log lambda at u = 0, so planar and
        # spatial models check the off-diagonal covariance as well
        cases = [(two_state, two_state_dec.blocks[0].minimal_enclosures[0])]
        cases += [
            (random_irreducible_model(seed, local_dim=3, lattice_dim=d), Subspace.full(3))
            for seed, d in ((5, 2), (6, 3))
        ]
        h = 1e-3
        for model, sub in cases:
            d = model.lattice_dim
            e = h * np.eye(d)
            fd = np.array(
                [
                    [
                        log_lambda(model, sub, e[j] + e[k])
                        - log_lambda(model, sub, e[j] - e[k])
                        - log_lambda(model, sub, e[k] - e[j])
                        + log_lambda(model, sub, -e[j] - e[k])
                        for k in range(d)
                    ]
                    for j in range(d)
                ]
            ) / (4 * h * h)
            assert np.max(np.abs(diffusion(model, sub) - fd)) <= 1e-5

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_eigensolve_budget(self, monkeypatch, d):
        # per call: one eigensolve (the Perron pair, whose spectrum also
        # serves the irreducibility check) and one bordered solve whatever the
        # lattice dimension (no polarization over pairs)
        model = random_irreducible_model(40 + d, local_dim=3, lattice_dim=d)
        calls = []

        def counting(fn, name):
            def wrapped(a, *args, **kwargs):
                if np.shape(a) == (9, 9):
                    calls.append(name)
                return fn(a, *args, **kwargs)

            return wrapped

        for module in (np.linalg, scipy.linalg):
            for name in ("eig", "eigvals"):
                monkeypatch.setattr(module, name, counting(getattr(module, name), name))
        monkeypatch.setattr(
            asymptotics, "solve_linear", counting(asymptotics.solve_linear, "solve")
        )
        diffusion(model, Subspace.full(3))
        assert calls.count("eig") == 1
        assert calls.count("eigvals") == 0
        assert calls.count("solve") <= 1


class TestMixture:
    def test_balanced_state(self, four_state, four_state_dec, balanced_recurrent):
        mix = clt_mixture(four_state, four_state_dec, balanced_recurrent, 600)
        assert mix.horizon == 600
        weights_ = [w for w, _ in mix.components]
        assert weights_ == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
        (m0, d0), (m1, d1) = [
            (g.mean_rate[0], g.covariance[0, 0]) for _, g in mix.components
        ]
        assert (m0, d0) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert (m1, d1) == pytest.approx((-1 / 3, 8 / 9), abs=1e-9)

    def test_single_block_support(self, four_state, four_state_dec):
        mat = np.zeros((4, 4), dtype=complex)
        mat[3, 3] = 1.0
        mix = clt_mixture(
            four_state, four_state_dec, DiagonalState.single_site(mat), 100
        )
        assert len(mix.components) == 1
        w, g = mix.components[0]
        assert w == pytest.approx(1.0, abs=1e-10)
        assert g.mean_rate[0] == pytest.approx(-1 / 3, abs=1e-9)
        assert g.covariance[0, 0] == pytest.approx(8 / 9, abs=1e-9)

    def test_transient_start_edge_only_family(self, four_state_half, transient_start):
        # p1 = p2 = 0: starting at e0 the plane block gets weight 1 - 2*p3 = 0
        dec = decompose(four_state_half, seed=0)
        mix = clt_mixture(four_state_half, dec, transient_start, 50)
        assert len(mix.components) == 1
        w, g = mix.components[0]
        assert w == pytest.approx(1.0, abs=1e-10)
        assert g.mean_rate[0] == pytest.approx(-1 / 3, abs=1e-9)

    def test_empirical_mean_limit(self, four_state, four_state_dec, balanced_recurrent):
        mix = clt_mixture(four_state, four_state_dec, balanced_recurrent, 10)
        deltas = empirical_mean_limit(mix)
        assert deltas[0][0] == pytest.approx(2 / 3, abs=1e-9)
        assert deltas[0][1] == pytest.approx([0.0], abs=1e-9)
        assert deltas[1][0] == pytest.approx(1 / 3, abs=1e-9)
        assert deltas[1][1] == pytest.approx([-1 / 3], abs=1e-9)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            GaussianComponent([0.0], [[-1.0]])
        with pytest.raises(ValueError):
            MixtureModel(components=[(0.5, GaussianComponent([0.0], [[1.0]]))], horizon=1)


class TestEnclosureIndependence:
    def _per_enclosure_parameters(self, model, block):
        out = []
        for sub in block.minimal_enclosures:
            tau_local = perron(ChannelView(model, sub)).state
            tau = sub.basis @ tau_local @ sub.basis.conj().T
            out.append((drift(model, tau), diffusion(model, sub)))
        return out

    def test_plane_block_of_four_state(self, four_state, four_state_dec):
        block = plane_enclosure(four_state_dec)
        params = self._per_enclosure_parameters(four_state, block)
        (m1, d1), (m2, d2) = params
        assert np.max(np.abs(m1 - m2)) <= 1e-8
        assert np.max(np.abs(d1 - d2)) <= 1e-8

    def test_tensor_multiplicity_block(self):
        from test_structure import tensor_multiplicity_model

        model = tensor_multiplicity_model()
        block = decompose(model, seed=0).blocks[0]
        params = self._per_enclosure_parameters(model, block)
        (m1, d1), (m2, d2) = params
        assert np.max(np.abs(m1 - m2)) <= 1e-8
        assert np.max(np.abs(d1 - d2)) <= 1e-8


class TestLogLambda:
    def test_zero_deformation_on_enclosure(self, four_state, four_state_dec):
        for block in four_state_dec.blocks:
            assert abs(log_lambda(four_state, block.subspace, [0.0])) <= 1e-12

    def test_commuting_closed_form(self, commuting, commuting_dec):
        for block in commuting_dec.blocks:
            i = int(np.argmax(np.diag(block.subspace.projector()).real))
            probs = np.abs(commuting.kraus[:, i, i]) ** 2
            for u in (-1.2, 0.4, 2.0):
                expected = np.log(probs @ np.exp(u * commuting.shifts[:, 0]))
                assert log_lambda(commuting, block.subspace, [u]) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_reachable_compression_takes_max(self, four_state_half):
        # on span{e0, e3} the deformed radius is the max of the two branch rates
        sub = basis_subspace(4, [0, 3])
        for u in (-1.0, 0.5, 2.0):
            lam = np.exp(log_lambda(four_state_half, sub, [u]))
            lam_v = (2 / 3) * np.exp(-u) + (1 / 3) * np.exp(u)
            lam_w = (1 / 8) * np.exp(-u) + (3 / 8) * np.exp(u)
            assert lam == pytest.approx(max(lam_v, lam_w), abs=1e-10)


class TestLegendre:
    def test_zero_at_the_mean(self, four_state, four_state_dec):
        edge = edge_enclosure(four_state_dec)
        ev = legendre(four_state, edge, [-1 / 3])
        assert ev.value <= 1e-10
        assert np.linalg.norm(ev.maximizer) <= 1e-4

    def test_two_state_extreme_point(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        ev = legendre(two_state, sub, [1.0])
        assert ev.value == pytest.approx(-np.log(2 / 3), abs=1e-6)
        assert "possibly infinite" in ev.note

    def test_outside_range_hits_sentinel(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        ev = legendre(two_state, sub, [1.5])
        assert ev.value == float("inf")

    def test_interior_matches_bernoulli_rate(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        for x in (-0.6, 0.0, 1 / 3, 0.8):
            ev = legendre(two_state, sub, [x])
            assert ev.value == pytest.approx(bernoulli_rate(x, 2 / 3), abs=1e-8)

    def test_rate_is_convex_on_segments(self, two_state, two_state_dec):
        sub = two_state_dec.blocks[0].minimal_enclosures[0]
        xs = np.linspace(-0.7, 0.9, 9)
        vals = [legendre(two_state, sub, [x]).value for x in xs]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b <= 0.5 * (a + c) + 1e-9
        assert min(vals) >= -1e-12

    def test_planar_product_walk(self):
        # step (a, b) with weight p(a) q(b) and a Pauli as unitary part: the
        # dual deformed channel maps 1 to sum p(a) q(b) e^{u.s} times 1, so
        # the rate is the sum of the two Bernoulli rates
        p, q = 0.7, 0.4
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1, -1]),
        ]
        steps = [(a, b) for a in (-1, 1) for b in (-1, 1)]
        kraus = [
            np.sqrt((p if a > 0 else 1 - p) * (q if b > 0 else 1 - q)) * pauli
            for (a, b), pauli in zip(steps, paulis)
        ]
        model = WalkModel(shifts=np.array(steps), kraus=np.array(kraus, dtype=complex))
        for x in ([0.4, -0.2], [0.3, -0.5], [-0.6, 0.7], [0.9, 0.1], [0.0, -0.85]):
            ev = legendre(model, Subspace.full(2), x)
            expected = bernoulli_rate(x[0], p) + bernoulli_rate(x[1], q)
            assert ev.value == pytest.approx(expected, abs=1e-8)

    def test_kink_of_reachable_compression(self, four_state_half):
        # log lambda on span{e0, e3} is log max(lam_V, lam_W) (closed forms of
        # test_reachable_compression_takes_max); the branches cross at
        # e^{2u} = 13, where their slopes are 0.733 and 0.950
        sub = basis_subspace(4, [0, 3])
        kink = 0.5 * np.log(13.0)
        us = np.append(np.linspace(-4.0, 4.0, 80001), kink)
        lam_v = (2 / 3) * np.exp(-us) + (1 / 3) * np.exp(us)
        lam_w = (1 / 8) * np.exp(-us) + (3 / 8) * np.exp(us)
        log_q = np.log(np.maximum(lam_v, lam_w))
        for x in (-0.5, 0.2, 0.6, 0.8, 0.9, 0.97):
            ev = legendre(four_state_half, sub, [x])
            brute = float(np.max(x * us - log_q))
            # at the crossing the compression's dominant eigenvalue is
            # defective, so log_lambda there is accurate to about sqrt(eps)
            tol = 1e-7 if 0.74 < x < 0.95 else 1e-8
            assert ev.value == pytest.approx(brute, abs=tol)
            if 0.74 < x < 0.95:
                assert abs(ev.maximizer[0] - kink) <= 1e-6

    def test_call_budget(self, monkeypatch, commuting, commuting_dec):
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(asymptotics, "log_lambda", counting(log_lambda))
        monkeypatch.setattr(asymptotics, "perron", counting(perron))
        for block in commuting_dec.blocks:
            for x in (-0.95, -0.6, -0.2, 0.4, 0.8):
                calls.clear()
                legendre(commuting, block.minimal_enclosures[0], [x])
                assert 0 < len(calls) <= 20, calls

    @pytest.mark.parametrize(
        "model_file, state_file",
        [
            ("commuting_diag.json", "state_commuting_mixed.json"),
            ("four_state_p3_sixth.json", "state_four_transient.json"),
        ],
    )
    def test_sweep_dominates_u_grid(self, monkeypatch, model_file, state_file):
        model = WalkModel.load(FIXTURES / model_file)
        rho = DiagonalState.load(FIXTURES / state_file)
        dec = decompose(model, seed=0)
        seen = []

        def recording(model, subspace, x, *args):
            ev = legendre(model, subspace, x, *args)
            seen.append((subspace, ev))
            return ev

        monkeypatch.setattr(asymptotics, "legendre", recording)
        for x in np.arange(-0.9, 0.91, 0.05):
            rate_function(model, dec, rho, [x])
        us = np.linspace(-asymptotics.U_MAX, asymptotics.U_MAX, 401)
        log_lam = {}  # per subspace basis: log_lambda on the u grid
        for subspace, ev in seen:
            key = subspace.basis.tobytes()
            if key not in log_lam:
                log_lam[key] = np.array([log_lambda(model, subspace, [u]) for u in us])
            grid = float(np.max(ev.point[0] * us - log_lam[key]))
            assert ev.value >= grid - 1e-12


class TestRateFunction:
    def test_recurrent_model_takes_min(self, commuting, commuting_dec):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        for x in (-0.8, -0.2, 0.4, 0.7):
            ev = rate_function(commuting, commuting_dec, rho, [x])
            assert ev.label == "exact-LDP"
            expected = min(bernoulli_rate(x, 0.7), bernoulli_rate(x, 0.2))
            assert ev.value == pytest.approx(expected, abs=1e-6)
            assert len(ev.per_block) == 2

    def test_zero_at_contributing_means(self, commuting, commuting_dec):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        for m in (0.4, -0.6):
            ev = rate_function(commuting, commuting_dec, rho, [m])
            assert ev.value <= 1e-8

    def test_blocks_without_weight_are_ignored(self, commuting, commuting_dec):
        mat = np.zeros((3, 3), dtype=complex)
        mat[2, 2] = 1.0
        rho = DiagonalState.single_site(mat)
        ev = rate_function(commuting, commuting_dec, rho, [0.4])
        assert len(ev.per_block) == 1
        # only the drift -0.6 block contributes, so the rate at +0.4 is large
        assert ev.value == pytest.approx(bernoulli_rate(0.4, 0.2), abs=1e-6)

    def test_transient_model_is_bounds_only(
        self, four_state, four_state_dec, transient_start
    ):
        ev = rate_function(four_state, four_state_dec, transient_start, [0.0])
        assert ev.label == "bounds-only"
        assert ev.upper_value == ev.value
        assert ev.lower_value == ev.value
        assert "exposed points" in ev.note

    @pytest.mark.parametrize("gap,first", [(4e-16, True), (-4e-16, True), (1e-9, False)])
    def test_roundoff_tie_picks_first_block(self, monkeypatch, commuting, commuting_dec, gap, first):
        # two blocks whose rates differ by ``gap``: a roundoff tie goes to the
        # first entry whichever side of it the last bits fall on
        values = iter([0.3 + gap, 0.3])

        def fake_legendre(model, subspace, x):
            return RateEvaluation(point=x, value=next(values), maximizer=np.zeros(1))

        monkeypatch.setattr(asymptotics, "legendre", fake_legendre)
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        ev = rate_function(commuting, commuting_dec, rho, [0.1])
        assert len(ev.per_block) == 2
        best = ev.per_block[0 if first else 1]
        assert (ev.block_id, ev.value) == best[:2]


class TestLambdaSplit:
    def test_recurrent_case_is_pure_enclosure(self, commuting, commuting_dec):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        sub = commuting_dec.blocks[0].minimal_enclosures[0]
        lam_q, lam_v, lam_w = lambda_split_check(commuting, sub, rho, [0.8])
        assert lam_w == 0.0
        assert lam_q == pytest.approx(lam_v, abs=1e-12)

    def test_transient_contributions(self, four_state, transient_start, four_state_dec):
        edge = edge_enclosure(four_state_dec)
        for u in np.linspace(-2, 2, 7):
            lam_q, lam_v, lam_w = lambda_split_check(
                four_state, edge, transient_start, [u]
            )
            assert lam_q == pytest.approx(max(lam_v, lam_w), abs=1e-8)

    def test_undeformed_point(self, four_state, transient_start, four_state_dec):
        edge = edge_enclosure(four_state_dec)
        lam_q, lam_v, lam_w = lambda_split_check(four_state, edge, transient_start, [0.0])
        assert lam_v == pytest.approx(1.0, abs=1e-10)
        assert lam_w < 1.0
        assert lam_q == pytest.approx(1.0, abs=1e-10)
