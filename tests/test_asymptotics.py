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
    lambda_derivatives,
    lambda_split_check,
    legendre,
    log_lambda,
    poisson_solve,
    rate_function,
)
from oqwalk.channel import ChannelView, WalkModel, perron
from oqwalk.errors import NumericalDegeneracyError
from oqwalk.linalg import Subspace
from oqwalk.structure import DiagonalState, decompose, recurrent_space, weights
from util import apply, basis_subspace, bernoulli_rate, random_irreducible_model

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def edge_enclosure(dec):
    """The one-dimensional block subspace of the four-state decomposition."""
    return next(b for b in dec.blocks if b.subspace.dim == 1).subspace


def plane_enclosure(dec):
    return next(b for b in dec.blocks if b.subspace.dim == 2)


def empirical_mean_limit(mixture: MixtureModel) -> list:
    """Limit law of displacement/steps: point masses at the component drifts."""
    return [(w, g.mean_rate.copy()) for w, g in mixture.components]


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
        with pytest.raises(NumericalDegeneracyError, match="degenerate fixed space"):
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
        with pytest.raises(ValueError, match="covariance must be positive semidefinite"):
            GaussianComponent([0.0], [[-1.0]])
        with pytest.raises(ValueError, match="weights sum to 0.5, not 1"):
            MixtureModel(components=[(0.5, GaussianComponent([0.0], [[1.0]]))], horizon=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_component_refused(self, bad):
        # each check is a comparison, which NaN would pass unseen
        with pytest.raises(ValueError, match="must be finite"):
            GaussianComponent([bad], [[1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            GaussianComponent([0.0], [[bad]])
        with pytest.raises(ValueError, match="weights must be finite"):
            MixtureModel(components=[(bad, GaussianComponent([0.0], [[1.0]]))], horizon=1)

    def test_computed_component_failure_is_numerical(
        self, monkeypatch, four_state, four_state_dec, balanced_recurrent
    ):
        # a covariance the library computed is no caller's value: exit 3, not 1
        monkeypatch.setattr(asymptotics, "diffusion", lambda model, enclosure: -np.eye(1))
        with pytest.raises(NumericalDegeneracyError, match="positive semidefinite"):
            clt_mixture(four_state, four_state_dec, balanced_recurrent, 10)

    def test_empty_or_negative_horizon_mixture_refused(self):
        with pytest.raises(ValueError, match="at least one component"):
            MixtureModel(components=[], horizon=1)
        with pytest.raises(ValueError, match="horizon -1 is negative"):
            MixtureModel(components=[(1.0, GaussianComponent([0.0], [[1.0]]))], horizon=-1)


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

    def test_planar_rate_at_and_beyond_the_hull_of_the_shifts(self):
        # four equally likely unit steps: log lambda_u = log((cosh u1 + cosh u2) / 2).
        # (0.6, 0.6) lies outside the hull |x1| + |x2| <= 1, so the ascent runs
        # onto the ball ||u|| = U_MAX with the objective still rising
        model = models.commuting_diagonal_walk(np.full((1, 4), 0.5))
        sub = Subspace.full(1)
        outside = legendre(model, sub, [0.6, 0.6])
        assert outside.value == float("inf")
        assert outside.note.startswith("objective unbounded on the search region")
        assert np.linalg.norm(outside.maximizer) == pytest.approx(asymptotics.U_MAX)
        assert outside.maximizer[0] == pytest.approx(outside.maximizer[1])
        # (1, 0) is a vertex of the hull: the rate is log 4, approached as
        # u1 grows, and the maximizer stops on the ball at (U_MAX, 0)
        vertex = legendre(model, sub, [1.0, 0.0])
        u = asymptotics.U_MAX
        assert vertex.value == pytest.approx(u - np.log((np.cosh(u) + 1) / 2), abs=1e-12)
        assert vertex.value == pytest.approx(np.log(4), abs=1e-8)
        assert vertex.note.startswith("maximizer on the search boundary")
        np.testing.assert_allclose(vertex.maximizer, [u, 0.0], atol=1e-6)

    # per (seed, h) of random_irreducible_model(seed, h, lattice_dim=2): the
    # _log_lambda_derivatives calls that 49 ascents on the recurrent space
    # made over the grid [-0.6, 0.6]^2 at step 0.2 before the Newton-decrement
    # stop, and the rates they found (x_1 outer)
    PLANAR_ASCENTS = {
        (5, 2): (
            959,
            """
            inf 0.374484832332756 0.168882469181699 0.16847736195403
            0.321791995467149 0.74996942685981 inf 0.435929474910628
            0.144812999821994 0.0506781018072777 0.0703801167959721
            0.205926099689838 0.500155583675616 1.06357539861006
            0.23723587628785 0.0668910473113889 0.00325868766162247
            0.0321675425105441 0.159533350412304 0.413231744087291
            0.836649765770354 0.211411271560123 0.06983023636735
            0.0182562001953237 0.0508706091796538 0.174062594366328
            0.410481342070518 0.796814780130613 0.303181578677685
            0.153545887793343 0.099380912192738 0.130432424551106
            0.251707477056381 0.485630799646829 0.879272251766562
            0.59000591165756 0.33538094382971 0.256884413187039 0.27896129418752
            0.400286175070264 0.649183121311366 1.15182876952518 inf
            0.701026349994741 0.511328552736022 0.510414670459345
            0.637156347164811 0.977915507449859 inf
            """,
        ),
        (6, 4): (
            1418,
            """
            inf 0.770810805972323 0.493497675507242 0.394892415099309
            0.403316673851395 0.584647821079054 inf 0.682132297985198
            0.368288094775682 0.221046225179551 0.161652175077278
            0.181450082998352 0.290864383346211 0.566485120638335
            0.372594723680076 0.183207910986619 0.0736052388540156
            0.035953962158589 0.0699101087534928 0.179281618620284
            0.37257253363671 0.298005777282962 0.126461396343198
            0.0272769739920784 0.000918762279819651 0.04876278879789
            0.171074421155485 0.367983681715405 0.387066115539132
            0.183857630037037 0.0728065015133012 0.0482948750119081
            0.10978121215185 0.255016531102302 0.488484034548957
            0.721493834117796 0.375279271535838 0.219759891451645
            0.183983839858023 0.260170876294316 0.446189209311793
            0.814725908139664 inf 0.808122695401131 0.504700667228084
            0.434064207749846 0.534335596842242 0.847132745033926 inf
            """,
        ),
        (7, 4): (
            1092,
            """
            inf 0.986430090178736 0.555108849149179 0.376828459231111
            0.380821387041826 0.618720694061466 inf 1.11265360352746
            0.573680365174692 0.284906655124901 0.155090375003761
            0.159452382614647 0.298445568671997 0.659586522712518
            0.747382076877146 0.356957101258284 0.13022654726907
            0.0319752187248148 0.0437411050538039 0.166358064275085
            0.42031543441516 0.593193637801781 0.271051490287363
            0.0862486728843602 0.00927518811472363 0.0293483335031394
            0.151500512371701 0.391159432274738 0.617082182034667
            0.326888593342479 0.16056340524804 0.0923104913437548
            0.117837675205918 0.247988199964752 0.508722787617181
            0.905794594769727 0.527983416577416 0.342864074588551
            0.268861190977261 0.300384136710413 0.455163246980544
            0.827300399381183 inf 0.902862681729058 0.605073027169291
            0.512182739790777 0.564467114236895 0.835177620997195 inf
            """,
        ),
    }

    @pytest.mark.parametrize("seed, h", sorted(PLANAR_ASCENTS))
    def test_planar_ascent_stops_at_roundoff(self, monkeypatch, seed, h):
        # a converged ascent quits on its Newton decrement instead of halving
        # its step 40 times against a value that is flat at roundoff
        model = random_irreducible_model(seed, local_dim=h, lattice_dim=2)
        calls, real = [], asymptotics._log_lambda_derivatives
        monkeypatch.setattr(
            asymptotics, "_log_lambda_derivatives", lambda *a: calls.append(1) or real(*a)
        )
        grid = np.linspace(-0.6, 0.6, 7)
        values = [legendre(model, recurrent_space(model), [a, b]).value for a in grid for b in grid]
        before, pinned = self.PLANAR_ASCENTS[seed, h]
        np.testing.assert_allclose(values, np.array(pinned.split(), dtype=float), rtol=0, atol=1e-13)
        assert len(calls) < before

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
        rate_function(model, dec, rho, np.arange(-0.9, 0.91, 0.05)[:, None])
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
            (ev,) = rate_function(commuting, commuting_dec, rho, [x])
            assert ev.label == "exact-LDP"
            expected = min(bernoulli_rate(x, 0.7), bernoulli_rate(x, 0.2))
            assert ev.value == pytest.approx(expected, abs=1e-6)
            assert len(ev.per_block) == 2

    def test_zero_at_contributing_means(self, commuting, commuting_dec):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        for m in (0.4, -0.6):
            (ev,) = rate_function(commuting, commuting_dec, rho, [m])
            assert ev.value <= 1e-8

    def test_blocks_without_weight_are_ignored(self, commuting, commuting_dec):
        mat = np.zeros((3, 3), dtype=complex)
        mat[2, 2] = 1.0
        rho = DiagonalState.single_site(mat)
        (ev,) = rate_function(commuting, commuting_dec, rho, [0.4])
        assert len(ev.per_block) == 1
        # only the drift -0.6 block contributes, so the rate at +0.4 is large
        assert ev.value == pytest.approx(bernoulli_rate(0.4, 0.2), abs=1e-6)

    def test_transient_model_is_bounds_only(
        self, four_state, four_state_dec, transient_start
    ):
        (ev,) = rate_function(four_state, four_state_dec, transient_start, [0.0])
        assert ev.label == "bounds-only"
        assert "exposed points" in ev.note

    def test_boundary_note_of_the_reported_part(self):
        # at the edge of the shift range and beyond it the ascent ends on the
        # search boundary; that note comes first, then the label's caveat
        model = WalkModel.load(FIXTURES / "two_state.json")
        rho = DiagonalState.load(FIXTURES / "state_two_recurrent.json")
        edge, beyond = rate_function(model, decompose(model), rho, [[1.0], [1.2]])
        assert edge.note == "maximizer on the search boundary; rate possibly infinite; " + (
            asymptotics.NONSMOOTH_CAVEAT
        )
        assert beyond.value == np.inf
        assert beyond.note.startswith("objective unbounded on the search region; rate possibly")
        assert beyond.note.endswith(asymptotics.NONSMOOTH_CAVEAT)
        for ev in (edge, beyond):
            assert ev.maximizer == pytest.approx([asymptotics.U_MAX])

    @pytest.mark.parametrize(
        "model_file, state_file",
        [
            ("commuting_diag.json", "state_commuting_mixed.json"),
            ("four_state_p3_sixth.json", "state_four_transient.json"),
        ],
    )
    def test_sweep_equals_its_points(self, model_file, state_file):
        model = WalkModel.load(FIXTURES / model_file)
        rho = DiagonalState.load(FIXTURES / state_file)
        dec = decompose(model, seed=0)
        xs = np.linspace(-0.9, 0.9, 7)[:, None]
        sweep = rate_function(model, dec, rho, xs)
        assert len(sweep) == len(xs)
        for x, ev in zip(xs, sweep):
            (alone,) = rate_function(model, dec, rho, x)
            assert np.array_equal(ev.point, x) and np.array_equal(alone.point, x)
            assert ev.value == alone.value
            assert np.array_equal(ev.maximizer, alone.maximizer)
            assert (ev.label, ev.note, ev.block_id) == (alone.label, alone.note, alone.block_id)
            assert len(ev.per_block) == len(alone.per_block)
            for (bid, value, u), (bid1, value1, u1) in zip(ev.per_block, alone.per_block):
                assert (bid, value) == (bid1, value1)
                assert np.array_equal(u, u1)

    def test_sweep_builds_compressions_once(self, monkeypatch):
        model = WalkModel.load(FIXTURES / "four_state_p3_sixth.json")
        rho = DiagonalState.load(FIXTURES / "state_four_transient.json")
        dec = decompose(model, seed=0)
        calls = []

        def counting(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapped

        for name in ("reachable_space", "weights", "project_subspace"):
            monkeypatch.setattr(asymptotics, name, counting(getattr(asymptotics, name)))
        sweep = rate_function(model, dec, rho, np.linspace(-1.0, 1.0, 21)[:, None])
        assert len(sweep) == 21 and sweep[0].label == "bounds-only"
        enclosures = len(sweep[0].per_block)
        assert enclosures == 3
        assert calls.count("reachable_space") == 1
        assert calls.count("weights") == 1
        assert calls.count("project_subspace") == enclosures

    @pytest.mark.parametrize(
        "model_file, state_file, parts",
        [
            ("commuting_diag.json", "state_commuting_mixed.json", 2),
            ("four_state_p3_sixth.json", "state_four_transient.json", 3),
        ],
    )
    def test_sweep_computes_each_anchor_once(self, monkeypatch, model_file, state_file, parts):
        # u = 0 and u = +-U_MAX do not depend on x: on a 37-point sweep each
        # part's derivatives there are computed once, then read from the memo
        model = WalkModel.load(FIXTURES / model_file)
        rho = DiagonalState.load(FIXTURES / state_file)
        dec = decompose(model, seed=0)
        anchors = {}
        real = asymptotics._log_lambda_derivatives

        def counted(model, subspace, u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            if abs(u[0]) in (0.0, asymptotics.U_MAX):
                key = (subspace.basis.tobytes(), float(u[0]))
                anchors[key] = anchors.get(key, 0) + 1
            return real(model, subspace, u)

        monkeypatch.setattr(asymptotics, "_log_lambda_derivatives", counted)
        sweep = rate_function(model, dec, rho, np.arange(-0.9, 0.91, 0.05)[:, None])
        assert len(sweep) == 37 and len(sweep[0].per_block) == parts
        zeros = [key for key in anchors if key[1] == 0.0]
        assert len(zeros) == parts
        assert set(anchors.values()) == {1}

    def test_points_of_another_dimension(self, commuting, commuting_dec):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="points need 1 components"):
            rate_function(commuting, commuting_dec, rho, [[0.1, 0.2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_points_that_are_not_finite(self, commuting, commuting_dec, bad):
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="points must be finite"):
            rate_function(commuting, commuting_dec, rho, [[0.1], [bad]])

    @pytest.mark.parametrize("gap,first", [(4e-16, True), (-4e-16, True), (1e-9, False)])
    def test_roundoff_tie_picks_first_block(self, monkeypatch, commuting, commuting_dec, gap, first):
        # two blocks whose rates differ by ``gap``: a roundoff tie goes to the
        # first entry whichever side of it the last bits fall on
        values = iter([0.3 + gap, 0.3])

        def fake_legendre(model, subspace, x):
            return RateEvaluation(point=x, value=next(values), maximizer=np.zeros(1))

        monkeypatch.setattr(asymptotics, "legendre", fake_legendre)
        rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)
        (ev,) = rate_function(commuting, commuting_dec, rho, [0.1])
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

    def test_unreached_enclosure_is_refused(self, monkeypatch):
        # the transient start of four_state_p3_half puts weight 0 on block-0,
        # so both its minimal enclosures have an empty reachable compression
        model = WalkModel.load(FIXTURES / "four_state_p3_half.json")
        rho = DiagonalState.load(FIXTURES / "state_four_transient.json")
        dec = decompose(model)
        block_weights, enclosure_weights = weights(model, dec, rho)
        assert dec.block_ids()[0] == "block-0" and block_weights[0] == 0.0
        enclosures = dec.blocks[0].minimal_enclosures
        assert len(enclosures) == 2 and max(enclosure_weights[0]) == 0.0

        def no_spectral_radius(*args, **kwargs):
            raise AssertionError("a spectral radius was computed")

        monkeypatch.setattr(asymptotics, "log_lambda", no_spectral_radius)
        for enclosure in enclosures:
            with pytest.raises(ValueError, match="does not reach this enclosure"):
                lambda_split_check(model, enclosure, rho, [0.3])
