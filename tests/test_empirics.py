import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom, norm

from oqwalk import models
from oqwalk.asymptotics import GaussianComponent, MixtureModel, clt_mixture
from oqwalk.empirics import (
    EmpiricalLaw1D,
    histogram,
    ldp_estimate,
    mixture_cdf,
    rescale,
    rescaled_law,
    w1_distance,
)
from oqwalk.simulate import SimConfig, run
from oqwalk.structure import DiagonalState


def gaussian(mean, var):
    return GaussianComponent([mean], [[var]])


def single(mean=0.0, var=1.0):
    return MixtureModel(components=[(1.0, gaussian(mean, var))], horizon=1)


def empirical_as_mixture(emp: EmpiricalLaw1D) -> MixtureModel:
    """Encode an empirical law as an atomic mixture (for law-vs-law W1)."""
    root_n = np.sqrt(max(emp.horizon, 1))
    comps = [(1.0 / emp.count, gaussian(s / root_n, 0.0)) for s in emp.samples]
    return MixtureModel(components=comps, horizon=max(emp.horizon, 1))


def point_masses(atoms) -> MixtureModel:
    """Mixture of point masses from (weight, position) pairs."""
    return MixtureModel(components=[(w, gaussian(x, 0.0)) for w, x in atoms], horizon=1)


def exact_point_mass_w1(samples, atoms) -> Fraction:
    """W1 = integral of |F_emp - F| between the empirical law of ``samples``
    and point masses ``atoms`` ((weight, position) pairs, weights summing to
    1 exactly), in exact rational arithmetic: both CDFs are constant between
    consecutive points of the union of supports."""
    samples = [Fraction(s) for s in samples]
    atoms = [(Fraction(w), Fraction(x)) for w, x in atoms]
    assert sum(w for w, _ in atoms) == 1
    points = sorted(set(samples) | {x for _, x in atoms})
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        emp = Fraction(sum(s <= a for s in samples), len(samples))
        mix = sum((w for w, x in atoms if x <= a), Fraction(0))
        total += abs(emp - mix) * (b - a)
    return total


def brute_force_ks(samples, comps) -> float:
    """sup over x of |F_emp(x) - F(x)| for (weight, mean, sigma) components
    (sigma = 0 a point mass). Between consecutive points of the samples and
    atoms F_emp is constant and F monotone, so the supremum is one of the
    limits from below and at those points."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    points = set(samples.tolist()) | {mu for _, mu, sigma in comps if sigma == 0}
    best = 0.0
    for t in sorted(points):
        below = sum(w * (norm.cdf(t, mu, s) if s > 0 else t > mu) for w, mu, s in comps)
        at = sum(w * (norm.cdf(t, mu, s) if s > 0 else t >= mu) for w, mu, s in comps)
        emp_below = np.count_nonzero(samples < t) / n
        emp_at = np.count_nonzero(samples <= t) / n
        best = max(best, abs(emp_below - below), abs(emp_at - at))
    return best


def random_point_masses(rng, count):
    """``count`` distinct atoms on the grid Z/8 with dyadic weights summing
    to 1 exactly."""
    cuts = np.sort(rng.choice(np.arange(1, 16), size=count - 1, replace=False))
    weights = np.diff(np.concatenate([[0], cuts, [16]])) / 16
    positions = rng.choice(np.arange(-24, 25), size=count, replace=False) / 8
    return [(float(w), float(x)) for w, x in zip(weights, positions)]


def planar_model():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    return models.commuting_diagonal_walk(np.sqrt(probs)[None, :])


class TestRescale:
    def test_one_dimensional_passthrough(self, two_state):
        rho = DiagonalState.single_site(np.diag([0.0, 1.0]).astype(complex))
        ens = run(two_state, rho, SimConfig(steps=16, trajectories=100, seed=0))
        law = rescale(ens)
        expected = np.sort(ens.displacements[:, 0] / 4.0)
        np.testing.assert_allclose(law.samples, expected, atol=0)
        assert law.horizon == 16 and law.count == 100

    def test_zero_steps(self, two_state):
        rho = DiagonalState.single_site(np.diag([0.0, 1.0]).astype(complex))
        ens = run(two_state, rho, SimConfig(steps=0, trajectories=20, seed=0))
        law = rescale(ens)
        assert np.all(law.samples == 0.0)

    def test_axis_projection(self):
        model = planar_model()
        rho = DiagonalState.single_site(np.eye(1, dtype=complex), site=(0, 0))
        ens = run(model, rho, SimConfig(steps=9, trajectories=50, seed=1))
        law = rescale(ens, axis=[1.0, 0.0])
        expected = np.sort(ens.displacements[:, 0] / 3.0)
        np.testing.assert_allclose(law.samples, expected, atol=0)

    def test_axis_required_in_higher_dimension(self):
        model = planar_model()
        rho = DiagonalState.single_site(np.eye(1, dtype=complex), site=(0, 0))
        ens = run(model, rho, SimConfig(steps=4, trajectories=10, seed=2))
        with pytest.raises(ValueError, match="projection axis required"):
            rescale(ens)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_axis_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="axis entries must be finite"):
            rescaled_law(np.zeros((3, 2)), 4, axis=[1.0, bad])


class TestMixtureCdf:
    def test_standard_normal_median(self):
        assert mixture_cdf(single(), 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_weights_reduce(self):
        mix = MixtureModel(
            components=[(1.0, gaussian(0.0, 1.0)), (0.0, gaussian(5.0, 1.0))],
            horizon=1,
        )
        xs = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(
            mixture_cdf(mix, xs), mixture_cdf(single(), xs), atol=1e-12
        )

    def test_value_between_separated_components(
        self, four_state, four_state_dec, balanced_recurrent
    ):
        mix = clt_mixture(four_state, four_state_dec, balanced_recurrent, 600)
        # between the two component means the CDF sits on the lighter plateau
        assert mixture_cdf(mix, -4.0) == pytest.approx(1 / 3, abs=1e-3)

    def test_dirac_component(self):
        mix = MixtureModel(components=[(1.0, gaussian(0.0, 0.0))], horizon=1)
        assert mixture_cdf(mix, -0.1) == 0.0
        assert mixture_cdf(mix, 0.0) == 1.0
        assert mixture_cdf(mix, 0.1) == 1.0


class TestW1:
    def test_point_mass_against_itself(self):
        emp = EmpiricalLaw1D(samples=np.zeros(64), horizon=1)
        mix = MixtureModel(components=[(1.0, gaussian(0.0, 0.0))], horizon=1)
        assert w1_distance(emp, mix).w1 == pytest.approx(0.0, abs=1e-12)

    def test_translation_distance(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(50_000)
        emp = EmpiricalLaw1D(samples=samples, horizon=1)
        assert emp.count == len(samples)
        report = w1_distance(emp, single(mean=1.0))
        assert report.w1 == pytest.approx(1.0, abs=0.02)
        assert "Fortet-Mourier" in report.note

    def test_self_consistency_for_mixture_draws(self):
        rng = np.random.default_rng(1)
        n = 50_000
        pick = rng.random(n) < 2 / 3
        samples = np.where(
            pick, rng.normal(0.0, 1.0, n), rng.normal(-3.0, np.sqrt(8 / 9), n)
        )
        emp = EmpiricalLaw1D(samples=samples, horizon=9)
        mix = MixtureModel(
            components=[(2 / 3, gaussian(0.0, 1.0)), (1 / 3, gaussian(-1.0, 8 / 9))],
            horizon=9,
        )
        assert w1_distance(emp, mix).w1 < 0.02

    def test_shift_equivariance(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(500)
        emp = EmpiricalLaw1D(samples=samples, horizon=1)
        base = w1_distance(emp, single(mean=0.3)).w1
        shifted_emp = EmpiricalLaw1D(samples=samples + 5.0, horizon=1)
        shifted = w1_distance(shifted_emp, single(mean=5.3)).w1
        assert abs(base - shifted) <= 1e-9

    def test_symmetry_between_empirical_laws(self):
        rng = np.random.default_rng(3)
        a = EmpiricalLaw1D(samples=rng.standard_normal(200), horizon=1)
        b = EmpiricalLaw1D(samples=rng.standard_normal(300) + 0.4, horizon=1)
        ab = w1_distance(a, empirical_as_mixture(b)).w1
        ba = w1_distance(b, empirical_as_mixture(a)).w1
        assert ab == pytest.approx(ba, abs=1e-9)

    def test_ks_is_supremum_discrepancy(self):
        emp = EmpiricalLaw1D(samples=np.array([-1.0, 0.0, 1.0]), horizon=1)
        report = w1_distance(emp, single())
        from scipy.stats import norm

        levels = np.array([1 / 3, 2 / 3, 1.0])
        f = norm.cdf([-1.0, 0.0, 1.0])
        expected = max(
            np.max(np.abs(f - levels)), np.max(np.abs(f - (levels - 1 / 3)))
        )
        assert report.ks == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("mean, sigma", [(0.0, 1.0), (-3.25, 0.5), (7.0, 2.5)])
    def test_single_sample_is_the_folded_normal_mean(self, mean, sigma):
        # E|X - x| for X ~ N(mean, sigma^2) is sigma (2 phi(z) + z erf(z / sqrt 2))
        mix = MixtureModel(components=[(1.0, gaussian(mean, sigma**2))], horizon=1)
        for z in np.linspace(-40.0, 40.0, 161):
            x = mean + z * sigma
            z = (x - mean) / sigma  # of the sample as rounded
            pdf = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
            exact = sigma * (2 * pdf + z * math.erf(z / math.sqrt(2)))
            emp = EmpiricalLaw1D(samples=np.array([x]), horizon=1)
            assert w1_distance(emp, mix).w1 == pytest.approx(exact, rel=4e-15)

    @pytest.mark.parametrize(
        "samples, atoms",
        [
            # samples on atoms, atoms between samples
            ([0.0, 1.0, 2.0, 3.0], [(0.5, 0.5), (0.25, 2.0), (0.25, 2.5)]),
            # atoms below and above every sample
            ([0.0, 1.0, 1.0], [(0.5, -1.0), (0.5, 3.0)]),
            # one atom on the one sample value: the laws agree
            ([0.75, 0.75], [(1.0, 0.75)]),
            # an atom inside the samples' span, five samples
            ([-2.0, -0.5, 0.25, 4.0, 4.5], [(1.0, 0.125)]),
        ],
    )
    def test_point_masses_match_exact_rational_w1(self, samples, atoms):
        emp = EmpiricalLaw1D(samples=np.array(samples), horizon=1)
        report = w1_distance(emp, point_masses(atoms))
        exact = exact_point_mass_w1(samples, atoms)
        assert report.w1 == pytest.approx(float(exact), rel=4e-15, abs=4e-16)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_point_masses_match_exact_rational_w1(self, seed):
        rng = np.random.default_rng(seed)
        atoms = random_point_masses(rng, int(rng.integers(1, 5)))
        samples = rng.integers(-12, 13, size=int(rng.integers(1, 40))) / 4
        # about a third of the samples sit on an atom
        on_atom = rng.random(samples.size) < 1 / 3
        samples[on_atom] = rng.choice([x for _, x in atoms], size=int(on_atom.sum()))
        report = w1_distance(EmpiricalLaw1D(samples=samples, horizon=1), point_masses(atoms))
        exact = exact_point_mass_w1(samples.tolist(), atoms)
        assert report.w1 == pytest.approx(float(exact), rel=4e-15, abs=4e-16)

    @pytest.mark.parametrize("seed", range(8))
    def test_ks_matches_brute_force_supremum(self, seed):
        # Gaussian components and point masses strictly between the samples
        rng = np.random.default_rng(100 + seed)
        samples = np.round(rng.normal(0.0, 1.5, size=int(rng.integers(1, 60))), 2)
        atom = 0.005 + float(rng.integers(-300, 300)) / 100
        comps = [(0.5, -0.5, 1.0), (0.25, atom, 0.0), (0.25, 1.0, 0.5)]
        mix = MixtureModel(
            components=[(w, gaussian(mu, s**2)) for w, mu, s in comps], horizon=1
        )
        report = w1_distance(EmpiricalLaw1D(samples=samples, horizon=1), mix)
        assert report.ks == pytest.approx(brute_force_ks(samples, comps), abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_ks_with_samples_on_atoms(self, seed):
        # where a sample sits on a point mass both CDFs jump: the limits from
        # below are compared with each other, and so are the values at it
        rng = np.random.default_rng(200 + seed)
        atoms = random_point_masses(rng, int(rng.integers(1, 4)))
        samples = rng.integers(-12, 13, size=int(rng.integers(1, 30))) / 4
        samples[: max(1, samples.size // 3)] = atoms[0][1]
        comps = [(w, x, 0.0) for w, x in atoms]
        report = w1_distance(EmpiricalLaw1D(samples=samples, horizon=1), point_masses(atoms))
        assert report.ks == pytest.approx(brute_force_ks(samples, comps), abs=1e-15)

    def test_identical_point_masses_have_zero_ks(self):
        samples = np.array([0.0, 0.0, 1.0, 1.0])
        report = w1_distance(
            EmpiricalLaw1D(samples=samples, horizon=1), point_masses([(0.5, 0.0), (0.5, 1.0)])
        )
        assert report.w1 == 0.0
        assert report.ks == 0.0

    def test_convergence_trend(self, four_state, four_state_dec, balanced_recurrent):
        # lighter version of the acceptance run: the rescaled law approaches
        # the predicted mixture as the horizon grows
        reports = {}
        for n in (30, 300):
            ens = run(
                four_state,
                balanced_recurrent,
                SimConfig(steps=n, trajectories=10_000, seed=5, y_stride=n),
            )
            mix = clt_mixture(four_state, four_state_dec, balanced_recurrent, n)
            reports[n] = w1_distance(rescale(ens), mix).w1
        assert reports[300] < reports[30]


class TestLdpEstimate:
    def test_mass_interval_rate_vanishes(self, two_state):
        rho = DiagonalState.single_site(np.diag([0.0, 1.0]).astype(complex))
        ens = run(two_state, rho, SimConfig(steps=400, trajectories=4000, seed=6))
        ((n, rate),) = ldp_estimate([(400, ens.displacements)], (0.2, 0.5))
        assert n == 400
        assert abs(rate) <= 0.01

    def test_zero_steps_rejected(self):
        # log(freq) / 0 would be nan, with a RuntimeWarning
        with pytest.raises(ValueError, match="steps >= 1"):
            ldp_estimate([(10, np.zeros((4, 1))), (0, np.zeros((4, 1)))], (-0.1, 0.1))

    def test_empty_interval_sentinel(self, two_state):
        rho = DiagonalState.single_site(np.diag([0.0, 1.0]).astype(complex))
        ens = run(two_state, rho, SimConfig(steps=50, trajectories=100, seed=7))
        ((_, rate),) = ldp_estimate([(50, ens.displacements)], (5.0, 6.0))
        assert rate == float("-inf")

    def test_rare_event_rates_match_enumeration(self, two_state):
        # starting inside the recurrent line the step law is Bernoulli(2/3),
        # so interval probabilities are exact binomial tails
        rho = DiagonalState.single_site(np.diag([0.0, 1.0]).astype(complex))
        horizons = (10, 20, 30)
        trials = 100_000
        samples = []
        for n in horizons:
            ens = run(two_state, rho, SimConfig(steps=n, trajectories=trials, seed=8))
            samples.append((n, ens.displacements))
        rows = ldp_estimate(samples, (0.9, 1.0))
        for (n, rate), horizon in zip(rows, horizons):
            ks = np.arange(horizon + 1)
            in_set = (2 * ks - horizon) / horizon >= 0.9 - 1e-12
            exact_p = float(binom.pmf(ks[in_set], horizon, 2 / 3).sum())
            exact_rate = np.log(exact_p) / horizon
            sigma = np.sqrt((1 - exact_p) / (exact_p * trials)) / horizon
            assert abs(rate - exact_rate) <= 4 * sigma + 1e-12
        # at the smallest horizon only the extreme path contributes
        assert rows[0][1] == pytest.approx(np.log(2 / 3), abs=0.02)


class TestHistogram:
    def test_uniform_is_flat(self):
        rng = np.random.default_rng(9)
        emp = EmpiricalLaw1D(samples=rng.random(100_000), horizon=1)
        table = histogram(emp, bins=20)
        densities = np.array([row[2] for row in table])
        np.testing.assert_allclose(densities, 1.0, atol=0.08)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(10)
        emp = EmpiricalLaw1D(samples=rng.standard_normal(5000), horizon=1)
        table = histogram(emp, bins=37)
        total = sum((right - left) * dens for left, right, dens in table)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_sample(self):
        emp = EmpiricalLaw1D(samples=np.array([2.5]), horizon=1)
        table = histogram(emp, bins=5)
        total = sum((right - left) * dens for left, right, dens in table)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        emp = EmpiricalLaw1D(samples=np.array([]), horizon=1)
        with pytest.raises(ValueError, match="cannot histogram an empty ensemble"):
            histogram(emp, bins=5)
