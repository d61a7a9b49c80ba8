"""Comparison of simulated laws against predicted mixtures.

The convergence certificate is the one-dimensional Wasserstein-1 distance
W1 = integral of |F_emp - F|, evaluated exactly in one pass over the
breakpoints: the samples and the point masses of the mixture. The mixture
CDF F has a closed-form antiderivative G (Gaussian components contribute
sigma*(z*Phi(z) + phi(z)), point masses a hinge). On a segment [a, b)
between breakpoints the empirical CDF is one level c, which F crosses at
most once, at x_c (a when F(a) >= c, b when F(b-) <= c, else found by
bisection), so the segment contributes c*(2x_c - a - b) + G(a) + G(b) -
2G(x_c). Above the last breakpoint, 1 - F integrates to G of the mirrored
mixture at -x. KS is read from the same values of F just below and at each
breakpoint. W1 dominates the bounded-Lipschitz (Fortet-Mourier) distance in
one dimension, so a small W1 certifies convergence in law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .asymptotics import MixtureModel
from .simulate import TrajectoryEnsemble

DIRAC_SIGMA = 1e-12


def _normal_pdf(z):
    """The standard normal density, bit for bit as ``scipy.stats.norm.pdf``
    (whose ``x**2`` on arrays is ``np.square``)."""
    return np.exp(-np.square(z) / 2.0) / np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class EmpiricalLaw1D:
    samples: np.ndarray  # sorted ascending
    horizon: int
    count: int = field(init=False)

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "count", len(s))


@dataclass(frozen=True)
class DistanceReport:
    w1: float
    ks: float
    note: str = "W1 upper-bounds the Fortet-Mourier distance"


def _resolve_axis(dim: int, axis) -> np.ndarray:
    if axis is None:
        if dim != 1:
            raise ValueError("projection axis required for lattice_dim > 1")
        return np.array([1.0])
    axis = np.atleast_1d(np.asarray(axis, dtype=float))
    if axis.shape != (dim,):
        raise ValueError(f"axis must have {dim} components")
    if not np.all(np.isfinite(axis)):
        raise ValueError("axis entries must be finite")
    return axis


def rescale(ensemble: TrajectoryEnsemble, axis=None) -> EmpiricalLaw1D:
    """Samples of (displacement . axis) / sqrt(steps)."""
    return rescaled_law(ensemble.displacements, ensemble.config.steps, axis)


def rescaled_law(displacements, n: int, axis=None) -> EmpiricalLaw1D:
    """Law of (displacement . axis) / sqrt(n) over the rows of an (N, d)
    array of n-step displacements; at n = 0 the projections are not scaled."""
    disp = np.asarray(displacements, dtype=float)
    values = disp @ _resolve_axis(disp.shape[1], axis)
    if n > 0:
        values = values / np.sqrt(n)
    return EmpiricalLaw1D(samples=values, horizon=n)


def _projected_components(mixture: MixtureModel, axis) -> list:
    """(weight, mean, sigma) per component along the projection axis."""
    dim = mixture.components[0][1].mean_rate.size
    a = _resolve_axis(dim, axis)
    root_n = np.sqrt(mixture.horizon)
    out = []
    for w, g in mixture.components:
        mu = root_n * float(g.mean_rate @ a)
        var = float(a @ g.covariance @ a)
        sigma = np.sqrt(max(var, 0.0))
        out.append((w, mu, sigma))
    return out


def _cdf(comps, x):
    """The mixture CDF just below x and at x; they differ by the point
    masses at x."""
    x = np.asarray(x, dtype=float)
    below = at = np.zeros_like(x)
    for w, mu, sigma in comps:
        if sigma > DIRAC_SIGMA:
            part = w * ndtr((x - mu) / sigma)
            below, at = below + part, at + part
        else:
            below, at = below + w * (x > mu), at + w * (x >= mu)
    return below, at


def _cdf_antiderivative(comps, x):
    """Integral of the mixture CDF from -inf to x (finite; CDF decays)."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for w, mu, sigma in comps:
        if sigma > DIRAC_SIGMA:
            z = (x - mu) / sigma
            acc = acc + w * sigma * (z * ndtr(z) + _normal_pdf(z))
        else:
            acc = acc + w * np.maximum(x - mu, 0.0)
    return acc


def mixture_cdf(mixture: MixtureModel, x, axis=None):
    """CDF of the projected mixture at x (scalar or array)."""
    comps = _projected_components(mixture, axis)
    val = _cdf(comps, x)[1]
    return float(val) if np.isscalar(x) else val


def w1_distance(emp: EmpiricalLaw1D, mixture: MixtureModel, axis=None) -> DistanceReport:
    """Exact W1 and KS between an empirical law and a projected mixture."""
    comps = _projected_components(mixture, axis)
    xs = emp.samples
    n = emp.count
    if n == 0:
        raise ValueError("empirical law has no samples")

    atoms = [mu for w, mu, sigma in comps if sigma <= DIRAC_SIGMA and w > 0]
    breaks = np.unique(np.concatenate([xs, atoms]))
    f_below, f_at = _cdf(comps, breaks)
    g = _cdf_antiderivative(comps, breaks)
    levels = np.searchsorted(xs, breaks, side="right") / n  # F_emp at each break

    a, b, c = breaks[:-1], breaks[1:], levels[:-1]
    above = f_at[:-1] >= c
    xc, gc = np.where(above, a, b), np.where(above, g[:-1], g[1:])
    cross = ~above & (f_below[1:] > c)
    if np.any(cross):
        lo, hi, lvl = a[cross], b[cross], c[cross]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            go_right = _cdf(comps, mid)[1] < lvl
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        xc[cross] = 0.5 * (lo + hi)
        gc[cross] = _cdf_antiderivative(comps, xc[cross])
    # c*(2x_c - a - b) + G(a) + G(b) - 2G(x_c), grouped so that where x_c is
    # a or b the G terms reduce to the one difference G(b) - G(a) or its negative
    segments = c * ((xc - a) - (b - xc)) + (g[:-1] - gc) + (g[1:] - gc)
    upper = _cdf_antiderivative([(w, -mu, sigma) for w, mu, sigma in comps], -breaks[-1])
    w1 = float(g[0]) + float(np.sum(segments)) + float(upper)

    levels_below = np.concatenate([[0.0], c])  # F_emp just below each break
    ks = max(np.max(np.abs(f_at - levels)), np.max(np.abs(f_below - levels_below)))
    return DistanceReport(w1=w1, ks=float(ks))


def ldp_estimate(samples: list, interval: tuple[float, float], axis=None) -> list:
    """Empirical decay rates (1/n) log P(displacement/steps in interval).

    ``samples`` holds one (steps, displacements) pair per ensemble, the
    displacements an (N, d) array (``TrajectoryEnsemble.displacements``).
    Returns (steps, rate) per pair; the rate is -inf when no trajectory
    lands in the interval. A pair with steps < 1 has no rate and raises
    ValueError.
    """
    lo, hi = float(interval[0]), float(interval[1])
    rows = []
    for n, displacements in samples:
        if n < 1:
            raise ValueError(f"a decay rate needs steps >= 1, got {n}")
        disp = np.asarray(displacements, dtype=float)
        a = _resolve_axis(disp.shape[1], axis)
        values = (disp @ a) / n
        freq = float(np.mean((values >= lo) & (values <= hi)))
        rate = np.log(freq) / n if freq > 0 else float("-inf")
        rows.append((n, float(rate)))
    return rows


def histogram(emp: EmpiricalLaw1D, bins: int) -> list:
    """Equal-width density histogram rows (left, right, density)."""
    if emp.count == 0:
        raise ValueError("cannot histogram an empty ensemble")
    density, edges = np.histogram(emp.samples, bins=bins, density=True)
    return [
        (float(edges[i]), float(edges[i + 1]), float(density[i]))
        for i in range(len(density))
    ]
