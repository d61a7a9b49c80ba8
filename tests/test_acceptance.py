"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

import itertools
import time

import numpy as np

from oqwalk import models
from oqwalk.asymptotics import (
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
from oqwalk.channel import ChannelView, perron
from oqwalk.empirics import rescale, w1_distance
from oqwalk.linalg import Subspace
from oqwalk.simulate import SimConfig, classify_absorption, run
from oqwalk.structure import DiagonalState, absorption, decompose
from util import (
    apply,
    basis_subspace,
    bernoulli_rate,
    dkw_band,
    enumerate_displacement_law,
    martingale_check,
    random_densities,
    random_irreducible_model,
    subspace_angle,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def edge_state():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    return DiagonalState.single_site(mat)


def balanced_state():
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = mat[3, 3] = 1 / 3
    return DiagonalState.single_site(mat)


def test_criterion_01_structure():
    """Exact decomposition of the four-level family, under one second."""
    worst_angle = 0.0
    elapsed = 0.0
    for p in [(1 / 6, 1 / 6, 1 / 6), (0.2, 0.05, 0.25)]:
        model = models.four_state_family(*p)
        start = time.perf_counter()
        dec = decompose(model, seed=0)
        elapsed = max(elapsed, time.perf_counter() - start)
        angles = [
            subspace_angle(dec.transient, basis_subspace(4, [0])),
            subspace_angle(dec.blocks[0].subspace, basis_subspace(4, [1, 2])),
            subspace_angle(dec.blocks[1].subspace, basis_subspace(4, [3])),
        ]
        worst_angle = max(worst_angle, *angles)
        ok_shape = (
            [b.subspace.dim for b in dec.blocks] == [2, 1]
            and [b.multiplicity for b in dec.blocks] == [2, 1]
        )
        if not ok_shape:
            report("1 structure", False, f"wrong block shape for p={p}")
    report(
        "1 structure",
        worst_angle <= 1e-8 and elapsed < 1.0,
        f"(worst angle {worst_angle:.2e}, slowest run {elapsed * 1e3:.0f} ms)",
    )


def test_criterion_02_absorption():
    """Closed-form absorption operator of the drifting block."""
    worst = 0.0
    for p3 in (1 / 6, 1 / 2):
        rest = (0.5 - p3) / 2
        model = models.four_state_family(rest, rest, p3)
        a = absorption(model, basis_subspace(4, [3])).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 2 * p3
        expected[3, 3] = 1.0
        worst = max(worst, float(np.max(np.abs(a - expected))))
        dec = decompose(model, seed=0)
        total = sum(absorption(model, b.subspace).matrix for b in dec.blocks)
        worst = max(worst, float(np.max(np.abs(total - np.eye(4)))))
    report("2 absorption", worst <= 1e-9, f"(worst entry error {worst:.2e})")


def test_criterion_03_clt_parameters():
    """Drift and diffusion per block match the known values."""
    model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
    dec = decompose(model, seed=0)
    plane, edge = dec.blocks
    errs = [
        abs(drift(model, plane.invariant_state)[0] - 0.0),
        abs(diffusion(model, plane.minimal_enclosures[0])[0, 0] - 1.0),
        abs(drift(model, edge.invariant_state)[0] + 1 / 3),
        abs(diffusion(model, edge.minimal_enclosures[0])[0, 0] - 8 / 9),
    ]
    two = models.two_state_biased_walk()
    dec2 = decompose(two, seed=0)
    block = dec2.blocks[0]
    errs.append(abs(drift(two, block.invariant_state)[0] - 1 / 3))
    errs.append(abs(diffusion(two, block.minimal_enclosures[0])[0, 0] - 8 / 9))
    worst = max(errs)
    report("3 clt-parameters", worst <= 1e-8, f"(worst error {worst:.2e})")


def test_criterion_04_derivative_cross_checks():
    """Closed-form first and second derivatives of the deformed spectral
    radius against central finite differences, on random models."""
    cases = [(seed, 1, h) for seed, h in zip(range(14), itertools.cycle((2, 3, 4)))]
    cases += [(seed + 100, 2, h) for seed, h in zip(range(6), itertools.cycle((2, 3)))]
    worst_fd, worst_resid, worst_trace = 0.0, 0.0, 0.0
    for seed, d, h in cases:
        model = random_irreducible_model(seed, local_dim=h, lattice_dim=d)
        sub = Subspace.full(h)
        u = np.random.default_rng(seed + 1000).standard_normal(d)
        l1, l2 = lambda_derivatives(model, sub, u)

        def lam(t):
            return float(np.exp(log_lambda(model, sub, t * u)))

        fd_step = 1e-4
        fd1 = (lam(fd_step) - lam(-fd_step)) / (2 * fd_step)
        fd2 = (lam(fd_step) - 2 * lam(0.0) + lam(-fd_step)) / fd_step**2
        worst_fd = max(worst_fd, abs(l1 - fd1), abs(l2 - fd2))

        eta = poisson_solve(model, sub, u)
        worst_trace = max(worst_trace, abs(np.trace(eta)))
        view = ChannelView(model, sub)
        tau = perron(view).state
        us = model.shifts.astype(float) @ u
        lp_tau = sum(
            w * (k @ tau @ k.conj().T) for w, k in zip(us, view.compressed_kraus)
        )
        rhs = lp_tau - np.trace(lp_tau) * tau
        worst_resid = max(
            worst_resid, float(np.linalg.norm(eta - apply(view, eta) - rhs))
        )
    ok = worst_fd <= 1e-5 and worst_resid <= 1e-9 and worst_trace <= 1e-10
    report(
        "4 derivative-cross-checks",
        ok,
        f"(fd {worst_fd:.2e}, residual {worst_resid:.2e}, trace {worst_trace:.2e})",
    )


def test_criterion_05_martingale_identity():
    """One-step martingale identity for every enclosure of every fixture."""
    fixtures = [
        models.two_state_biased_walk(),
        models.four_state_family(1 / 6, 1 / 6, 1 / 6),
        models.four_state_family(0.0, 0.0, 0.5),
        models.default_commuting_walk(),
    ]
    worst = 0.0
    for idx, model in enumerate(fixtures):
        dec = decompose(model, seed=0)
        enclosures = [dec.recurrent] + [b.subspace for b in dec.blocks]
        for block in dec.blocks:
            enclosures.extend(block.minimal_enclosures)
        states = random_densities(idx, model.local_dim, 20)
        for sub in enclosures:
            a = absorption(model, sub).matrix
            worst = max(worst, martingale_check(model, a, states))
    report("5 martingale-identity", worst <= 1e-9, f"(worst deviation {worst:.2e})")


def test_criterion_06_absorption_fractions():
    """Monte Carlo absorption fractions for the transient start."""
    model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
    dec = decompose(model, seed=0)
    edge_block = next(b for b in dec.blocks if b.subspace.dim == 1)
    track = absorption(model, edge_block.subspace).matrix
    start = time.perf_counter()
    ens = run(
        model,
        edge_state(),
        SimConfig(steps=800, trajectories=10_000, seed=42, y_stride=100),
        tracks={"edge": track},
    )
    elapsed = time.perf_counter() - start
    frac_hi, frac_lo, _ = classify_absorption(ens, "edge")
    ok = 0.31 <= frac_hi <= 0.36 and 0.64 <= frac_lo <= 0.69 and elapsed < 120
    report(
        "6 absorption-fractions",
        ok,
        f"(Y>0.99: {frac_hi:.4f}, Y<0.01: {frac_lo:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_07_mixture_convergence():
    """W1 against the predicted mixture shrinks with the horizon."""
    model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
    dec = decompose(model, seed=0)
    rho = balanced_state()
    start = time.perf_counter()
    passes = 0
    details = []
    for seed in (1, 2, 3):
        # one run to 600 steps; .at(50) is bit for bit the run to 50
        ens = run(
            model,
            rho,
            SimConfig(steps=600, trajectories=50_000, seed=seed, y_stride=600, horizons=(50,)),
        )
        w1 = {
            n: w1_distance(rescale(ens.at(n)), clt_mixture(model, dec, rho, n)).w1
            for n in (50, 600)
        }
        if w1[600] < 0.05 and w1[600] < w1[50]:
            passes += 1
        details.append(f"seed {seed}: {w1[50]:.4f}->{w1[600]:.4f}")
    elapsed = time.perf_counter() - start
    ok = passes >= 2 and elapsed < 600
    report("7 mixture-convergence", ok, f"({'; '.join(details)}; {elapsed:.0f}s)")


def test_criterion_08_brute_force_oracle():
    """Exact enumeration against the simulator and the deformed-channel
    moment formula for the two-level walk."""
    model = models.two_state_biased_walk()
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0

    # (a) full displacement law at n = 12 versus the empirical law
    steps = 12
    law = enumerate_displacement_law(model, rho0, steps)
    total = sum(law.values())
    assert abs(total - 1.0) <= 1e-12
    support = np.array(sorted(law.keys()))
    cdf_exact = np.cumsum([law[k] for k in support])

    n_samples = 100_000
    ens = run(
        model,
        DiagonalState.single_site(rho0),
        SimConfig(steps=steps, trajectories=n_samples, seed=7),
    )
    disp = ens.displacements[:, 0]
    cdf_emp = np.array([np.mean(disp <= k) for k in support])
    ks = float(np.max(np.abs(cdf_emp - cdf_exact)))
    dkw = dkw_band(n_samples)
    ok_law = ks <= dkw

    # (b) moment generating function: enumeration vs iterated deformed channel
    worst_rel = 0.0
    for u in (-1.0, 0.5, 1.0):
        for n in (1, 5, 12):
            law_n = enumerate_displacement_law(model, rho0, n)
            exact = sum(np.exp(u * k) * p for k, p in law_n.items())
            view = ChannelView.full(model, [u])
            sigma = rho0.copy()
            for _ in range(n):
                sigma = apply(view, sigma)
            via_channel = float(np.trace(sigma).real)
            worst_rel = max(worst_rel, abs(via_channel - exact) / abs(exact))
    ok = ok_law and worst_rel <= 1e-10
    report(
        "8 brute-force-oracle",
        ok,
        f"(KS {ks:.4f} vs DKW {dkw:.4f}, mgf rel err {worst_rel:.2e})",
    )


def test_criterion_09_ldp_closed_forms():
    """Rate functions of the diagonal walk against the closed-form rates."""
    model = models.default_commuting_walk()
    dec = decompose(model, seed=0)
    rho = DiagonalState.single_site(np.eye(3, dtype=complex) / 3)

    # blocks carry right-step probabilities 0.7 and 0.2
    p_right = {2: 0.7, 1: 0.2}
    worst = 0.0
    for block in dec.blocks:
        p = p_right[block.subspace.dim]
        sub = block.minimal_enclosures[0]
        for x in np.linspace(-0.95, 0.95, 50):
            ev = legendre(model, sub, [x])
            worst = max(worst, abs(ev.value - bernoulli_rate(x, p)))
    ok_grid = worst <= 1e-6

    worst_mean = 0.0
    for m in (0.4, -0.6):
        (ev,) = rate_function(model, dec, rho, [m])
        worst_mean = max(worst_mean, ev.value)
        assert ev.label == "exact-LDP"
    ok_mean = worst_mean <= 1e-8

    four = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
    dec4 = decompose(four, seed=0)
    (ev4,) = rate_function(four, dec4, edge_state(), [0.1])
    ok_label = ev4.label == "bounds-only"

    report(
        "9 ldp-closed-forms",
        ok_grid and ok_mean and ok_label,
        f"(grid err {worst:.2e}, rate at means {worst_mean:.2e}, label {ev4.label!r})",
    )


def test_criterion_10_lambda_split():
    """Spectral radius on the reachable compression equals the max of the
    enclosure and transient contributions."""
    model = models.four_state_family(1 / 6, 1 / 6, 1 / 6)
    dec = decompose(model, seed=0)
    edge_block = next(b for b in dec.blocks if b.subspace.dim == 1)
    rho = edge_state()
    worst = 0.0
    for u in np.linspace(-2.0, 2.0, 10):
        lam_q, lam_v, lam_w = lambda_split_check(
            model, edge_block.subspace, rho, [u]
        )
        worst = max(worst, abs(lam_q - max(lam_v, lam_w)))
    report("10 lambda-split", worst <= 1e-8, f"(worst identity error {worst:.2e})")
