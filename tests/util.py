"""Shared helpers for the test suite."""

import numpy as np

from oqwalk.channel import ChannelView, WalkModel
from oqwalk.linalg import Subspace


def apply(view: ChannelView, sigma: np.ndarray) -> np.ndarray:
    """Deformed compressed channel sum_i e^{u.s_i} K_i sigma K_i*, as a Kraus
    sum: the reference that superoperator matrices and Poisson residuals are
    checked against."""
    sigma = np.asarray(sigma, dtype=complex)
    k = view.dim
    if sigma.shape != (k, k):
        raise ValueError(f"expected {k}x{k} operator, got {sigma.shape}")
    out = np.zeros((k, k), dtype=complex)
    for w, kr in zip(view.weights, view.compressed_kraus):
        out += w * (kr @ sigma @ kr.conj().T)
    return out


def apply_dual(view: ChannelView, x: np.ndarray) -> np.ndarray:
    """Dual (Heisenberg) channel sum_i e^{u.s_i} K_i* x K_i, as a Kraus sum:
    the reference that the transpose of a superoperator matrix is checked
    against."""
    x = np.asarray(x, dtype=complex)
    k = view.dim
    if x.shape != (k, k):
        raise ValueError(f"expected {k}x{k} operator, got {x.shape}")
    out = np.zeros((k, k), dtype=complex)
    for w, kr in zip(view.weights, view.compressed_kraus):
        out += w * (kr.conj().T @ x @ kr)
    return out


def martingale_check(model: WalkModel, observable: np.ndarray, states: list) -> float:
    """Worst one-step violation of E[Tr(A rho_{n+1}) | rho_n] = Tr(A rho_n).

    The conditional expectation collapses algebraically to
    sum_j Tr(A L_j rho L_j*), so this is an exact identity check (no
    sampling) that the observable is harmonic.
    """
    a = np.asarray(observable, dtype=complex)
    worst = 0.0
    for rho in states:
        stepped = sum(
            float(np.trace(a @ (l @ rho @ l.conj().T)).real) for l in model.kraus
        )
        worst = max(worst, abs(stepped - float(np.trace(a @ rho).real)))
    return worst


def enumerate_displacement_law(model: WalkModel, rho0: np.ndarray, steps: int) -> dict:
    """Exact law of the displacement along the first axis after ``steps``
    steps from the unit-trace ``rho0``, by enumerating every branch sequence."""
    law = {}
    stack = [(rho0, 0, 0)]  # state (unnormalized), displacement, depth
    while stack:
        state, disp, depth = stack.pop()
        if depth == steps:
            law[disp] = law.get(disp, 0.0) + float(np.trace(state).real)
            continue
        for shift, kraus in zip(model.shifts[:, 0], model.kraus):
            stack.append((kraus @ state @ kraus.conj().T, disp + int(shift), depth + 1))
    return law


def dkw_band(n_samples: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band of an empirical CDF of ``n_samples``
    draws at the two-sided 4-sigma level."""
    p_4sigma = 6.334e-5
    return float(np.sqrt(np.log(2.0 / p_4sigma) / (2.0 * n_samples)))


def random_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix of rank ``rank`` (full rank by default)."""
    cols = dim if rank is None else rank
    g = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    s = g @ g.conj().T
    return s / np.trace(s).real


def random_densities(seed: int, dim: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_density(rng, dim) for _ in range(count)]


def basis_subspace(ambient: int, indices) -> Subspace:
    return Subspace(ambient, np.eye(ambient, dtype=complex)[:, list(indices)])


def random_walk_model(rng, local_dim: int, lattice_dim: int = 1, shifts=None) -> WalkModel:
    """Random trace-preserving walk from a Haar-ish isometry split into blocks,
    one block per row of ``shifts`` (by default the unit steps along each of
    ``lattice_dim`` axes and back)."""
    if shifts is not None:
        shifts = np.asarray(shifts)
    elif lattice_dim == 1:
        shifts = np.array([[-1], [1]])
    else:
        eye = np.eye(lattice_dim, dtype=int)
        shifts = np.vstack([eye, -eye])
    v = shifts.shape[0]
    g = rng.standard_normal((v * local_dim, local_dim)) + 1j * rng.standard_normal(
        (v * local_dim, local_dim)
    )
    q, _ = np.linalg.qr(g)
    kraus = np.array([q[i * local_dim : (i + 1) * local_dim, :] for i in range(v)])
    return WalkModel(shifts=shifts, kraus=kraus)


def random_irreducible_model(
    seed: int, local_dim: int, lattice_dim: int = 1, shifts=None
) -> WalkModel:
    """Random walk model whose local channel has a one-dimensional fixed space."""
    from oqwalk.asymptotics import fixed_space_dim

    rng = np.random.default_rng(seed)
    for _ in range(50):
        model = random_walk_model(rng, local_dim, lattice_dim, shifts)
        if fixed_space_dim(model, Subspace.full(local_dim)) == 1:
            return model
    raise RuntimeError("could not draw an irreducible model")


def subspace_angle(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between projectors (sine of largest principal angle)."""
    return float(np.linalg.norm(a.projector() - b.projector(), ord=2))


def bernoulli_rate(x: float, p_right: float) -> float:
    """Cramer rate for a +/-1 step with right probability p_right, |x| < 1."""
    q_plus = (1.0 + x) / 2.0
    q_minus = (1.0 - x) / 2.0
    acc = 0.0
    if q_plus > 0:
        acc += q_plus * np.log(q_plus / p_right)
    if q_minus > 0:
        acc += q_minus * np.log(q_minus / (1.0 - p_right))
    return float(acc)


def slow_swap_walk(eps: float) -> WalkModel:
    """Two-level walk with shifts -1, +1 and Kraus operators sqrt(1 - eps) I
    and sqrt(eps) X, X the swap: its dual channel has the eigenvalue
    1 - 2 eps, within ``AMBIGUITY_BAND`` of 1 but beyond ``TOL_FIXED`` at
    eps = 1e-8."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return WalkModel(shifts=[[-1], [1]], kraus=[np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * swap])
