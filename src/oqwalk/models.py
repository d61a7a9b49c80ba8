"""Canonical walk families used as fixtures throughout the package.

All families live on the one-dimensional lattice unless stated otherwise,
with the convention that the first Kraus operator moves the walker one step
left (shift -1) and the second one step right (shift +1).
"""

from __future__ import annotations

import numpy as np

from .channel import WalkModel

STEP_LR = np.array([[-1], [1]])


def two_state_biased_walk() -> WalkModel:
    """Two-level walk with a one-dimensional attracting state.

    The internal state relaxes onto span{e_1}; conditioned on it the step
    distribution is Bernoulli (right with probability 2/3), so the position
    drifts at rate 1/3 with diffusion constant 8/9.
    """
    left = np.array(
        [
            [np.sqrt(1 / 2), 0.0],
            [-np.sqrt(2) / 3, np.sqrt(1 / 3)],
        ],
        dtype=complex,
    )
    right = np.array(
        [
            [np.sqrt(1 / 6), 0.0],
            [1 / 3, np.sqrt(2 / 3)],
        ],
        dtype=complex,
    )
    return WalkModel(shifts=STEP_LR, kraus=np.array([left, right]))


def four_state_family(p1: float, p2: float, p3: float) -> WalkModel:
    """Four-level family with one transient direction and two recurrent blocks.

    Requires p_i >= 0 and p1 + p2 + p3 = 1/2. The recurrent space splits into
    span{e_1, e_2} (a multiplicity-two block: both Kraus operators act as
    1/sqrt(2) there) and span{e_3} (Bernoulli with left probability 2/3);
    e_0 is transient and feeds the blocks at rates set by the p_i.
    """
    total = p1 + p2 + p3
    if min(p1, p2, p3) < 0 or abs(total - 0.5) > 1e-12:
        raise ValueError("parameters must be nonnegative with p1+p2+p3 = 1/2")
    left = np.array(
        [
            [1 / (2 * np.sqrt(2)), 0, 0, 0],
            [np.sqrt(p1 / 2), 1 / np.sqrt(2), 0, 0],
            [np.sqrt(p2 / 2), 0, 1 / np.sqrt(2), 0],
            [-np.sqrt(p3 / 3), 0, 0, np.sqrt(2 / 3)],
        ],
        dtype=complex,
    )
    right = np.array(
        [
            [np.sqrt(3 / 8), 0, 0, 0],
            [-np.sqrt(p1 / 2), 1 / np.sqrt(2), 0, 0],
            [-np.sqrt(p2 / 2), 0, 1 / np.sqrt(2), 0],
            [np.sqrt(2 * p3 / 3), 0, 0, np.sqrt(1 / 3)],
        ],
        dtype=complex,
    )
    return WalkModel(shifts=STEP_LR, kraus=np.array([left, right]))


def commuting_diagonal_walk(
    amplitudes: np.ndarray, shifts: np.ndarray | None = None
) -> WalkModel:
    """Walk whose Kraus operators are simultaneously diagonal.

    ``amplitudes[i, j]`` is the amplitude with which internal basis state i
    takes the j-th shift; rows must have unit square norm. Every basis
    direction spans a minimal enclosure, identical rows merge into one block,
    and the step law conditioned on a block is multinomial.

    Default shifts: -1, +1 for two columns; otherwise +/- the canonical basis
    of R^d for 2d columns.
    """
    zeta = np.asarray(amplitudes, dtype=complex)
    h, v = zeta.shape
    row_norms = np.sum(np.abs(zeta) ** 2, axis=1)
    if np.max(np.abs(row_norms - 1.0)) > 1e-12:
        raise ValueError("amplitude rows must have unit square norm")
    if shifts is None:
        if v == 2:
            shifts = STEP_LR
        elif v % 2 == 0:
            d = v // 2
            eye = np.eye(d, dtype=int)
            shifts = np.vstack([eye, -eye])
        else:
            raise ValueError("provide shifts explicitly for an odd number of columns")
    kraus = np.array([np.diag(zeta[:, j]) for j in range(v)])
    return WalkModel(shifts=shifts, kraus=kraus)


def default_commuting_walk() -> WalkModel:
    """Three-level diagonal walk with one multiplicity-two block.

    Rows 0 and 1 share the amplitude pattern (sqrt(0.7), sqrt(0.3)), row 2
    uses (sqrt(0.2), sqrt(0.8)); drifts are +0.4 and -0.6. Fully recurrent,
    so the exact large-deviation principle applies.
    """
    zeta = np.array(
        [
            [np.sqrt(0.3), np.sqrt(0.7)],
            [np.sqrt(0.3), np.sqrt(0.7)],
            [np.sqrt(0.8), np.sqrt(0.2)],
        ]
    )
    return commuting_diagonal_walk(zeta)


def irreducible_two_state(theta: float = 0.7) -> WalkModel:
    """Two-level walk with no proper enclosure.

    One Kraus operator swaps the basis states, the other rotates by theta;
    for generic theta no line is invariant under both, so the channel is
    irreducible with a faithful invariant state.
    """
    swap = np.sqrt(1 / 3) * np.array([[0, 1], [1, 0]], dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.sqrt(2 / 3) * np.array([[c, -s], [s, c]], dtype=complex)
    return WalkModel(shifts=STEP_LR, kraus=np.array([swap, rot]))


def single_shift_walk(shift: int = 1, dim: int = 2) -> WalkModel:
    """Deterministic walk: identity Kraus operator, one fixed shift."""
    return WalkModel(
        shifts=np.array([[shift]]),
        kraus=np.array([np.eye(dim, dtype=complex)]),
    )
