"""Seeded reducible walk models whose block structure is known by construction.

A model is built on the orthogonal sum (A (x) C^m) + B + T of three sectors:

- A (x) C^m: a random irreducible channel on A tensored with the identity on
  C^m, i.e. one canonical block of multiplicity m with minimal enclosures of
  dimension dim A;
- B: a second random irreducible channel, a block of multiplicity 1;
- T: a transient sector whose Kraus columns are random, orthogonal to the
  recurrent columns, so that T leaks into both blocks.

A Haar-random unitary then conjugates every Kraus operator, so the blocks sit
in no coordinate subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oqwalk.asymptotics import fixed_space_dim
from oqwalk.channel import WalkModel
from oqwalk.linalg import Subspace

SHIFTS = np.array([[-1], [1]])


@dataclass(frozen=True)
class ReducibleModel:
    """A generated model with the structure it was built to have."""

    model: WalkModel
    enclosure_dim: int  # dimension of each minimal enclosure in the multiple block
    multiplicity: int
    simple_dim: int
    transient_dim: int
    multiple_block: Subspace  # ambient subspace of A (x) C^m
    simple_block: Subspace  # ambient subspace of B

    @property
    def local_dim(self) -> int:
        return self.model.local_dim


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _irreducible_kraus(rng, dim: int) -> np.ndarray:
    """Stacked (v, dim, dim) Kraus family with a one-dimensional fixed space."""
    v = SHIFTS.shape[0]
    for _ in range(50):
        q = _isometry(rng, v * dim, dim)
        kraus = q.reshape(v, dim, dim)
        model = WalkModel(shifts=SHIFTS, kraus=kraus)
        if fixed_space_dim(model, Subspace.full(dim)) == 1:
            return kraus
    raise RuntimeError(f"could not draw an irreducible {dim}-dimensional channel")


def reducible_model(
    seed: int,
    enclosure_dim: int = 3,
    multiplicity: int = 2,
    simple_dim: int = 6,
    transient_dim: int = 4,
) -> ReducibleModel:
    """Random model with one multiple block, one simple block and a transient sector."""
    rng = np.random.default_rng(seed)
    v = SHIFTS.shape[0]
    da = enclosure_dim * multiplicity
    h = da + simple_dim + transient_dim

    a = _irreducible_kraus(rng, enclosure_dim)
    b = _irreducible_kraus(rng, simple_dim)
    kraus = np.zeros((v, h, h), dtype=complex)
    eye_m = np.eye(multiplicity)
    for i in range(v):
        kraus[i, :da, :da] = np.kron(a[i], eye_m)
        kraus[i, da : da + simple_dim, da : da + simple_dim] = b[i]

    # transient columns: an isometry orthogonal to the recurrent columns
    stacked = kraus.reshape(v * h, h)
    recurrent_cols = stacked[:, : h - transient_dim]
    g = rng.standard_normal((v * h, transient_dim)) + 1j * rng.standard_normal(
        (v * h, transient_dim)
    )
    g -= recurrent_cols @ (recurrent_cols.conj().T @ g)
    q, _ = np.linalg.qr(g)
    stacked[:, h - transient_dim :] = q
    kraus = stacked.reshape(v, h, h)

    u = _isometry(rng, h, h)
    kraus = np.einsum("ab,ibc,dc->iad", u, kraus, u.conj())
    model = WalkModel(shifts=SHIFTS, kraus=kraus)
    eye = np.eye(h, dtype=complex)
    return ReducibleModel(
        model=model,
        enclosure_dim=enclosure_dim,
        multiplicity=multiplicity,
        simple_dim=simple_dim,
        transient_dim=transient_dim,
        multiple_block=Subspace(h, u @ eye[:, :da]),
        simple_block=Subspace(h, u @ eye[:, da : da + simple_dim]),
    )
