#!/usr/bin/env python3
"""Absorption-martingale study for the four-level family.

Tracks Tr(A rho_n) per recurrent block along simulated trajectories started
in the transient direction, prints the fractions that have settled near 0 or
1 by the final step, and writes a few full tracks for plotting.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oqwalk import models, simulate, structure


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p3", type=float, default=1 / 6)
    ap.add_argument("--steps", type=int, default=800)
    ap.add_argument("--traj", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--stride", type=int, default=10)
    ap.add_argument("--sample-tracks", type=int, default=5)
    ap.add_argument("--out", default="tracks_out")
    args = ap.parse_args()

    rest = (0.5 - args.p3) / 2
    model = models.four_state_family(rest, rest, args.p3)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    rho = structure.DiagonalState.single_site(mat)

    dec = structure.decompose(model)
    tracks = {
        bid: structure.absorption(model, block.subspace).matrix
        for bid, block in zip(dec.block_ids(), dec.blocks)
    }
    expected = {
        bid: structure.absorption(model, block.subspace).weight(rho.site_average())
        for bid, block in zip(dec.block_ids(), dec.blocks)
    }

    ens = simulate.run(
        model,
        rho,
        simulate.SimConfig(
            steps=args.steps,
            trajectories=args.traj,
            seed=args.seed,
            y_stride=args.stride,
        ),
        tracks=tracks,
    )

    print(f"{'block':<10} {'dim':>3} {'frac Y>0.99':>12} {'frac Y<0.01':>12} {'expected':>9}")
    for bid, block in zip(dec.block_ids(), dec.blocks):
        hi, lo, _ = simulate.classify_absorption(ens, bid)
        print(f"{bid:<10} {block.subspace.dim:>3} {hi:>12.4f} {lo:>12.4f} {expected[bid]:>9.4f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for bid in dec.block_ids():
        track = ens.y_tracks[bid][: args.sample_tracks]
        with open(out / f"tracks_{bid.replace('/', '_')}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step"] + [f"traj_{i}" for i in range(track.shape[0])])
            for col, step_idx in enumerate(ens.y_snapshot_steps):
                w.writerow([int(step_idx)] + [float(v) for v in track[:, col]])
    print(f"sample tracks written to {out}/")


if __name__ == "__main__":
    main()
