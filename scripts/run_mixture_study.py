#!/usr/bin/env python3
"""Mixture-convergence study for the four-level family.

For a chosen initial state, predicts the Gaussian mixture of the rescaled
displacement at several horizons, simulates matching ensembles, and writes
histogram / CDF / distance tables that external plotters can consume.

Usage:
    python scripts/run_mixture_study.py [--p3 0.1666...] [--traj 50000]
        [--steps 50,150,600] [--seed 1] [--balanced] [--out study_out]
"""

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oqwalk import asymptotics, empirics, models, simulate, structure


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p3", type=float, default=1 / 6)
    ap.add_argument("--steps", default="50,150,600")
    ap.add_argument("--traj", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--balanced",
        action="store_true",
        help="start from the balanced recurrent state instead of the transient one",
    )
    ap.add_argument("--out", default="study_out")
    args = ap.parse_args()

    rest = (0.5 - args.p3) / 2
    model = models.four_state_family(rest, rest, args.p3)
    if args.balanced:
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = mat[3, 3] = 1 / 3
    else:
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
    rho = structure.DiagonalState.single_site(mat)

    dec = structure.decompose(model, seed=0)
    bw, _ = structure.weights(model, dec, rho)
    print("block weights:", [round(w, 6) for w in bw])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    horizons = [int(tok) for tok in args.steps.split(",")]
    longest = max(horizons)
    # one run to the longest horizon serves every horizon
    t0 = time.perf_counter()
    full = simulate.run(
        model,
        rho,
        simulate.SimConfig(
            steps=longest,
            trajectories=args.traj,
            seed=args.seed,
            y_stride=max(longest, 1),
            horizons=tuple(horizons),
        ),
    )
    wall = time.perf_counter() - t0
    print(f"simulated {args.traj} trajectories to n={longest} ({wall:.1f}s)")

    # the components do not depend on the horizon: compute them once
    limit = asymptotics.clt_mixture(model, dec, rho, horizons[0])
    distance_rows = []
    for n in horizons:
        mixture = replace(limit, horizon=n)
        law = empirics.rescale(full.at(n))
        report = empirics.w1_distance(law, mixture)
        print(f"n={n}: W1={report.w1:.5f} KS={report.ks:.5f}")
        distance_rows.append([n, args.traj, report.w1, report.ks])

        with open(out / f"hist_n{n}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_left", "bin_right", "density"])
            w.writerows(empirics.histogram(law, bins=80))

        xs = np.linspace(law.samples[0] - 1, law.samples[-1] + 1, 400)
        f_mix = empirics.mixture_cdf(mixture, xs)
        f_emp = np.searchsorted(law.samples, xs, side="right") / law.count
        with open(out / f"cdf_n{n}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "F_emp", "F_mix"])
            w.writerows(zip(xs, f_emp, f_mix))

    with open(out / "distances.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "N", "w1", "ks"])
        w.writerows(distance_rows)
    print(f"tables written to {out}/")


if __name__ == "__main__":
    main()
