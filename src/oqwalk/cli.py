"""Batch command-line interface.

JSON models and states in, CSV/JSON reports out; no interactive mode. Every
command is deterministic given (input files, flags, seed); the only
non-reproducible output field is the wall time recorded in run manifests.

Exit codes: 0 success, 1 I/O or parse failure, 2 model validation failure,
3 numerical failure. Any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import asymptotics, empirics, simulate, structure
from .channel import WalkModel, validate
from .errors import (
    HorizonMismatchError,
    MissingAxisError,
    NotTracePreservingError,
    OQWalkError,
)
from .structure import DiagonalState


def _matrix_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _basis_json(subspace) -> list:
    return _matrix_json(subspace.basis)


def _parse_int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",") if tok.strip()])


def _parse_grid(text: str) -> np.ndarray:
    lo, hi, step = (float(tok) for tok in text.split(":"))
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


class InputError(Exception):
    """An input file or argument that does not parse."""


@contextmanager
def _parsing(what: str):
    """Report a malformed ``what`` as an InputError (exit code 1)."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"{what}: {type(exc).__name__}: {exc}") from exc


def _parse_axis(text, dim: int) -> np.ndarray:
    """The ``--axis`` projection vector for ``dim`` lattice dimensions (by
    default (1,) when dim = 1). A missing axis for dim > 1, or one with
    other than ``dim`` components, is an InputError."""
    axis = _parse_float_list(text) if text else None
    try:
        return empirics._resolve_axis(dim, axis)
    except MissingAxisError as exc:
        raise InputError(f"--axis: {exc}") from exc


def _load_model(path: str) -> WalkModel:
    with _parsing(path):
        return WalkModel.load(path)


def _load_state(path: str) -> DiagonalState:
    with _parsing(path):
        return DiagonalState.load(path)


def _resolve_tracks(model, decomposition, track_ids):
    """Map block/enclosure ids to absorption-operator matrices."""
    tracks = {}
    for tid in track_ids:
        with _parsing(f"enclosure track {tid!r}"):
            if "/min-" in tid:
                bid, mid = tid.split("/min-")
                block = decomposition.blocks[decomposition.block_ids().index(bid)]
                sub = block.minimal_enclosures[int(mid)]
            else:
                block = decomposition.blocks[decomposition.block_ids().index(tid)]
                sub = block.subspace
        tracks[tid] = structure.absorption(model, sub).matrix
    return tracks


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    validate(model)
    print(f"kraus normalization defect: {model.normalization_defect():.3e}")
    dec = structure.decompose(model, seed=args.seed)
    total = sum(
        structure.absorption(model, b.subspace).matrix for b in dec.blocks
    )
    defect = float(np.linalg.norm(total - np.eye(model.local_dim)))
    print(f"blocks: {len(dec.blocks)}, transient dim: {dec.transient.dim}")
    print(f"absorption completeness defect: {defect:.3e}")
    if defect > 1e-8:
        raise OQWalkError("absorption operators do not sum to the identity")
    print("ok")
    return 0


def cmd_analyze(args) -> int:
    model = _load_model(args.model)
    dec = structure.decompose(model, seed=args.seed)
    report = {
        "local_dim": model.local_dim,
        "lattice_dim": model.lattice_dim,
        "recurrent": {"dim": dec.recurrent.dim, "basis": _basis_json(dec.recurrent)},
        "transient": {"dim": dec.transient.dim, "basis": _basis_json(dec.transient)},
        "blocks": [],
    }
    for bid, block in zip(dec.block_ids(), dec.blocks):
        absorb = structure.absorption(model, block.subspace)
        report["blocks"].append(
            {
                "id": bid,
                "dim": block.subspace.dim,
                "multiplicity": block.multiplicity,
                "basis": _basis_json(block.subspace),
                "minimal_enclosures": [
                    _basis_json(sub) for sub in block.minimal_enclosures
                ],
                "invariant_state": _matrix_json(block.invariant_state),
                "absorption": _matrix_json(absorb.matrix),
            }
        )
    if args.state:
        rho = _load_state(args.state)
        bw, ew = structure.weights(model, dec, rho)
        report["weights"] = {
            bid: {"block": w, "enclosures": row}
            for bid, w, row in zip(dec.block_ids(), bw, ew)
        }
    out = Path(args.out) / "analysis.json"
    _write_json(out, report)
    print(f"wrote {out}")
    return 0


def _mixture_payload(mixture) -> dict:
    root_n = float(np.sqrt(mixture.horizon))
    return {
        "horizon": mixture.horizon,
        "components": [
            {
                "weight": float(w),
                "mean_rate": [float(v) for v in g.mean_rate],
                "mean": [float(root_n * v) for v in g.mean_rate],
                "covariance": [[float(v) for v in row] for row in g.covariance],
            }
            for w, g in mixture.components
        ],
    }


def _mixture_from_payload(data: dict):
    comps = [
        (
            item["weight"],
            asymptotics.GaussianComponent(
                np.array(item["mean_rate"]), np.array(item["covariance"])
            ),
        )
        for item in data["components"]
    ]
    return asymptotics.MixtureModel(components=comps, horizon=int(data["horizon"]))


def cmd_clt(args) -> int:
    model = _load_model(args.model)
    rho = _load_state(args.state)
    axis = _parse_axis(args.axis, model.lattice_dim)
    dec = structure.decompose(model, seed=args.seed)
    out_dir = Path(args.out)
    for n in _parse_int_list(args.steps):
        mixture = asymptotics.clt_mixture(model, dec, rho, n)
        _write_json(out_dir / f"mixture_n{n}.json", _mixture_payload(mixture))
        if args.grid:
            xs = _parse_grid(args.grid)
        else:
            comps = empirics._projected_components(mixture, axis)
            lo = min(mu - 4 * max(s, 1.0) for _, mu, s in comps)
            hi = max(mu + 4 * max(s, 1.0) for _, mu, s in comps)
            xs = np.linspace(lo, hi, 201)
        cdf = empirics.mixture_cdf(mixture, xs, axis)
        rows = [[_fmt(x), _fmt(v)] for x, v in zip(xs, cdf)]
        _write_csv(out_dir / f"clt_cdf_n{n}.csv", ["x", "F_mix"], rows)
        print(f"wrote mixture_n{n}.json and clt_cdf_n{n}.csv")
    return 0


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    rho = _load_state(args.state)
    track_ids = []
    for spec_item in args.enclosure_track or []:
        track_ids.extend(t for t in spec_item.split(",") if t)
    tracks = {}
    if track_ids:
        dec = structure.decompose(model, seed=args.seed)
        tracks = _resolve_tracks(model, dec, track_ids)
    out_dir = Path(args.out)
    for n in _parse_int_list(args.steps):
        config = simulate.SimConfig(
            steps=n,
            trajectories=args.traj,
            seed=args.seed,
            y_stride=args.y_stride,
        )
        start = time.perf_counter()
        ensemble = simulate.run(model, rho, config, tracks)
        wall = time.perf_counter() - start
        header, rows = simulate.ensemble_to_csv_rows(ensemble)
        _write_csv(out_dir / f"ensemble_n{n}.csv", header, rows)
        _write_json(
            out_dir / f"manifest_n{n}.json",
            simulate.run_manifest(model, ensemble, wall),
        )
        print(f"wrote ensemble_n{n}.csv ({args.traj} trajectories, {wall:.1f}s)")
    return 0


def _read_ensemble_csv(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    x0_cols = [i for i, name in enumerate(header) if name.startswith("x0_")]
    x_cols = [
        i
        for i, name in enumerate(header)
        if name.startswith("x_") and not name.startswith("x0_")
    ]
    x0 = np.array([[float(r[i]) for i in x0_cols] for r in rows])
    x = np.array([[float(r[i]) for i in x_cols] for r in rows])
    return x0, x


def cmd_compare(args) -> int:
    ensembles = args.ensemble.split(",")
    predictions = args.prediction.split(",")
    if len(ensembles) != len(predictions):
        raise ValueError("need one prediction file per ensemble file")
    out_rows = []
    for ens_path, pred_path in zip(ensembles, predictions):
        manifest_path = args.manifest or ens_path.replace("ensemble_", "manifest_").replace(
            ".csv", ".json"
        )
        with _parsing(manifest_path), open(manifest_path) as fh:
            n = int(json.load(fh)["steps"])
        with _parsing(pred_path), open(pred_path) as fh:
            mixture = _mixture_from_payload(json.load(fh))
        if n != mixture.horizon:
            raise HorizonMismatchError(
                f"ensemble horizon {n} != prediction horizon {mixture.horizon}"
            )
        x0, x = _read_ensemble_csv(ens_path)
        disp = x - x0
        axis = _parse_axis(args.axis, disp.shape[1])
        values = (disp @ axis) / np.sqrt(n) if n > 0 else disp @ axis
        law = empirics.EmpiricalLaw1D(samples=values, horizon=n, count=len(values))
        report = empirics.w1_distance(law, mixture, axis)
        out_rows.append([str(n), str(len(values)), _fmt(report.w1), _fmt(report.ks)])
        print(f"n={n}: W1={report.w1:.5f} KS={report.ks:.5f}")
    _write_csv(Path(args.out) / "distances.csv", ["n", "N", "w1", "ks"], out_rows)
    return 0


def cmd_ldp(args) -> int:
    model = _load_model(args.model)
    rho = _load_state(args.state)
    d = model.lattice_dim
    axis = _parse_axis(args.axis, d)
    dec = structure.decompose(model, seed=args.seed)
    grid = _parse_grid(args.grid)
    label = "exact-LDP" if dec.is_recurrent else "bounds-only"

    header = (
        [f"x_{j + 1}" for j in range(d)]
        + ["Lambda"]
        + [f"ustar_{j + 1}" for j in range(d)]
        + ["block_id", "label"]
    )
    rows = []
    evaluations = []
    for t in grid:
        x = t * axis
        ev = asymptotics.rate_function(model, dec, rho, x)
        evaluations.append((t, ev))
        rows.append(
            [_fmt(v) for v in x]
            + [_fmt(ev.value)]
            + [_fmt(v) for v in ev.maximizer]
            + [ev.block_id, ev.label]
        )
    out_dir = Path(args.out)
    _write_csv(out_dir / "rate_sweep.csv", header, rows)
    print(f"wrote rate_sweep.csv ({label}, {len(rows)} points)")

    if args.ensemble and args.interval:
        lo, hi = (float(tok) for tok in args.interval.split(","))
        in_band = [ev.value for t, ev in evaluations if lo <= t <= hi]
        bound = -min(in_band) if in_band else None
        samples = []
        for ens_path in args.ensemble.split(","):
            manifest_path = ens_path.replace("ensemble_", "manifest_").replace(
                ".csv", ".json"
            )
            with _parsing(manifest_path), open(manifest_path) as fh:
                n = int(json.load(fh)["steps"])
            x0, x = _read_ensemble_csv(ens_path)
            samples.append((n, x - x0))
        decay_rows = [
            [str(n), _fmt(rate), _fmt(bound) if bound is not None else ""]
            for n, rate, bound in empirics.ldp_estimate(samples, (lo, hi), bound, axis)
        ]
        _write_csv(
            out_dir / "ldp_decay.csv",
            ["n", "log_freq_over_n", "rate_bound"],
            decay_rows,
        )
        print("wrote ldp_decay.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqwalk",
        description="Structure analysis, asymptotics and Monte Carlo checks "
        "for homogeneous open quantum random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state_required=True):
        p.add_argument("--model", required=True, help="model JSON file")
        if state_required is not None:
            p.add_argument(
                "--state", required=state_required, help="initial state JSON file"
            )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check the model file")
    common(p, state_required=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="export the space decomposition")
    common(p, state_required=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("clt", help="Gaussian-mixture prediction per horizon")
    common(p)
    p.add_argument("--steps", required=True, help="comma-separated horizons")
    p.add_argument("--axis", default=None)
    p.add_argument("--grid", default=None, help="lo:hi:step for the CDF table")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("simulate", help="run trajectory ensembles")
    common(p)
    p.add_argument("--steps", required=True, help="comma-separated horizons")
    p.add_argument("--traj", type=int, required=True)
    p.add_argument("--y-stride", type=int, default=1)
    p.add_argument(
        "--enclosure-track",
        action="append",
        default=None,
        help="block id (e.g. block-1) whose absorption value is recorded",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="W1/KS between ensembles and predictions")
    p.add_argument("--ensemble", required=True, help="ensemble CSV file(s)")
    p.add_argument("--prediction", required=True, help="mixture JSON file(s)")
    p.add_argument("--manifest", default=None)
    p.add_argument("--axis", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ldp", help="rate-function sweep and decay estimates")
    common(p)
    p.add_argument("--grid", required=True, help="lo:hi:step sweep grid")
    p.add_argument("--axis", default=None)
    p.add_argument("--ensemble", default=None, help="ensemble CSVs for decay rates")
    p.add_argument("--interval", default=None, help="lo,hi window for decay rates")
    p.set_defaults(func=cmd_ldp)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; report those as input errors
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except NotTracePreservingError as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, InputError, ValueError, HorizonMismatchError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OQWalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
