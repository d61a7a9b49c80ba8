"""Batch command-line interface.

JSON models and states in, CSV/JSON reports out; no interactive mode. Every
command is deterministic given its input files and flags; the only
non-reproducible output field is the wall time recorded in run manifests.
Only ``simulate`` takes ``--seed``, for its trajectory streams; every
command decomposes the model by ``structure.decompose(model)``. This module
owns the ensemble files ``ensemble_n<n>.csv`` and ``manifest_n<n>.json``:
``simulate`` writes them, ``compare`` and ``ldp`` read them. Every CSV file
is written by ``_write_csv``, and every JSON file by ``channel.write_json``.

Exit codes: 0 success, 1 I/O or parse failure, 2 model validation failure,
3 numerical failure. Any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import asymptotics, empirics, simulate, structure
from .channel import WalkModel, matrix_to_json, write_json
from .errors import NotTracePreservingError, OQWalkError
from .structure import DiagonalState

# most points a --grid may have: a grid is allocated whole before any work
GRID_MAX_POINTS = 1_000_000


def _parse_horizons(text: str) -> list:
    """The ``--steps`` horizons, in the order given; an empty list, a
    negative horizon or one that is not an integer is an InputError."""
    with _parsing(f"--steps {text!r}"):
        horizons = [int(tok) for tok in text.split(",") if tok.strip()]
    if not horizons or min(horizons) < 0:
        raise InputError(f"--steps: need horizons n >= 0, got {text!r}")
    return horizons


def _parse_grid(text: str) -> np.ndarray:
    """The points lo, lo + step, ... up to hi of a ``lo:hi:step`` grid. A
    grid that does not parse, is not finite, has a step <= 0 or hi < lo, or
    has more than ``GRID_MAX_POINTS`` points is an InputError."""
    with _parsing(f"--grid {text!r}"):
        lo, hi, step = (float(tok) for tok in text.split(":"))
        span = (hi - lo) / step if step > 0 else float("nan")
        if not (np.isfinite([lo, hi, step, span]).all() and hi >= lo):
            raise InputError(f"--grid: need finite lo <= hi and step > 0, got {text!r}")
        count = int(np.floor(span + 1e-9)) + 1
        if count > GRID_MAX_POINTS:
            raise InputError(f"--grid: {text!r} has {count} points, more than {GRID_MAX_POINTS}")
        return lo + step * np.arange(count)


def _parse_interval(text: str) -> tuple[float, float]:
    """The ``lo,hi`` window of ``ldp --interval``; one that does not parse,
    is not finite or has hi < lo is an InputError."""
    with _parsing(f"--interval {text!r}"):
        lo, hi = (float(tok) for tok in text.split(","))
    if not (np.isfinite([lo, hi]).all() and lo <= hi):
        raise InputError(f"--interval: need finite lo <= hi, got {text!r}")
    return lo, hi


def _horizon(name: str, value) -> int:
    """The horizon ``value`` that a file gives as ``name``; one that is not
    a JSON integer (a bool is not) or is negative is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} {json.dumps(value)} is not an integer")
    if value < 0:
        raise ValueError(f"{name} {value} is negative")
    return value


def _write_csv(path: Path, header: list, rows) -> None:
    """Write the str fields of ``header`` and ``rows`` comma-separated, with
    CRLF line ends and no quoting, making the parent directory: the one
    layout of every CSV file oqwalk writes. No field holds a comma, a quote
    or a line end, so these are the bytes of ``csv.writer``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n"
    path.write_text(text, newline="")


def _fmt(x: float) -> str:
    return repr(float(x))


class InputError(Exception):
    """An input file or argument that does not parse."""


@contextmanager
def _parsing(what: str):
    """Report a malformed ``what`` as an InputError (exit code 1); that
    includes numbers that fail a library check, such as a prediction file
    whose covariance is not positive semidefinite."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"{what}: {type(exc).__name__}: {exc}") from exc


def _parse_axis(text, dim: int) -> np.ndarray:
    """The ``--axis`` projection vector for ``dim`` lattice dimensions (by
    default (1,) when dim = 1). A missing axis for dim > 1, or one with
    other than ``dim`` components or with an entry that is not finite, is an
    InputError."""
    with _parsing(f"--axis {text!r}" if text else "--axis"):
        axis = [float(tok) for tok in text.split(",") if tok.strip()] if text else None
        return empirics._resolve_axis(dim, axis)


def _load_model(path: str) -> WalkModel:
    with _parsing(path):
        return WalkModel.load(path)


def _load_state(path: str, model: WalkModel) -> DiagonalState:
    """The initial state in ``path``; one whose operators or sites do not
    fit ``model`` is an InputError."""
    with _parsing(path):
        rho = DiagonalState.load(path)
        k, d = model.local_dim, model.lattice_dim
        if rho.local_dim != k or rho.lattice_dim != d:
            raise ValueError(f"the model needs {k}x{k} operators on sites in Z^{d}")
    return rho


def _resolve_tracks(model, track_ids) -> dict:
    """Absorption-operator matrix of each block id (``block-1``) or minimal
    enclosure id (``block-0/min-0``) of the decomposition ``analyze`` reports;
    any other spelling is an InputError."""
    dec = structure.decompose(model)
    subspaces = {}
    for bid, block in zip(dec.block_ids(), dec.blocks):
        subspaces[bid] = block.subspace
        subspaces.update((f"{bid}/min-{j}", sub) for j, sub in enumerate(block.minimal_enclosures))
    unknown = [tid for tid in track_ids if tid not in subspaces]
    if unknown:
        raise InputError(f"enclosure tracks {unknown}: the ids are {sorted(subspaces)}")
    return {tid: structure.absorption(model, subspaces[tid]).matrix for tid in track_ids}


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    print(f"kraus normalization defect: {model.normalization_defect():.3e}")
    dec = structure.decompose(model)
    total = sum(structure.absorption(model, b.subspace).matrix for b in dec.blocks)
    defect = float(np.linalg.norm(total - np.eye(model.local_dim)))
    print(f"blocks: {len(dec.blocks)}, transient dim: {dec.transient.dim}")
    print(f"absorption completeness defect: {defect:.3e}")
    if defect > 1e-8:
        raise OQWalkError("absorption operators do not sum to the identity")
    print("ok")
    return 0


def cmd_analyze(args) -> int:
    model = _load_model(args.model)
    dec = structure.decompose(model)
    report = {
        "local_dim": model.local_dim,
        "lattice_dim": model.lattice_dim,
        "recurrent": {"dim": dec.recurrent.dim, "basis": matrix_to_json(dec.recurrent.basis)},
        "transient": {"dim": dec.transient.dim, "basis": matrix_to_json(dec.transient.basis)},
        "blocks": [],
    }
    for bid, block in zip(dec.block_ids(), dec.blocks):
        absorb = structure.absorption(model, block.subspace)
        report["blocks"].append(
            {
                "id": bid,
                "dim": block.subspace.dim,
                "multiplicity": block.multiplicity,
                "basis": matrix_to_json(block.subspace.basis),
                "minimal_enclosures": [
                    matrix_to_json(sub.basis) for sub in block.minimal_enclosures
                ],
                "invariant_state": matrix_to_json(block.invariant_state),
                "absorption": matrix_to_json(absorb.matrix),
            }
        )
    if args.state:
        rho = _load_state(args.state, model)
        bw, ew = structure.weights(model, dec, rho)
        report["weights"] = {
            bid: {"block": w, "enclosures": row}
            for bid, w, row in zip(dec.block_ids(), bw, ew)
        }
    out = Path(args.out) / "analysis.json"
    write_json(out, report)
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
    return asymptotics.MixtureModel(comps, _horizon("horizon", data["horizon"]))


def cmd_clt(args) -> int:
    horizons = _parse_horizons(args.steps)
    grid = _parse_grid(args.grid) if args.grid else None
    model = _load_model(args.model)
    rho = _load_state(args.state, model)
    axis = _parse_axis(args.axis, model.lattice_dim)
    dec = structure.decompose(model)
    # the components do not depend on the horizon: compute them once
    limit = asymptotics.clt_mixture(model, dec, rho, horizons[0])
    out_dir = Path(args.out)
    for n in horizons:
        mixture = replace(limit, horizon=n)
        write_json(out_dir / f"mixture_n{n}.json", _mixture_payload(mixture))
        xs = grid
        if xs is None:
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
    horizons = _parse_horizons(args.steps)
    with _parsing("--traj/--y-stride/--seed"):
        config = simulate.SimConfig(
            steps=max(horizons),
            trajectories=args.traj,
            seed=args.seed,
            y_stride=args.y_stride,
            horizons=tuple(horizons),
        )
    model = _load_model(args.model)
    rho = _load_state(args.state, model)
    track_ids = [t for item in args.enclosure_track or [] for t in item.split(",") if t]
    tracks = _resolve_tracks(model, track_ids) if track_ids else {}
    out_dir = Path(args.out)
    # one run to the longest horizon serves every horizon
    start = time.perf_counter()
    try:
        full = simulate.run(model, rho, config, tracks)
    except ValueError as exc:  # positions that would not fit in int64
        raise InputError(str(exc)) from exc
    wall = time.perf_counter() - start
    # what every horizon shares is formatted once: the x0 columns, and the
    # manifest but for its steps
    x0_columns = [list(map(str, col)) for col in full.initial_positions.T.tolist()]
    manifest = _manifest(model, full, wall)
    for n in horizons:
        ensemble = full.at(n)
        _write_csv(out_dir / f"ensemble_n{n}.csv", *_ensemble_rows(ensemble, x0_columns))
        write_json(out_dir / f"manifest_n{n}.json", {**manifest, "steps": n})
        print(f"wrote ensemble_n{n}.csv ({args.traj} trajectories, {wall:.1f}s)")
    return 0


def _ensemble_rows(ensemble: simulate.TrajectoryEnsemble, x0_columns: list) -> tuple[list, list]:
    """Header and rows of ``ensemble_n<n>.csv``, one line per trajectory;
    ``x0_columns`` holds the initial positions as str, one list per axis."""
    d = ensemble.final_positions.shape[1]
    track_ids = sorted(ensemble.y_tracks.keys())
    header = [f"{x}_{j + 1}" for x in ("x0", "x") for j in range(d)]
    header += [f"y_{tid}" for tid in track_ids]
    # whole columns at once: ``tolist`` yields Python ints and floats, whose
    # str and repr are those of int(v) and float(v)
    columns = [map(str, col) for col in ensemble.final_positions.T.tolist()]
    columns += [map(repr, ensemble.final_track(tid).tolist()) for tid in track_ids]
    return header, list(zip(*x0_columns, *columns))


def _manifest(model: WalkModel, ensemble: simulate.TrajectoryEnsemble, wall_time: float) -> dict:
    """Contents of ``manifest_n<n>.json``: the run's settings, the model's
    hash and the wall time of the run."""
    cfg = ensemble.config
    model_json = json.dumps(model.to_json_dict(), sort_keys=True).encode()
    return {
        "model_sha256": hashlib.sha256(model_json).hexdigest(),
        "steps": cfg.steps,
        "trajectories": cfg.trajectories,
        "seed": cfg.seed,
        "y_stride": cfg.y_stride,
        "tracks": sorted(ensemble.y_tracks.keys()),
        "wall_time_seconds": wall_time,
    }


def _read_ensemble(path: str) -> tuple[int, np.ndarray]:
    """Horizon and (N, d) displacements of an ``ensemble_n<n>.csv`` that
    ``simulate`` wrote, the horizon read from the ``manifest_n<n>.json``
    beside it; a bad horizon (see ``_horizon``), or a position that is not
    a finite integer, is an InputError."""
    csv_path = Path(path)
    manifest = csv_path.with_name(csv_path.stem.replace("ensemble_", "manifest_") + ".json")
    with _parsing(manifest), open(manifest) as fh:
        steps = _horizon("steps", json.load(fh)["steps"])
    with _parsing(path):
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)  # None for an empty file
            rows = fh.read().splitlines()
        if not rows:
            raise ValueError("no trajectories")
        x0 = [i for i, name in enumerate(header) if name.startswith("x0_")]
        x = [i for i, name in enumerate(header) if name.startswith("x_")]
        positions = np.loadtxt(rows, delimiter=",", usecols=x0 + x, ndmin=2)
        if not np.all(np.isfinite(positions) & (positions == np.round(positions))):
            raise ValueError("positions must be finite integers")
    return steps, positions[:, len(x0) :] - positions[:, : len(x0)]


def cmd_compare(args) -> int:
    ensembles = args.ensemble.split(",")
    predictions = args.prediction.split(",")
    if len(ensembles) != len(predictions):
        raise InputError("need one prediction file per ensemble file")
    runs = []
    for ens_path, pred_path in zip(ensembles, predictions):
        n, disp = _read_ensemble(ens_path)
        with _parsing(pred_path), open(pred_path) as fh:
            mixture = _mixture_from_payload(json.load(fh))
        if n != mixture.horizon:
            raise InputError(
                f"ensemble horizon {n} != prediction horizon {mixture.horizon}"
            )
        if any(g.mean_rate.size != disp.shape[1] for _, g in mixture.components):
            raise InputError(
                f"{pred_path}: prediction lattice dimension does not match the "
                f"{disp.shape[1]}-dimensional ensemble {ens_path}"
            )
        runs.append((n, disp, mixture, _parse_axis(args.axis, disp.shape[1])))
    out_rows = []
    for n, disp, mixture, axis in runs:
        law = empirics.rescaled_law(disp, n, axis)
        report = empirics.w1_distance(law, mixture, axis)
        out_rows.append([str(n), str(law.count), _fmt(report.w1), _fmt(report.ks)])
        print(f"n={n}: W1={report.w1:.5f} KS={report.ks:.5f}")
    _write_csv(Path(args.out) / "distances.csv", ["n", "N", "w1", "ks"], out_rows)
    return 0


def cmd_ldp(args) -> int:
    grid = _parse_grid(args.grid)
    model = _load_model(args.model)
    rho = _load_state(args.state, model)
    d = model.lattice_dim
    axis = _parse_axis(args.axis, d)
    with np.errstate(over="ignore"):
        points = grid[:, None] * axis
    if not np.all(np.isfinite(points)):
        raise InputError("--grid/--axis: the sweep points are not finite")
    decay = args.ensemble is not None
    if decay != (args.interval is not None):
        raise InputError("--ensemble and --interval go together: give both or neither")
    if decay:
        lo, hi = _parse_interval(args.interval)
        samples = [_read_ensemble(path) for path in args.ensemble.split(",")]
        if any(n < 1 or disp.shape[1] != d for n, disp in samples):
            raise InputError(f"--ensemble: need {d}-dimensional ensembles of n >= 1 steps")
    dec = structure.decompose(model)

    header = (
        [f"x_{j + 1}" for j in range(d)]
        + ["Lambda"]
        + [f"ustar_{j + 1}" for j in range(d)]
        + ["block_id", "label"]
    )
    evaluations = asymptotics.rate_function(model, dec, rho, points)
    rows = [
        [_fmt(v) for v in ev.point]
        + [_fmt(ev.value)]
        + [_fmt(v) for v in ev.maximizer]
        + [ev.block_id, ev.label]
        for ev in evaluations
    ]
    out_dir = Path(args.out)
    _write_csv(out_dir / "rate_sweep.csv", header, rows)
    print(f"wrote rate_sweep.csv ({evaluations[0].label}, {len(rows)} points)")

    if decay:
        in_band = [ev.value for ev in evaluations if lo <= ev.point @ axis <= hi]
        bound = _fmt(-min(in_band)) if in_band else ""
        estimates = empirics.ldp_estimate(samples, (lo, hi), axis)
        decay_rows = [[str(n), _fmt(rate), bound] for n, rate in estimates]
        _write_csv(out_dir / "ldp_decay.csv", ["n", "log_freq_over_n", "rate_bound"], decay_rows)
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
        p.add_argument("--state", required=state_required, help="initial state JSON file")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("validate", help="check the model file")
    p.add_argument("--model", required=True, help="model JSON file")
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
    p.add_argument("--seed", type=int, default=0, help="seed of the trajectory streams")
    p.add_argument("--y-stride", type=int, default=1)
    p.add_argument(
        "--enclosure-track",
        action="append",
        default=None,
        help="block id (e.g. block-1) or enclosure id (block-0/min-0), as analyze "
        "numbers them, whose absorption value is recorded",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="W1/KS between ensembles and predictions")
    p.add_argument("--ensemble", required=True, help="ensemble CSV file(s)")
    p.add_argument("--prediction", required=True, help="mixture JSON file(s)")
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
    except (OSError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OQWalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
