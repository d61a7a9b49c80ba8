"""The benchmark's workloads: set-up, one pass of program work, output checks.

Every workload is a serial closed loop with one client: the benchmark starts
a pass when the previous one has returned. Pass inputs are drawn from
``numpy.random.default_rng([seed, pass index])``, so a seed fixes every input
of a run, and the program sees only those generated inputs.

A pass returns what its checks need; ``check`` lists every way the output is
wrong (an empty list means correct). Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from oqwalk import asymptotics, cli, empirics, simulate, structure
from oqwalk.structure import DiagonalState
from reducible import reducible_model

FOUR_STATE = "fixtures/four_state_p3_sixth.json"
FOUR_STATE_EDGE = "fixtures/state_four_transient.json"
COMMUTING = "fixtures/commuting_diag.json"
COMMUTING_MIXED = "fixtures/state_commuting_mixed.json"


def bernoulli_rate(x: float, p_right: float) -> float:
    """Cramer rate of a +/-1 step with right probability p_right, |x| < 1."""
    q_plus, q_minus = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    acc = 0.0
    if q_plus > 0:
        acc += q_plus * math.log(q_plus / p_right)
    if q_minus > 0:
        acc += q_minus * math.log(q_minus / (1.0 - p_right))
    return acc


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Base class: ``root`` is the checkout, ``tmp`` a scratch directory in it."""

    name = ""
    work_unit = ""
    models_per_pass = 1

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root = root
        self.tmp = tmp
        self.seed = seed

    def pass_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def run_pass(self, index: int, span) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list:
        raise NotImplementedError

    def output_bytes(self, out: dict) -> int:
        """Bytes of the files a pass wrote."""
        d = out.get("dir")
        return sum(p.stat().st_size for p in d.rglob("*") if p.is_file()) if d else 0

    def cleanup(self, out: dict) -> None:
        if "dir" in out:
            shutil.rmtree(out["dir"], ignore_errors=True)


class CliWorkload(Workload):
    """Workloads that drive ``oqwalk.cli.main`` in-process."""

    def pass_dir(self, index: int) -> Path:
        d = self.tmp / f"pass-{index}"
        d.mkdir(parents=True)
        return d

    def cli(self, span, out: dict, *argv) -> None:
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        out.setdefault("exit_codes", []).append((argv[0], code, sink.getvalue()[-300:]))

    def exit_problems(self, out: dict) -> list:
        return [
            f"{cmd} exited {code}: {tail.strip()}"
            for cmd, code, tail in out.get("exit_codes", [])
            if code != 0
        ]


class CertifyH4(CliWorkload):
    """README pipeline clt -> simulate -> compare on the four-level fixture."""

    name = "certify_h4"
    work_unit = "traj_steps"

    def __init__(self, root, tmp, seed, size):
        super().__init__(root, tmp, seed)
        # the horizons of the README's clt call and of acceptance criterion 07
        self.horizons = (50, 600)
        self.trajectories = 256 if size == "smoke" else 4096
        # W1 at n=600 carries the sampling error of the block weights times the
        # drift gap sqrt(600)/3: about 0.05 at 4096 trajectories, against 0.3 at
        # n=50, but 0.2 at 256, where W1 rose on 19 of 51 smoke passes
        self.check_w1_falls = size != "smoke"
        self.work_per_pass = self.trajectories * sum(self.horizons)

    def run_pass(self, index, span):
        d = self.pass_dir(index)
        out = {"dir": d}
        n1, n2 = self.horizons
        sim_seed = int(self.pass_rng(index).integers(2**31))
        model, state = self.root / FOUR_STATE, self.root / FOUR_STATE_EDGE
        steps = f"{n1},{n2}"
        self.cli(span, out, "clt", "--model", model, "--state", state, "--steps", steps, "--out", d)
        self.cli(
            span, out, "simulate", "--model", model, "--state", state, "--steps", steps,
            "--traj", self.trajectories, "--seed", sim_seed, "--y-stride", n1,
            "--enclosure-track", "block-1", "--out", d,
        )
        self.cli(
            span, out, "compare",
            "--ensemble", f"{d}/ensemble_n{n1}.csv,{d}/ensemble_n{n2}.csv",
            "--prediction", f"{d}/mixture_n{n1}.json,{d}/mixture_n{n2}.json",
            "--out", d,
        )
        return out

    def check(self, out):
        problems = self.exit_problems(out)
        if problems:
            return problems
        d = out["dir"]
        n1, n2 = self.horizons
        # drift 0 / variance 1 (multiplicity-two block, weight 2/3) and
        # drift -1/3 / variance 8/9 (edge block, weight 1/3)
        expected = sorted([(0.0, 1.0, 2 / 3), (-1 / 3, 8 / 9, 1 / 3)])
        for n in (n1, n2):
            with open(d / f"mixture_n{n}.json") as fh:
                comps = json.load(fh)["components"]
            got = sorted(
                (c["mean_rate"][0], c["covariance"][0][0], c["weight"]) for c in comps
            )
            if len(got) != 2 or any(
                abs(a - b) > 1e-8 for g, e in zip(got, expected) for a, b in zip(g, e)
            ):
                problems.append(f"n={n}: mixture components {got} != {expected}")
        # Y_n = Tr(A rho_n) is a martingale, so its ensemble mean estimates the
        # absorption fraction Tr(A rho_0) = 1/3 at any horizon
        rows = _read_csv(d / f"ensemble_n{n2}.csv")
        y = np.array([float(r["y_block-1"]) for r in rows])
        tol = 5.0 * max(float(np.std(y)), 1e-3) / math.sqrt(len(y))
        if abs(float(np.mean(y)) - 1 / 3) > tol:
            problems.append(f"edge absorption fraction {np.mean(y):.4f} not within {tol:.4f} of 1/3")
        w1 = {int(r["n"]): float(r["w1"]) for r in _read_csv(d / "distances.csv")}
        if self.check_w1_falls and not w1.get(n2, math.inf) < w1.get(n1, -math.inf):
            problems.append(f"W1 did not fall from n={n1} to n={n2}: {w1}")
        return problems


class RatesH3(CliWorkload):
    """Two ``ldp`` sweeps: exact-LDP on the commuting fixture, bounds-only on
    the four-level fixture."""

    name = "rates_h3"
    work_unit = "rate_points"
    models_per_pass = 2
    DRIFTS = (-0.6, 0.4)  # block drifts of the commuting fixture
    P_RIGHT = (0.2, 0.7)

    def __init__(self, root, tmp, seed, size):
        super().__init__(root, tmp, seed)
        # exact grid: step divides the drift gap, so both drifts are grid points
        if size == "smoke":
            self.exact_step, self.exact_shifts, self.bounds_points = 1.0, 1, 1
        else:
            self.exact_step, self.exact_shifts, self.bounds_points = 0.25, 2, 2
        gap = self.DRIFTS[1] - self.DRIFTS[0]
        self.exact_points = round(gap / self.exact_step) + self.exact_shifts
        self.work_per_pass = self.exact_points + self.bounds_points

    def grids(self, index):
        rng = self.pass_rng(index)
        j = int(rng.integers(self.exact_shifts))
        lo = self.DRIFTS[0] - j * self.exact_step
        hi = lo + (self.exact_points - 1) * self.exact_step
        exact = f"{lo!r}:{hi + 0.5 * self.exact_step!r}:{self.exact_step!r}"
        blo = -0.75 + 0.1 * float(rng.random())
        bstep = 1.2 / max(self.bounds_points - 1, 1)
        bounds = f"{blo!r}:{blo + (self.bounds_points - 0.5) * bstep!r}:{bstep!r}"
        return exact, bounds

    def run_pass(self, index, span):
        exact, bounds = self.grids(index)
        out = {"dir": self.pass_dir(index)}
        out["exact_dir"], out["bounds_dir"] = out["dir"] / "exact", out["dir"] / "bounds"
        self.cli(
            span, out, "ldp", "--model", self.root / COMMUTING, "--state",
            self.root / COMMUTING_MIXED, f"--grid={exact}", "--out", out["exact_dir"],
        )
        self.cli(
            span, out, "ldp", "--model", self.root / FOUR_STATE, "--state",
            self.root / FOUR_STATE_EDGE, f"--grid={bounds}", "--out", out["bounds_dir"],
        )
        return out

    def check(self, out):
        problems = self.exit_problems(out)
        if problems:
            return problems
        rows = _read_csv(out["exact_dir"] / "rate_sweep.csv")
        if len(rows) != self.exact_points:
            problems.append(f"exact sweep has {len(rows)} points, not {self.exact_points}")
        for r in rows:
            x, value = float(r["x_1"]), float(r["Lambda"])
            closed = min(bernoulli_rate(x, p) for p in self.P_RIGHT)
            if r["label"] != "exact-LDP":
                problems.append(f"x={x}: label {r['label']!r}, not 'exact-LDP'")
            if not abs(value - closed) <= 1e-6:
                problems.append(f"x={x}: rate {value} != closed form {closed}")
            if min(abs(x - m) for m in self.DRIFTS) < 1e-9 and not abs(value) <= 1e-8:
                problems.append(f"rate {value} at block drift {x} is not 0")
        hits = sum(min(abs(float(r["x_1"]) - m) for m in self.DRIFTS) < 1e-9 for r in rows)
        if hits != len(self.DRIFTS):
            problems.append(f"exact sweep hit {hits} block drifts, not {len(self.DRIFTS)}")
        rows = _read_csv(out["bounds_dir"] / "rate_sweep.csv")
        if len(rows) != self.bounds_points:
            problems.append(f"bounds sweep has {len(rows)} points, not {self.bounds_points}")
        for r in rows:
            value = float(r["Lambda"])
            if r["label"] != "bounds-only":
                problems.append(f"four-state label {r['label']!r}, not 'bounds-only'")
            if not 0.0 <= value < math.inf:
                problems.append(f"four-state rate {value} is not finite and nonnegative")
        return problems


def reference_w1(samples, mixture, sub: int = 4000) -> float:
    """W1 between an empirical law and a one-dimensional mixture, by quadrature.

    It shares nothing with ``empirics.w1_distance`` but the inputs: the mixture
    CDF comes from ``math.erf`` per component, and integral |F_emp - F_mix| is
    taken by the midpoint rule on ``sub`` points between consecutive
    breakpoints, out to 12 standard deviations past the last component.
    """
    comps = []
    for w, g in mixture.components:
        mu = math.sqrt(mixture.horizon) * float(g.mean_rate[0])
        comps.append((w, mu, math.sqrt(max(float(g.covariance[0, 0]), 0.0))))
    spread = max(sigma for _, _, sigma in comps) or 1.0
    xs = np.sort(np.asarray(samples, dtype=float))
    lo = min(xs[0], min(mu for _, mu, _ in comps) - 12 * spread)
    hi = max(xs[-1], max(mu for _, mu, _ in comps) + 12 * spread)
    # atoms sit on breakpoints, so no midpoint falls on a jump of either CDF
    breaks = np.unique(np.concatenate([[lo, hi], xs, [mu for _, mu, _ in comps]]))
    frac = (np.arange(sub) + 0.5) / sub
    width = np.diff(breaks)
    x = (breaks[:-1, None] + width[:, None] * frac).ravel()
    f_mix = np.zeros_like(x)
    erf = np.vectorize(math.erf)
    for w, mu, sigma in comps:
        if sigma > 0:
            f_mix += w * 0.5 * (1.0 + erf((x - mu) / (sigma * math.sqrt(2.0))))
        else:
            f_mix += w * (x > mu)
    f_emp = np.searchsorted(xs, x, side="right") / len(xs)
    return float(np.sum(np.abs(f_emp - f_mix).reshape(len(width), sub).mean(axis=1) * width))


def _random_state(rng, dim: int) -> DiagonalState:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DiagonalState.single_site(rho / np.trace(rho).real)


class AnalysisH16(Workload):
    """Library-level analysis of generated reducible models at h=16 and h=8."""

    name = "analysis_h16"
    work_unit = "traj_steps"

    def __init__(self, root, tmp, seed, size):
        super().__init__(root, tmp, seed)
        if size == "smoke":
            n_h16, self.u_count, self.trajectories, self.steps = 0, 1, 64, 8
        else:
            n_h16, self.u_count, self.trajectories, self.steps = 3, 2, 384, 32
        # a stream of its own: pass indices never reach 2**32 - 1
        rng = np.random.default_rng([seed, 2**32 - 1])

        def case(**spec):
            rm = reducible_model(int(rng.integers(2**31)), **spec)
            return rm, _random_state(rng, rm.local_dim)

        self.h16 = [case() for _ in range(n_h16)]
        self.h8 = case(enclosure_dim=2, multiplicity=2, simple_dim=2, transient_dim=2)
        self.models_per_pass = len(self.pass_cases(0))
        self.work_per_pass = self.models_per_pass * self.trajectories * self.steps

    def pass_cases(self, index):
        """Passes take the h=16 models in turn, plus the h=8 one."""
        return ([self.h16[index % len(self.h16)]] if self.h16 else []) + [self.h8]

    def run_pass(self, index, span):
        rng = self.pass_rng(index)
        results = []
        for rm, rho in self.pass_cases(index):
            model = rm.model
            dec = structure.decompose(model, seed=0)
            absorption_sum = sum(
                structure.absorption(model, b.subspace).matrix for b in dec.blocks
            )
            block_weights, _ = structure.weights(model, dec, rho)
            mixture = asymptotics.clt_mixture(model, dec, rho, self.steps)
            simple = next(b for b in dec.blocks if b.multiplicity == 1)
            splits = [
                asymptotics.lambda_split_check(model, simple.subspace, rho, [u])
                for u in rng.uniform(-1.5, 1.5, self.u_count)
            ]
            config = simulate.SimConfig(
                steps=self.steps, trajectories=self.trajectories,
                seed=int(rng.integers(2**31)), y_stride=self.steps,
            )
            ensemble = simulate.run(model, rho, config)
            law = empirics.rescale(ensemble)
            report = empirics.w1_distance(law, mixture)
            results.append(
                {
                    "case": rm,
                    "blocks": sorted((b.minimal_enclosures[0].dim, b.multiplicity) for b in dec.blocks),
                    "transient_dim": dec.transient.dim,
                    "absorption_sum": absorption_sum,
                    "block_weights": block_weights,
                    "splits": splits,
                    "w1": report.w1,
                    "samples": law.samples,
                    "mixture": mixture,
                }
            )
        return {"results": results}

    def check(self, out):
        problems = []
        for r in out["results"]:
            rm = r["case"]
            h = rm.local_dim
            expected = sorted([(rm.enclosure_dim, rm.multiplicity), (rm.simple_dim, 1)])
            if r["blocks"] != expected or r["transient_dim"] != rm.transient_dim:
                problems.append(
                    f"h={h}: blocks {r['blocks']} / transient {r['transient_dim']} != "
                    f"{expected} / {rm.transient_dim}"
                )
            defect = float(np.linalg.norm(r["absorption_sum"] - np.eye(h)))
            if defect > 1e-8:
                problems.append(f"h={h}: absorption operators miss the identity by {defect:.2e}")
            if abs(sum(r["block_weights"]) - 1.0) > 1e-9:
                problems.append(f"h={h}: block weights sum to {sum(r['block_weights'])}")
            for lam_q, lam_v, lam_w in r["splits"]:
                if abs(lam_q - max(lam_v, lam_w)) > 1e-8 * max(1.0, lam_q):
                    problems.append(f"h={h}: lambda split {lam_q} != max({lam_v}, {lam_w})")
            reference = reference_w1(r["samples"], r["mixture"])
            if not math.isfinite(r["w1"]) or abs(r["w1"] - reference) > 1e-4 * reference:
                problems.append(f"h={h}: W1 {r['w1']} != quadrature reference {reference}")
        return problems


WORKLOADS = {w.name: w for w in (CertifyH4, RatesH3, AnalysisH16)}
