"""oqwalk benchmark: one workload, closed loop, for a fixed number of seconds.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_h4 --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``. Set-up (import of
``oqwalk``, fixture load or model generation, and one smoke-sized warm-up
pass) is timed in this process and in ``SETUP_PROBES`` fresh processes; the
median is ``setup_s``. Then passes run back to back until the next one would
end past ``--seconds``; each pass's output is checked outside the timed
region. With ``--trace 1`` odd passes run with the span tracer installed and
even passes without it, so one run yields the per-layer numbers and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show every metric with its unit and sample count and the environment.
A full record (samples, environment, spans) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = {"full": 2, "smoke": 1}
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
BATCHES = 4


def blas_env(environ) -> dict:
    """Environment with one BLAS/OpenMP thread: the loop is serial, and a second
    thread made h=16 passes no faster on a 2-core machine, only noisier."""
    env = dict(environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def set_up(args):
    """Import the program from the checkout, build the workload, warm it up."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import oqwalk

    if not Path(oqwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"oqwalk imported from {oqwalk.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    tmp = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    warm = cls(ROOT, tmp / "warm-up", args.seed, "smoke")
    out = warm.run_pass(0, _no_span)
    problems = warm.check(out)
    shutil.rmtree(tmp, ignore_errors=True)
    if problems:
        raise RuntimeError(f"warm-up pass failed its checks: {problems}")
    workload = cls(ROOT, tmp, args.seed, args.size)
    return workload, time.perf_counter() - start


def _no_span(name):
    return contextlib.nullcontext()


def probe_setup(args) -> list:
    """Set-up times of fresh processes, one after another."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        proc = subprocess.run(
            cmd, cwd=ROOT, env=blas_env(os.environ), capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail_percentile(samples: list):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    eligible = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if not eligible:
        return None, None
    p = eligible[-1]
    ordered = sorted(samples)
    return p, ordered[min(n - 1, int(round(p / 100 * (n - 1))))]


def batch_median(samples: list) -> float:
    """Median over consecutive batches of the batch's mean.

    The machine's speed drifts over tens of seconds, so consecutive passes
    come in slow and fast stretches; batch means smooth a stretch before the
    median discards an outlying batch.
    """
    size, extra = divmod(len(samples), BATCHES)
    batches, start = [], 0
    for b in range(min(BATCHES, len(samples))):
        end = start + size + (b < extra)
        batches.append(statistics.fmean(samples[start:end]))
        start = end
    return statistics.median(batches)


def measure(workload, seconds: float, trace: bool, tracer):
    """Closed loop of passes; returns per-pass records."""
    passes = []
    start = time.perf_counter()
    index = 0
    while True:
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        expected = statistics.median(untraced) if untraced else 0.0
        enough = len(untraced) >= 1 and (not trace or len(passes) >= 2)
        if enough and time.perf_counter() + expected > start + seconds:
            break
        traced = trace and index % 2 == 1
        out, problems = None, []
        t0 = time.perf_counter()
        # a failed operation is counted, not fatal
        try:
            if traced:
                with tracer.traced_pass(index):
                    out = workload.run_pass(index, tracer.span)
            else:
                out = workload.run_pass(index, _no_span)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        if out is not None:
            try:
                problems = workload.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if traced:
                tracer.count("cli.bytes_written", workload.output_bytes(out), pass_id=index)
            workload.cleanup(out)
        passes.append({"index": index, "traced": traced, "wall_s": wall, "problems": problems})
        index += 1
    return passes


def per_layer_metrics(spec: list, tracer, passes: list, workload) -> dict:
    totals = tracer.pass_totals()
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)

    def per_pass(key):
        return statistics.median(totals.get(p["index"], {}).get(key, 0.0) for p in traced)

    def ratio(num, den):
        den = per_pass(den)
        return per_pass(num) / den if den else 0.0

    legendre = "asymptotics.legendre"
    derived = {
        "simulate.ns_per_traj_step": 1e9 * ratio("simulate.run.total_s", "simulate.traj_steps"),
        "structure.recurrent_space.calls_per_model": per_pass("structure.recurrent_space.calls")
        / workload.models_per_pass,
        "asymptotics.log_lambda.calls_per_legendre": ratio(
            f"asymptotics.log_lambda.calls_under_{legendre}", f"{legendre}.calls"
        ),
        "channel.perron.calls_per_legendre": ratio(
            f"channel.perron.calls_under_{legendre}", f"{legendre}.calls"
        ),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_share_of_wall": per_pass("trace.top_level_s") / untraced_wall,
    }
    return {
        m["name"]: derived[m["name"]] if m["name"] in derived else per_pass(m["name"])
        for m in spec
    }


def environment() -> dict:
    """Hardware and software fingerprint of this run."""
    # imported here, not at the top, so that set-up times their import
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the cap we set."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "oqwalk" / "__init__.py").is_file():
        print("error: run from the root of an oqwalk checkout (BENCHMARK.json, src/oqwalk)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(blas_env(os.environ))

    if args.setup_probe:
        _, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = probe_setup(args)
    workload, own_setup = set_up(args)
    setup_samples.append(own_setup)

    from tracing import Tracer

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer(run_id)
    try:
        passes = measure(workload, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workload.tmp, ignore_errors=True)

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    wall = batch_median(untraced)
    failed = sum(1 for p in passes if p["problems"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "wall_s": (wall, len(untraced), untraced),
        "work_per_s": (workload.work_per_pass / wall, len(untraced),
                       [workload.work_per_pass / w for w in untraced]),
        "setup_s": (statistics.median(setup_samples), len(setup_samples), setup_samples),
        "peak_rss_mb": (peak_rss_mb, 1, [peak_rss_mb]),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(passes)} passes, {failed} failed, "
          f"work unit {workload.work_unit} ({workload.work_per_pass} per pass)")
    print("#   metric         reported     unit   per-sample median, tail, count")
    for name, (value, n, samples) in end_to_end.items():
        # the slow tail of a throughput is its low end
        p, tail = tail_percentile([-x for x in samples] if name == "work_per_s" else samples)
        tail_text = f"p{p:g} {abs(tail):.6g}" if p is not None else "no tail (n<20)"
        print(f"#   {name:<14} {value:<12.6g} {units[name]:<6} median "
              f"{statistics.median(samples):.6g}, {tail_text}, n={n}")
    print(f"#   failed_frac    {failed / len(passes):.6g}  ({failed}/{len(passes)})")
    print("# env " + json.dumps(env, sort_keys=True))
    for p in passes:
        for problem in p["problems"][:5]:
            print(f"# pass {p['index']} FAILED: {problem}", file=sys.stderr)

    if args.trace:
        layer = per_layer_metrics(spec["per_layer"], tracer, passes, workload)
        for name, value in layer.items():
            print(f"#   {name:<48} {value:.6g} {units[name]}  "
                  f"(median of {sum(p['traced'] for p in passes)} traced passes)")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layer.items()}
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "run_id": run_id,
        "args": vars(args),
        "environment": env,
        "passes": passes,
        "setup_samples": setup_samples,
        "metrics": metrics,
    }
    if args.trace:
        record["trace"] = tracer.dump()
    with gzip.open(OUT_DIR / f"{run_id}.json.gz", "wt") as fh:
        json.dump(record, fh)

    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
