"""The benchmark's own tests.

Run from the root of the checkout:

    python3 -m pytest perfbench -q

They check the reducible-model generator against ``decompose`` on several
seeds and run every workload at smoke size, untraced and traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oqwalk.structure import decompose  # noqa: E402
from reducible import reducible_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
H8 = dict(enclosure_dim=2, multiplicity=2, simple_dim=2, transient_dim=2)
H16 = dict(enclosure_dim=3, multiplicity=2, simple_dim=6, transient_dim=4)
# per-layer metrics a workload never reaches (prefixes); they must read 0 and
# every other per-layer metric must be positive
NOT_CALLED = {
    "certify_h4": (
        "asymptotics.rate_function.", "asymptotics.legendre.", "asymptotics.log_lambda.",
        "asymptotics.lambda_split_check.", "channel.perron.calls_per_legendre",
        "empirics.rescale.", "cli.ldp.",
    ),
    "rates_h3": (
        "simulate.", "asymptotics.clt_mixture.", "asymptotics.diffusion.",
        "asymptotics.poisson_solve.", "asymptotics.lambda_split_check.", "empirics.",
        "cli.clt.", "cli.simulate.", "cli.compare.",
    ),
    "analysis_h16": (
        "asymptotics.rate_function.", "asymptotics.legendre.",
        "asymptotics.log_lambda.calls_per_legendre", "channel.perron.calls_per_legendre",
        "cli.",
    ),
}
# no code path at this commit warns inside absorption; the overhead is a
# difference of two medians and may have either sign
UNSIGNED = {"structure.absorption.fallback_warnings", "trace.overhead_s"}


def _angle(a, b) -> float:
    """Sine of the largest principal angle between two subspaces."""
    return float(np.linalg.norm(a.projector() - b.projector(), ord=2))


@pytest.mark.parametrize(
    "spec,seed", [(H8, s) for s in range(8)] + [(H16, s) for s in range(4)]
)
def test_decompose_recovers_generated_structure(spec, seed):
    rm = reducible_model(seed, **spec)
    assert rm.local_dim == spec["enclosure_dim"] * spec["multiplicity"] + spec[
        "simple_dim"
    ] + spec["transient_dim"]
    assert rm.model.normalization_defect() < 1e-12
    dec = decompose(rm.model, seed=0)
    assert dec.transient.dim == spec["transient_dim"]
    got = sorted(
        (b.minimal_enclosures[0].dim, b.multiplicity, b.subspace.dim) for b in dec.blocks
    )
    assert got == sorted(
        [
            (spec["enclosure_dim"], spec["multiplicity"], spec["enclosure_dim"] * spec["multiplicity"]),
            (spec["simple_dim"], 1, spec["simple_dim"]),
        ]
    )
    multiple = next(b for b in dec.blocks if b.multiplicity > 1)
    simple = next(b for b in dec.blocks if b.multiplicity == 1)
    assert _angle(multiple.subspace, rm.multiple_block) < 1e-6
    assert _angle(simple.subspace, rm.simple_block) < 1e-6


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values()), values
    else:
        idle = {n for n in values if n.startswith(NOT_CALLED[workload])}
        assert all(values[n] == 0 for n in idle), {n: values[n] for n in idle}
        busy = set(values) - idle - UNSIGNED
        assert all(values[n] > 0 for n in busy), {n: values[n] for n in busy if values[n] <= 0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify_h4", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
