"""The benchmark's span tracer (``perfbench/tracing.py``) wraps library
functions by name and skips a name that no longer resolves, so a rename would
silently zero that layer's metrics; a benchmark call that no longer fits its
signature fails only the opt-in perfbench suite; and the experiment scripts
under ``scripts/`` are run by no test at all. These checks make all three
fail here instead. Two more keep the per-model memo behind its one
accessor, ``WalkModel.cached``, and every value it holds read-only; one pins
the bytes of the ``ldp`` sweeps on the fixtures, one those of ``analyze``
and ``clt``, one those of ``simulate`` and ``compare`` and one those of the
``ldp`` decay table, and one checks that the fixtures load and save to their
own bytes; one keeps each file layout behind its one writer; one keeps
numpy's ``SeedSequence`` out of the package, whose streams are keyed in one
place; one keeps every random generator out of ``structure.py``, whose block
split draws nothing; two keep the
superoperator of a channel view behind its one builder,
``ChannelView.matrix``; one keeps that matrix real with its transpose the
only dual map; and one keeps ``scipy.stats``, which about doubles the import
time, out of the package's imports. The last four keep the public surface
small and true: the package exports only its modules, every exception type
but the base class is caught by name somewhere in the package, every CLI
option is read by its command, and the README's command examples parse."""

import argparse
import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from util import FIXTURE_PAIRS

ROOT = Path(__file__).resolve().parents[1]


def _traced_names() -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _, module, attr in tracing.LIBRARY_TARGETS]


# the benchmark's model generator imports this one as well
@pytest.mark.parametrize(
    "module, attr", _traced_names() + [("oqwalk.asymptotics", "fixed_space_dim")]
)
def test_benchmark_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def _oqwalk_calls(directory: str) -> list:
    """(location, callee, positional count, keyword names) of every call in
    ``<directory>/*.py`` to a name bound from an oqwalk import: a module
    attribute such as ``simulate.SimConfig(...)`` or an imported name such as
    ``fixed_space_dim(...)``. Calls with ``*args`` or ``**kwargs`` cannot be
    bound statically and are left out."""
    calls = []
    for path in sorted((ROOT / directory).glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> (oqwalk module, attribute or None)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oqwalk"):
                for alias in node.names:
                    if node.module == "oqwalk":
                        bound[alias.asname or alias.name] = (f"oqwalk.{alias.name}", None)
                    else:
                        bound[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, attrs = node.func, []
            if isinstance(func, ast.Attribute):
                func, attrs = func.value, [func.attr]
            if not isinstance(func, ast.Name) or func.id not in bound:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            module, attr = bound[func.id]
            chain = ([attr] if attr else []) + attrs
            where = f"{path.name}:{node.lineno}"
            calls.append((where, (module, chain), len(node.args), [k.arg for k in node.keywords]))
    return sorted(calls, key=lambda call: (call[0].split(":")[0], int(call[0].split(":")[1])))


def _callee_name(callee) -> str:
    module, chain = callee
    return ".".join([module.removeprefix("oqwalk.")] + chain)


BENCHMARK_CALLS = _oqwalk_calls("perfbench")
SCRIPT_CALLS = _oqwalk_calls("scripts")


def test_benchmark_calls_found():
    callees = {_callee_name(callee) for _, callee, _, _ in BENCHMARK_CALLS}
    assert {"simulate.SimConfig", "asymptotics.clt_mixture", "asymptotics.fixed_space_dim"} <= callees


def test_script_calls_found():
    callees = {_callee_name(callee) for _, callee, _, _ in SCRIPT_CALLS}
    assert {"simulate.run", "asymptotics.clt_mixture", "structure.decompose"} <= callees


def _bind(callee, positional: int, keywords: list) -> None:
    module, chain = callee
    fn = importlib.import_module(module)
    for attr in chain:
        fn = getattr(fn, attr)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize(
    "where, callee, positional, keywords",
    BENCHMARK_CALLS,
    ids=[f"{where}-{_callee_name(callee)}" for where, callee, _, _ in BENCHMARK_CALLS],
)
def test_benchmark_calls_bind(where, callee, positional, keywords):
    """Each library call the benchmark makes still fits the signature it
    calls, so a removed or renamed parameter fails tier-1."""
    _bind(callee, positional, keywords)


@pytest.mark.parametrize(
    "where, callee, positional, keywords",
    SCRIPT_CALLS,
    ids=[f"{where}-{_callee_name(callee)}" for where, callee, _, _ in SCRIPT_CALLS],
)
def test_script_calls_bind(where, callee, positional, keywords):
    """The same check for the experiment scripts, which no test runs."""
    _bind(callee, positional, keywords)


def test_memo_is_touched_only_by_its_accessor():
    """Every per-model cache goes through ``WalkModel.cached``, which owns
    the cache policy; no other code in the package reads or writes ``_memo``."""
    stray = []
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "WalkModel":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "cached":
                        allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            touches = (isinstance(node, ast.Attribute) and node.attr == "_memo") or (
                isinstance(node, ast.Constant) and node.value == "_memo"
            )
            if touches and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_superoperator_is_built_only_by_its_view():
    """Within the package only ``ChannelView.matrix`` calls ``to_matrix``, so
    every reader of a view shares the one matrix it builds."""
    stray = []
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "ChannelView":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "matrix":
                        allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "to_matrix":
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_file_layouts_have_one_writer():
    """Within the package ``json.dump`` is called only by
    ``channel.write_json``, no module uses ``csv.writer``, and only
    ``cli._write_csv`` joins fields or lines of CSV text, so each layout is
    written in one place."""
    owners = {"json.dump": ("channel.py", "write_json"), "csv join": ("cli.py", "_write_csv")}
    stray = []
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                inside.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                stray.append(f"{path.name}:{node.lineno}: from {node.module} import")
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            name = value.id if isinstance(value, ast.Name) else None
            separator = value.value if isinstance(value, ast.Constant) else None
            if (name, node.attr) == ("csv", "writer"):
                stray.append(f"{path.name}:{node.lineno}: csv.writer")
            for kind, hit in (
                ("json.dump", (name, node.attr) == ("json", "dump")),
                ("csv join", node.attr == "join" and separator in (",", "\n", "\r\n")),
            ):
                if hit and (path.name, inside.get(id(node))) != owners[kind]:
                    stray.append(f"{path.name}:{node.lineno}: {kind}")
    assert stray == []


def test_streams_keyed_without_seed_sequence():
    """No package code names numpy's ``SeedSequence``: every trajectory
    stream is keyed by ``simulate._philox_keys``, for every seed. Prose and
    ``ISeedSequence``, the seeding interface that hands over a key, are
    allowed."""
    stray = []
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if "SeedSequence" in names:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_uniforms_from_generator_random():
    """No package code calls ``random_raw``: every uniform a trajectory draws
    comes from numpy's own ``Generator.random``, so no code of ours
    converts raw Philox words into doubles."""
    stray = []
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "random_raw":
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_structure_draws_nothing():
    """``structure.py`` neither imports nor names a random generator: the
    block split is deterministic, so no structure output hangs on a stream
    whose bits a numpy release may change."""
    banned = {"random", "default_rng", "Generator", "RandomState", "SeedSequence", "secrets"}
    stray = []
    for node in ast.walk(ast.parse((ROOT / "src" / "oqwalk" / "structure.py").read_text())):
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        if banned & {part for name in names if name for part in name.split(".")}:
            stray.append(f"structure.py:{node.lineno}")
    assert stray == []


def test_one_superoperator_per_perron_calculus(monkeypatch):
    """One ``diffusion`` and one ``_log_lambda_derivatives`` each build one
    superoperator, for the Perron pair and the bordered solve alike. The
    count wraps ``to_matrix`` wherever a package module binds it, as the
    benchmark's tracer does."""
    import oqwalk
    from oqwalk import asymptotics, channel, models
    from oqwalk.linalg import Subspace

    calls = []
    real = channel.to_matrix

    def counted(view):
        calls.append(view.dim)
        return real(view)

    for name, module in list(sys.modules.items()):
        if name.startswith("oqwalk") and getattr(module, "to_matrix", None) is real:
            monkeypatch.setattr(module, "to_matrix", counted)
    assert not hasattr(oqwalk, "to_matrix")

    model = models.irreducible_two_state()
    asymptotics.diffusion(model, Subspace.full(2))
    assert calls == [2]
    calls.clear()
    asymptotics._log_lambda_derivatives(model, Subspace.full(2), [0.3])
    assert calls == [2]


# sha256 of rate_sweep.csv per (model, state, grid): the README's sweep on
# every fixture pair, and four_state_p3_half's crossing interval, where the
# kink path and the central-difference gradient run
LDP_DIGESTS = [
    (*FIXTURE_PAIRS[0], "-0.9:0.9:0.05", "5444ffbf4b7828b05b4316dfdaafa178951053cda257a7652b67a805c44a488f"),
    (*FIXTURE_PAIRS[1], "-0.9:0.9:0.05", "7b44d9c6d056be70fa2c7515fcc2cd29f37cebd5230664cca6c15c8217eb94b5"),
    (*FIXTURE_PAIRS[2], "-0.9:0.9:0.05", "d7d60dacd3be5e9f0b5768069d22ac2f4ea5007f366db2d96b83fab0555eecd6"),
    (*FIXTURE_PAIRS[3], "-0.9:0.9:0.05", "d0f0bb5ca96025a3d96db97346ad41148a28d72f6e0fd626a9450422170fcc5f"),
    (*FIXTURE_PAIRS[4], "-0.9:0.9:0.05", "07ccd5ab2fe1d27276f9914c223c42ef249bb7c30cf2750d69adcd6fad88a8b5"),
    (*FIXTURE_PAIRS[3], "-1.1:1.1:0.01", "410cba914e0c31961dbcc7d6943a1331899e0bccda59ac0aedce22f84bf71c61"),
]


@pytest.mark.parametrize("model, state, grid, digest", LDP_DIGESTS)
def test_ldp_sweep_bytes_are_pinned(tmp_path, model, state, grid, digest):
    """A speed-up of the Legendre path keeps every ``ldp`` output byte for
    byte: ``Lambda`` and ``ustar`` to their last printed digit."""
    from oqwalk import cli

    files = ["--model", str(ROOT / "fixtures" / model), "--state", str(ROOT / "fixtures" / state)]
    assert cli.main(["ldp", f"--grid={grid}", *files, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "rate_sweep.csv").read_bytes()).hexdigest() == digest



# sha256 over the files that ``analyze`` and ``clt --steps 50,200`` write, by
# name, per fixture pair: the drift and covariance come from the bordered
# solves of ``solve_linear``, which a change of solver could move in the
# last bits
CLT_DIGESTS = [
    (*FIXTURE_PAIRS[0], "debf743210a52b81bb43f69fe939a78d83cfa61244d17a11a1fdb058028fd9f7"),
    (*FIXTURE_PAIRS[1], "83f6541bec46f8fa109a4d6fcab0ae53fd906f171b9e9e7f99d32ab86959a3c1"),
    (*FIXTURE_PAIRS[2], "693e23422c85bb3bb557e82f29203ee6b225aca5c8f077adaeb068a4311d570a"),
    (*FIXTURE_PAIRS[3], "3431919129a12e21c77a3af1fbb9d80615b6a54a5d0bda961160f6d63ad77ea0"),
    (*FIXTURE_PAIRS[4], "dbc089bbc42504d37089f67b01320ed91d218095b70bd3a3cb57a65a5269c889"),
]


@pytest.mark.parametrize("model, state, digest", CLT_DIGESTS)
def test_clt_output_bytes_are_pinned(tmp_path, model, state, digest):
    """``analyze`` and ``clt`` keep their outputs byte for byte."""
    from oqwalk import cli

    files = ["--model", str(ROOT / "fixtures" / model), "--state", str(ROOT / "fixtures" / state)]
    assert cli.main(["analyze", *files, "--out", str(tmp_path)]) == 0
    assert cli.main(["clt", "--steps", "50,200", *files, "--out", str(tmp_path)]) == 0
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == digest


# sha256 over what ``simulate --steps 50,600 --traj 4096 --seed 42`` and then
# ``compare`` write, by name: the ensembles, their manifests without the wall
# time, and distances.csv; untracked on every fixture pair, and tracked on
# four_state_p3_sixth from its transient start, as ``certify_h4`` runs it
SIMULATE_DIGESTS = [
    (*FIXTURE_PAIRS[0], (), "be96d2ace1472bd07c916526197fd1a96b08b0158417c2ce22ad1800f3741960"),
    (*FIXTURE_PAIRS[1], (), "4b33d2db5c964b2f6b4803500b7c442caf12453c02836ca9ab88c443e92e8160"),
    (*FIXTURE_PAIRS[2], (), "6ae8de354023f147316cbe15b4a4b36bbd299bbd5c921ccd35a418cdd74da0c3"),
    (*FIXTURE_PAIRS[3], (), "489a312d5dd059b97393897443dd28b61c6923259bb65e13b45c3aa1174496a4"),
    (*FIXTURE_PAIRS[4], (), "53b581c5cec63c741da9b0d6105b21b555e609032d9f7b0c4e3159253ff60874"),
    (
        *FIXTURE_PAIRS[2],
        ("--enclosure-track", "block-1", "--y-stride", "50"),
        "38ad3f46ba03b6d111a5fd26902421ba15a23d03d530849112cefa25c21c162c",
    ),
]


@pytest.mark.parametrize("model, state, tracking, digest", SIMULATE_DIGESTS)
def test_simulate_output_bytes_are_pinned(tmp_path, model, state, tracking, digest):
    """``simulate`` and ``compare`` keep their outputs byte for byte: a
    change of the simulator's step moves no position, track or distance."""
    from oqwalk import cli

    files = ["--model", str(ROOT / "fixtures" / model), "--state", str(ROOT / "fixtures" / state)]
    clt_dir, out = tmp_path / "clt", tmp_path / "out"
    assert cli.main(["clt", "--steps", "50,600", *files, "--out", str(clt_dir)]) == 0
    simulate = ["simulate", "--steps", "50,600", "--traj", "4096", "--seed", "42", *tracking]
    assert cli.main(simulate + files + ["--out", str(out)]) == 0
    ensembles = ",".join(str(out / f"ensemble_n{n}.csv") for n in (50, 600))
    predictions = ",".join(str(clt_dir / f"mixture_n{n}.json") for n in (50, 600))
    compare = ["compare", "--ensemble", ensembles, "--prediction", predictions]
    assert cli.main(compare + ["--out", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        h.update(path.name.encode())
        h.update(b"".join(line for line in lines if b'"wall_time_seconds"' not in line))
    assert h.hexdigest() == digest


# sha256 of ldp_decay.csv from commuting_diag's decay run, as
# tests/test_cli.py's TestLdp::test_decay_table makes it
LDP_DECAY_DIGEST = "41b8746f6b0e272c3745102cebddc56a30c2e32f92dd78478b93ff9a5dd82d82"


def test_ldp_decay_bytes_are_pinned(tmp_path):
    """``ldp --ensemble ... --interval ...`` keeps its decay table byte for
    byte."""
    from oqwalk import cli

    files = [
        "--model", str(ROOT / "fixtures" / "commuting_diag.json"),
        "--state", str(ROOT / "fixtures" / "state_commuting_mixed.json"),
        "--out", str(tmp_path),
    ]
    assert cli.main(["simulate", *files, "--steps", "60", "--traj", "3000", "--seed", "2"]) == 0
    decay = ["--ensemble", str(tmp_path / "ensemble_n60.csv"), "--interval", "0.3,0.5"]
    assert cli.main(["ldp", *files, "--grid=0.0:0.9:0.1", *decay]) == 0
    digest = hashlib.sha256((tmp_path / "ldp_decay.csv").read_bytes()).hexdigest()
    assert digest == LDP_DECAY_DIGEST


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "fixtures").glob("*.json")))
def test_fixtures_save_to_their_own_bytes(tmp_path, name):
    """Loading a fixture and saving it again reproduces the file byte for
    byte: the models and states are written in the one JSON layout."""
    from oqwalk.channel import WalkModel
    from oqwalk.structure import DiagonalState

    source = ROOT / "fixtures" / name
    kind = DiagonalState if name.startswith("state_") else WalkModel
    kind.load(source).save(tmp_path / name)
    assert (tmp_path / name).read_bytes() == source.read_bytes()


def _writable_parts(value, where: str) -> list:
    """Paths within a memo value that a caller could change: writeable
    arrays, and containers that are not tuples or frozen dataclasses."""
    if isinstance(value, np.ndarray):
        return [where] if value.flags.writeable else []
    if isinstance(value, tuple):
        return [p for i, v in enumerate(value) for p in _writable_parts(v, f"{where}[{i}]")]
    if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
        return [
            p
            for f in dataclasses.fields(value)
            for p in _writable_parts(getattr(value, f.name), f"{where}.{f.name}")
        ]
    if value is None or isinstance(value, (bool, int, float, str, np.number)):
        return []
    return [f"{where}: {type(value).__name__}"]


@pytest.mark.parametrize("model, state", FIXTURE_PAIRS)
def test_memo_values_are_read_only(model, state):
    """After the library calls that fill it, every value in a model's memo is
    read-only, as ``WalkModel.cached`` asks of what it stores."""
    from oqwalk import asymptotics, structure
    from oqwalk.channel import WalkModel

    model = WalkModel.load(ROOT / "fixtures" / model)
    rho = structure.DiagonalState.load(ROOT / "fixtures" / state)
    dec = structure.decompose(model)
    _, enclosure_weights = structure.weights(model, dec, rho)
    asymptotics.clt_mixture(model, dec, rho, 50)
    asymptotics.rate_function(model, dec, rho, np.linspace(-0.9, 0.9, 7)[:, None])
    for row, block in zip(enclosure_weights, dec.blocks):
        for w, enclosure in zip(row, block.minimal_enclosures):
            if w > asymptotics.WEIGHT_FLOOR:  # an enclosure it reaches
                asymptotics.lambda_split_check(model, enclosure, rho, [0.3])
    keys = list(model._memo)
    assert any(key[0] == "legendre-anchor" for key in keys if isinstance(key, tuple))
    assert [p for key in keys for p in _writable_parts(model._memo[key], repr(key)[:40])] == []


@pytest.mark.parametrize("model, state", FIXTURE_PAIRS)
def test_every_superoperator_is_real(monkeypatch, tmp_path, model, state):
    """``analyze``, ``clt`` and ``ldp`` on the fixtures build only real
    superoperators, and ``oqwalk.channel`` keeps no complex vectorization and
    no second dual map beside the transpose of ``ChannelView.matrix``."""
    from oqwalk import channel, cli

    dtypes = []
    real = channel.to_matrix

    def recorded(view):
        m = real(view)
        dtypes.append(str(m.dtype))
        return m

    for name, module in list(sys.modules.items()):
        if name.startswith("oqwalk") and getattr(module, "to_matrix", None) is real:
            monkeypatch.setattr(module, "to_matrix", recorded)
    files = ["--model", str(ROOT / "fixtures" / model), "--state", str(ROOT / "fixtures" / state)]
    for command in (
        ["analyze"],
        ["clt", "--steps", "50"],
        ["ldp", "--grid=-0.9:0.9:0.3"],
    ):
        assert cli.main(command + files + ["--out", str(tmp_path / command[0])]) == 0
    assert dtypes and set(dtypes) == {"float64"}
    assert not {"vec", "unvec", "apply_dual"} & set(vars(channel))


def test_package_does_not_load_scipy_stats():
    """A fresh interpreter that imports the package and its CLI has not loaded
    ``scipy.stats``."""
    code = "import sys, oqwalk, oqwalk.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_package_exports_only_its_modules():
    """``oqwalk`` binds its submodules and ``__version__``; callers import
    names from the modules."""
    import oqwalk

    public = {name: value for name, value in vars(oqwalk).items() if not name.startswith("_")}
    assert {"asymptotics", "channel", "empirics", "linalg", "simulate", "structure"} <= set(public)
    for name, value in public.items():
        assert inspect.ismodule(value) and value.__name__ == f"oqwalk.{name}", name
    assert isinstance(oqwalk.__version__, str)


def test_every_error_class_is_caught_by_name():
    """Each exception type in ``oqwalk.errors`` but the base class is named
    in an ``except`` clause of the package: a type that no caller tells apart
    from its base is one name too many."""
    from oqwalk import errors

    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    caught = set()
    for path in sorted((ROOT / "src" / "oqwalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert "OQWalkError" in classes
    assert classes - {"OQWalkError"} - caught == set()


def _subcommands() -> dict:
    from oqwalk import cli

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_cli_option_is_read(command):
    """Each option a subcommand registers is read as ``args.<dest>`` by the
    function it runs, so no option is accepted and then ignored."""
    parser = _subcommands()[command]
    source = inspect.getsource(parser.get_default("func"))
    dests = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    assert dests and {d for d in dests if not re.search(rf"\bargs\.{d}\b", source)} == set()


def _readme_commands() -> list:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("oqwalk ")]
    return [shlex.split(line)[1:] for line in lines]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_parse(argv):
    """Each ``oqwalk ...`` example in the README's "Command line" block
    parses with the CLI's own parser."""
    from oqwalk import cli

    assert cli.build_parser().parse_args(argv).command == argv[0]
