"""In-memory span tracer that wraps oqwalk's public functions from outside.

Each traced function is replaced, in its home module and in every ``oqwalk``
module that binds the same object (``structure`` and ``asymptotics`` hold
their own reference to ``channel.perron``, for example), by a wrapper that
records one span: name, start, end, parent span and the pass it belongs to.
The dense eigensolvers of numpy and scipy are wrapped the same way and
recorded as the ``linalg.eigsolve`` layer. Wrappers are installed only for a
traced pass and removed after it, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

# (span name, home module, attribute)
LIBRARY_TARGETS = [
    ("simulate.run", "oqwalk.simulate", "run"),
    ("simulate.trajectory_rng", "oqwalk.simulate", "trajectory_rng"),
    ("structure.decompose", "oqwalk.structure", "decompose"),
    ("structure.absorption", "oqwalk.structure", "absorption"),
    ("structure.weights", "oqwalk.structure", "weights"),
    ("structure.recurrent_space", "oqwalk.structure", "recurrent_space"),
    ("asymptotics.rate_function", "oqwalk.asymptotics", "rate_function"),
    ("asymptotics.legendre", "oqwalk.asymptotics", "legendre"),
    ("asymptotics.clt_mixture", "oqwalk.asymptotics", "clt_mixture"),
    ("asymptotics.diffusion", "oqwalk.asymptotics", "diffusion"),
    ("asymptotics.poisson_solve", "oqwalk.asymptotics", "poisson_solve"),
    ("asymptotics.log_lambda", "oqwalk.asymptotics", "log_lambda"),
    ("asymptotics.lambda_split_check", "oqwalk.asymptotics", "lambda_split_check"),
    ("channel.perron", "oqwalk.channel", "perron"),
    ("channel.to_matrix", "oqwalk.channel", "to_matrix"),
    ("empirics.rescale", "oqwalk.empirics", "rescale"),
    ("empirics.w1_distance", "oqwalk.empirics", "w1_distance"),
]
EIGSOLVE = "linalg.eigsolve"
EIGSOLVE_TARGETS = [
    (EIGSOLVE, module, attr)
    for module in ("numpy.linalg", "scipy.linalg")
    for attr in ("eig", "eigvals", "eigh", "eigvalsh")
]


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counters = defaultdict(float)  # (pass id, counter name) -> value
        self.pass_id = None
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float, pass_id=None) -> None:
        key = self.pass_id if pass_id is None else pass_id
        self.counters[(key, name)] += value

    def _wrapper(self, name, fn):
        tracer = self

        if name == EIGSOLVE:

            def wrapped(a, *args, **kwargs):
                n = len(a)
                tracer.count("linalg.eigsolve.n3_sum", float(n) ** 3)
                with tracer.span(name):
                    return fn(a, *args, **kwargs)

        elif name == "simulate.run":

            def wrapped(model, rho, config, *args, **kwargs):
                tracer.count("simulate.traj_steps", config.trajectories * config.steps)
                with tracer.span(name):
                    return fn(model, rho, config, *args, **kwargs)

        elif name == "structure.absorption":

            def wrapped(*args, **kwargs):
                with tracer.span(name), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                for w in caught:
                    if issubclass(w.category, RuntimeWarning):
                        tracer.count("structure.absorption.fallback_warnings", 1)
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                return result

        else:

            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded module binds it."""
        bound = [
            (mod_name, mod)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "oqwalk" or mod_name.startswith("oqwalk."))
        ]
        for name, home_name, attr in LIBRARY_TARGETS + EIGSOLVE_TARGETS:
            home = sys.modules.get(home_name)
            if home is None or not hasattr(home, attr):
                continue
            fn = getattr(home, attr)
            wrapped = self._wrapper(name, fn)
            holders = [home] + [m for _, m in bound if m is not home and getattr(m, attr, None) is fn]
            for holder in holders:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    @contextmanager
    def traced_pass(self, pass_id):
        self.pass_id = pass_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.pass_id = None

    # -- aggregation -----------------------------------------------------

    def pass_totals(self) -> dict:
        """Per pass: {'<name>.calls', '<name>.self_s', '<name>.total_s', counters}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
            t = totals[pass_id]
            t[f"{name}.calls"] += 1
            t[f"{name}.total_s"] += end - start
            t[f"{name}.self_s"] += end - start - child_time[i]
            if parent < 0:
                t["trace.top_level_s"] += end - start
        for (pass_id, name), value in self.counters.items():
            totals[pass_id][name] += value
        self._count_under("asymptotics.legendre", totals)
        return {p: dict(t) for p, t in totals.items()}

    def _count_under(self, ancestor: str, totals) -> None:
        """Calls of each span name made (at any depth) inside ``ancestor`` spans."""
        inside = [False] * len(self.spans)
        for i, (name, _, _, parent, pass_id) in enumerate(self.spans):
            inside[i] = parent >= 0 and (
                inside[parent] or self.spans[parent][0] == ancestor
            )
            if inside[i]:
                totals[pass_id][f"{name}.calls_under_{ancestor}"] += 1

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "pass"],
            "spans": self.spans,
            "counters": [[p, n, v] for (p, n), v in self.counters.items()],
        }
