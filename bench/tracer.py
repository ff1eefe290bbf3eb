"""Spans around calls into the package's modules, recorded from outside it.

``Tracer.install()`` replaces each traced function at every module attribute
through which package code looks it up. Most are imported names: for
example ``harness.estimate_certificate``, ``expand.newton_minimize`` and
``penalty.smoothly_penalize`` are each patched besides the defining module's
own attribute. It also wraps the ``ExperimentConfig.from_file`` classmethod
and the derivative methods of every oracle class. ``uninstall()`` puts the
originals back, so untraced runs execute the package unchanged. No file of
the package is modified.

A span is ``[name, start, end, parent, run, note]``: ``parent`` is the index
of the enclosing span (or -1), ``run`` the benchmark run id, and ``note``
the solver's iteration count or the name of an exception that escaped.
Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from collections import defaultdict

ORACLE_METHODS = ("value", "gradient", "hessian", "third_dir", "fourth_dir")

# Functions that other modules call, by (defining module, name) -> span name.
# Calls made inside the package through any module attribute holding one of
# these functions get a span.
TRACED_FUNCTIONS = {
    ("cli", "main"): "cli.main",
    ("harness", "cmd_certify"): "harness.cmd",
    ("harness", "cmd_ridge_sweep"): "harness.cmd",
    ("harness", "run_certify"): "harness.run",
    ("harness", "run_ridge_sweep"): "harness.run",
    ("zoo", "oracle_from_descriptor"): "zoo.build",
    ("solver", "newton_minimize"): "solver.verify",
    ("linalg", "spd_from_dense"): "linalg.factor",
    ("linalg", "kappa_between"): "linalg.kappa",
    ("smoothness", "estimate_certificate"): "smoothness.certificate",
    ("smoothness", "declared_certificate"): "smoothness.certificate",
    ("expand", "exact_quadratic_expansion"): "expand.predict",
    ("expand", "expansion_for_order"): "expand.predict",
    ("expand", "third_order_bounds"): "expand.predict",
    ("expand", "fourth_order_expansion"): "expand.predict",
    ("expand", "compare_with_solution"): "expand.compare",
    ("penalty", "smooth_penalty_bias"): "penalty.bias",
    ("penalty", "ridge_bias_exact_quadratic"): "penalty.bias",
    ("oracle", "smoothly_penalize"): "oracle.penalize",
    ("oracle", "quadratically_penalize"): "oracle.penalize",
}

# The harness solves only anchors; expand and penalty solve only the
# perturbed problems that verify a prediction.
SITE_SPAN_NAMES = {("harness", "newton_minimize"): "solver.anchor"}

CONFIG_SPAN = "harness.config"
SOLVER_SPANS = ("solver.anchor", "solver.verify")


class Tracer:
    """Records spans for the runs made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._in_oracle = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, oracle_layer: bool = False, iterations: bool = False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def record(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if iterations:
                span[5] = result.iterations
            return result

        if not oracle_layer:
            return functools.wraps(fn)(record)

        @functools.wraps(fn)
        def entered(*args, **kwargs):
            # A call made from inside the oracle layer (a sum oracle calling
            # its summands, a penalty probing its Hessian) has not entered it.
            if self._in_oracle:
                return fn(*args, **kwargs)
            self._in_oracle = True
            try:
                return record(*args, **kwargs)
            finally:
                self._in_oracle = False

        return entered

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall ---------------------------------------------

    def install(self, run_id: int) -> None:
        """Patch the package for one run; spans are tagged with ``run_id``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.run_id = run_id
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "perturbex" or name.startswith("perturbex."))
        }
        targets = {}
        for (defining, attr), span_name in TRACED_FUNCTIONS.items():
            targets[id(getattr(modules["perturbex." + defining], attr))] = span_name
        for mod_name, mod in modules.items():
            site = mod_name.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                span_name = targets.get(id(value))
                if span_name is None:
                    continue
                span_name = SITE_SPAN_NAMES.get((site, attr), span_name)
                self._patch(
                    mod, attr,
                    self._wrap(
                        value, span_name,
                        oracle_layer=span_name.startswith("oracle."),
                        iterations=span_name in SOLVER_SPANS,
                    ),
                )

        config_cls = modules["perturbex.harness"].ExperimentConfig
        from_file = config_cls.__dict__["from_file"].__func__
        self._patch(config_cls, "from_file", classmethod(self._wrap(from_file, CONFIG_SPAN)))

        oracle_mod = modules["perturbex.oracle"]
        for value in list(vars(oracle_mod).values()):
            if not (isinstance(value, type) and issubclass(value, oracle_mod.Oracle)):
                continue
            for method in ORACLE_METHODS:
                if method in value.__dict__:
                    self._patch(
                        value, method,
                        self._wrap(value.__dict__[method], "oracle." + method, oracle_layer=True),
                    )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per run, the self time of each span name: duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run, note in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, run, note) in enumerate(self.spans):
            out[run][name] += end - start - child[i]
        return out

    def inclusive_times(self) -> dict[int, dict[str, float]]:
        """Per run, the time inside outermost spans of each name, children included."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, run, note in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[run][name] += end - start
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "run", "parent", "name", "start", "end", "note"])
            for i, (name, start, end, parent, run, note) in enumerate(self.spans):
                writer.writerow(
                    [i, run, parent, name, repr(start), repr(end), "" if note is None else note]
                )
