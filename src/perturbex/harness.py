"""Experiment harness: config-driven runs with JSON/CSV artifacts.

All commands are deterministic functions of (config, seed): every random
draw is seeded from the config, reports carry no timestamps, and JSON is
serialized with sorted keys, so rerunning a config reproduces its report
byte for byte.

Exit codes: 0 all certified bounds verified, 1 error (bad config, solver
failure), 2 a certified bound was violated, 3 a gate failed while
``require_gates`` was set.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any

import jsonschema
import numpy as np

from . import constants
from .errors import (
    DimensionMismatch,
    MissingConstant,
    MissingFourthDerivative,
    MissingThirdDerivative,
    NotPsd,
    PreconditionViolated,
)
from .expand import expansion_for_order, predict, solve_and_compare, solve_from
from .linalg import SpdOperator, check_floor, spd_from_dense
from .oracle import Oracle, QuadraticOracle, SumOracle, fd_probe
from .penalty import ridge_bias_exact_quadratic
from .smoothness import (
    SmoothnessCertificate,
    check_anchor,
    declared_certificate,
    estimate_certificate,
    taylor_diagnostics,
)
from .solver import SolveResult, newton_minimize
from .zoo import ZooProblem, oracle_from_descriptor

__all__ = [
    "ExperimentConfig",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_BOUND_VIOLATED",
    "EXIT_GATE_FAILED",
    "cmd_certify",
    "cmd_scaling",
    "cmd_ridge_sweep",
    "cmd_selftest",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_VIOLATED = 2
EXIT_GATE_FAILED = 3

REPORT_SCHEMA = "perturbex.report.v7"
DEFAULT_EPS_GRID = [2.0**-k for k in range(1, 9)]

_INTEGER = {"type": "integer"}
_COUNT = {"type": "integer", "minimum": 1}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_VECTOR = {"type": "array", "items": {"type": "number"}}
_MATRIX = {"type": "array", "items": _VECTOR}


def _variant(tag: str, value: str, *names: str, types=None, required=()) -> dict[str, Any]:
    """Accept only the keys ``value`` reads in an object whose ``tag`` is ``value``.

    Those are ``tag``, ``names`` (typed by the enclosing object) and the keys
    of ``types``, which only this variant reads.  The check applies only
    once the tag is valid, so a wrong tag is reported as such.  The keys are
    one ``propertyNames`` list, titled so that an error can name them.
    """
    keys = {"enum": [tag, *names, *(types or {})], "title": f"keys read when {tag} is {value!r}"}
    then = {"properties": types or {}, "propertyNames": keys, "required": list(required)}
    return {"if": {"properties": {tag: {"const": value}}, "required": [tag]}, "then": then}


def _object(properties: dict[str, Any], *variants: dict[str, Any], required=()) -> dict[str, Any]:
    """An object of ``properties``, closed by ``variants`` or, with none, by itself."""
    schema = {"type": "object", "properties": properties, "required": list(required)}
    if variants:
        schema["allOf"] = list(variants)
    else:
        schema["additionalProperties"] = False
    return schema


def _command(**properties: Any) -> dict[str, Any]:
    """A command's config: ``seed``, ``problem`` and the other keys it reads."""
    problem = {"$ref": "#/$defs/problem"}
    return _object({"seed": _INTEGER, "problem": problem, **properties}, required=["problem"])


# One document: the parts several commands share, and one entry per command
# that accepts only the keys the command reads.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": {
        "problem": _object(
            {
                "kind": {"enum": ["quadratic", "logistic", "logsumexp"]},
                "dim": _COUNT, "seed": _INTEGER, "n": _COUNT,
                "reg": _NONNEGATIVE, "temp": _POSITIVE, "cond": _POSITIVE,
            },
            _variant("kind", "quadratic", "dim", "seed", "cond"),
            _variant("kind", "logistic", "dim", "seed", "n", "reg"),
            _variant("kind", "logsumexp", "dim", "seed", "n", "reg", "temp"),
            required=["kind", "dim", "seed"],
        ),
        "linear": _variant(
            "kind", "linear", types={"vector": _VECTOR, "seed": _INTEGER, "scale": _NONNEGATIVE}
        ),
        "certificate": _object(
            {
                "mode": {"enum": ["estimated", "declared"]},
                "samples": _COUNT, "seed": _INTEGER,
                "inflation": {"type": "number", "minimum": 1}, "radius": _POSITIVE,
                "omega": _NONNEGATIVE, "tau3": _NONNEGATIVE, "tau4": _NONNEGATIVE,
            },
            _variant("mode", "estimated", "samples", "seed", "inflation", "radius"),
            _variant("mode", "declared", "radius", "omega", "tau3", "tau4"),
            required=["mode"],
        ),
        "certify": _command(
            perturbation=_object(
                {"kind": {"enum": ["linear", "quadratic", "smooth"]}},
                {"$ref": "#/$defs/linear"},
                _variant("kind", "quadratic", types={"lambda": _NONNEGATIVE, "matrix": _MATRIX}),
                # A quadratic penalty reads ``lambda`` only when it has no ``matrix``.
                {
                    "if": {
                        "properties": {"kind": {"const": "quadratic"}},
                        "required": ["kind", "matrix"],
                    },
                    "then": {
                        "propertyNames": {
                            "enum": ["kind", "matrix"], "title": "keys read when matrix is set"
                        }
                    },
                },
                _variant(
                    "kind", "smooth",
                    types={"penalty": {"$ref": "#/$defs/problem"}, "weight": _NONNEGATIVE},
                    required=["penalty"],
                ),
                required=["kind"],
            ),
            orders={"type": "array", "items": {"enum": ["exact", 2, 3, 4]}, "minItems": 1},
            certificate={"$ref": "#/$defs/certificate"},
        ),
        "scaling": _command(
            perturbation=_object(
                {"kind": {"enum": ["linear"]}}, {"$ref": "#/$defs/linear"}, required=["kind"]
            ),
            scaling=_object({"eps_grid": {"type": "array", "items": _POSITIVE, "minItems": 2,
                                         "uniqueItems": True}}),
        ),
        "ridge-sweep": _command(
            certificate={"$ref": "#/$defs/certificate"},
            sweep=_object(
                {
                    "lambda_grid": {"type": "array", "items": _NONNEGATIVE, "minItems": 1},
                    # ``seed`` stays legal in every mode: the benchmark pools set
                    # it with ``identity``.
                    "g2": _object(
                        {
                            "mode": {"enum": ["identity", "rank1", "matrix"]},
                            "seed": _INTEGER, "matrix": _MATRIX,
                        },
                        _variant("mode", "identity", "seed"),
                        _variant("mode", "rank1", "seed"),
                        _variant("mode", "matrix", "seed", "matrix", required=["matrix"]),
                        required=["mode"],
                    ),
                }
            ),
        ),
    },
}

# The schema a config of each command must satisfy: the document, entered at
# that command's entry.
COMMANDS = ("certify", "scaling", "ridge-sweep")
COMMAND_SCHEMAS = {cmd: {**CONFIG_SCHEMA, "$ref": f"#/$defs/{cmd}"} for cmd in COMMANDS}

# Built once; every config load reuses its command's validator.  The document
# itself is checked against the metaschema by the tests, not on every import.
_VALIDATORS = {cmd: jsonschema.Draft202012Validator(s) for cmd, s in COMMAND_SCHEMAS.items()}


def _config_error_line(error: jsonschema.ValidationError, command: str) -> str:
    """``<dotted.path>: <message>``; a missing or unread key ends the path."""
    path = [str(part) for part in error.absolute_path]
    message = error.message
    if error.validator == "required":
        path.append(next(k for k in error.validator_value if k not in error.instance))
        message = "required key is missing"
    elif error.validator == "additionalProperties":
        path.append(next(k for k in error.instance if k not in error.schema["properties"]))
        message = f"not read by {command}"
    elif "propertyNames" in error.schema_path:  # a variant's keys, see _variant
        path.append(error.instance)
        message = f"not one of the {error.schema['title']}"
    return f"{'.'.join(path) or 'config'}: {message}"


@dataclass
class ExperimentConfig:
    """Validated run description, loaded from JSON."""

    raw: dict[str, Any]

    @classmethod
    def from_dict(cls, raw: dict[str, Any], command: str) -> "ExperimentConfig":
        """Validate ``raw`` as a config of ``command``."""
        # The error jsonschema.validate(raw, COMMAND_SCHEMAS[command]) would raise.
        error = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(raw))
        if error is not None:
            raise error
        cfg = cls(raw=raw)
        if "certificate" in CONFIG_SCHEMA["$defs"][command]["properties"]:
            cert = cfg.certificate
            if cert["mode"] == "estimated" and "seed" not in cert and "seed" not in raw:
                raise ValueError(
                    "estimated certificates need a seed: set certificate.seed, "
                    "a top-level seed or --seed"
                )
        return cfg

    @classmethod
    def from_file(cls, path: str, command: str, seed: int | None = None) -> "ExperimentConfig":
        """Load and validate a config file; ``seed`` overrides its top-level seed."""
        with open(path, "r", encoding="utf-8") as fh:
            # NaN and Infinity are not JSON numbers.  Loaded as strings, they
            # fail the schema's type checks, which name the key holding them.
            raw = json.load(fh, parse_constant=str)
        if seed is not None and isinstance(raw, dict):
            raw["seed"] = seed
        return cls.from_dict(raw, command)

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def problem(self) -> dict[str, Any]:
        return self.raw["problem"]

    @property
    def perturbation(self) -> dict[str, Any]:
        return self.raw.get("perturbation", {"kind": "linear"})

    @property
    def orders(self) -> list:
        return list(self.raw.get("orders", [2, 3, 4]))

    @property
    def certificate(self) -> dict[str, Any]:
        return dict(self.raw.get("certificate", {"mode": "estimated"}))


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _strict_json(value: Any) -> Any:
    """``value`` with each non-finite float as the string a config's constant loads as."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _write_json(path: str, payload: dict[str, Any]) -> None:
    """Write ``payload`` as strict JSON with sorted keys, on one line.

    Without indentation ``json.dumps`` takes its C encoder, about twice as
    fast, and a sweep report of d-length vectors is 40% smaller;
    ``python -m json.tool`` pretty-prints the file.

    JSON has no non-finite numbers, but an advisory radius or the slack of
    a missed exactness claim can be infinite; only a payload that holds one
    pays for the conversion by :func:`_strict_json`.
    """
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_strict_json(payload), sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list[Any]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


@contextlib.contextmanager
def _sized_by(key: str):
    """Raise a float overflow inside as a ``ValueError`` naming the config ``key``.

    Code that expects an overflow silences it with its own ``np.errstate``."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _run_command(
    command: str, config_path: str, out_dir: str, seed: int | None, run
) -> dict[str, Any]:
    """Load ``command``'s config with a seed override, run it and write ``report.json``."""
    try:
        cfg = ExperimentConfig.from_file(config_path, command, seed)
    except jsonschema.ValidationError as error:
        raise ValueError(_config_error_line(error, command)) from None
    with _sized_by("config"):
        report = run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


def _seed(cfg: ExperimentConfig, spec: dict[str, Any], key: str, offset: int = 0) -> int:
    """The seed at ``key``, else the top-level ``seed`` plus ``offset``, checked non-negative."""
    seed = spec["seed"] if "seed" in spec else cfg.seed + offset
    if seed < 0:
        source = key if "seed" in spec else f"seed (+ {offset}, the default {key})"
        raise ValueError(f"{source}: expected a non-negative integer, got {seed}")
    return int(seed)


def _matrix(key: str, rows: list) -> np.ndarray:
    """The config matrix at ``key``, whose rows must have one length."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{key}: rows of different lengths")
    return np.asarray(rows, dtype=float)


def _anchored(cfg: ExperimentConfig) -> tuple[ZooProblem, SolveResult]:
    """The configured problem and its anchor solve."""
    _seed(cfg, cfg.problem, "problem.seed")
    prob = oracle_from_descriptor(cfg.problem)
    with _sized_by("problem"):
        return prob, newton_minimize(prob.oracle, prob.x0)


def _linear_tilt(cfg: ExperimentConfig, dim: int) -> tuple[np.ndarray, str]:
    pert = cfg.perturbation
    if "vector" in pert:
        A = np.asarray(pert["vector"], dtype=float)
        if A.shape != (dim,):
            raise ValueError(f"perturbation.vector: shape {A.shape}, need ({dim},)")
        return A, "perturbation.vector"
    seed = _seed(cfg, pert, "perturbation.seed", 2)
    scale = float(pert.get("scale", 0.1))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    with _sized_by("perturbation.scale"):
        return scale * v / np.linalg.norm(v), "perturbation.scale"


def _ridge(key: str, G2) -> QuadraticOracle:
    """The ridge ``0.5 x' G2 x`` of the config matrix at ``key``, which must be
    square, symmetric and positive semidefinite."""
    try:
        return QuadraticOracle(G2)
    except (DimensionMismatch, NotPsd) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _penalty(cfg: ExperimentConfig, dim: int) -> tuple[Oracle, str]:
    """The configured ridge ``0.5 x' G2 x`` or weighted smooth penalty, and the key sizing it."""
    pert = cfg.perturbation
    if pert["kind"] == "smooth":
        key, sized_by = "perturbation.penalty.dim", "perturbation.weight"
        _seed(cfg, pert["penalty"], "perturbation.penalty.seed")
        pen = oracle_from_descriptor(pert["penalty"]).oracle
        pen = SumOracle(pen, weights=(float(pert.get("weight", 1.0)),))
    elif "matrix" in pert:
        key = sized_by = "perturbation.matrix"
        pen = _ridge(key, _matrix(key, pert["matrix"]))
    else:
        return QuadraticOracle(np.eye(dim)).scaled(pert.get("lambda", 0.1)), "perturbation.lambda"
    if pen.dim != dim:
        raise ValueError(f"{key}: penalty has dimension {pen.dim}, problem has {dim}")
    return pen, sized_by


def _build_certificate(
    cfg: ExperimentConfig,
    f: Oracle,
    xstar: np.ndarray,
    curvature: SpdOperator,
    include_omega: bool,
) -> SmoothnessCertificate:
    spec = cfg.certificate
    radius = float(spec.get("radius", 1.0))
    # The metric is D = F^{1/2}: its Gram is the curvature itself.
    if spec["mode"] == "declared":
        return declared_certificate(
            metric=curvature,
            radius=radius,
            omega=float(spec["omega"]) if "omega" in spec else None,  # 0 would claim f quadratic
            tau3=spec.get("tau3"),
            tau4=spec.get("tau4"),
        )
    casts = {"samples": int, "inflation": float}  # unset: estimate_certificate's defaults
    return estimate_certificate(
        f,
        xstar,
        curvature=curvature,
        radius=radius,
        seed=int(spec.get("seed", cfg.seed + 1)),
        include_omega=include_omega,
        **{key: cast(spec[key]) for key, cast in casts.items() if key in spec},
    )


def _summary_rows(results: list[dict[str, Any]]) -> tuple[list[str], list[list[Any]]]:
    header = [
        "order",
        "skipped",
        "certifying",
        "gates",
        "failed_gates",
        "max_certified_slack",
        "value_slack",
        "violations",
    ]
    rows = []
    for res in results:
        order = res["order"]
        if "skipped" in res:
            rows.append([order, res["skipped"], "", "", "", "", "", ""])
            continue
        bounds = res["report"]["bounds"]
        gates = bounds["preconditions"]
        verdicts = ";".join(f"{g['name']}={int(g['satisfied'])}" for g in gates)
        failed = ";".join(g["name"] for g in gates if not g["satisfied"])
        ver = res["verification"]
        rows.append(
            [
                order,
                "",
                int(ver["certifying"]),
                verdicts,
                failed,
                ver["max_certified_slack"],
                next((e["slack"] for e in ver["entries"] if e["name"] == "value"), ""),
                ";".join(ver["violations"]),
            ]
        )
    return header, rows


def _verified(results: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The results that were verified, not skipped."""
    return [res for res in results if "skipped" not in res]


def _verified_problem(
    cfg: ExperimentConfig,
    f: Oracle,
    xstar: np.ndarray,
    perturbation: np.ndarray | Oracle,
    curvature: SpdOperator,
    key: str,
    orders: list,
) -> tuple[SmoothnessCertificate, dict[str, Any], list[dict[str, Any]]]:
    """The tilt or penalty ``perturbation`` of ``f``, sized by ``key``, predicted
    from the factored ``curvature = grad^2 f(x*)``, certified, and each order
    verified by one solve.

    A ``curvature`` that :func:`predict` keeps unchecked is held to the SPD
    floor here.  A tilt's certificate describes ``f``.  A penalty's describes
    ``f + pen``, which ``x*`` does not minimize: it has no sampled omega, and
    ``x*`` is checked to minimize ``f`` in its metric.

    Returns the certificate; ``{"tilt", "prediction", "certificate",
    "solution"}`` (a skew pair only if order 4 was built, no solution if
    every order was skipped); and per order ``{"order", "report",
    "verification"}``, or ``{"order", "skipped"}`` with the reason
    :func:`expansion_for_order` gives.
    """
    penalty = isinstance(perturbation, Oracle)
    with _sized_by(f"problem or {key}"):
        prediction = predict(f, xstar, perturbation, curvature=curvature)
    if prediction.F is curvature:
        check_floor(curvature.matrix)  # of entries scaled to at most 1: no overflow
    keys = f"problem or {key}" if penalty else "problem"
    with _sized_by(f"{keys} or certificate.radius"):
        cert = _build_certificate(
            cfg, prediction.g if penalty else f, xstar, prediction.F, include_omega=not penalty
        )
        if penalty:
            check_anchor(f, xstar, cert.metric, constants.BIAS_ANCHOR_GRAD_RTOL)
    results: list[dict[str, Any]] = []
    reports = []
    with _sized_by(f"problem or {key}"):
        for order in orders:
            try:
                rep = expansion_for_order(prediction, cert, order)
            except (
                MissingConstant, MissingThirdDerivative, MissingFourthDerivative,
                PreconditionViolated,
            ) as exc:
                results.append({"order": str(order), "skipped": f"order {order} skipped: {exc}"})
                continue
            reports.append(rep)
            results.append({"order": str(order), "report": rep.to_dict()})
        solution, comparisons = solve_and_compare(reports)
        for res, comparison in zip(_verified(results), comparisons):
            res["verification"] = comparison.to_dict()
        problem = {
            "tilt": prediction.A.tolist(),
            "prediction": prediction.to_dict(),
            "certificate": cert.to_dict(),
            "solution": None if solution is None else solution.to_dict(),
        }
    return cert, problem, results


def _aggregate_exit(results: list[dict[str, Any]], require_gates: bool) -> int:
    verified = [res["verification"] for res in _verified(results)]
    if any(ver["violations"] for ver in verified):
        return EXIT_BOUND_VIOLATED
    if require_gates and not all(ver["certifying"] for ver in verified):
        return EXIT_GATE_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def run_certify(cfg: ExperimentConfig, require_gates: bool = False) -> dict[str, Any]:
    """Run the configured expansion orders and verify each against the solver.

    A penalty is a linear tilt of ``f + pen`` with drive ``grad pen(x*)``, so
    both kinds are one perturbed problem (:func:`_verified_problem`).  It is
    built and solved once, from the factored ``grad^2 f(x*)`` that the
    anchor solve's converging step evaluated, and every order's report is
    checked against that solution; an order that ``g`` or its certificate
    does not support is skipped with a warning.
    """
    prob, anchor = _anchored(cfg)
    f, xstar = prob.oracle, anchor.xhat
    linear = cfg.perturbation["kind"] == "linear"
    perturbation, key = (_linear_tilt if linear else _penalty)(cfg, f.dim)
    _, problem, results = _verified_problem(
        cfg, f, xstar, perturbation, anchor.curvature, key, cfg.orders
    )
    return {
        "schema": REPORT_SCHEMA,
        "command": "certify",
        "config": cfg.raw,
        "problem": prob.descriptor,
        "anchor": {
            "xstar": xstar.tolist(),
            "value": anchor.value,
            "solver": anchor.stats(),
        },
        **problem,
        "results": results,
        "warnings": [res["skipped"] for res in results if "skipped" in res],
        "exit_code": _aggregate_exit(results, require_gates),
    }


def cmd_certify(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    require_gates: bool = False,
) -> int:
    report = _run_command(
        "certify", config_path, out_dir, seed, lambda cfg: run_certify(cfg, require_gates)
    )
    _write_csv(os.path.join(out_dir, "summary.csv"), *_summary_rows(report["results"]))
    return int(report["exit_code"])


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def _fit_slope(eps: list[float], vals: list[float]) -> dict[str, Any]:
    pts = [
        (math.log(e), math.log(v))
        for e, v in zip(eps, vals)
        if v > 1e-12
    ]
    if len(pts) < 2:
        return {"slope": None, "points_used": len(pts), "note": "floor"}
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"slope": slope, "points_used": len(pts), "note": ""}


def _norm(v: np.ndarray) -> float:
    """``||v||``, taken from ``v`` over its largest entry when the plain sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


SCALING_HEADER = ["eps", "newton_residual", "skew_residual", "value_error_2", "value_error_4"]


def run_scaling(cfg: ExperimentConfig) -> dict[str, Any]:
    """Shrink a linear tilt geometrically and measure residual decay rates.

    For each epsilon the tilted problem is solved to solver precision and
    three residuals are recorded: the Euclidean error of the Newton
    prediction, of the skew-corrected prediction, and of the order-4 value
    prediction (plus the order-2 value error for reference).  Log-log
    slopes are fitted over the points above the 1e-12 numerical floor.
    """
    prob, anchor = _anchored(cfg)
    f, xstar = prob.oracle, anchor.xhat
    A0, key = _linear_tilt(cfg, f.dim)
    F = anchor.curvature
    check_floor(F.matrix)
    eps_grid = list(cfg.raw.get("scaling", {}).get("eps_grid", DEFAULT_EPS_GRID))

    rows = []
    for i, eps in enumerate(eps_grid):
        with _sized_by(f"problem or {key} or scaling.eps_grid.{i}"):
            # Predicted first: a tilt too large to predict is an error before its solve.
            p = predict(f, xstar, eps * A0, curvature=F)
            correction, T = p.skew
            solution = solve_from(p.g, xstar, F)
            shift, dval = solution.actual_shift, solution.actual_value_change
            r_newton = _norm(shift + p.u0)
            r_skew = _norm(shift - (-p.u0 + correction))
            # The order-4 value error is the order-2 one plus T: the same as
            # dval minus the order-4 prediction, but T is added after dval and
            # -xi^2/2 have cancelled, so it is not rounded at the scale of xi^2.
            resid2 = dval - p.newton_value_change
            rows.append([eps, r_newton, r_skew, abs(resid2), abs(resid2 + T)])

    columns = list(zip(*rows))[1:]
    slopes = {name: _fit_slope(eps_grid, col) for name, col in zip(SCALING_HEADER[1:], columns)}
    return {
        "schema": REPORT_SCHEMA,
        "command": "scaling",
        "config": cfg.raw,
        "problem": prob.descriptor,
        "eps_grid": eps_grid,
        "rows": rows,
        "slopes": slopes,
        "exit_code": EXIT_OK,
    }


def cmd_scaling(config_path: str, out_dir: str, seed: int | None = None) -> int:
    report = _run_command("scaling", config_path, out_dir, seed, run_scaling)
    _write_csv(os.path.join(out_dir, "scaling.csv"), SCALING_HEADER, report["rows"])
    slope_rows = [
        [name, info["slope"] if info["slope"] is not None else "floor",
         info["points_used"]]
        for name, info in sorted(report["slopes"].items())
    ]
    _write_csv(
        os.path.join(out_dir, "slopes.csv"),
        ["quantity", "slope", "points_used"],
        slope_rows,
    )
    return int(report["exit_code"])


# ---------------------------------------------------------------------------
# ridge sweep
# ---------------------------------------------------------------------------


def _sweep_base_matrix(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    spec = cfg.raw.get("sweep", {}).get("g2", {"mode": "identity"})
    mode = spec["mode"]
    if mode == "identity":
        return np.eye(dim)
    if mode == "rank1":
        rng = np.random.default_rng(_seed(cfg, spec, "sweep.g2.seed", 3))
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v)
    G2 = _matrix("sweep.g2.matrix", spec["matrix"])
    if G2.shape != (dim, dim):
        raise ValueError(f"sweep.g2.matrix: shape {G2.shape}, need ({dim}, {dim})")
    return G2


def _named(items: list[dict[str, Any]], name: str) -> dict[str, Any]:
    """The gate or verification entry called ``name``."""
    return next(item for item in items if item["name"] == name)


def _sweep_cells(entry: dict[str, Any], order: int, name: str) -> list[Any]:
    """Order ``order``'s ``sweep.csv`` cells of a weight: its ``tau{order}_dnorm``
    verdict and its entry ``name``'s radius, residual and slack, or four
    empty cells when the order was skipped."""
    res = entry.get(f"order{order}")
    if res is None:
        return ["", "", "", ""]
    gate = _named(res["report"]["bounds"]["preconditions"], f"tau{order}_dnorm")
    e = _named(res["verification"]["entries"], name)
    return [int(gate["satisfied"]), e["radius"], e["residual"], e["slack"]]


def run_ridge_sweep(cfg: ExperimentConfig, require_gates: bool = False) -> dict[str, Any]:
    """Sweep ridge weights and verify the order-3 and order-4 bias radii.

    Each weight is one perturbed problem, built, factored and solved once.
    The weights are one family: every penalized curvature is
    ``H0 + lam G2`` with ``H0 = grad^2 f(x*)`` taken from the anchor solve,
    whose converging step evaluated and factored it; each verification solve
    starts from its ``H0 + lam G2`` instead of evaluating it again.  ``G2`` is
    checked for positive semidefiniteness once (a weight is never
    negative), and each ``H0 + lam G2`` is factored once.  An order that a
    weight's certificate does not support is skipped for that weight, with
    a warning naming the weight, as ``certify`` skips it.
    """
    prob, anchor = _anchored(cfg)
    f, xstar = prob.oracle, anchor.xhat
    ridge = _ridge("sweep.g2.matrix", _sweep_base_matrix(cfg, f.dim))
    grid = list(cfg.raw.get("sweep", {}).get("lambda_grid", [0.0, 0.05, 0.1, 0.2]))

    rows = []
    results = []
    warnings = []
    for i, lam in enumerate(grid):
        cert, problem, verified = _verified_problem(
            cfg, f, xstar, ridge.scaled(lam), anchor.curvature, f"sweep.lambda_grid.{i}", [3, 4]
        )
        entry: dict[str, Any] = {"lambda": lam, **problem}
        for res in verified:
            if "skipped" in res:
                warnings.append(f"lambda {lam!r}: {res['skipped']}")
            else:
                entry[f"order{res.pop('order')}"] = res
        results.append(entry)

        pred = np.asarray(entry["prediction"]["newton_shift"])
        solution = entry["solution"]
        actual = "" if solution is None else float(np.linalg.norm(solution["actual_shift"]))
        gate3, rad3, res3, slack3 = _sweep_cells(entry, 3, "newton_residual_dinvf")
        gate4, rad4, res4, slack4 = _sweep_cells(entry, 4, "skew_residual_dinvf")
        bG = cert.metric.norm(pred)
        pred_norm = float(np.linalg.norm(pred))
        rows.append(
            [lam, bG, gate3, gate4, pred_norm, actual, rad3, res3, rad4, res4, slack3, slack4]
        )

    verified = [entry[key] for entry in results for key in ("order3", "order4") if key in entry]
    return {
        "schema": REPORT_SCHEMA,
        "command": "ridge-sweep",
        "config": cfg.raw,
        "problem": prob.descriptor,
        "lambda_grid": grid,
        "rows": rows,
        "results": results,
        "warnings": warnings,
        "exit_code": _aggregate_exit(verified, require_gates),
    }


SWEEP_HEADER = [
    "lambda",
    "bG",
    "gate_tau3",
    "gate_tau4",
    "pred_bias_norm",
    "actual_bias_norm",
    "radius_o3",
    "residual_o3",
    "radius_o4",
    "residual_o4",
    "slack_o3",
    "slack_o4",
]


def cmd_ridge_sweep(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    require_gates: bool = False,
) -> int:
    report = _run_command(
        "ridge-sweep", config_path, out_dir, seed, lambda cfg: run_ridge_sweep(cfg, require_gates)
    )
    _write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER, report["rows"])
    return int(report["exit_code"])


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def run_selftest(seed: int = 0) -> tuple[int, list[str]]:
    """Fast consistency battery; returns (exit_code, log lines)."""
    lines: list[str] = []
    failures = 0

    def check(name: str, ok: bool, note: str = "") -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f" ({note})" if note else ""
        lines.append(f"selftest: {name} ... {status}{suffix}")

    drift = constants.self_check()
    check("constant table", not drift, "; ".join(drift))
    if drift:
        # The gate table is corrupt; nothing downstream can be trusted.
        return EXIT_BOUND_VIOLATED, lines

    rng = np.random.default_rng(seed)

    # Derivative consistency across the zoo.
    for desc in (
        {"kind": "quadratic", "dim": 4, "seed": seed + 1},
        {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.1, "seed": seed + 2},
        {"kind": "logsumexp", "dim": 4, "n": 24, "reg": 0.1, "temp": 0.7, "seed": seed + 3},
    ):
        prob = oracle_from_descriptor(desc)
        point = 0.1 * rng.standard_normal(prob.oracle.dim)
        gates = fd_probe(prob.oracle, point, directions=6, seed=seed + 4)
        check(f"fd probe {desc['kind']}", all(g.satisfied for g in gates))

    # One-dimensional ridge bias in closed form: curvature 1, ridge 1,
    # anchor 1 gives bias -1/2 and value change -1/4.
    F1 = spd_from_dense(np.array([[1.0]]))
    rep1 = ridge_bias_exact_quadratic(F1, np.array([[1.0]]), np.array([1.0]))
    check(
        "ridge closed form",
        abs(rep1.predicted_shift[0] + 0.5) < 1e-14
        and abs(rep1.predicted_value_change + 0.25) < 1e-14,
    )

    # Taylor diagnostics with inflated constants on a small logistic problem.
    logistic = {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": seed + 7}
    prob = oracle_from_descriptor(logistic)
    sol = newton_minimize(prob.oracle, prob.x0)
    cert = estimate_certificate(
        prob.oracle, sol.xhat, curvature=sol.curvature, radius=0.5, samples=120, seed=seed + 8
    )
    gates = taylor_diagnostics(prob.oracle, sol.xhat, cert, samples=80, seed=seed + 9)
    worst = max(g.lhs for g in gates)
    check("taylor remainders", all(g.satisfied for g in gates), f"worst ratio {worst:.3f}")

    # The commands, run in-process through the schema, the harness and the
    # verification solve; each run states one property of its report.
    def command(name: str, raw: dict[str, Any]) -> dict[str, Any]:
        cfg = ExperimentConfig.from_dict(raw, name)
        return run_certify(cfg) if name == "certify" else run_ridge_sweep(cfg)

    quad = {
        "problem": {"kind": "quadratic", "dim": 4, "seed": seed + 5, "cond": 8.0},
        "perturbation": {"kind": "linear", "scale": 0.3, "seed": seed + 6},
    }
    report = command("certify", {**quad, "orders": ["exact"], "certificate": {"mode": "declared"}})
    slacks = [r["verification"]["max_certified_slack"] for r in _verified(report["results"])]
    check(
        "certify quadratic: exact order met with slack 0",
        report["exit_code"] == EXIT_OK and slacks == [0.0],
        f"slacks {slacks}",
    )

    declared = {"mode": "declared", "tau3": 0.0}
    report = command("certify", {**quad, "orders": [3, 4], "certificate": declared})
    lines.extend(f"selftest: warning: {warning}" for warning in report["warnings"])
    check(
        "certify without tau4: order 4 skipped",
        report["exit_code"] == EXIT_OK
        and len(_verified(report["results"])) == 1
        and report["warnings"] == ["order 4 skipped: certificate lacks tau4"],
    )

    report = command(
        "ridge-sweep",
        {"problem": logistic, "sweep": {"lambda_grid": [0.0]},
         "certificate": {"mode": "estimated", "samples": 16, "seed": seed + 8}},
    )
    (entry,) = report["results"]
    prediction = entry["prediction"]
    check(
        "ridge-sweep at weight 0: zero shift and zero radii",
        report["exit_code"] == EXIT_OK
        and not np.any([prediction["newton_shift"], prediction["skew_correction"]])
        and all(
            e["radius"] == 0.0
            for key in ("order3", "order4")
            for e in entry[key]["verification"]["entries"]
        ),
    )

    code = EXIT_OK if failures == 0 else EXIT_BOUND_VIOLATED
    lines.append(f"selftest: {'all checks passed' if failures == 0 else f'{failures} failure(s)'}")
    return code, lines


def cmd_selftest(out_dir: str | None = None, seed: int = 0) -> int:
    code, lines = run_selftest(seed=seed)
    for line in lines:
        print(line)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, "selftest.json"),
            {"schema": REPORT_SCHEMA, "command": "selftest", "log": lines, "exit_code": code},
        )
    return code
