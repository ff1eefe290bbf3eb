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
from .errors import MissingFourthDerivative, MissingThirdDerivative, PreconditionViolated
from .expand import (
    _predict,
    cubic_bound_check,
    exact_quadratic_expansion,
    expansion_for_order,
    fourth_order_expansion,
    solve_and_compare,
    verify_expansion,
)
from .linalg import SpdOperator, spd_from_dense, spd_power_operator, weighted_norm
from .oracle import (
    CustomOracle,
    Oracle,
    PsdQuadraticOracle,
    QuadraticOracle,
    ScaledOracle,
    fd_probe,
    linearly_perturb,
    smoothly_penalize,
)
from .penalty import ridge_bias_exact_quadratic
from .smoothness import (
    SmoothnessCertificate,
    check_anchor,
    declared_certificate,
    estimate_certificate,
    taylor_diagnostics,
)
from .solver import newton_minimize
from .zoo import oracle_from_descriptor, random_spd

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

REPORT_SCHEMA = "perturbex.report.v3"
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
                "kappa": _NONNEGATIVE, "omega": _NONNEGATIVE,
                "tau3": _NONNEGATIVE, "tau4": _NONNEGATIVE,
            },
            _variant("mode", "estimated", "samples", "seed", "inflation", "radius"),
            _variant("mode", "declared", "radius", "kappa", "omega", "tau3", "tau4"),
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
            scaling=_object({"eps_grid": {"type": "array", "items": _POSITIVE, "minItems": 2}}),
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
        if "certificate" in CONFIG_SCHEMA["$defs"][command]["properties"]:
            cert = raw.get("certificate", {"mode": "estimated"})
            if cert["mode"] == "estimated" and "seed" not in cert and "seed" not in raw:
                raise ValueError(
                    "estimated certificates need a seed: set certificate.seed, "
                    "a top-level seed or --seed"
                )
        return cls(raw=raw)

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
        return self.raw.get("perturbation", {"kind": "linear", "scale": 0.1})

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


def _run_command(
    command: str, config_path: str, out_dir: str, seed: int | None, run
) -> dict[str, Any]:
    """Load ``command``'s config with a seed override, run it and write ``report.json``."""
    try:
        cfg = ExperimentConfig.from_file(config_path, command, seed)
    except jsonschema.ValidationError as error:
        raise ValueError(_config_error_line(error, command)) from None
    report = run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


def _linear_tilt(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    pert = cfg.perturbation
    if "vector" in pert:
        A = np.asarray(pert["vector"], dtype=float)
        if A.shape != (dim,):
            raise ValueError(f"perturbation vector has shape {A.shape}, need ({dim},)")
        return A
    seed = int(pert.get("seed", cfg.seed + 2))
    scale = float(pert.get("scale", 0.1))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return scale * v / np.linalg.norm(v)


def _quadratic_penalty_matrix(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    pert = cfg.perturbation
    if "matrix" in pert:
        return np.asarray(pert["matrix"], dtype=float)
    lam = float(pert.get("lambda", 0.1))
    return lam * np.eye(dim)


def _smooth_penalty(cfg: ExperimentConfig) -> Oracle:
    pert = cfg.perturbation
    pen = oracle_from_descriptor(pert["penalty"]).oracle
    return ScaledOracle(pen, float(pert.get("weight", 1.0)))


def _build_certificate(
    cfg: ExperimentConfig,
    f: Oracle,
    xstar: np.ndarray,
    curvature: SpdOperator,
    include_omega: bool,
) -> SmoothnessCertificate:
    spec = cfg.certificate
    radius = float(spec.get("radius", 1.0))
    metric = spd_power_operator(curvature, 0.5)
    if spec["mode"] == "declared":
        return declared_certificate(
            metric=metric,
            radius=radius,
            kappa=float(spec.get("kappa", 1.0)),
            omega=float(spec.get("omega", 0.0)),
            tau3=spec.get("tau3"),
            tau4=spec.get("tau4"),
        )
    return estimate_certificate(
        f,
        xstar,
        curvature=curvature,
        metric=metric,
        radius=radius,
        samples=int(spec.get("samples", 200)),
        seed=int(spec.get("seed", cfg.seed + 1)),
        inflation=float(spec.get("inflation", constants.ESTIMATE_INFLATION)),
        include_omega=include_omega,
    )


def _penalized_problem(
    cfg: ExperimentConfig,
    f: Oracle,
    xstar: np.ndarray,
    pen: Oracle,
    g: Oracle,
    H: np.ndarray,
    curvature: SpdOperator | None = None,
) -> tuple[np.ndarray, SpdOperator, SmoothnessCertificate]:
    """The drive, factored curvature and certificate of ``g = smoothly_penalize(f, pen)``.

    ``H`` is ``g``'s Hessian at ``x*``, which the caller forms from the
    anchor's ``grad^2 f(x*)``.  ``curvature`` is ``H`` factored when the
    caller already has it; otherwise it is factored here.
    """
    FG = spd_from_dense(H) if curvature is None else curvature
    cert = _build_certificate(cfg, g, xstar, FG, include_omega=False)
    check_anchor(f, xstar, cert.metric, constants.BIAS_ANCHOR_GRAD_RTOL)
    return pen.gradient(xstar), FG, cert


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
                ver["slack_ratios"].get("value", ""),
                ";".join(ver["violations"]),
            ]
        )
    return header, rows


def _verified_orders(
    xstar: np.ndarray,
    perturbed: tuple[Oracle, np.ndarray, np.ndarray, SpdOperator, SmoothnessCertificate],
    orders: list,
    skips: dict[int | str, str],
) -> list[dict[str, Any]]:
    """Each order's report for ``perturbed = (g, drive, H, F, cert)``, verified by one solve.

    ``H`` is ``g``'s Hessian at ``x*`` as the oracle computes it and ``F`` is
    ``H`` factored.  The solve starts at ``x*`` from the raw ``H``, not from
    ``F.matrix``: that is symmetrized, and an oracle's Hessian need not be
    symmetric to the last bit, so it would round the first step differently.

    Returns one result per order, ``{"order", "report", "verification"}``,
    or ``{"order", "skipped"}`` with the reason when ``skips`` names the
    order or the oracle or certificate lacks a derivative it needs.
    """
    g, drive, H, F, cert = perturbed
    results: list[dict[str, Any]] = []
    reports = []
    for order in orders:
        rep = skips.get(order)
        if rep is None:
            try:
                rep = expansion_for_order(g, xstar, F, drive, cert, order)
            except (MissingThirdDerivative, MissingFourthDerivative) as exc:
                rep = f"order {order} skipped: {exc}"
        if isinstance(rep, str):
            results.append({"order": str(order), "skipped": rep})
        else:
            reports.append(rep)
            results.append({"order": str(order), "report": rep.to_dict()})
    comparisons = iter(solve_and_compare(g, xstar, reports, hessian=H))
    for res in results:
        if "report" in res:
            res["verification"] = next(comparisons).to_dict()
    return results


def _aggregate_exit(results: list[dict[str, Any]], require_gates: bool) -> int:
    violated = False
    gate_failed = False
    for res in results:
        if "skipped" in res:
            continue
        if res["verification"]["violations"]:
            violated = True
        if not res["verification"]["certifying"]:
            gate_failed = True
    if violated:
        return EXIT_BOUND_VIOLATED
    if gate_failed and require_gates:
        return EXIT_GATE_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def run_certify(cfg: ExperimentConfig, require_gates: bool = False) -> dict[str, Any]:
    """Run the configured expansion orders and verify each against the solver.

    A penalty is a linear tilt of ``f + pen`` with drive ``grad pen(x*)``, so
    both kinds of perturbation build the same reports; they differ only in
    the perturbed problem and in which orders they state.  The perturbed
    problem is built, factored and solved once; every order's report is
    checked against that one solution.  ``grad^2 f(x*)`` is evaluated once,
    by the anchor solve's converging step, and every later use takes it
    from there.
    """
    prob = oracle_from_descriptor(cfg.problem)
    f = prob.oracle
    anchor = newton_minimize(f, prob.x0)
    xstar = anchor.xhat
    kind = cfg.perturbation["kind"]

    # Orders a perturbation does not state, with the reason each is skipped.
    skips: dict[int | str, str] = {}
    if kind == "linear":
        drive = _linear_tilt(cfg, f.dim)
        g = linearly_perturb(f, drive)
        # A tilt has no curvature: g's Hessian is f's, bit for bit.
        H = anchor.hessian
        F = spd_from_dense(H)
        cert = _build_certificate(cfg, f, xstar, F, include_omega=True)
        if prob.kind != "quadratic":
            skips["exact"] = "exact expansion needs a quadratic objective; skipped"
    else:
        ridge = kind == "quadratic"
        pen = (
            PsdQuadraticOracle(_quadratic_penalty_matrix(cfg, f.dim))
            if ridge
            else _smooth_penalty(cfg)
        )
        g = smoothly_penalize(f, pen)
        # g sums its terms' Hessians in this order: g.hessian(x*) bit for bit.
        H = anchor.hessian + pen.hessian(xstar)
        drive, F, cert = _penalized_problem(cfg, f, xstar, pen, g, H)
        if not (ridge and prob.kind == "quadratic"):
            skips["exact"] = "exact bias needs a quadratic objective and a ridge penalty; skipped"
        skips[2] = "penalty bias is stated at orders 3 and 4 only; skipped"

    results = _verified_orders(xstar, (g, drive, H, F, cert), cfg.orders, skips)
    warnings = [res["skipped"] for res in results if "skipped" in res]
    exit_code = _aggregate_exit(results, require_gates)
    return {
        "schema": REPORT_SCHEMA,
        "command": "certify",
        "config": cfg.raw,
        "problem": prob.descriptor,
        "anchor": {
            "xstar": xstar.tolist(),
            "value": anchor.value,
            "solver": {
                "iterations": anchor.iterations,
                "grad_norm_dual": anchor.grad_norm_dual,
            },
        },
        "tilt": drive.tolist(),
        "certificate": cert.to_dict(),
        "results": results,
        "warnings": warnings,
        "exit_code": exit_code,
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


SCALING_HEADER = ["eps", "newton_residual", "skew_residual", "value_error_2", "value_error_4"]


def run_scaling(cfg: ExperimentConfig) -> dict[str, Any]:
    """Shrink a linear tilt geometrically and measure residual decay rates.

    For each epsilon the tilted problem is solved to solver precision and
    three residuals are recorded: the Euclidean error of the Newton
    prediction, of the skew-corrected prediction, and of the order-4 value
    prediction (plus the order-2 value error for reference).  Log-log
    slopes are fitted over the points above the 1e-12 numerical floor.
    """
    prob = oracle_from_descriptor(cfg.problem)
    f = prob.oracle
    anchor = newton_minimize(f, prob.x0)
    xstar = anchor.xhat
    A0 = _linear_tilt(cfg, f.dim)
    F = spd_from_dense(anchor.hessian)
    eps_grid = list(cfg.raw.get("scaling", {}).get("eps_grid", DEFAULT_EPS_GRID))

    rows = []
    for eps in eps_grid:
        A = eps * A0
        g = linearly_perturb(f, A)
        sol = newton_minimize(g, xstar, hessian=anchor.hessian)
        shift = sol.xhat - xstar
        dval = sol.value - sol.start_value
        p = _predict(F, A, f, xstar)
        r_newton = float(np.linalg.norm(shift + p.u0))
        r_skew = float(np.linalg.norm(shift - p.shift))
        # The order-4 value error is the order-2 one plus T: the same as
        # dval minus the order-4 prediction, but T is added after dval and
        # -xi^2/2 have cancelled, so it is not rounded at the scale of xi^2.
        resid2 = dval - p.newton_value
        rows.append([eps, r_newton, r_skew, abs(resid2), abs(resid2 + p.T)])

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
        rng = np.random.default_rng(int(spec.get("seed", cfg.seed + 3)))
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v)
    G2 = np.asarray(spec["matrix"], dtype=float)
    if G2.shape != (dim, dim):
        raise ValueError(f"sweep matrix has shape {G2.shape}, need ({dim},{dim})")
    return G2


def _named(items: list[dict[str, Any]], name: str) -> dict[str, Any]:
    """The gate or verification entry called ``name``."""
    return next(item for item in items if item["name"] == name)


def run_ridge_sweep(cfg: ExperimentConfig, require_gates: bool = False) -> dict[str, Any]:
    """Sweep ridge weights and verify the order-3 and order-4 bias radii.

    Each weight is one perturbed problem, built, factored and solved once.
    The weights are one family: every penalized curvature is
    ``H0 + lam G2`` with ``H0 = grad^2 f(x*)`` taken from the anchor solve,
    whose converging step evaluated it; each verification solve starts from
    its ``H0 + lam G2`` instead of evaluating it again.  ``G2`` is
    checked for positive semidefiniteness once (a weight is never
    negative), and ``G2 = I`` shifts the spectrum of one factored ``H0``
    instead of factoring each ``H0 + lam I`` again.
    """
    prob = oracle_from_descriptor(cfg.problem)
    f = prob.oracle
    anchor = newton_minimize(f, prob.x0)
    xstar = anchor.xhat
    ridge = PsdQuadraticOracle(_sweep_base_matrix(cfg, f.dim))
    grid = list(cfg.raw.get("sweep", {}).get("lambda_grid", [0.0, 0.05, 0.1, 0.2]))
    H0 = anchor.hessian
    F0 = spd_from_dense(H0) if np.array_equal(ridge.Q, np.eye(f.dim)) else None

    rows = []
    results = []
    for lam in grid:
        pen = ridge.scaled(lam)
        # g's Hessian at x* bit for bit: pen's Hessian is a copy of lam * Q.
        H = H0 + lam * ridge.Q
        g = smoothly_penalize(f, pen)
        shifted = F0.shifted(lam) if F0 is not None else None
        M, F, cert = _penalized_problem(cfg, f, xstar, pen, g, H, shifted)
        perturbed = (g, M, H, F, cert)
        entry: dict[str, Any] = {"lambda": lam, "tilt": M.tolist(), "certificate": cert.to_dict()}
        for res in _verified_orders(xstar, perturbed, [3, 4], {}):
            if "skipped" in res:
                raise PreconditionViolated(res["skipped"])
            entry[f"order{res.pop('order')}"] = res
        results.append(entry)

        o3, o4 = entry["order3"], entry["order4"]
        pred = np.asarray(o3["report"]["predicted_shift"])
        e3 = _named(o3["verification"]["entries"], "newton_residual_dinvf")
        e4 = _named(o4["verification"]["entries"], "skew_residual_dinvf")
        rows.append(
            [
                lam,
                weighted_norm(cert.metric, pred),
                int(_named(o3["report"]["bounds"]["preconditions"], "tau3_dnorm")["satisfied"]),
                int(_named(o4["report"]["bounds"]["preconditions"], "tau4_dnorm")["satisfied"]),
                float(np.linalg.norm(pred)),
                float(np.linalg.norm(o3["verification"]["actual_shift"])),
                e3["radius"],
                e3["residual"],
                e4["radius"],
                e4["residual"],
                e3["slack"],
                e4["slack"],
            ]
        )

    verified = [entry[key] for entry in results for key in ("order3", "order4")]
    exit_code = _aggregate_exit(verified, require_gates)
    return {
        "schema": REPORT_SCHEMA,
        "command": "ridge-sweep",
        "config": cfg.raw,
        "problem": prob.descriptor,
        "lambda_grid": grid,
        "rows": rows,
        "results": results,
        "exit_code": exit_code,
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


def run_selftest(seed: int = 0, verbose: bool = True) -> tuple[int, list[str]]:
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
        record = fd_probe(prob.oracle, point, directions=6, seed=seed + 4)
        check(f"fd probe {desc['kind']}", record.passed)

    # Exact quadratic shift against the solver.
    F = random_spd(np.random.default_rng(seed + 5), 4, cond=8.0)
    quad = QuadraticOracle(F, np.zeros(4))
    A = 0.3 * np.random.default_rng(seed + 6).standard_normal(4)
    rep = exact_quadratic_expansion(F, A)
    comp = verify_expansion(quad, np.zeros(4), rep)
    check(
        "quadratic exactness",
        not comp.violations and comp.max_certified_slack <= 1.0,
        f"slack {comp.max_certified_slack:.2e}",
    )

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
    prob = oracle_from_descriptor(
        {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": seed + 7}
    )
    sol = newton_minimize(prob.oracle, prob.x0)
    cert = estimate_certificate(
        prob.oracle, sol.xhat, radius=0.5, samples=120, seed=seed + 8
    )
    diag = taylor_diagnostics(prob.oracle, sol.xhat, cert, samples=80, seed=seed + 9)
    worst = max(c.worst_ratio for c in diag.checks)
    check("taylor remainders", diag.passed, f"worst ratio {worst:.3f}")

    # Envelope inequalities on a few seeded instances.
    env_ok = True
    for k in range(3):
        erng = np.random.default_rng(seed + 10 + k)
        dim = 2 + k
        U = random_spd(erng, dim, cond=4.0)
        U = spd_from_dense(U.matrix + (1.0 - U.eigenvalues[-1] + 0.5) * np.eye(dim))
        r = 1.0
        s = erng.standard_normal(dim)
        s *= (0.8 * r) / np.linalg.norm(s)
        tau = 0.3 / r
        record = cubic_bound_check(U, s, tau, r, samples=20_000, seed=seed + 20 + k)
        env_ok = env_ok and record.passed
    check("cubic envelope", env_ok)

    # Zero tilt must produce a zero prediction and zero radii.
    cert_q = estimate_certificate(quad, np.zeros(4), radius=1.0, samples=40, seed=seed)
    rep0 = expansion_for_order(quad, np.zeros(4), F, np.zeros(4), cert_q, 3)
    radii = [b.radius for b in rep0.bounds.shift_bounds]
    check(
        "zero tilt",
        float(np.linalg.norm(rep0.predicted_shift)) == 0.0 and max(radii) == 0.0,
    )

    # Capability gate: an oracle without analytic third derivatives must be
    # skipped at order 4 with a warning, not crash.
    blind = CustomOracle(
        dim=2,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x,
        hessian=lambda x: np.eye(2),
    )
    Fb = spd_from_dense(np.eye(2))
    cert_b = declared_certificate(Fb, radius=1.0, kappa=1.0, omega=0.0, tau3=0.1, tau4=0.1)
    try:
        fourth_order_expansion(blind, np.zeros(2), Fb, np.array([0.1, 0.0]), cert_b)
        check("capability gate", False, "order-4 ran without third derivatives")
    except MissingThirdDerivative:
        lines.append(
            "selftest: warning: order-4 request skipped for an oracle without "
            "analytic third derivatives"
        )
        check("capability gate", True)

    code = EXIT_OK if failures == 0 else EXIT_BOUND_VIOLATED
    lines.append(f"selftest: {'all checks passed' if failures == 0 else f'{failures} failure(s)'}")
    if verbose:
        for line in lines:
            print(line)
    return code, lines


def cmd_selftest(out_dir: str | None = None, seed: int = 0) -> int:
    code, lines = run_selftest(seed=seed, verbose=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, "selftest.json"),
            {"schema": REPORT_SCHEMA, "command": "selftest", "log": lines, "exit_code": code},
        )
    return code
