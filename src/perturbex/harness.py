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
from .errors import MissingFourthDerivative, MissingThirdDerivative
from .expand import (
    cubic_bound_check,
    exact_quadratic_expansion,
    expansion_for_order,
    fourth_order_expansion,
    skewness_correction,
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

_PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["quadratic", "logistic", "logsumexp"]},
        "dim": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "n": {"type": "integer", "minimum": 1},
        "reg": {"type": "number", "minimum": 0},
        "temp": {"type": "number", "exclusiveMinimum": 0},
        "cond": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "dim", "seed"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "problem": _PROBLEM_SCHEMA,
        "perturbation": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["linear", "quadratic", "smooth"]},
                "vector": {"type": "array", "items": {"type": "number"}},
                "seed": {"type": "integer"},
                "scale": {"type": "number", "minimum": 0},
                "lambda": {"type": "number", "minimum": 0},
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "penalty": _PROBLEM_SCHEMA,
                "weight": {"type": "number", "minimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "orders": {
            "type": "array",
            "items": {"enum": ["exact", 2, 3, 4]},
            "minItems": 1,
        },
        "certificate": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["estimated", "declared"]},
                "samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "inflation": {"type": "number", "minimum": 1},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "kappa": {"type": "number", "minimum": 0},
                "omega": {"type": "number", "minimum": 0},
                "tau3": {"type": "number", "minimum": 0},
                "tau4": {"type": "number", "minimum": 0},
            },
            "required": ["mode"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "tol": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "nu": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "scaling": {
            "type": "object",
            "properties": {
                "eps_grid": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                },
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "lambda_grid": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
                "g2": {
                    "type": "object",
                    "properties": {
                        "mode": {"enum": ["identity", "rank1", "matrix"]},
                        "seed": {"type": "integer"},
                        "matrix": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                    "required": ["mode"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
    },
    "required": ["problem"],
    "additionalProperties": False,
}

# Checking the schema itself takes tens of milliseconds, so it is done once
# here and every config load reuses the validator.
jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@dataclass
class ExperimentConfig:
    """Validated run description, loaded from JSON."""

    raw: dict[str, Any]

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        # The error jsonschema.validate(raw, CONFIG_SCHEMA) would raise.
        error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(raw))
        if error is not None:
            raise error
        cert = raw.get("certificate", {"mode": "estimated"})
        if cert.get("mode") == "estimated" and "seed" not in cert:
            if "seed" not in raw:
                raise ValueError(
                    "estimated certificates need a seed: set certificate.seed "
                    "or a top-level seed"
                )
        return cls(raw=raw)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

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

    @property
    def solver(self) -> dict[str, Any]:
        """The ``tol`` / ``max_iter`` keywords of every Newton solve of the run."""
        spec = self.raw.get("solver", {})
        return {"tol": spec.get("tol"), "max_iter": int(spec.get("max_iter", 100))}

    @property
    def nu(self) -> float:
        return float(self.raw.get("nu", constants.NU_DEFAULT))


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _write_json(path: str, payload: dict[str, Any]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
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


def _run_command(config_path: str, out_dir: str, seed: int | None, run) -> dict[str, Any]:
    """Load a config, apply a seed override, run it and write ``report.json``."""
    cfg = ExperimentConfig.from_file(config_path)
    if seed is not None:
        cfg.raw["seed"] = seed
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
        G2 = np.asarray(pert["matrix"], dtype=float)
        if G2.shape != (dim, dim):
            raise ValueError(f"penalty matrix has shape {G2.shape}, need ({dim},{dim})")
        return G2
    lam = float(pert.get("lambda", 0.1))
    return lam * np.eye(dim)


def _smooth_penalty(cfg: ExperimentConfig, dim: int) -> Oracle:
    pert = cfg.perturbation
    if "penalty" not in pert:
        raise ValueError("smooth perturbation needs a 'penalty' descriptor")
    desc = dict(pert["penalty"])
    if int(desc["dim"]) != dim:
        raise ValueError("penalty dimension does not match the problem")
    pen = oracle_from_descriptor(desc).oracle
    weight = float(pert.get("weight", 1.0))
    return ScaledOracle(pen, weight)


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
    curvature: SpdOperator | None = None,
) -> tuple[Oracle, np.ndarray, SpdOperator, SmoothnessCertificate]:
    """Build ``f + pen`` once, with its drive, factored curvature and certificate.

    ``curvature`` is the factored Hessian of ``f + pen`` at ``x*`` when the
    caller already has it; otherwise it is factored here.
    """
    g = smoothly_penalize(f, pen)
    FG = spd_from_dense(g.hessian(xstar)) if curvature is None else curvature
    cert = _build_certificate(cfg, g, xstar, FG, include_omega=False)
    check_anchor(f, xstar, cert.metric, constants.BIAS_ANCHOR_GRAD_RTOL)
    return g, pen.gradient(xstar), FG, cert


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
    checked against that one solution.
    """
    prob = oracle_from_descriptor(cfg.problem)
    f = prob.oracle
    anchor = newton_minimize(f, prob.x0, **cfg.solver)
    xstar = anchor.xhat
    kind = cfg.perturbation["kind"]

    # Orders a perturbation does not state, with the reason each is skipped.
    skips: dict[int | str, str] = {}
    if kind == "linear":
        drive = _linear_tilt(cfg, f.dim)
        g = linearly_perturb(f, drive)
        F = spd_from_dense(g.hessian(xstar))
        cert = _build_certificate(cfg, f, xstar, F, include_omega=True)
        if prob.kind != "quadratic":
            skips["exact"] = "exact expansion needs a quadratic objective; skipped"
    else:
        ridge = kind == "quadratic"
        pen = (
            PsdQuadraticOracle(_quadratic_penalty_matrix(cfg, f.dim))
            if ridge
            else _smooth_penalty(cfg, f.dim)
        )
        g, drive, F, cert = _penalized_problem(cfg, f, xstar, pen)
        if not (ridge and prob.kind == "quadratic"):
            skips["exact"] = "exact bias needs a quadratic objective and a ridge penalty; skipped"
        skips[2] = "penalty bias is stated at orders 3 and 4 only; skipped"

    warnings: list[str] = []
    results: list[dict[str, Any]] = []
    reports = []
    for order in cfg.orders:
        rep = skips.get(order)
        if rep is None:
            try:
                rep = expansion_for_order(g, xstar, F, cert.metric, drive, cert, order, cfg.nu)
            except (MissingThirdDerivative, MissingFourthDerivative) as exc:
                rep = f"order {order} skipped: {exc}"
        if isinstance(rep, str):
            warnings.append(rep)
            results.append({"order": str(order), "skipped": rep})
        else:
            reports.append(rep)
            results.append({"order": str(order), "report": rep.to_dict()})
    comparisons = iter(solve_and_compare(g, xstar, reports, **cfg.solver))
    for entry in results:
        if "report" in entry:
            entry["verification"] = next(comparisons).to_dict()

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
        config_path, out_dir, seed, lambda cfg: run_certify(cfg, require_gates)
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
    xstar = newton_minimize(f, prob.x0, **cfg.solver).xhat
    A0 = _linear_tilt(cfg, f.dim)
    F = spd_from_dense(f.hessian(xstar))
    eps_grid = list(cfg.raw.get("scaling", {}).get("eps_grid", DEFAULT_EPS_GRID))

    use_skew = f.has_third
    rows = []
    series: dict[str, list[float]] = {
        "newton_residual": [],
        "skew_residual": [],
        "value_error_2": [],
        "value_error_4": [],
    }
    for eps in eps_grid:
        A = eps * A0
        g = linearly_perturb(f, A)
        sol = newton_minimize(g, xstar, **cfg.solver)
        shift = sol.xhat - xstar
        dval = sol.value - g.value(xstar)
        u0 = F.apply_power(-1.0, A)
        xi2 = float(np.linalg.norm(F.apply_power(-0.5, A))) ** 2
        r_newton = float(np.linalg.norm(shift + u0))
        err_val2 = abs(dval + 0.5 * xi2)
        if use_skew:
            T_val, gradT = skewness_correction(f, xstar, u0)
            abar = -u0 - F.apply_power(-1.0, gradT)
            r_skew = float(np.linalg.norm(shift - abar))
            err_val4 = abs(dval + 0.5 * xi2 + T_val)
        else:
            r_skew = float("nan")
            err_val4 = float("nan")
        series["newton_residual"].append(r_newton)
        series["skew_residual"].append(r_skew)
        series["value_error_2"].append(err_val2)
        series["value_error_4"].append(err_val4)
        rows.append([eps, r_newton, r_skew, err_val2, err_val4])

    slopes = {
        name: _fit_slope(eps_grid, vals)
        for name, vals in series.items()
        if not any(math.isnan(v) for v in vals)
    }
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
    report = _run_command(config_path, out_dir, seed, run_scaling)
    _write_csv(
        os.path.join(out_dir, "scaling.csv"),
        ["eps", "newton_residual", "skew_residual", "value_error_2", "value_error_4"],
        report["rows"],
    )
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


def run_ridge_sweep(cfg: ExperimentConfig, require_gates: bool = False) -> dict[str, Any]:
    """Sweep ridge weights and verify the order-3 and order-4 bias radii.

    Each weight is one perturbed problem, built, factored and solved once.
    The weights are one family: every penalized curvature is
    ``H0 + lam G2`` with ``H0 = grad^2 f(x*)`` evaluated once, ``G2`` is
    checked for positive semidefiniteness once (a weight is never
    negative), and ``G2 = I`` shifts the spectrum of one factored ``H0``
    instead of factoring each ``H0 + lam I`` again.
    """
    prob = oracle_from_descriptor(cfg.problem)
    f = prob.oracle
    xstar = newton_minimize(f, prob.x0, **cfg.solver).xhat
    ridge = PsdQuadraticOracle(_sweep_base_matrix(cfg, f.dim))
    grid = list(cfg.raw.get("sweep", {}).get("lambda_grid", [0.0, 0.05, 0.1, 0.2]))
    want_fourth = f.has_third and f.has_fourth
    orders = [3, 4] if want_fourth else [3]
    H0 = f.hessian(xstar)
    F0 = spd_from_dense(H0) if np.array_equal(ridge.Q, np.eye(f.dim)) else None

    rows = []
    results = []
    verified = []
    for lam in grid:
        curvature = F0.shifted(lam) if F0 is not None else spd_from_dense(H0 + lam * ridge.Q)
        g, M, FG, cert = _penalized_problem(cfg, f, xstar, ridge.scaled(lam), curvature)
        reps = [expansion_for_order(g, xstar, FG, cert.metric, M, cert, order) for order in orders]
        comps = solve_and_compare(g, xstar, reps, **cfg.solver)
        entry: dict[str, Any] = {"lambda": lam, "tilt": M.tolist(), "certificate": cert.to_dict()}
        for rep, comp in zip(reps, comps):
            entry[f"order{rep.order}"] = {
                "report": rep.to_dict(),
                "verification": comp.to_dict(),
            }
            verified.append(entry[f"order{rep.order}"])
        results.append(entry)
        rep3, comp3 = reps[0], comps[0]
        rep4, comp4 = (reps[1], comps[1]) if want_fourth else (None, None)

        gate3 = rep3.bounds.gate("tau3_dnorm").satisfied
        gate4 = (
            rep4.bounds.gate("tau4_dnorm").satisfied if rep4 is not None else ""
        )
        radius3 = next(
            b.radius for b in rep3.bounds.shift_bounds if b.name == "newton_residual_dinvf"
        )
        resid3 = comp3.residual_norms["newton_residual_dinvf"]
        slack3 = comp3.slack_ratios["newton_residual_dinvf"]
        if rep4 is not None:
            radius4 = next(
                b.radius for b in rep4.bounds.shift_bounds if b.name == "skew_residual_dinvf"
            )
            resid4 = comp4.residual_norms["skew_residual_dinvf"]
            slack4 = comp4.slack_ratios["skew_residual_dinvf"]
        else:
            radius4 = resid4 = slack4 = ""
        rows.append(
            [
                lam,
                weighted_norm(cert.metric, rep3.predicted_shift),
                int(gate3),
                int(gate4) if gate4 != "" else "",
                float(np.linalg.norm(rep3.predicted_shift)),
                float(np.linalg.norm(comp3.actual_shift)),
                radius3,
                resid3,
                radius4,
                resid4,
                slack3,
                slack4,
            ]
        )

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
        config_path, out_dir, seed, lambda cfg: run_ridge_sweep(cfg, require_gates)
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
    comp = verify_expansion(quad, np.zeros(4), A, rep)
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
    rep0 = expansion_for_order(
        quad, np.zeros(4), F, cert_q.metric, np.zeros(4), cert_q, 3
    )
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
    cert_b = SmoothnessCertificate(
        metric=Fb, radius=1.0, kappa=1.0, omega=0.0, tau3=0.1, tau4=0.1,
        provenance={"mode": "declared"},
    )
    try:
        fourth_order_expansion(blind, np.zeros(2), Fb, Fb, np.array([0.1, 0.0]), cert_b)
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
