"""Expansions of a minimizer under a linear tilt, with certified radii.

Setting: ``f`` is smooth and strongly convex with minimizer ``x*`` and
curvature ``F = grad^2 f(x*)``; the perturbed objective is
``g(x) = f(x) + <x, A>`` with minimizer ``x~``.  Operations here predict
the shift ``x~ - x*`` and the value change ``g(x~) - g(x*)`` at increasing
order, each prediction wrapped in a :class:`BoundSet` whose radii are
closed-form functions of the smoothness certificate:

========  ==========================================  =======================
order     prediction                                  residual radius
========  ==========================================  =======================
exact     ``-F^{-1} A`` (quadratic ``f`` only)        0
2         ``-F^{-1} A``                               ``2 sqrt(omega) /
                                                      (1 - kappa^2 omega) b``
3         ``-F^{-1} A``                               ``(3 tau3 / 4) b^2``
4         ``-F^{-1} A - F^{-1} gradT(F^{-1} A)``      ``(tau4/2 +
                                                      kappa^2 tau3^2) b^3``
========  ==========================================  =======================

where ``b = ||D F^{-1} A||``, ``D`` is the metric the certificate was
measured in (every radius is stated in it; ``cert.metric`` is its Gram
``D^2``), ``kappa`` is the smallest constant with ``D^2 <= kappa^2 F``,
computed from the metric and ``F`` by each order, and
``T(u) = <grad^3 f(x*), u^3> / 6`` is the skew term.  Gates (the
inequalities each theorem assumes) are always reported with both sides,
never raised: a failed gate downgrades the radii to advisory.  A radius
past the float range is ``+inf``, behind a gate that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np

from . import constants
from .diagnostics import Gate, _no_claim
from .errors import (
    HessianNotPd,
    MissingConstant,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .linalg import SpdOperator, as_vector, kappa_between, spd_from_dense
from .oracle import Oracle, SumOracle, smoothly_penalize
from .smoothness import SmoothnessCertificate
from .solver import newton_minimize

__all__ = [
    "RadiusBound",
    "ValueBound",
    "BoundSet",
    "ExpansionReport",
    "ComparisonReport",
    "Solution",
    "Prediction",
    "predict",
    "exact_quadratic_expansion",
    "second_order_bounds",
    "third_order_bounds",
    "skewness_correction",
    "fourth_order_expansion",
    "expansion_for_order",
    "distance_to_optimum",
    "compare_with_solution",
]

NORM_D = "D"
NORM_FHALF = "Fhalf"
NORM_DINVF = "DinvF"
TARGET_SHIFT = "shift"
TARGET_NEWTON = "newton_residual"
TARGET_SKEW = "skew_residual"


def _power(x: float, k: int) -> float:
    """``x**k`` for ``x >= 0``, or ``+inf`` where a Python float raises ``OverflowError``."""
    try:
        return x**k
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RadiusBound:
    """``norm(target) <= radius`` whenever the named gates hold."""

    name: str
    norm: str
    target: str
    radius: float
    requires: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", _no_claim(self.radius))

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "requires": list(self.requires)}


@dataclass(frozen=True)
class ValueBound:
    """Bracket for (actual - predicted) value change, gated like a radius."""

    lower: float
    upper: float
    requires: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", _no_claim(self.lower, -1.0))
        object.__setattr__(self, "upper", _no_claim(self.upper))

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "requires": list(self.requires)}


@dataclass
class BoundSet:
    """Gates plus the radii they certify.

    ``preconditions`` hold the reported gate inequalities; ``shift_bounds``
    the per-norm radii; ``value_bound`` the bracket around the predicted
    value change; ``diagnostics`` extra reported inequalities that are
    consequences rather than assumptions.
    """

    preconditions: list[Gate] = field(default_factory=list)
    shift_bounds: list[RadiusBound] = field(default_factory=list)
    value_bound: ValueBound | None = None
    diagnostics: list[Gate] = field(default_factory=list)

    def gate(self, name: str) -> Gate:
        for g in self.preconditions:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def all_gates_pass(self) -> bool:
        return all(g.satisfied for g in self.preconditions)

    def gates_hold(self, names: tuple[str, ...]) -> bool:
        return all(self.gate(n).satisfied for n in names)

    def failed_gates(self) -> list[str]:
        return [g.name for g in self.preconditions if not g.satisfied]

    def to_dict(self) -> dict[str, Any]:
        return {
            "preconditions": [g.to_dict() for g in self.preconditions],
            "shift_bounds": [b.to_dict() for b in self.shift_bounds],
            "value_bound": None if self.value_bound is None else self.value_bound.to_dict(),
            "diagnostics": [g.to_dict() for g in self.diagnostics],
        }


@dataclass
class ExpansionReport:
    """One order's reading of the shared ``prediction`` plus its certified radii."""

    order: str
    predicted_shift: np.ndarray
    predicted_value_change: float
    bounds: BoundSet
    prediction: Prediction
    certificate: SmoothnessCertificate | None = None
    anchor: str = "base-minimizer"

    def to_dict(self) -> dict[str, Any]:
        return {"order": self.order, "anchor": self.anchor, "bounds": self.bounds.to_dict()}


@dataclass
class ComparisonReport:
    """Solver-truth residuals measured against one report's radii.

    ``entries`` holds one record per radius and one for the value bracket;
    the other views are derived from them.
    """

    certifying: bool
    entries: list[dict[str, Any]] = field(default_factory=list)

    @property
    def residual_norms(self) -> dict[str, float]:
        return {e["name"]: e["residual"] for e in self.entries}

    @property
    def violations(self) -> list[str]:
        """Certified entries whose residual exceeds the radius beyond tolerance."""
        tol = 1.0 + constants.SLACK_TOLERANCE
        return [e["name"] for e in self.entries if e["certified"] and e["slack"] > tol]

    @property
    def max_certified_slack(self) -> float:
        vals = [e["slack"] for e in self.entries if e["certified"]]
        return max(vals) if vals else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "certifying": self.certifying,
            "violations": self.violations,
            "max_certified_slack": self.max_certified_slack,
            "entries": self.entries,
        }


@dataclass(frozen=True)
class Solution:
    """The verification solve of one perturbed problem ``g``, from ``x*``.

    ``actual_shift`` is ``x~ - x*`` and ``actual_value_change`` is
    ``g(x~) - g(x*)``; ``solver`` is the solve's :meth:`SolveResult.stats`.
    """

    actual_shift: np.ndarray
    actual_value_change: float
    solver: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "actual_shift": self.actual_shift.tolist()}


# ---------------------------------------------------------------------------
# Expansion operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """A perturbed problem ``g`` and its prediction, made once for every order.

    ``g`` is ``f + <., A>`` or ``f + pen`` with drive ``A = grad pen(x*)``,
    either way a tilt by ``A`` of a function minimized at ``x*``; verification
    solves it from ``x*``.  ``F`` is ``g``'s factored Hessian at ``x*``,
    ``u0 = F^{-1} A`` and ``xi = ||F^{-1/2} A||``.  Every order predicts the
    Newton shift ``-u0`` and value change ``-xi^2 / 2``; order 4 adds
    ``skew_correction = -F^{-1} gradT(u0)`` to the shift and subtracts
    ``T(u0)``, taken from ``g`` at ``x*`` on first use, once.  The
    verification solve, :attr:`solution`, is likewise made on first read, once.
    """

    g: Oracle
    xstar: np.ndarray
    F: SpdOperator
    A: np.ndarray
    u0: np.ndarray
    xi: float

    @property
    def newton_value_change(self) -> float:
        return -0.5 * _power(self.xi, 2)

    @cached_property
    def skew(self) -> tuple[np.ndarray, float]:
        """``(skew_correction, T(u0))``."""
        with np.errstate(over="ignore", invalid="ignore"):
            T, gradT = skewness_correction(self.g, self.xstar, self.u0)
            correction = -(self.F.L_inv.T @ (self.F.L_inv @ gradT))
        if not (np.isfinite(correction).all() and math.isfinite(T)):
            raise FloatingPointError("overflow in the skew term of the tilt")
        return correction, T

    @cached_property
    def solution(self) -> Solution:
        """The damped Newton solve of ``g`` from ``x*``, stepping on ``F``.

        It starts from ``x*``, never from the prediction, so the reference
        does not depend on what it checks.
        """
        sol = newton_minimize(self.g, self.xstar, curvature=self.F)
        return Solution(sol.xhat - self.xstar, sol.value - sol.start_value, sol.stats())

    def report(self, order: str, bounds: BoundSet, cert=None) -> ExpansionReport:
        return ExpansionReport(order, -self.u0, self.newton_value_change, bounds, self, cert)

    def to_dict(self) -> dict[str, Any]:
        """The Newton pair, and the skew pair once an order-4 report computed it."""
        correction, T = vars(self).get("skew", (None, None))
        return {
            "newton_shift": (-self.u0).tolist(),
            "newton_value_change": self.newton_value_change,
            "skew_correction": None if correction is None else correction.tolist(),
            "skew_value": T,
        }


def predict(f: Oracle, xstar, perturbation, *, curvature: SpdOperator | None = None) -> Prediction:
    """The :class:`Prediction` of ``f``, minimized at ``x*``, under a tilt or a penalty.

    A vector is a tilt ``A``: ``g = f + <., A>``.  An :class:`Oracle` is a
    penalty: ``g = f + pen``, driven by ``A = grad pen(x*)``.  ``curvature``,
    ``grad^2 f(x*)`` factored by the caller, is used as it is, unchecked, for a
    tilt and for a penalty whose Hessian at ``x*`` is zero; any other ``F`` is
    factored and held to the SPD floor.
    """
    xstar = as_vector(xstar, f.dim)
    if isinstance(perturbation, Oracle):
        g, A = smoothly_penalize(f, perturbation), perturbation.gradient(xstar)
        H_pen = perturbation.hessian(xstar)
        if curvature is None or H_pen.any():
            H = f.hessian(xstar) if curvature is None else curvature.matrix
            curvature = spd_from_dense(H + H_pen)
    else:
        A = as_vector(perturbation, f.dim)
        g = SumOracle(f, tilt=A)
        if curvature is None:
            curvature = spd_from_dense(f.hessian(xstar))
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = curvature.solve(A)
        xi = curvature.dual_norm(A)
        if not (np.isfinite(u0).all() and math.isfinite(xi)):
            raise FloatingPointError("the Newton step F^-1 A of the tilt is not finite")
    return Prediction(g, xstar, curvature, A, u0, xi)


def exact_quadratic_expansion(p: Prediction) -> ExpansionReport:
    """Closed-form shift and value change when ``f`` is exactly quadratic.

    ``x~ - x* = -F^{-1} A`` and ``g(x~) - g(x*) = -||F^{-1/2} A||^2 / 2``,
    with no remainder; the report carries zero radii.
    """
    bounds = BoundSet(
        shift_bounds=[
            RadiusBound("newton_residual_exact", NORM_FHALF, TARGET_NEWTON, 0.0)
        ],
        value_bound=ValueBound(0.0, 0.0),
    )
    return p.report("exact-quadratic", bounds)


def second_order_bounds(p: Prediction, cert: SmoothnessCertificate) -> BoundSet:
    """Two-sided value sandwich and shift radii from the omega constant.

    With ``b = ||D F^{-1} A||`` and ``omega <= 1/3``, the value change
    satisfies (on the doubled scale)

    ``-omega / (1 - kappa^2 omega) b^2
      <= 2 g(x~) - 2 g(x*) + ||F^{-1/2} A||^2
      <= omega / (1 + kappa^2 omega) b^2``

    and the shift obeys
    ``||D (x~ - x* + F^{-1} A)|| <= 2 sqrt(omega) / (1 - kappa^2 omega) b``,
    ``||D (x~ - x*)|| <= (1 + 2 sqrt(omega)) / (1 - kappa^2 omega) b``.

    The certificate radius lives in the metric norm; the tilt-fraction gate
    uses the curvature ball of radius ``cert.radius / kappa``, which the
    metric ball contains; ``nu`` is ``constants.NU_DEFAULT``.
    """
    if cert.omega is None:
        raise MissingConstant("certificate lacks omega")
    kappa = kappa_between(cert.metric, p.F)
    omega = cert.omega
    k2 = _power(kappa, 2)
    b = cert.metric.norm(p.u0)
    gates = [
        Gate("omega_cap", omega, constants.OMEGA_MAX),
        Gate("tilt_fraction", p.xi, constants.NU_DEFAULT * cert.radius / kappa),
        Gate("stability_margin", omega * k2, 1.0 - constants.NU_DEFAULT, strict=True),
    ]
    names = tuple(g.name for g in gates)
    denom_minus = 1.0 - k2 * omega
    denom_plus = 1.0 + k2 * omega
    if denom_minus > 0:
        newton_radius = 2.0 * math.sqrt(omega) / denom_minus * b
        shift_radius = (1.0 + 2.0 * math.sqrt(omega)) / denom_minus * b
        lower = -omega / (2.0 * denom_minus) * _power(b, 2)
    else:  # advisory only; the stability gate has already failed
        newton_radius = np.inf
        shift_radius = np.inf
        lower = -np.inf
    upper = omega / (2.0 * denom_plus) * _power(b, 2)
    return BoundSet(
        preconditions=gates,
        shift_bounds=[
            RadiusBound("newton_residual_d", NORM_D, TARGET_NEWTON, newton_radius, names),
            RadiusBound("shift_d", NORM_D, TARGET_SHIFT, shift_radius, names),
        ],
        value_bound=ValueBound(lower, upper, names),
    )


def third_order_bounds(p: Prediction, cert: SmoothnessCertificate) -> BoundSet:
    """Cubic-term radii for the Newton prediction ``-F^{-1} A``.

    Curvature-ball statements (gated by ``r >= (4 kappa / 3) xi`` and
    ``kappa^3 tau3 xi < 1/4`` with ``xi = ||F^{-1/2} A||``):

    - ``||F^{1/2}(x~ - x*)|| <= (4/3) xi``
    - ``||D (x~ - x*)|| <= (4 kappa / 3) xi``
    - ``|g(x~) - g(x*) + xi^2 / 2| <= (tau3 / 4) b^3``

    Metric-ball statements (gated by ``r >= (3/2) b`` and
    ``kappa^2 tau3 b < 4/9`` with ``b = ||D F^{-1} A||``):

    - ``||D (x~ - x*)|| <= (3/2) b``
    - ``||D^{-1} F (x~ - x* + F^{-1} A)|| <= (3 tau3 / 4) b^2``
    """
    if cert.tau3 is None:
        raise MissingConstant("certificate lacks tau3")
    kappa = kappa_between(cert.metric, p.F)
    tau3 = cert.tau3
    r = cert.radius
    xi, b = p.xi, cert.metric.norm(p.u0)
    gates = [
        Gate("fnorm_radius", constants.RADIUS_FACTOR_FNORM * kappa * xi, r),
        Gate("tau3_fnorm", _power(kappa, 3) * tau3 * xi, constants.TAU3_GATE_FNORM, strict=True),
        Gate("dnorm_radius", constants.RADIUS_FACTOR_DNORM * b, r),
        Gate("tau3_dnorm", _power(kappa, 2) * tau3 * b, constants.TAU3_GATE_DNORM, strict=True),
    ]
    fnorm_gates = ("fnorm_radius", "tau3_fnorm")
    dnorm_gates = ("dnorm_radius", "tau3_dnorm")
    return BoundSet(
        preconditions=gates,
        shift_bounds=[
            RadiusBound(
                "shift_fhalf", NORM_FHALF, TARGET_SHIFT,
                constants.SHIFT_FACTOR_FNORM * xi, fnorm_gates,
            ),
            RadiusBound(
                "shift_d_wide", NORM_D, TARGET_SHIFT,
                constants.SHIFT_FACTOR_FNORM * kappa * xi, fnorm_gates,
            ),
            RadiusBound(
                "shift_d", NORM_D, TARGET_SHIFT,
                constants.SHIFT_FACTOR_DNORM * b, dnorm_gates,
            ),
            RadiusBound(
                "newton_residual_dinvf", NORM_DINVF, TARGET_NEWTON,
                constants.NEWTON_RESIDUAL_FACTOR * tau3 * _power(b, 2), dnorm_gates,
            ),
        ],
        value_bound=ValueBound(
            -constants.VALUE_FACTOR_THIRD * tau3 * _power(b, 3),
            constants.VALUE_FACTOR_THIRD * tau3 * _power(b, 3),
            fnorm_gates,
        ),
    )


def skewness_correction(f: Oracle, xstar, u) -> tuple[float, np.ndarray]:
    """Skew term of the expansion: ``T(u) = <grad^3 f(x*), u^3> / 6``.

    Returns ``(T(u), gradT(u))`` with
    ``gradT(u) = <grad^3 f(x*), u^2, .> / 2``.  ``T`` is odd in ``u`` and
    ``gradT`` is even.  The tensor is ``f.third_dir``'s, never differenced.
    """
    u = as_vector(u, f.dim)
    t3 = f.third_dir(xstar, u)
    return float(t3 @ u) / 6.0, t3 / 2.0


def fourth_order_expansion(p: Prediction, cert: SmoothnessCertificate) -> ExpansionReport:
    """Skew-corrected prediction with quartic-scale radii.

    The corrected shift is ``abar = -F^{-1} (A + gradT(F^{-1} A))`` and the
    predicted value change ``-||F^{-1/2} A||^2 / 2 - T(F^{-1} A)``.  Under
    the metric-ball gates plus ``kappa^2 tau4 b^2 < 1/3``:

    - ``||D^{-1} F (x~ - x* - abar)|| <= (tau4 / 2 + kappa^2 tau3^2) b^3``
    - the value error is at most
      ``(tau4 + 4 kappa^2 tau3^2) / 8 * b^4
      + kappa^2 (tau4 + 2 kappa^2 tau3^2)^2 / 4 * b^6``
    - the order-3 shift radius ``(3/2) b`` still applies.

    Reported as diagnostics: how far the corrected shift sits from the
    Newton prediction, ``||D (abar + F^{-1} A)|| <= (tau3 / 2) b^2`` (the
    same line with the opposite inner sign is emitted for contrast; it is
    of order ``2 b``, not ``b^2``), and the computed skew magnitude against
    its own cap ``|T| <= (tau3 / 6) b^3``.
    """
    if cert.tau3 is None:
        raise MissingConstant("certificate lacks tau3")
    if cert.tau4 is None:
        raise MissingConstant("certificate lacks tau4")
    tau3 = cert.tau3
    tau4 = cert.tau4
    r = cert.radius
    D = cert.metric
    correction, T = p.skew
    shift = -p.u0 + correction
    b = D.norm(p.u0)
    k2, t3sq, b3 = _power(kappa_between(D, p.F), 2), _power(tau3, 2), _power(b, 3)

    gates = [
        Gate("dnorm_radius", constants.RADIUS_FACTOR_DNORM * b, r),
        Gate("tau3_dnorm", k2 * tau3 * b, constants.TAU3_GATE_DNORM, strict=True),
        Gate("tau4_dnorm", k2 * tau4 * _power(b, 2), constants.TAU4_GATE_DNORM, strict=True),
    ]
    all_names = tuple(g.name for g in gates)
    third_names = ("dnorm_radius", "tau3_dnorm")
    skew_radius = (0.5 * tau4 + k2 * t3sq) * b3
    proximity = 0.5 * tau3 * _power(b, 2)
    value_radius = (
        (tau4 + 4.0 * k2 * t3sq) / 8.0 * _power(b, 4)
        + k2 * _power(tau4 + 2.0 * k2 * t3sq, 2) / 4.0 * _power(b, 6)
    )
    bounds = BoundSet(
        preconditions=gates,
        shift_bounds=[
            RadiusBound("skew_residual_dinvf", NORM_DINVF, TARGET_SKEW, skew_radius, all_names),
            RadiusBound(
                "shift_d", NORM_D, TARGET_SHIFT,
                constants.SHIFT_FACTOR_DNORM * b, third_names,
            ),
        ],
        value_bound=ValueBound(-value_radius, value_radius, all_names),
        diagnostics=[
            Gate("mu_proximity", D.norm(shift + p.u0), proximity),
            Gate("mu_proximity_opposite_sign", D.norm(shift - p.u0), proximity),
            Gate("skew_magnitude", abs(T), constants.SKEW_MAGNITUDE_FACTOR * tau3 * b3),
        ],
    )
    return ExpansionReport("4", shift, p.newton_value_change - T, bounds, p, cert)


def expansion_for_order(
    p: Prediction, cert: SmoothnessCertificate, order: int | str
) -> ExpansionReport:
    """The report for one order: 2, 3, 4, or ``"exact"``, which needs a quadratic ``p.g``."""
    if order == "exact":
        if not p.g.quadratic:
            raise PreconditionViolated("objective is not quadratic")
        return exact_quadratic_expansion(p)
    if order == 4:
        return fourth_order_expansion(p, cert)
    if order == 2:
        bounds = second_order_bounds(p, cert)
    elif order == 3:
        bounds = third_order_bounds(p, cert)
    else:
        raise ValueError(f"unsupported order {order!r}")
    return p.report(str(order), bounds, cert)


def distance_to_optimum(f: Oracle, xk, cert: SmoothnessCertificate) -> ExpansionReport:
    """Certified Newton prediction of the optimum from an off-minimum point.

    ``f`` is a linear tilt of the function ``h(x) = f(x) - <x, grad f(xk)>``
    whose minimizer is ``xk`` itself, so the cubic-term radii apply verbatim with
    ``A = grad f(xk)`` and ``F = grad^2 f(xk)``: the prediction of
    ``x_opt - xk`` is ``-F^{-1} A``, the predicted value drop
    ``f(x_opt) - f(xk)`` is ``-||F^{-1/2} A||^2 / 2``, and the certificate
    must describe ``f`` around ``xk``.  The order-3 statements relate the
    metric only to this ``F``, so their ``kappa`` is the one computed at
    the iterate.
    """
    xk = as_vector(xk, f.dim)
    try:
        F = spd_from_dense(f.hessian(xk))
    except NotPositiveDefinite as exc:
        raise HessianNotPd(str(exc)) from exc
    A = f.gradient(xk)
    rep = expansion_for_order(predict(SumOracle(f, tilt=-A), xk, A, curvature=F), cert, 3)
    return replace(rep, anchor="iterate")


# ---------------------------------------------------------------------------
# Verification against the reference solver
# ---------------------------------------------------------------------------


def _norm_of(tag: str, F: SpdOperator, M: SpdOperator | None, v: np.ndarray) -> float:
    """The norm ``tag`` of ``v``, for the curvature ``F`` and the metric Gram ``M = D^2``."""
    if tag == NORM_FHALF:
        return F.norm(v)
    if M is None:
        raise ValueError(f"norm {tag!r} needs a metric but the report has none")
    if tag == NORM_D:
        return M.norm(v)
    if tag == NORM_DINVF:
        return M.dual_norm(F.apply(v))
    raise ValueError(f"unknown norm tag {tag!r}")


def compare_with_solution(report: ExpansionReport, solution: Solution) -> ComparisonReport:
    """Measure the residuals of a solve, ``report.prediction.solution`` as a
    rule, against a report's radii.

    Radii of zero are exactness claims; residuals below the numerical
    floors (``1e-10`` for shifts, ``1e-12`` relative for values) count as
    met, anything larger is an infinite slack.  A bound participates in
    ``violations`` only when each gate it requires passed.
    """
    F, u0 = report.prediction.F, report.prediction.u0
    D = report.certificate.metric if report.certificate is not None else None
    bounds = report.bounds
    actual_shift = solution.actual_shift
    targets = {
        TARGET_SHIFT: actual_shift,
        TARGET_NEWTON: actual_shift + u0,
        TARGET_SKEW: actual_shift - report.predicted_shift,
    }
    shift_floor = constants.EXACT_SHIFT_FLOOR * (1.0 + float(np.linalg.norm(u0)))
    value_floor = constants.EXACT_VALUE_FLOOR * (
        1.0 + abs(report.predicted_value_change)
    )

    checks = [
        (bound, _norm_of(bound.norm, F, D, targets[bound.target]), shift_floor)
        for bound in bounds.shift_bounds
    ]
    vb = bounds.value_bound
    if vb is not None:
        resid = solution.actual_value_change - report.predicted_value_change
        # A nonnegative residual is measured against the bracket's upper end,
        # a negative one against its lower end (at most 0); the entry states
        # that end's distance from 0.
        radius = vb.upper if resid >= 0 else abs(vb.lower)
        value = RadiusBound("value", "value", "value", radius, vb.requires)
        checks.append((value, resid, value_floor))

    entries = []
    for bound, resid, floor in checks:
        # One rule for every check: a radius at or below the floor is an
        # exactness claim, met only by a residual at or below the floor.
        if bound.radius <= floor:
            slack = 0.0 if abs(resid) <= floor else np.inf
        else:
            slack = abs(resid) / bound.radius
        entries.append(
            {
                "name": bound.name,
                "norm": bound.norm,
                "target": bound.target,
                "radius": bound.radius,
                "residual": resid,
                "slack": slack,
                "certified": bounds.gates_hold(bound.requires),
            }
        )
    return ComparisonReport(certifying=bounds.all_gates_pass, entries=entries)
