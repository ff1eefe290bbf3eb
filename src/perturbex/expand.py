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

where ``b = ||D F^{-1} A||`` and ``T(u) = <grad^3 f(x*), u^3> / 6`` is the
skew term.  Gates (the inequalities each theorem assumes) are always
reported with both sides, never raised: a failed gate downgrades the radii
to advisory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import constants
from .diagnostics import CheckResult, DiagnosticsRecord
from .errors import (
    HessianNotPd,
    MissingFourthDerivative,
    MissingThirdDerivative,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .linalg import SpdOperator, as_vector, kappa_between, spd_from_dense, weighted_norm
from .oracle import Oracle, linearly_perturb
from .smoothness import SmoothnessCertificate
from .solver import SolveResult, newton_minimize

__all__ = [
    "Gate",
    "RadiusBound",
    "ValueBound",
    "BoundSet",
    "ExpansionReport",
    "ComparisonReport",
    "exact_quadratic_expansion",
    "second_order_bounds",
    "third_order_bounds",
    "skewness_correction",
    "fourth_order_expansion",
    "expansion_for_order",
    "distance_to_optimum",
    "cubic_bound_check",
    "verify_expansion",
    "solve_and_compare",
    "compare_with_solution",
]

NORM_D = "D"
NORM_FHALF = "Fhalf"
NORM_DINVF = "DinvF"
TARGET_SHIFT = "shift"
TARGET_NEWTON = "newton_residual"
TARGET_SKEW = "skew_residual"


@dataclass(frozen=True)
class Gate:
    """One reported entry inequality: ``lhs <= rhs`` (or ``<`` when strict)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False
    satisfied: bool = field(init=False)

    def __post_init__(self) -> None:
        ok = self.lhs < self.rhs if self.strict else self.lhs <= self.rhs
        object.__setattr__(self, "satisfied", bool(ok))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "strict": self.strict,
            "satisfied": self.satisfied,
        }


def _tolerant_gate(name: str, lhs: float, rhs: float) -> Gate:
    """A nonstrict gate with a tiny relative tolerance folded into ``rhs``.

    Used for computed-vs-stored comparisons (metric domination) where exact
    float equality is the expected case.
    """
    return Gate(name, lhs, rhs * (1.0 + constants.GATE_RTOL) + 1e-300)


@dataclass(frozen=True)
class RadiusBound:
    """``norm(target) <= radius`` whenever the named gates hold."""

    name: str
    norm: str
    target: str
    radius: float
    requires: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "norm": self.norm,
            "target": self.target,
            "radius": self.radius,
            "requires": list(self.requires),
        }


@dataclass(frozen=True)
class ValueBound:
    """Bracket for (actual - predicted) value change, gated like a radius."""

    lower: float
    upper: float
    requires: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {"lower": self.lower, "upper": self.upper, "requires": list(self.requires)}


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
            "certifying": self.all_gates_pass,
        }


@dataclass
class ExpansionReport:
    """A prediction of the perturbed minimizer plus its certified radii."""

    order: str
    predicted_shift: np.ndarray
    predicted_value_change: float
    bounds: BoundSet
    curvature: SpdOperator
    tilt: np.ndarray
    skew_correction: np.ndarray | None = None
    certificate: SmoothnessCertificate | None = None
    anchor: str = "base-minimizer"

    def to_dict(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "anchor": self.anchor,
            "predicted_shift": self.predicted_shift.tolist(),
            "predicted_value_change": self.predicted_value_change,
            "skew_correction": (
                None if self.skew_correction is None else self.skew_correction.tolist()
            ),
            "bounds": self.bounds.to_dict(),
        }


@dataclass
class ComparisonReport:
    """Solver-truth residuals measured against one report's radii.

    ``entries`` holds one record per radius and one for the value bracket;
    the other views are derived from them.
    """

    actual_shift: np.ndarray
    actual_value_change: float
    certifying: bool
    entries: list[dict[str, Any]] = field(default_factory=list)
    solver: dict[str, Any] = field(default_factory=dict)

    @property
    def residual_norms(self) -> dict[str, float]:
        return {e["name"]: e["residual"] for e in self.entries}

    @property
    def slack_ratios(self) -> dict[str, float]:
        return {e["name"]: e["slack"] for e in self.entries}

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
            "actual_shift": self.actual_shift.tolist(),
            "actual_value_change": self.actual_value_change,
            "residual_norms": self.residual_norms,
            "slack_ratios": self.slack_ratios,
            "certifying": self.certifying,
            "violations": self.violations,
            "max_certified_slack": self.max_certified_slack,
            "entries": self.entries,
            "solver": self.solver,
        }


# ---------------------------------------------------------------------------
# Expansion operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Prediction:
    """Each order's prediction of a tilt's effect, from one Newton step.

    ``u0 = F^{-1} A`` and ``xi = ||F^{-1/2} A||``.  Every order predicts the
    shift ``-u0`` and the value change ``-xi^2 / 2``; order 4 adds
    ``skew = -F^{-1} gradT(u0)`` to the shift and subtracts ``T = T(u0)``.
    """

    F: SpdOperator
    A: np.ndarray
    u0: np.ndarray
    xi: float
    skew: np.ndarray | None = None
    T: float = 0.0

    @property
    def newton_value(self) -> float:
        return -0.5 * self.xi**2

    @property
    def shift(self) -> np.ndarray:
        return -self.u0 if self.skew is None else -self.u0 + self.skew

    def report(
        self, order: str, bounds: BoundSet, cert: SmoothnessCertificate | None = None
    ) -> ExpansionReport:
        value = self.newton_value if self.skew is None else self.newton_value - self.T
        return ExpansionReport(order, self.shift, value, bounds, self.F, self.A, self.skew, cert)


def _predict(F: SpdOperator, A, f: Oracle | None = None, xstar=None) -> _Prediction:
    """The Newton step of the tilt ``A``; with ``f`` and ``x*``, its skew term too."""
    A = as_vector(A, F.dim)
    u0 = F.apply_power(-1.0, A)
    xi = float(np.linalg.norm(F.apply_power(-0.5, A)))
    if f is None:
        return _Prediction(F, A, u0, xi)
    T, gradT = skewness_correction(f, xstar, u0)
    return _Prediction(F, A, u0, xi, -F.apply_power(-1.0, gradT), T)


def exact_quadratic_expansion(F: SpdOperator, A) -> ExpansionReport:
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
    return _predict(F, A).report("exact-quadratic", bounds)


def second_order_bounds(
    F: SpdOperator,
    D: SpdOperator,
    A,
    cert: SmoothnessCertificate,
) -> BoundSet:
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
    kappa = cert.kappa
    omega = cert.omega
    p = _predict(F, A)
    b = weighted_norm(D, p.u0)
    gates = [
        _tolerant_gate("metric_dominated", kappa_between(D, F), kappa),
        Gate("omega_cap", omega, constants.OMEGA_MAX),
        Gate("tilt_fraction", p.xi, constants.NU_DEFAULT * cert.radius / max(kappa, 1e-300)),
        Gate("stability_margin", omega * kappa**2, 1.0 - constants.NU_DEFAULT, strict=True),
    ]
    names = tuple(g.name for g in gates)
    denom_minus = 1.0 - kappa**2 * omega
    denom_plus = 1.0 + kappa**2 * omega
    if denom_minus > 0:
        newton_radius = 2.0 * np.sqrt(omega) / denom_minus * b
        shift_radius = (1.0 + 2.0 * np.sqrt(omega)) / denom_minus * b
        lower = -omega / (2.0 * denom_minus) * b**2
    else:  # advisory only; the stability gate has already failed
        newton_radius = np.inf
        shift_radius = np.inf
        lower = -np.inf
    upper = omega / (2.0 * denom_plus) * b**2
    return BoundSet(
        preconditions=gates,
        shift_bounds=[
            RadiusBound("newton_residual_d", NORM_D, TARGET_NEWTON, newton_radius, names),
            RadiusBound("shift_d", NORM_D, TARGET_SHIFT, shift_radius, names),
        ],
        value_bound=ValueBound(lower, upper, names),
    )


def third_order_bounds(
    F: SpdOperator,
    D: SpdOperator,
    A,
    cert: SmoothnessCertificate,
) -> BoundSet:
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
        raise MissingThirdDerivative("certificate lacks tau3")
    kappa = cert.kappa
    tau3 = cert.tau3
    r = cert.radius
    p = _predict(F, A)
    xi, b = p.xi, weighted_norm(D, p.u0)
    gates = [
        _tolerant_gate("metric_dominated", kappa_between(D, F), kappa),
        Gate("fnorm_radius", constants.RADIUS_FACTOR_FNORM * kappa * xi, r),
        Gate("tau3_fnorm", kappa**3 * tau3 * xi, constants.TAU3_GATE_FNORM, strict=True),
        Gate("dnorm_radius", constants.RADIUS_FACTOR_DNORM * b, r),
        Gate("tau3_dnorm", kappa**2 * tau3 * b, constants.TAU3_GATE_DNORM, strict=True),
    ]
    fnorm_gates = ("metric_dominated", "fnorm_radius", "tau3_fnorm")
    dnorm_gates = ("metric_dominated", "dnorm_radius", "tau3_dnorm")
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
                constants.NEWTON_RESIDUAL_FACTOR * tau3 * b**2, dnorm_gates,
            ),
        ],
        value_bound=ValueBound(
            -constants.VALUE_FACTOR_THIRD * tau3 * b**3,
            constants.VALUE_FACTOR_THIRD * tau3 * b**3,
            fnorm_gates,
        ),
    )


def skewness_correction(f: Oracle, xstar, u) -> tuple[float, np.ndarray]:
    """Skew term of the expansion: ``T(u) = <grad^3 f(x*), u^3> / 6``.

    Returns ``(T(u), gradT(u))`` with
    ``gradT(u) = <grad^3 f(x*), u^2, .> / 2``.  ``T`` is odd in ``u`` and
    ``gradT`` is even.
    """
    if not f.has_third:
        raise MissingThirdDerivative("oracle lacks analytic third derivatives")
    xstar = as_vector(xstar, f.dim)
    u = as_vector(u, f.dim)
    t3 = f.third_dir(xstar, u)
    return float(t3 @ u) / 6.0, t3 / 2.0


def fourth_order_expansion(
    f: Oracle,
    xstar,
    F: SpdOperator,
    D: SpdOperator,
    A,
    cert: SmoothnessCertificate,
) -> ExpansionReport:
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
        raise MissingThirdDerivative("certificate lacks tau3")
    if cert.tau4 is None:
        raise MissingFourthDerivative("certificate lacks tau4")
    kappa = cert.kappa
    tau3 = cert.tau3
    tau4 = cert.tau4
    r = cert.radius
    p = _predict(F, A, f, xstar)
    b = weighted_norm(D, p.u0)
    shift = p.shift

    gates = [
        _tolerant_gate("metric_dominated", kappa_between(D, F), kappa),
        Gate("dnorm_radius", constants.RADIUS_FACTOR_DNORM * b, r),
        Gate("tau3_dnorm", kappa**2 * tau3 * b, constants.TAU3_GATE_DNORM, strict=True),
        Gate("tau4_dnorm", kappa**2 * tau4 * b**2, constants.TAU4_GATE_DNORM, strict=True),
    ]
    all_names = tuple(g.name for g in gates)
    third_names = ("metric_dominated", "dnorm_radius", "tau3_dnorm")
    skew_radius = (0.5 * tau4 + kappa**2 * tau3**2) * b**3
    proximity = 0.5 * tau3 * b**2
    value_radius = (
        (tau4 + 4.0 * kappa**2 * tau3**2) / 8.0 * b**4
        + kappa**2 * (tau4 + 2.0 * kappa**2 * tau3**2) ** 2 / 4.0 * b**6
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
            Gate("mu_proximity", weighted_norm(D, shift + p.u0), proximity),
            Gate("mu_proximity_opposite_sign", weighted_norm(D, shift - p.u0), proximity),
            Gate("skew_magnitude", abs(p.T), constants.SKEW_MAGNITUDE_FACTOR * tau3 * b**3),
        ],
    )
    return p.report("4", bounds, cert)


def expansion_for_order(
    f: Oracle,
    xstar,
    F: SpdOperator,
    D: SpdOperator,
    A,
    cert: SmoothnessCertificate,
    order: int | str,
) -> ExpansionReport:
    """Build the report for one requested order (2, 3, 4, or ``"exact"``)."""
    if order in ("exact", "exact-quadratic"):
        return exact_quadratic_expansion(F, A)
    if order == 4:
        return fourth_order_expansion(f, xstar, F, D, A, cert)
    if order == 2:
        bounds = second_order_bounds(F, D, A, cert)
    elif order == 3:
        bounds = third_order_bounds(F, D, A, cert)
    else:
        raise ValueError(f"unsupported order {order!r}")
    return _predict(F, A).report(str(order), bounds, cert)


def distance_to_optimum(
    f: Oracle,
    xk,
    cert: SmoothnessCertificate,
    D: SpdOperator | None = None,
) -> ExpansionReport:
    """Certified Newton prediction of the optimum from an off-minimum point.

    ``f`` is a linear tilt of the function ``f(x) - <x, grad f(xk)>`` whose
    minimizer is ``xk`` itself, so the cubic-term radii apply verbatim with
    ``A = grad f(xk)`` and ``F = grad^2 f(xk)``: the prediction of
    ``x_opt - xk`` is ``-F^{-1} A``, the predicted value drop
    ``f(x_opt) - f(xk)`` is ``-||F^{-1/2} A||^2 / 2``, and the certificate
    must describe ``f`` around ``xk``.  Because the curvature is taken at
    the iterate, the metric ratio is recomputed there (the certificate's
    ``kappa`` refers to its own anchor) and the larger of the two is used.
    """
    xk = as_vector(xk, f.dim)
    try:
        F = spd_from_dense(f.hessian(xk))
    except NotPositiveDefinite as exc:
        raise HessianNotPd(str(exc)) from exc
    if D is None:
        D = cert.metric
    local_kappa = kappa_between(D, F)
    if local_kappa > cert.kappa:
        cert = replace(cert, kappa=local_kappa)
    rep = expansion_for_order(f, xk, F, D, f.gradient(xk), cert, 3)
    return replace(rep, anchor="iterate")


# ---------------------------------------------------------------------------
# Auxiliary envelope check
# ---------------------------------------------------------------------------


def cubic_bound_check(
    U: SpdOperator,
    s,
    tau: float,
    r: float,
    samples: int = 100_000,
    seed: int = 0,
) -> DiagnosticsRecord:
    """Monte-Carlo check of the cubic/quadratic envelope inequalities.

    For ``U >= I``, an anchor ``s`` with ``(3/4) r <= ||s|| <= r``, and
    ``tau r <= 1/3``, both envelope extrema over the Euclidean ball of
    radius ``r`` are controlled by ``(tau / 2) ||s||^3``:

    - ``max_u [ (tau/3) ||u||^3 - (u - s)' U (u - s) ] <= (tau/2) ||s||^3``
    - ``min_u [ (tau/3) ||u||^3 + (u - s)' U (u - s) ] <= (tau/2) ||s||^3``

    Violated entry conditions raise :class:`PreconditionViolated` naming
    each failure.  Besides uniform ball samples, the analytic stationary
    candidates ``(U + rho I)^{-1} U s`` and ``(U - rho I)^{-1} U s`` with
    ``rho = tau r / 3`` are always evaluated (the second clipped to the
    ball), plus ``s`` itself and the boundary point along ``s``.
    """
    s = as_vector(s, U.dim)
    if tau < 0 or r <= 0:
        raise ValueError("tau must be nonnegative and r positive")
    snorm = float(np.linalg.norm(s))
    failures = []
    if snorm < constants.ENVELOPE_ANCHOR_FRACTION * r:
        failures.append(f"anchor too short: ||s|| = {snorm:.3g} < 3/4 r = {0.75 * r:.3g}")
    if snorm > r:
        failures.append(f"anchor outside ball: ||s|| = {snorm:.3g} > r = {r:.3g}")
    if tau * r > constants.ENVELOPE_TAU_R_MAX:
        failures.append(f"tau r = {tau * r:.3g} exceeds 1/3")
    if float(U.eigenvalues[-1]) < 1.0 - 1e-12:
        failures.append(f"smallest eigenvalue {U.eigenvalues[-1]:.6g} below 1")
    if failures:
        raise PreconditionViolated("; ".join(failures))

    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((samples, U.dim))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    radii = r * rng.uniform(size=samples) ** (1.0 / U.dim)
    pts = Z * radii[:, None]

    rho = tau * r / 3.0
    eye = np.eye(U.dim)
    cand = [
        np.linalg.solve(U.matrix + rho * eye, U.apply(s)),
        s.copy(),
        (r / snorm) * s,
    ]
    s_rho = np.linalg.solve(U.matrix - rho * eye, U.apply(s))
    nrm = float(np.linalg.norm(s_rho))
    if nrm > r:
        s_rho *= r / nrm
    cand.append(s_rho)
    pts = np.vstack([pts, np.array(cand)])

    diff = pts - s
    quad = np.einsum("ij,jk,ik->i", diff, U.matrix, diff)
    cubic = (tau / 3.0) * np.linalg.norm(pts, axis=1) ** 3
    bound = constants.ENVELOPE_VALUE_FACTOR * tau * snorm**3
    tol = constants.SLACK_TOLERANCE * (1.0 + bound)

    upper_vals = cubic - quad
    lower_vals = cubic + quad
    i_max = int(np.argmax(upper_vals))
    i_min = int(np.argmin(lower_vals))
    max_val = float(upper_vals[i_max])
    min_val = float(lower_vals[i_min])

    def _ratio(v: float) -> float:
        if bound <= 0.0:
            return 0.0 if v <= tol else np.inf
        return v / bound

    record = DiagnosticsRecord(
        name="cubic_bound_check",
        metadata={
            "samples": samples,
            "seed": seed,
            "tau": tau,
            "r": r,
            "anchor_norm": snorm,
            "bound": bound,
        },
    )
    record.checks.append(
        CheckResult(
            name="max_envelope",
            worst_ratio=_ratio(max_val),
            passed=bool(max_val <= bound + tol),
            witness={"point": pts[i_max].tolist(), "value": max_val},
        )
    )
    record.checks.append(
        CheckResult(
            name="min_envelope",
            worst_ratio=_ratio(min_val),
            passed=bool(min_val <= bound + tol),
            witness={"point": pts[i_min].tolist(), "value": min_val},
        )
    )
    return record


# ---------------------------------------------------------------------------
# Verification against the reference solver
# ---------------------------------------------------------------------------


def _norm_of(tag: str, F: SpdOperator, D: SpdOperator | None, v: np.ndarray) -> float:
    if tag == NORM_FHALF:
        return float(np.linalg.norm(F.apply_power(0.5, v)))
    if D is None:
        raise ValueError(f"norm {tag!r} needs a metric but the report has none")
    if tag == NORM_D:
        return weighted_norm(D, v)
    if tag == NORM_DINVF:
        return float(np.linalg.norm(D.apply_power(-1.0, F.apply(v))))
    raise ValueError(f"unknown norm tag {tag!r}")


def compare_with_solution(
    report: ExpansionReport,
    actual_shift: np.ndarray,
    actual_value_change: float,
    solver_info: dict[str, Any] | None = None,
) -> ComparisonReport:
    """Measure solver-truth residuals against a report's radii.

    Radii of zero are exactness claims; residuals below the numerical
    floors (``1e-10`` for shifts, ``1e-12`` relative for values) count as
    met, anything larger is an infinite slack.  A bound participates in
    ``violations`` only when each gate it requires passed.
    """
    F = report.curvature
    D = report.certificate.metric if report.certificate is not None else None
    bounds = report.bounds
    u0 = F.apply_power(-1.0, report.tilt)
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
        (bound, _norm_of(bound.norm, F, D, targets[bound.target]), bound.radius, shift_floor)
        for bound in bounds.shift_bounds
    ]
    vb = bounds.value_bound
    if vb is not None:
        resid = actual_value_change - report.predicted_value_change
        # A positive residual is measured against the bracket's upper end, a
        # negative one against its lower end.
        denom = vb.upper if resid >= 0 else -vb.lower
        radius = max(abs(vb.lower), abs(vb.upper))
        value = RadiusBound("value", "value", "value", radius, vb.requires)
        checks.append((value, resid, denom, value_floor))

    entries = []
    for bound, resid, denom, floor in checks:
        # One rule for every check: a denominator at or below the floor is an
        # exactness claim, met only by a residual at or below the floor.
        if denom <= floor:
            slack = 0.0 if abs(resid) <= floor else np.inf
        else:
            slack = abs(resid) / denom
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

    return ComparisonReport(
        actual_shift=actual_shift,
        actual_value_change=actual_value_change,
        certifying=bounds.all_gates_pass,
        entries=entries,
        solver=solver_info or {},
    )


def solve_and_compare(g: Oracle, xstar, reports: list[ExpansionReport]) -> list[ComparisonReport]:
    """Solve a perturbed problem once and compare every report against it.

    ``g`` is minimized from ``x*`` by the damped Newton reference solver;
    the resulting shift ``x~ - x*`` and value change ``g(x~) - g(x*)`` are
    measured against every radius of each report.  With no reports there
    is nothing to check and no solve is made.
    """
    if not reports:
        return []
    xstar = as_vector(xstar, g.dim)
    sol: SolveResult = newton_minimize(g, xstar)
    actual_shift = sol.xhat - xstar
    actual_value_change = sol.value - g.value(xstar)
    solver_info = {
        "iterations": sol.iterations,
        "grad_norm_dual": sol.grad_norm_dual,
        "converged": sol.converged,
    }
    return [
        compare_with_solution(report, actual_shift, actual_value_change, dict(solver_info))
        for report in reports
    ]


def verify_expansion(f: Oracle, xstar, A, report: ExpansionReport) -> ComparisonReport:
    """Solve the tilted problem ``f + <., A>`` and compare with one report."""
    g = linearly_perturb(f, as_vector(A, f.dim))
    return solve_and_compare(g, xstar, [report])[0]
