"""Bias of a minimizer under ridge and general smooth penalties.

Adding a penalty ``pen`` to ``f`` moves the minimizer from ``x*`` to the
penalized minimizer; the displacement is driven by the penalty gradient
``M = grad pen(x*)`` through the penalized curvature
``F_pen = grad^2 (f + pen)(x*)``.  Writing ``b = ||D F_pen^{-1} M||``, the
cubic-term radii of the linear-tilt expansion apply verbatim with ``A``
replaced by ``M`` and ``F`` replaced by ``F_pen``, because on the shifted
scale the penalized objective is exactly a linear tilt of a function
minimized at ``x*``.

The ridge case ``pen(x) = 0.5 x' G2 x`` has ``M = G2 x*`` and
``F_pen = F + G2``; the general smooth case only needs oracle access to
the penalty.  Every entry point builds ``f + pen``, its drive and its
factored curvature once and hands them to :func:`bias_for_order`, so the
ridge results agree bit for bit with the smooth ones fed a quadratic
penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import constants
from .expand import (
    BoundSet,
    ComparisonReport,
    ExpansionReport,
    Gate,
    NORM_FHALF,
    RadiusBound,
    TARGET_NEWTON,
    ValueBound,
    fourth_order_expansion,
    solve_and_compare,
    third_order_bounds,
)
from .linalg import SpdOperator, as_vector, spd_from_dense, weighted_norm
from .oracle import Oracle, PsdQuadraticOracle, smoothly_penalize
from .smoothness import SmoothnessCertificate, check_anchor

__all__ = [
    "PenaltyBiasReport",
    "bias_for_order",
    "ridge_bias_exact_quadratic",
    "ridge_bias_bounds",
    "ridge_bias_fourth_order",
    "smooth_penalty_bias",
    "verify_penalty_bias",
]


@dataclass
class PenaltyBiasReport:
    """Predicted penalty-induced bias plus the radii certifying it.

    ``predicted_bias`` is always the first-order prediction
    ``-F_pen^{-1} M``; at order 4 ``mu_correction`` holds the
    skew-corrected direction that the quartic-scale residual radius is
    stated around.  ``value_prediction`` predicts
    ``(f + pen)(penalized minimizer) - (f + pen)(x*)``.
    """

    order: str
    bG: float
    predicted_bias: np.ndarray
    value_prediction: float
    bounds: BoundSet
    penalized_curvature: SpdOperator
    drive: np.ndarray
    penalized: Oracle | None
    mu_correction: np.ndarray | None = None
    certificate: SmoothnessCertificate | None = None
    diagnostics: list[Gate] = field(default_factory=list)

    def expansion_view(self) -> ExpansionReport:
        """Adapter so the generic comparison machinery applies unchanged."""
        predicted_shift = (
            self.mu_correction if self.mu_correction is not None else self.predicted_bias
        )
        return ExpansionReport(
            order=self.order,
            predicted_shift=predicted_shift,
            predicted_value_change=self.value_prediction,
            bounds=self.bounds,
            curvature=self.penalized_curvature,
            tilt=self.drive,
            certificate=self.certificate,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "bG": self.bG,
            "predicted_bias": self.predicted_bias.tolist(),
            "mu_correction": (
                None if self.mu_correction is None else self.mu_correction.tolist()
            ),
            "value_prediction": self.value_prediction,
            "bounds": self.bounds.to_dict(),
            "diagnostics": [g.to_dict() for g in self.diagnostics],
        }


def _exact_bias(FG: SpdOperator, M: np.ndarray, fG: Oracle | None) -> PenaltyBiasReport:
    bias = -FG.apply_power(-1.0, M)
    xi = float(np.linalg.norm(FG.apply_power(-0.5, M)))
    bounds = BoundSet(
        shift_bounds=[RadiusBound("newton_residual_exact", NORM_FHALF, TARGET_NEWTON, 0.0)],
        value_bound=ValueBound(0.0, 0.0),
    )
    return PenaltyBiasReport(
        order="exact-quadratic",
        bG=0.0,
        predicted_bias=bias,
        value_prediction=-0.5 * xi**2,
        bounds=bounds,
        penalized_curvature=FG,
        drive=M,
        penalized=fG,
    )


def ridge_bias_exact_quadratic(F: SpdOperator, G2, upsstar) -> PenaltyBiasReport:
    """Closed-form ridge bias when the base objective is exactly quadratic.

    With penalized curvature ``F_G = F + G2`` and drive ``M = G2 x*``:
    bias ``-F_G^{-1} M`` and value change ``-||F_G^{-1/2} M||^2 / 2``,
    both exact (zero radii).  The report carries no penalized oracle;
    callers that know the base oracle set ``penalized`` to verify it.
    """
    pen = PsdQuadraticOracle(G2)
    M = pen.gradient(as_vector(upsstar, F.dim))
    return _exact_bias(spd_from_dense(F.matrix + pen.Q), M, None)


def bias_for_order(
    fG: Oracle,
    upsstar: np.ndarray,
    FG: SpdOperator,
    D: SpdOperator,
    M: np.ndarray,
    cert: SmoothnessCertificate,
    order: int | str,
) -> PenaltyBiasReport:
    """Build the bias report for one order (``"exact"``, 3 or 4).

    Takes the penalized problem as built once by the caller: the oracle
    ``fG = f + pen``, the drive ``M = grad pen(x*)`` and the factored
    curvature ``FG = grad^2 fG(x*)``; ``x*`` must minimize ``f``.  The
    exact order is valid only for a quadratic ``f`` with a ridge penalty.
    """
    if order in ("exact", "exact-quadratic"):
        return _exact_bias(FG, M, fG)
    u0 = FG.apply_power(-1.0, M)
    bG = weighted_norm(D, u0)
    predicted_bias = -u0
    xi = float(np.linalg.norm(FG.apply_power(-0.5, M)))

    if order == 3:
        bounds = third_order_bounds(FG, D, M, cert)
        return PenaltyBiasReport(
            order="3",
            bG=bG,
            predicted_bias=predicted_bias,
            value_prediction=-0.5 * xi**2,
            bounds=bounds,
            penalized_curvature=FG,
            drive=M,
            penalized=fG,
            certificate=cert,
        )
    if order != 4:
        raise ValueError(f"unsupported order {order!r}; use 'exact', 3 or 4")

    exp = fourth_order_expansion(fG, upsstar, FG, D, M, cert)
    mu = exp.predicted_shift
    tau3 = cert.tau3
    prox_rhs = 0.5 * tau3 * bG**2
    diagnostics = [
        # The quartic-scale correction stays within a cubic-scale tube of
        # the first-order bias; also reported with the opposite inner sign,
        # which is NOT expected to be small (it ends up near 2 bG).
        Gate("mu_proximity", weighted_norm(D, mu + u0), prox_rhs),
        Gate("mu_proximity_opposite_sign", weighted_norm(D, mu - u0), prox_rhs),
    ]
    return PenaltyBiasReport(
        order="4",
        bG=bG,
        predicted_bias=predicted_bias,
        value_prediction=exp.predicted_value_change,
        bounds=exp.bounds,
        penalized_curvature=FG,
        drive=M,
        penalized=fG,
        mu_correction=mu,
        certificate=cert,
        diagnostics=diagnostics + list(exp.bounds.diagnostics),
    )


def _penalty_bias(
    f: Oracle,
    upsstar,
    pen: Oracle,
    D: SpdOperator,
    cert: SmoothnessCertificate,
    order: int,
) -> PenaltyBiasReport:
    if order not in (3, 4):
        raise ValueError(f"unsupported order {order!r}; use 3 or 4")
    upsstar = as_vector(upsstar, f.dim)
    check_anchor(f, upsstar, D, constants.BIAS_ANCHOR_GRAD_RTOL)
    fG = smoothly_penalize(f, pen)
    FG = spd_from_dense(fG.hessian(upsstar))
    return bias_for_order(fG, upsstar, FG, D, pen.gradient(upsstar), cert, order)


def ridge_bias_bounds(
    f: Oracle,
    upsstar,
    G2,
    D: SpdOperator,
    cert: SmoothnessCertificate,
) -> PenaltyBiasReport:
    """Cubic-term radii for the ridge bias ``-F_G^{-1} G2 x*``.

    The certificate must describe ``f + ridge`` around ``x*`` in the given
    metric (for the ridge, third and fourth derivatives coincide with
    those of ``f``; the curvature gains ``G2``).
    """
    return _penalty_bias(f, upsstar, PsdQuadraticOracle(G2), D, cert, order=3)


def ridge_bias_fourth_order(
    f: Oracle,
    upsstar,
    G2,
    D: SpdOperator,
    cert: SmoothnessCertificate,
) -> PenaltyBiasReport:
    """Skew-corrected ridge bias with quartic-scale radii.

    Reports, as diagnostics, how far the corrected direction sits from the
    first-order bias: ``||D (mu + F_G^{-1} M)|| <= (tau3 / 2) bG^2`` (the
    same line with the opposite inner sign is emitted for contrast; it is
    of order ``2 bG``, not ``bG^2``).
    """
    return _penalty_bias(f, upsstar, PsdQuadraticOracle(G2), D, cert, order=4)


def smooth_penalty_bias(
    f: Oracle,
    upsstar,
    pen: Oracle,
    D: SpdOperator,
    cert: SmoothnessCertificate,
    order: int = 3,
) -> PenaltyBiasReport:
    """Bias radii for a general smooth convex penalty.

    Identical to the ridge operations with drive ``M = grad pen(x*)`` and
    curvature ``F_pen = grad^2 (f + pen)(x*)``; at order 4 the skew tensor
    is that of ``f + pen``.  Feeding a quadratic penalty reproduces the
    ridge results exactly.
    """
    return _penalty_bias(f, upsstar, pen, D, cert, order)


def verify_penalty_bias(
    report: PenaltyBiasReport,
    upsstar,
    tol: float | None = None,
    max_iter: int = 100,
) -> ComparisonReport:
    """Solve the penalized problem and compare against a bias report."""
    if report.penalized is None:
        raise ValueError("report carries no penalized oracle to solve")
    return solve_and_compare(
        report.penalized, upsstar, [report.expansion_view()], tol=tol, max_iter=max_iter
    )[0]
