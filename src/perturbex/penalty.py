"""Bias of a minimizer under ridge and general smooth penalties.

Adding a penalty ``pen`` to ``f`` moves the minimizer from ``x*`` to the
penalized minimizer; the displacement is driven by the penalty gradient
``M = grad pen(x*)`` through the penalized curvature
``F_pen = grad^2 (f + pen)(x*)``.  On the shifted scale the penalized
objective is exactly a linear tilt, with drive ``M``, of a function
minimized at ``x*``, so a bias report is the :class:`ExpansionReport` that
:func:`expansion_for_order` builds from the prediction ``predict(F_pen, M,
f + pen, x*)``: same predictions, same radii with ``b = ||D F_pen^{-1} M||``
in the certificate's metric ``D``, same verification.  :func:`as_tilt`
states a tilt ``f + <., A>`` or a penalty in these terms; every perturbed
problem, here and in the harness, is built by it.

The ridge case ``pen(x) = 0.5 x' G2 x`` is a :class:`QuadraticOracle`
penalty, with ``M = G2 x*`` and ``F_pen = F + G2``.
"""

from __future__ import annotations

from . import constants
from .expand import ExpansionReport, exact_quadratic_expansion, expansion_for_order, predict
from .linalg import SpdOperator, as_vector, check_floor, spd_from_dense
from .oracle import Oracle, QuadraticOracle, linearly_perturb, smoothly_penalize
from .smoothness import SmoothnessCertificate, check_anchor

__all__ = [
    "ridge_bias_exact_quadratic",
    "smooth_penalty_bias",
]


def as_tilt(f: Oracle, xstar, perturbation, curvature: SpdOperator | None = None):
    """``(g, drive, F)`` of ``f + <., A>`` (a vector) or ``f + pen`` (an oracle) at ``x*``.

    ``drive`` is ``A`` or ``grad pen(x*)`` and ``F`` is ``g.hessian(x*)``
    factored.  A caller that holds ``grad^2 f(x*)`` factored passes it as
    ``curvature``: a tilt's ``F`` is then that factor, held to the SPD floor.
    """
    xstar = as_vector(xstar, f.dim)
    H = f.hessian(xstar) if curvature is None else curvature.matrix
    if isinstance(perturbation, Oracle):
        g = smoothly_penalize(f, perturbation)
        drive = perturbation.gradient(xstar)
        return g, drive, spd_from_dense(H + perturbation.hessian(xstar))
    drive = as_vector(perturbation, f.dim)
    g = linearly_perturb(f, drive)
    if curvature is None:
        return g, drive, spd_from_dense(H)
    check_floor(H)
    return g, drive, curvature


def ridge_bias_exact_quadratic(F: SpdOperator, G2, upsstar) -> ExpansionReport:
    """Closed-form ridge bias when the base objective is exactly quadratic.

    With penalized curvature ``F_G = F + G2`` and drive ``M = G2 x*``:
    bias ``-F_G^{-1} M`` and value change ``-||F_G^{-1/2} M||^2 / 2``,
    both exact (zero radii).
    """
    _, M, FG = as_tilt(QuadraticOracle(F), upsstar, QuadraticOracle(G2), F)
    return exact_quadratic_expansion(predict(FG, M))


def smooth_penalty_bias(
    f: Oracle,
    upsstar,
    pen: Oracle,
    cert: SmoothnessCertificate,
    order: int | str = 3,
) -> ExpansionReport:
    """Bias report of one order for a smooth convex penalty.

    ``x*`` must minimize ``f``, measured in the certificate's metric; the
    certificate must describe ``f + pen`` around ``x*``.  A
    :class:`QuadraticOracle` penalty gives the ridge bias.  The order is
    :func:`expansion_for_order`'s, for ``f + pen``.  Verify the report
    against the penalized problem ``smoothly_penalize(f, pen)``.
    """
    upsstar = as_vector(upsstar, f.dim)
    check_anchor(f, upsstar, cert.metric, constants.BIAS_ANCHOR_GRAD_RTOL)
    g, drive, F = as_tilt(f, upsstar, pen)
    return expansion_for_order(predict(F, drive, g, upsstar), cert, order)
