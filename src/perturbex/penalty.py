"""Bias of a minimizer under ridge and general smooth penalties.

Adding a penalty ``pen`` to ``f`` moves the minimizer from ``x*`` to the
penalized minimizer; the displacement is driven by the penalty gradient
``M = grad pen(x*)`` through the penalized curvature
``F_pen = grad^2 (f + pen)(x*)``.  On the shifted scale the penalized
objective is exactly a linear tilt, with drive ``M``, of a function
minimized at ``x*``, so a bias report is the :class:`ExpansionReport` that
:func:`expansion_for_order` builds from the prediction ``predict(f, x*,
pen)``, which states the perturbed problem ``f + pen``: same predictions,
same radii with ``b = ||D F_pen^{-1} M||`` in the certificate's metric
``D``, same verification against ``report.prediction.solution``, the solve of
``f + pen``.

The ridge case ``pen(x) = 0.5 x' G2 x`` is a :class:`QuadraticOracle`
penalty, with ``M = G2 x*`` and ``F_pen = F + G2``.
"""

from __future__ import annotations

from . import constants
from .expand import ExpansionReport, exact_quadratic_expansion, expansion_for_order, predict
from .linalg import SpdOperator, as_vector
from .oracle import Oracle, QuadraticOracle
from .smoothness import SmoothnessCertificate, check_anchor

__all__ = [
    "ridge_bias_exact_quadratic",
    "smooth_penalty_bias",
]


def ridge_bias_exact_quadratic(F: SpdOperator, G2, upsstar) -> ExpansionReport:
    """Closed-form ridge bias when the base objective is exactly quadratic.

    With penalized curvature ``F_G = F + G2`` and drive ``M = G2 x*``:
    bias ``-F_G^{-1} M`` and value change ``-||F_G^{-1/2} M||^2 / 2``,
    both exact (zero radii).
    """
    p = predict(QuadraticOracle(F, upsstar), upsstar, QuadraticOracle(G2), curvature=F)
    return exact_quadratic_expansion(p)


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
    against ``report.prediction.solution``, the solve of ``f + pen``.
    """
    upsstar = as_vector(upsstar, f.dim)
    check_anchor(f, upsstar, cert.metric, constants.BIAS_ANCHOR_GRAD_RTOL)
    return expansion_for_order(predict(f, upsstar, pen), cert, order)
