"""Central table of the certified-bound constants.

Every gate threshold and radius coefficient used by the expansion and
penalty-bias operations is defined here, once, so that a reviewer can audit
the numbers in a single place and so that drift is caught by
:func:`self_check` (which the command-line self test runs first).

Names follow the role a constant plays, not its numeric value.
"""

from __future__ import annotations

from fractions import Fraction

# Split parameter of the localization certificate: the linear tilt may use at
# most this fraction of the trust radius.
NU_DEFAULT = 0.75

# Second-order remainder constant must stay at or below this cap for the
# two-sided value sandwich to apply.
OMEGA_MAX = 1.0 / 3.0

# Cubic-term gates.  The refined (metric-norm) gate bounds kappa^2 * tau3 * b,
# the coarse (curvature-norm) gate bounds kappa^3 * tau3 * xi.
TAU3_GATE_DNORM = 4.0 / 9.0
TAU3_GATE_FNORM = 0.25

# Quartic-term gate: kappa^2 * tau4 * b^2 must stay below this.
TAU4_GATE_DNORM = 1.0 / 3.0

# Trust-radius coverage factors: how much radius the third-order statements
# need relative to the tilt size, in curvature norm and in metric norm.
RADIUS_FACTOR_FNORM = 4.0 / 3.0
RADIUS_FACTOR_DNORM = 1.5

# Shift-radius coefficients.
SHIFT_FACTOR_FNORM = 4.0 / 3.0      # times ||F^{-1/2} A||, in curvature norm
SHIFT_FACTOR_DNORM = 1.5            # times ||D F^{-1} A||, in metric norm

# First-order (Newton) residual coefficient at third order: times tau3 * b^2.
NEWTON_RESIDUAL_FACTOR = 0.75

# Value-remainder coefficient at third order, on the plain value scale
# (the doubled-value statement carries tau3/2): times tau3 * b^3.
VALUE_FACTOR_THIRD = 0.25

# Sanity cap on the computed skew term: |T| <= tau3/6 * b^3.
SKEW_MAGNITUDE_FACTOR = 1.0 / 6.0

# Numerical guards.
# Smallest admissible eigenvalue, relative to the largest absolute row sum
# ``||M||_inf``: ``M - SPD_EIG_FLOOR ||M||_inf I`` must have a Cholesky
# factor.  Since ``lambda_max <= ||M||_inf <= sqrt(d) lambda_max``, every
# matrix with ``lambda_min <= SPD_EIG_FLOOR lambda_max`` fails, and none
# with ``lambda_min > sqrt(d) SPD_EIG_FLOOR lambda_max`` does.  The floor is
# exact for a diagonal matrix, whose largest row sum is ``lambda_max``.
SPD_EIG_FLOOR = 1e-10
SYMMETRY_RTOL = 1e-12          # relative asymmetry allowed in spd inputs
# Most negative eigenvalue, relative to the largest absolute entry, that a
# positive semidefinite quadratic matrix may show: ``eigvalsh`` of an exactly
# singular input (a rank-one ridge) rounds its zero eigenvalues to either sign.
PSD_EIG_RTOL = 1e-10
# The same for a smooth penalty's Hessian at a convexity probe point, looser
# because that Hessian is computed by the oracle and carries its rounding.
PENALTY_PROBE_EIG_RTOL = 1e-8
# The one "gradient vanishes" threshold, relative to 1 + |f(x*)|, of every
# anchor taken as a minimizer: a sampled omega's and every penalty's.
ANCHOR_GRAD_RTOL = 1e-8
EXACT_SHIFT_FLOOR = 1e-10      # residual below this counts as exact (shifts)
EXACT_VALUE_FLOOR = 1e-12      # residual below this counts as exact (values)
SLACK_TOLERANCE = 1e-9         # certified bounds may be met up to this slack

# Default inflation applied to sampled smoothness constants before gating.
ESTIMATE_INFLATION = 1.5

_EXPECTED = {
    "NU_DEFAULT": Fraction(3, 4),
    "OMEGA_MAX": Fraction(1, 3),
    "TAU3_GATE_DNORM": Fraction(4, 9),
    "TAU3_GATE_FNORM": Fraction(1, 4),
    "TAU4_GATE_DNORM": Fraction(1, 3),
    "RADIUS_FACTOR_FNORM": Fraction(4, 3),
    "RADIUS_FACTOR_DNORM": Fraction(3, 2),
    "SHIFT_FACTOR_FNORM": Fraction(4, 3),
    "SHIFT_FACTOR_DNORM": Fraction(3, 2),
    "NEWTON_RESIDUAL_FACTOR": Fraction(3, 4),
    "VALUE_FACTOR_THIRD": Fraction(1, 4),
    "SKEW_MAGNITUDE_FACTOR": Fraction(1, 6),
}


def self_check() -> list[str]:
    """Compare the live constant table against its defining fractions.

    Returns a list of drift messages; an empty list means the table is
    intact.  Mutating any gate constant (deliberately or by accident) makes
    the self test fail loudly instead of silently mis-certifying.
    """
    module = globals()
    problems = []
    for name, frac in _EXPECTED.items():
        live = module.get(name)
        expected = float(frac)
        if live is None:
            problems.append(f"constant {name} is missing")
        elif abs(live - expected) > 1e-15:
            problems.append(f"constant {name} = {live!r}, expected {expected!r}")
    return problems
