"""Damped Newton minimizer used as the ground-truth reference.

Convergence is declared in the Hessian-dual norm
``||grad^2 f(x)^{-1/2} grad f(x)||`` (the Newton decrement), which is the
natural scale-free measure for the certified comparisons downstream.  The
tolerance ``tol = DECREMENT_RTOL (1 + |f(x0)|)``, a decrement of ``1e-12``
on a unit value, pins the minimizer far below every tolerance the bound
checks use; a solve that has not reached it after ``MAX_ITER`` steps fails.
Both are module constants, read at each call.

Each step uses the newest curvature the solve holds (the chord method;
Kelley, *Solving Nonlinear Equations with Newton's Method*, SIAM 2003,
section 2.3).  A caller that holds ``f``'s factored Hessian at the start
point passes it as ``curvature``, and the first step uses it.  The step
after an exact one reuses its curvature, and further steps keep it while
each cuts the decrement by ``CHORD_CONTRACTION``; otherwise, and once the
decrement is ``CHORD_CONTRACTION * tol`` or less, the Hessian at the
current point is evaluated.  Stepping one contraction past ``tol`` keeps
the returned point well inside the tolerance, as the quadratic last step
of plain Newton does.  The stopping rule stays exact: the decrement is
measured with ``f``'s Hessian at the returned point (or the caller's
curvature, when that point is the start).  Each Hessian evaluated is factored
once, by a Cholesky that is also its positive-definiteness test, and the
steps use that factor.  A verification solve started near ``x*`` thus
evaluates one Hessian, at its last iterate.  The result carries its factor,
the start value and the number of Hessians evaluated, so ``g(x~) - g(x*)``
needs no value call and no caller factors again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HessianNotPd, LineSearchFailed, MaxIterExceeded
from .linalg import SpdOperator, as_vector, factor
from .oracle import Oracle

__all__ = ["SolveResult", "newton_minimize"]

ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-18
# Below this Newton decrement the damping is dropped; see the loop body.
PURE_NEWTON_THRESHOLD = 1e-5
# A held curvature is kept while each step made with it cuts the decrement by
# this factor.
CHORD_CONTRACTION = 0.1
DECREMENT_RTOL = 1e-12  # the target decrement, relative to 1 + |f(x0)|
MAX_ITER = 100  # steps before a solve fails


@dataclass
class SolveResult:
    """A converged solve.

    ``value`` and ``curvature`` are ``f`` and its factored Hessian at ``xhat``
    (the caller's curvature if ``xhat`` is the start); ``start_value`` is ``f``
    at the start.  ``iterations`` counts the steps and ``hessians`` the Hessians evaluated.
    """

    xhat: np.ndarray
    value: float
    grad_norm_dual: float
    iterations: int
    hessians: int
    start_value: float
    curvature: SpdOperator

    def stats(self) -> dict[str, float | int]:
        """``iterations``, ``hessians`` and the final ``grad_norm_dual``, as reported."""
        return {k: getattr(self, k) for k in ("iterations", "hessians", "grad_norm_dual")}


def newton_minimize(f: Oracle, x0, curvature: SpdOperator | None = None) -> SolveResult:
    """Minimize ``f`` from ``x0`` by damped Newton with backtracking, to the
    decrement ``tol = DECREMENT_RTOL (1 + |f(x0)|)`` within ``MAX_ITER`` steps.

    Parameters
    ----------
    f : Oracle
        Objective; its Hessian must be positive definite along the path.
    x0 : array_like
        Starting point.
    curvature : SpdOperator, optional
        ``f``'s factored Hessian at ``x0``, when the caller holds it; the
        first step and the decrement at ``x0`` use it in place of
        ``f.hessian(x0)``.  Another matrix changes the iterates and the
        Hessians evaluated, not the exact stopping rule away from ``x0``.

    Returns
    -------
    SolveResult
        With ``grad_norm_dual <= tol`` (a solve that fails raises), the
        factored Hessian at ``xhat`` and the value at ``x0``.

    Raises
    ------
    HessianNotPd
        If an evaluated Hessian has no Cholesky factor.
    DimensionMismatch
        If ``curvature`` is not ``f.dim``-dimensional.
    LineSearchFailed
        If backtracking underflows the step size, or no step on the Hessian
        at an iterate moves it.
    MaxIterExceeded
        If the tolerance is not reached within ``MAX_ITER`` steps.
    """
    x = as_vector(x0, f.dim).copy()
    if curvature is not None and curvature.dim != f.dim:
        raise DimensionMismatch(
            f"expected a {f.dim}-dimensional curvature, got {curvature.dim}"
        )
    fx = start_value = f.value(x)
    tol = DECREMENT_RTOL * (1.0 + abs(fx))
    dual_norm = previous = np.inf
    # The newest curvature, whether it was taken at the current x, and
    # whether the last step was made with it held from an earlier point.
    held, exact, chord, hessians = curvature, curvature is not None, False, 0

    for iteration in range(MAX_ITER):
        g = f.gradient(x)
        if held is not None:
            d, dual_norm = _newton_step(held, g)
        # A curvature held from an earlier point steps on while its steps
        # contract, to one contraction below tol; convergence is only
        # declared on the Hessian at x.
        usable = held is not None and dual_norm > CHORD_CONTRACTION * tol
        if chord:
            usable = usable and dual_norm <= CHORD_CONTRACTION * previous
        while True:
            if not (exact or usable):
                try:
                    held = factor(f.hessian(x))
                except np.linalg.LinAlgError:
                    raise HessianNotPd(f"Hessian not positive definite at iteration {iteration}")
                hessians += 1
                exact = True
                d, dual_norm = _newton_step(held, g)
            if exact and dual_norm <= tol:
                return SolveResult(
                    xhat=x, value=fx, grad_norm_dual=dual_norm, iterations=iteration,
                    hessians=hessians, start_value=start_value, curvature=held,
                )
            # Quadratic convergence zone: the Armijo decrease (~ decrement^2)
            # is below the floating-point resolution of the value, so the
            # undamped step is taken instead of comparing values.
            moved = _line_search(f, x, fx, g, d, dual_norm > PURE_NEWTON_THRESHOLD, iteration)
            if moved is not None:
                break
            # No step leaves x: a curvature held from an earlier point gives
            # way to the Hessian at x, and on that Hessian the solve is stuck.
            if exact:
                raise LineSearchFailed(f"null step at iteration {iteration} (value {fx:.6g})")
            usable = False
        previous, chord, exact = dual_norm, not exact, False
        x, fx = moved

    raise MaxIterExceeded(f"Newton decrement {dual_norm:.3e} > {tol:.3e} after {MAX_ITER} iterations")


def _line_search(f: Oracle, x, fx: float, g, d, damped: bool, iteration: int):
    """The first of ``x + d``, ``x + d / 2``, ... that meets the Armijo condition
    (``x + d`` unless ``damped``) and its value; ``None`` once one leaves ``x`` as it is."""
    slope = float(g @ d)
    step = 1.0
    trial = x + d
    while not np.array_equal(trial, x):
        ftrial = f.value(trial)
        if not damped or ftrial <= fx + ARMIJO_SLOPE * step * slope:
            return trial, ftrial
        step *= BACKTRACK_FACTOR
        if step < MIN_STEP:
            raise LineSearchFailed(f"step underflow at iteration {iteration} (value {fx:.6g})")
        trial = x + step * d
    return None


def _newton_step(held: SpdOperator, g: np.ndarray) -> tuple[np.ndarray, float]:
    """The step ``-H^{-1} g`` and its decrement ``||L^{-1} g||``, for ``H = L L'``."""
    w = held.L_inv @ g
    return -(held.L_inv.T @ w), float(np.linalg.norm(w))
