"""Damped Newton minimizer used as the ground-truth reference.

Convergence is declared in the Hessian-dual norm
``||grad^2 f(x)^{-1/2} grad f(x)||`` (the Newton decrement), which is the
natural scale-free measure for the certified comparisons downstream: a
decrement of ``1e-12`` pins the minimizer far below every tolerance the
bound checks use.

The solver hands curvature over in both directions.  A caller that already
holds ``f``'s Hessian at the start point passes it as ``hessian`` and the
first Newton step uses it instead of evaluating it again; the result
carries the Hessian at the returned point, which the converging iteration
has just evaluated, and the value at the start point.  A verification
solve started at ``x*`` thus takes the anchor's curvature, and
``g(x~) - g(x*)`` needs no extra value call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HessianNotPd, LineSearchFailed, MaxIterExceeded
from .linalg import as_matrix, as_vector
from .oracle import Oracle

__all__ = ["SolveResult", "newton_minimize"]

ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-18
# Below this Newton decrement the damping is dropped; see the loop body.
PURE_NEWTON_THRESHOLD = 1e-5


@dataclass
class SolveResult:
    """A converged solve.

    ``value`` and ``hessian`` are ``f`` and its Hessian at ``xhat``;
    ``start_value`` is ``f`` at the start point.
    """

    xhat: np.ndarray
    value: float
    grad_norm_dual: float
    iterations: int
    converged: bool
    start_value: float
    hessian: np.ndarray


def newton_minimize(
    f: Oracle,
    x0,
    tol: float | None = None,
    max_iter: int = 100,
    hessian=None,
) -> SolveResult:
    """Minimize ``f`` from ``x0`` by damped Newton with backtracking.

    Parameters
    ----------
    f : Oracle
        Objective; its Hessian must be positive definite along the path.
    x0 : array_like
        Starting point.
    tol : float, optional
        Target Newton decrement.  Defaults to ``1e-12 * (1 + |f(x0)|)``.
    max_iter : int
        Iteration cap; exceeding it raises :class:`MaxIterExceeded`.
    hessian : array_like, optional
        ``f``'s Hessian at ``x0``, when the caller holds it; the first
        Newton step uses it in place of ``f.hessian(x0)``.  It is checked
        for shape and finiteness here and must pass the same Cholesky test
        as an evaluated Hessian.  A matrix that is not bit for bit
        ``f.hessian(x0)`` changes the iterates.

    Returns
    -------
    SolveResult
        With ``converged=True``, ``grad_norm_dual <= tol``, the Hessian at
        ``xhat`` and the value at ``x0``.

    Raises
    ------
    HessianNotPd
        If a Cholesky factorization fails at some iterate.
    DimensionMismatch
        If ``hessian`` is not a ``dim x dim`` matrix.
    LineSearchFailed
        If backtracking underflows the step size.
    MaxIterExceeded
        If the tolerance is not reached within ``max_iter`` steps.
    """
    x = as_vector(x0, f.dim).copy()
    if hessian is not None:
        hessian = as_matrix(hessian, f.dim)
        if hessian.shape[1] != f.dim:
            raise DimensionMismatch(
                f"expected a {f.dim}x{f.dim} Hessian, got shape {hessian.shape}"
            )
    fx = start_value = f.value(x)
    if tol is None:
        tol = 1e-12 * (1.0 + abs(fx))
    dual_norm = np.inf

    for iteration in range(max_iter):
        g = f.gradient(x)
        H = hessian if iteration == 0 and hessian is not None else f.hessian(x)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise HessianNotPd(f"Hessian not positive definite at iteration {iteration}")
        d = -np.linalg.solve(H, g)
        decrement_sq = float(-g @ d)
        dual_norm = float(np.sqrt(max(decrement_sq, 0.0)))
        if dual_norm <= tol:
            return SolveResult(
                xhat=x, value=fx, grad_norm_dual=dual_norm, iterations=iteration,
                converged=True, start_value=start_value, hessian=H,
            )
        if dual_norm <= PURE_NEWTON_THRESHOLD:
            # Quadratic convergence zone: the Armijo decrease (~ decrement^2)
            # is below the floating-point resolution of the value, so take
            # the undamped step instead of comparing values.
            x = x + d
            fx = f.value(x)
            continue
        slope = float(g @ d)
        step = 1.0
        while True:
            trial = x + step * d
            ftrial = f.value(trial)
            if ftrial <= fx + ARMIJO_SLOPE * step * slope:
                break
            step *= BACKTRACK_FACTOR
            if step < MIN_STEP:
                raise LineSearchFailed(
                    f"step underflow at iteration {iteration} (value {fx:.6g})"
                )
        x = trial
        fx = ftrial

    raise MaxIterExceeded(f"Newton decrement {dual_norm:.3e} > {tol:.3e} after {max_iter} iterations")
