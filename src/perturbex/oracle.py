"""Differentiable problem oracles and perturbation constructors.

An :class:`Oracle` exposes value, gradient, Hessian, and directional third
and fourth derivatives of a smooth function.  The directional forms are the
only higher-order access the rest of the package ever needs:

``third_dir(x, u)``
    the vector ``<grad^3 f(x), u (x) u (x) e_i>`` over coordinates ``i``,
``fourth_dir(x, u)``
    the vector ``<grad^4 f(x), u (x) u (x) u (x) e_i>``.

Problems that lack analytic higher derivatives fall back to symmetric
finite differences of the Hessian; the ``has_third`` / ``has_fourth``
flags tell certified operations whether the analytic forms exist.

Each value and tensor formula exists once, in batched form:
``value_many(P)``, ``third_dir_many(P, V)`` and ``fourth_dir_many(P, V)``
take points as the columns of ``P`` and the directions paired with them as
the columns of ``V``, and return one result per column.  Logistic,
log-sum-exp and quadratic problems implement them on a few matrix-matrix
products (``X @ P``, ``X @ V``, ``X.T @ W``) and run their elementwise
chains in place on the product they start from.  The scalar ``value``,
``third_dir`` and ``fourth_dir`` are one-column calls of the batched forms,
defined once on :class:`Oracle`, so a scalar result is bit for bit column 0
of a batched call at the same point.

A logistic or log-sum-exp Hessian is a weighted Gram matrix
``X' diag(w) X``.  It is formed as ``B' B`` with ``B = diag(sqrt(w)) X``, a
product of an array with its own transpose that NumPy hands to BLAS
``syrk``: half the flops of a general product, and a result symmetric to
the last bit.

Every quadratic is one :class:`QuadraticOracle` ``0.5 (x - c)' Q (x - c)``:
an objective built from a factored :class:`SpdOperator`, or a penalty from a
positive semidefinite array.  Every perturbed objective is one
:class:`SumOracle` ``sum_i w_i f_i + <., A>`` with nonnegative weights: a
linear tilt, a scaling and a penalty differ only in their terms.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from .diagnostics import CheckResult, DiagnosticsRecord
from .errors import BadLabels, DimensionMismatch, NotPsd
from .linalg import SpdOperator, as_matrix, as_vector

__all__ = [
    "Oracle",
    "QuadraticOracle",
    "PsdQuadraticOracle",
    "LogisticOracle",
    "LogSumExpOracle",
    "CustomOracle",
    "SumOracle",
    "ScaledOracle",
    "linearly_perturb",
    "quadratically_penalize",
    "smoothly_penalize",
    "fd_probe",
]

FD_DIR_STEP = 1e-4  # base step for Hessian differencing, scaled by 1/(1+|u|)


def _weight(w) -> float:
    """A term weight as a float, checked finite and nonnegative."""
    w = float(w)
    if not (np.isfinite(w) and w >= 0):
        raise ValueError(f"weight must be finite and nonnegative, got {w}")
    return w


def _block_pair(P, V, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Check a block of points and the block of directions paired with it."""
    P = as_matrix(P, dim)
    V = as_matrix(V, dim)
    if P.shape != V.shape:
        raise DimensionMismatch(
            f"points of shape {P.shape} and directions of shape {V.shape} differ"
        )
    return P, V


def _one_column(x, u, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A point and a direction as one-column blocks."""
    return as_vector(x, dim)[:, None], as_vector(u, dim)[:, None]


def _col_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise inner products ``sum_i A[i, j] B[i, j]``."""
    return np.einsum("ij,ij->j", A, B)


def _fd_steps(V: np.ndarray) -> np.ndarray:
    """Central-difference step of each direction column, ``FD_DIR_STEP / (1 + ||v||)``."""
    return FD_DIR_STEP / (1.0 + np.linalg.norm(V, axis=0))


class Oracle:
    """Base class of every problem oracle.

    A subclass implements ``value_many``, ``gradient`` and ``hessian``, and
    may implement ``third_dir_many`` / ``fourth_dir_many`` in closed form
    (setting ``has_third`` / ``has_fourth``).  The fallbacks take central
    differences with the per-column step ``FD_DIR_STEP / (1 + ||v||)``.
    """

    dim: int
    has_third: bool = False
    has_fourth: bool = False

    def value_many(self, P) -> np.ndarray:
        """Values at the columns of ``P``, shape ``(k,)``."""
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def third_dir_many(self, P, V) -> np.ndarray:
        """Third directional derivative at column pairs of ``P`` and ``V``.

        The fallback differences the Hessian column by column.
        """
        P, V = _block_pair(P, V, self.dim)
        out = np.empty(P.shape)
        for j, h in enumerate(_fd_steps(V)):
            p, v = P[:, j], V[:, j]
            out[:, j] = (self.hessian(p + h * v) - self.hessian(p - h * v)) @ v / (2.0 * h)
        return out

    def fourth_dir_many(self, P, V) -> np.ndarray:
        """Fourth directional derivative at column pairs of ``P`` and ``V``.

        The fallback differences ``third_dir_many`` over the whole block.
        """
        P, V = _block_pair(P, V, self.dim)
        h = _fd_steps(V)
        return (self.third_dir_many(P + h * V, V) - self.third_dir_many(P - h * V, V)) / (2.0 * h)

    def value(self, x) -> float:
        return float(self.value_many(as_vector(x, self.dim)[:, None])[0])

    def third_dir(self, x, u) -> np.ndarray:
        return self.third_dir_many(*_one_column(x, u, self.dim))[:, 0]

    def fourth_dir(self, x, u) -> np.ndarray:
        return self.fourth_dir_many(*_one_column(x, u, self.dim))[:, 0]


class QuadraticOracle(Oracle):
    """``f(x) = 0.5 (x - c)' Q (x - c)`` for symmetric positive semidefinite ``Q``.

    ``Q`` is a factored :class:`SpdOperator`, trusted as checked, or an
    array, checked here for finiteness, symmetry and positive
    semidefiniteness (it may be singular, as a ridge penalty ``0.5 x' G2 x``
    is).  The center ``c`` defaults to the origin; third and fourth
    derivatives vanish.
    """

    has_third = True
    has_fourth = True

    def __init__(self, Q, center=None) -> None:
        if isinstance(Q, SpdOperator):
            Q = Q.matrix
        else:
            Q = np.asarray(Q, dtype=float)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise DimensionMismatch(f"expected a square matrix, got shape {Q.shape}")
            as_matrix(Q, Q.shape[0])  # finite entries
            scale = max(np.abs(Q).max(), 1e-300)
            if np.abs(Q - Q.T).max() > 1e-12 * scale:
                raise NotPsd("quadratic matrix is not symmetric")
            Q = 0.5 * (Q + Q.T)
            lo = float(np.linalg.eigvalsh(Q)[0])
            if lo < -1e-10 * scale:
                raise NotPsd(f"quadratic matrix has negative eigenvalue {lo:.3e}")
        self.Q = Q
        self.dim = Q.shape[0]
        self.center = np.zeros(self.dim) if center is None else as_vector(center, self.dim)

    def scaled(self, weight: float) -> QuadraticOracle:
        """``0.5 (x - c)' (weight Q) (x - c)`` for a finite nonnegative weight.

        Not checked again: a nonnegative multiple of a checked matrix is
        symmetric positive semidefinite.
        """
        out = copy.copy(self)
        out.Q = _weight(weight) * self.Q
        return out

    def gradient(self, x) -> np.ndarray:
        return self.Q @ (as_vector(x, self.dim) - self.center)

    def hessian(self, x) -> np.ndarray:
        as_vector(x, self.dim)
        return self.Q.copy()

    def value_many(self, P) -> np.ndarray:
        Dp = as_matrix(P, self.dim) - self.center[:, None]
        return 0.5 * _col_dot(Dp, self.Q @ Dp)

    def third_dir_many(self, P, V) -> np.ndarray:
        return np.zeros(_block_pair(P, V, self.dim)[0].shape)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return np.zeros(_block_pair(P, V, self.dim)[0].shape)


class PsdQuadraticOracle(QuadraticOracle):
    """``f(x) = 0.5 x' Q x``: a :class:`QuadraticOracle` centered at the origin."""

    def __init__(self, Q) -> None:
        super().__init__(Q)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """``0.5 (1 + tanh(t / 2))``, overflow-free for any sign; overwrites ``t``."""
    t *= 0.5
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _gram(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X' diag(w) X`` for nonnegative row weights ``w``.

    Formed as ``B' B`` with ``B = diag(sqrt(w)) X``: NumPy sends a product of
    an array with its own transpose to BLAS ``syrk``, which computes one
    triangle and mirrors it.
    """
    B = X * np.sqrt(w)[:, None]
    return B.T @ B


def _add_to_diagonal(H: np.ndarray, c: float) -> np.ndarray:
    """``H + c I``, in place."""
    H.flat[:: H.shape[0] + 1] += c
    return H


class LogisticOracle(Oracle):
    """Regularized logistic loss.

    ``f(v) = (1/n) sum_i log(1 + exp(-y_i x_i' v)) + 0.5 reg ||v||^2``
    with labels ``y_i`` in ``{-1, +1}``.  With ``t = y x' v`` and
    ``s = sigmoid(t)`` the scalar loss derivatives are

    ``l' = s - 1``, ``l'' = s (1 - s)``, ``l''' = s (1 - s)(1 - 2 s)``,
    ``l'''' = s (1 - s)(1 - 6 s (1 - s))``,

    and the chain rule through ``t`` contributes one factor of ``y x`` per
    order (even powers of ``y`` cancel since ``y^2 = 1``).
    """

    has_third = True
    has_fourth = True

    def __init__(self, X, y, reg: float = 0.0) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"design matrix must be 2-d, got {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"labels shape {y.shape} does not match {X.shape[0]} rows"
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise BadLabels("labels must all be -1 or +1")
        if reg < 0:
            raise ValueError("reg must be nonnegative")
        self.X = X
        self.y = y
        self.reg = float(reg)
        self.n, self.dim = X.shape

    def _margins(self, v: np.ndarray) -> np.ndarray:
        """``t = y x' v`` per data point, with one column per column of ``v``."""
        t = self.X @ v
        t *= self.y if t.ndim == 1 else self.y[:, None]
        return t

    def gradient(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        s = _sigmoid(self._margins(v))
        return self.X.T @ (self.y * (s - 1.0)) / self.n + self.reg * v

    def hessian(self, x) -> np.ndarray:
        """``X' diag(s (1 - s) / n) X + reg I``, the Gram matrix on BLAS ``syrk``."""
        v = as_vector(x, self.dim)
        s = _sigmoid(self._margins(v))
        H = _gram(self.X, s * (1.0 - s) / self.n)
        return _add_to_diagonal(H, self.reg)

    def value_many(self, P) -> np.ndarray:
        """Mean loss ``log(1 + exp(-t))`` per column, plus the ridge.

        The loss is ``max(-t, 0) + log1p(exp(-|t|))``, the formula
        ``np.logaddexp`` evaluates entry by entry, here on vector ufuncs.
        """
        P = as_matrix(P, self.dim)
        # One point per row, so each mean is a pairwise sum over the data: the
        # sampled remainders f(x + u) - f(x) - ... cancel most of the value.
        T = P.T @ self.X.T
        T *= self.y
        loss = np.abs(T)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        np.negative(T, out=T)
        np.maximum(T, 0.0, out=T)
        loss += T
        return np.mean(loss, axis=1) + 0.5 * self.reg * _col_dot(P, P)

    # The tensor forms work in place on the sigmoid block but keep the left
    # to right order of the class docstring's formulas, so every entry
    # rounds as the plain expression would.

    def third_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        S = _sigmoid(self._margins(P))
        L = 1.0 - S
        L *= S
        L *= np.subtract(1.0, 2.0 * S, out=S)
        L *= self.y[:, None]
        proj = self.X @ V
        L *= np.square(proj, out=proj)
        out = self.X.T @ L
        out /= self.n
        return out

    def fourth_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        S = _sigmoid(self._margins(P))
        Q = 1.0 - S
        L = S * Q
        S *= 6.0
        S *= Q
        L *= np.subtract(1.0, S, out=S)
        proj = self.X @ V
        # proj**2 * proj: an integer power other than 2 goes through pow().
        cube = np.square(proj, out=Q)
        cube *= proj
        L *= cube
        out = self.X.T @ L
        out /= self.n
        return out


class LogSumExpOracle(Oracle):
    """Soft maximum of linear scores plus a ridge.

    ``f(v) = temp * log sum_i exp(x_i' v / temp) + 0.5 reg ||v||^2``.

    Derivatives are cumulants of the score projections under the softmax
    weights ``pi``: with ``beta = 1/temp``, ``s_i = x_i' u``, mean ``m``,
    variance ``V`` and third central moment ``k3`` of ``s`` under ``pi``,

    - gradient: ``sum_i pi_i x_i + reg v``
    - Hessian:  ``beta (sum_i pi_i x_i x_i' - mu mu') + reg I``
    - third:    ``beta^2 sum_i pi_i ((s_i - m)^2 - V) x_i``
    - fourth:   ``beta^3 sum_i pi_i ((s_i - m)^3 - 3 V (s_i - m) - k3) x_i``

    The batched forms take the softmax and the cumulants column by column.
    """

    has_third = True
    has_fourth = True

    def __init__(self, X, temp: float = 1.0, reg: float = 0.0) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"design matrix must be 2-d, got {X.shape}")
        if temp <= 0:
            raise ValueError("temp must be positive")
        with np.errstate(all="ignore"):
            # Derivatives up to the fourth scale as 1/temp**3: keep one power spare.
            if not np.isfinite(1.0 / np.float64(temp) ** 4):
                raise ValueError(f"temp {temp!r} is too small: 1/temp**4 overflows")
        if reg < 0:
            raise ValueError("reg must be nonnegative")
        self.X = X
        self.temp = float(temp)
        self.reg = float(reg)
        self.n, self.dim = X.shape

    def _softmax(self, v: np.ndarray) -> np.ndarray:
        # Softmax weights of a point, or of each column of a block of points.
        z = self.X @ v
        z /= self.temp
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        return z

    def gradient(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        pi = self._softmax(v)
        return self.X.T @ pi + self.reg * v

    def hessian(self, x) -> np.ndarray:
        """``(X' diag(pi) X - mu mu') / temp + reg I``, the Gram matrix on BLAS ``syrk``."""
        v = as_vector(x, self.dim)
        pi = self._softmax(v)
        mu = self.X.T @ pi
        H = _gram(self.X, pi)
        H -= np.outer(mu, mu)
        H /= self.temp
        return _add_to_diagonal(H, self.reg)

    def _centered_many(self, P: np.ndarray, V: np.ndarray):
        """Softmax weights and centered score projections, one column per pair."""
        Pi = self._softmax(P)
        S = self.X @ V
        S -= _col_dot(Pi, S)
        return Pi, S

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        # Scores of one point per row, so each sum over the data is pairwise.
        Z = P.T @ self.X.T
        Z /= self.temp
        m = Z.max(axis=1, keepdims=True)
        Z -= m
        np.exp(Z, out=Z)
        lse = (m + np.log(Z.sum(axis=1, keepdims=True)))[:, 0]
        return self.temp * lse + 0.5 * self.reg * _col_dot(P, P)

    # The tensor forms work in place on the centered projections but keep the
    # left to right order of the class docstring's cumulants, so every entry
    # rounds as the plain expression would.

    def third_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        Pi, C = self._centered_many(P, V)
        C2 = np.square(C, out=C)
        C2 -= _col_dot(Pi, C2)
        C2 *= Pi
        out = self.X.T @ C2
        out *= (1.0 / self.temp) ** 2
        return out

    def fourth_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        Pi, C = self._centered_many(P, V)
        C3 = np.square(C)
        var = _col_dot(Pi, C3)
        C3 *= C
        k3 = _col_dot(Pi, C3)
        C *= 3.0 * var
        C3 -= C
        C3 -= k3
        C3 *= Pi
        out = self.X.T @ C3
        out *= (1.0 / self.temp) ** 3
        return out


class CustomOracle(Oracle):
    """Wrap plain callables as an oracle; higher orders are optional."""

    def __init__(
        self,
        dim: int,
        value: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        hessian: Callable[[np.ndarray], np.ndarray],
        third_dir: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        fourth_dir: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self._third = third_dir
        self._fourth = fourth_dir
        self.has_third = third_dir is not None
        self.has_fourth = fourth_dir is not None

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        return np.array([float(self._value(P[:, j])) for j in range(P.shape[1])])

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self._gradient(as_vector(x, self.dim)), dtype=float)

    def hessian(self, x) -> np.ndarray:
        return np.asarray(self._hessian(as_vector(x, self.dim)), dtype=float)

    def _looped(self, fn, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        out = np.empty(P.shape)
        for j in range(P.shape[1]):
            out[:, j] = as_vector(fn(P[:, j], V[:, j]), self.dim)
        return out

    def third_dir_many(self, P, V) -> np.ndarray:
        if self._third is None:
            return super().third_dir_many(P, V)
        return self._looped(self._third, P, V)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        if self._fourth is None:
            return super().fourth_dir_many(P, V)
        return self._looped(self._fourth, P, V)


class SumOracle(Oracle):
    """``sum_i w_i f_i + <., tilt>``: nonnegatively weighted oracles and a tilt.

    The one composition rule: a sum ``SumOracle(f, g)``, a scaling
    (:class:`ScaledOracle`), a linear tilt (:func:`linearly_perturb`) and a
    penalized objective (:func:`smoothly_penalize`) are each one of these.
    Every form is the sum of the terms' forms in term order, each term
    multiplied by its weight unless the weight is 1.  The tilt enters the
    value and the gradient only.  A closed form exists when every term has it.
    """

    def __init__(self, *oracles: Oracle, weights=None, tilt=None) -> None:
        weights = [1.0] * len(oracles) if weights is None else [_weight(w) for w in weights]
        self.terms = list(zip(weights, oracles, strict=True))
        if not self.terms:
            raise ValueError("a sum needs at least one oracle")
        self.dim = oracles[0].dim
        for f in oracles:
            if f.dim != self.dim:
                raise DimensionMismatch(f"a summand has dimension {f.dim}, the first {self.dim}")
        self.tilt = None if tilt is None else as_vector(tilt, self.dim)
        self.has_third = all(f.has_third for f in oracles)
        self.has_fourth = all(f.has_fourth for f in oracles)

    def _sum(self, form: Callable[[Oracle], np.ndarray]) -> np.ndarray:
        total = None
        for weight, f in self.terms:
            part = form(f)
            if weight != 1.0:
                part = weight * part
            total = part if total is None else total + part
        return total

    def gradient(self, x) -> np.ndarray:
        grad = self._sum(lambda f: f.gradient(x))
        return grad if self.tilt is None else grad + self.tilt

    def hessian(self, x) -> np.ndarray:
        return self._sum(lambda f: f.hessian(x))

    def value_many(self, P) -> np.ndarray:
        if self.tilt is None:
            return self._sum(lambda f: f.value_many(P))
        P = as_matrix(P, self.dim)
        return self._sum(lambda f: f.value_many(P)) + self.tilt @ P

    def third_dir_many(self, P, V) -> np.ndarray:
        return self._sum(lambda f: f.third_dir_many(P, V))

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return self._sum(lambda f: f.fourth_dir_many(P, V))


class ScaledOracle(SumOracle):
    """``weight * base`` for a finite nonnegative weight."""

    def __init__(self, base: Oracle, weight: float) -> None:
        super().__init__(base, weights=(weight,))


def linearly_perturb(f: Oracle, A) -> Oracle:
    """Return ``g(x) = f(x) + <x, A>``."""
    return SumOracle(f, tilt=A)


def quadratically_penalize(f: Oracle, penalty_sq) -> Oracle:
    """Return ``f(x) + 0.5 x' G^2 x`` for symmetric positive semidefinite ``G^2``."""
    return smoothly_penalize(f, QuadraticOracle(penalty_sq))


def smoothly_penalize(f: Oracle, pen: Oracle) -> Oracle:
    """Return ``f + pen`` after spot-checking that ``pen`` is convex.

    Convexity cannot be verified globally from black-box access; a handful
    of seeded probe points must have positive semidefinite penalty Hessians,
    which catches sign errors without pretending to be a proof.  A
    :class:`QuadraticOracle` is not probed: its matrix was checked
    positive semidefinite when it was built.
    """
    penalized = SumOracle(f, pen)
    if isinstance(pen, QuadraticOracle):
        return penalized
    rng = np.random.default_rng(0)
    for _ in range(5):
        point = rng.standard_normal(pen.dim)
        H = pen.hessian(point)
        scale = max(np.abs(H).max(), 1e-300)
        if float(np.linalg.eigvalsh(0.5 * (H + H.T))[0]) < -1e-8 * scale:
            raise NotPsd("penalty Hessian is indefinite at a probe point")
    return penalized


# ---------------------------------------------------------------------------
# Finite-difference probing
# ---------------------------------------------------------------------------


def fd_probe(f: Oracle, x, directions: int = 8, seed: int = 0) -> DiagnosticsRecord:
    """Cross-check analytic derivatives against central finite differences.

    For each random unit direction the mismatch of order ``k`` is measured
    relative to the scale of the order-``k`` analytic quantity, and the
    worst case over directions is reported per order.  Orders 3 and 4 are
    only probed when the oracle advertises analytic forms.
    """
    x = as_vector(x, f.dim)
    rng = np.random.default_rng(seed)
    h1 = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    h3 = FD_DIR_STEP / 2.0  # the fallbacks' step on unit directions
    U = rng.standard_normal((directions, f.dim)).T
    U /= np.linalg.norm(U, axis=0)
    X = np.repeat(x[:, None], directions, axis=1)

    g = f.gradient(x)
    H = f.hessian(x)
    gscale = 1.0 + float(np.linalg.norm(g))
    hscale = 1.0 + float(np.linalg.norm(H, 2))

    worst = {1: 0.0, 2: 0.0}
    for u in U.T:
        fd1 = (f.value(x + h1 * u) - f.value(x - h1 * u)) / (2.0 * h1)
        worst[1] = max(worst[1], abs(fd1 - float(g @ u)) / gscale)

        fd2 = (f.gradient(x + h1 * u) - f.gradient(x - h1 * u)) / (2.0 * h1)
        worst[2] = max(worst[2], float(np.linalg.norm(fd2 - H @ u)) / hscale)

    # Orders 3 and 4 take the base-class central differences of the order
    # below (step h3), over all directions as one block.
    def worst_relative(fd: np.ndarray, exact: np.ndarray) -> float:
        ratios = np.linalg.norm(fd - exact, axis=0) / (1.0 + np.linalg.norm(exact, axis=0))
        return float(np.max(ratios, initial=0.0))

    if f.has_third:
        worst[3] = worst_relative(Oracle.third_dir_many(f, X, U), f.third_dir_many(X, U))
    if f.has_fourth:
        worst[4] = worst_relative(Oracle.fourth_dir_many(f, X, U), f.fourth_dir_many(X, U))

    tolerances = {1: 1e-6, 2: 1e-5, 3: 1e-3, 4: 1e-3}
    record = DiagnosticsRecord(
        name="fd_probe",
        metadata={"directions": directions, "seed": seed, "steps": {"h1": h1, "h3": h3}},
    )
    for order, mismatch in worst.items():
        record.checks.append(
            CheckResult(
                name=f"order_{order}",
                worst_ratio=mismatch / tolerances[order],
                passed=mismatch <= tolerances[order],
                details={"mismatch": mismatch, "tolerance": tolerances[order]},
            )
        )
    return record
