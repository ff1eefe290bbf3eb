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
products (``X @ P``, ``X @ V``, ``X.T @ W``); sums, scalings and linear tilts
forward them to their parts.  The scalar ``value``, ``third_dir`` and
``fourth_dir`` are one-column calls of the batched forms, defined once on
:class:`Oracle`, so a scalar result is bit for bit column 0 of a batched
call at the same point.
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


class _ZeroTensorOracle(Oracle):
    """A quadratic: third and fourth derivatives vanish identically."""

    has_third = True
    has_fourth = True

    def third_dir_many(self, P, V) -> np.ndarray:
        return np.zeros(_block_pair(P, V, self.dim)[0].shape)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return np.zeros(_block_pair(P, V, self.dim)[0].shape)


class QuadraticOracle(_ZeroTensorOracle):
    """``f(x) = 0.5 (x - c)' F (x - c)`` with positive definite ``F``."""

    def __init__(self, curvature: SpdOperator, center=None) -> None:
        self.curvature = curvature
        self.dim = curvature.dim
        self.center = (
            np.zeros(self.dim) if center is None else as_vector(center, self.dim)
        )

    def gradient(self, x) -> np.ndarray:
        return self.curvature.apply(as_vector(x, self.dim) - self.center)

    def hessian(self, x) -> np.ndarray:
        as_vector(x, self.dim)
        return self.curvature.matrix.copy()

    def value_many(self, P) -> np.ndarray:
        Dp = as_matrix(P, self.dim) - self.center[:, None]
        return 0.5 * _col_dot(Dp, self.curvature.matrix @ Dp)


class PsdQuadraticOracle(_ZeroTensorOracle):
    """``f(x) = 0.5 x' Q x`` for symmetric positive semidefinite ``Q``.

    Unlike :class:`QuadraticOracle` the matrix may be singular; this is the
    shape of a ridge penalty ``0.5 x' G^2 x``.
    """

    def __init__(self, Q) -> None:
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {Q.shape}")
        scale = max(np.abs(Q).max(), 1e-300)
        if np.abs(Q - Q.T).max() > 1e-12 * scale:
            raise NotPsd("penalty matrix is not symmetric")
        lo = float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[0])
        if lo < -1e-10 * scale:
            raise NotPsd(f"penalty matrix has negative eigenvalue {lo:.3e}")
        self.Q = 0.5 * (Q + Q.T)
        self.dim = Q.shape[0]

    def scaled(self, weight: float) -> PsdQuadraticOracle:
        """``0.5 x' (weight Q) x`` for a nonnegative weight.

        Not checked again: a nonnegative multiple of a checked matrix is
        symmetric positive semidefinite.
        """
        weight = float(weight)
        if weight < 0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        out = copy.copy(self)
        out.Q = weight * self.Q
        return out

    def gradient(self, x) -> np.ndarray:
        return self.Q @ as_vector(x, self.dim)

    def hessian(self, x) -> np.ndarray:
        as_vector(x, self.dim)
        return self.Q.copy()

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        return 0.5 * _col_dot(P, self.Q @ P)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for any argument sign
    return 0.5 * (1.0 + np.tanh(0.5 * t))


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
        return self.y * (self.X @ v)

    def gradient(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        s = _sigmoid(self._margins(v))
        return self.X.T @ (self.y * (s - 1.0)) / self.n + self.reg * v

    def hessian(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        s = _sigmoid(self._margins(v))
        w = s * (1.0 - s)
        H = (self.X.T * w) @ self.X / self.n
        return H + self.reg * np.eye(self.dim)

    def _sigmoid_many(self, P: np.ndarray) -> np.ndarray:
        return _sigmoid(self.y[:, None] * (self.X @ P))

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        # One point per row, so each mean is a pairwise sum over the data: the
        # sampled remainders f(x + u) - f(x) - ... cancel most of the value.
        T = (P.T @ self.X.T) * self.y
        loss = np.mean(np.logaddexp(0.0, -T), axis=1)
        return loss + 0.5 * self.reg * _col_dot(P, P)

    def third_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        S = self._sigmoid_many(P)
        L3 = S * (1.0 - S) * (1.0 - 2.0 * S)
        proj = self.X @ V
        return self.X.T @ (L3 * self.y[:, None] * proj**2) / self.n

    def fourth_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        S = self._sigmoid_many(P)
        L4 = S * (1.0 - S) * (1.0 - 6.0 * S * (1.0 - S))
        proj = self.X @ V
        # proj**2 * proj: an integer power other than 2 goes through pow().
        return self.X.T @ (L4 * (proj**2 * proj)) / self.n


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
        z = self.X @ v / self.temp
        z = z - z.max(axis=0)
        e = np.exp(z)
        return e / e.sum(axis=0)

    @staticmethod
    def _lse(z: np.ndarray) -> np.ndarray:
        # Log-sum-exp over the last axis: scores of one point per row.
        m = z.max(axis=-1, keepdims=True)
        return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]

    def gradient(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        pi = self._softmax(v)
        return self.X.T @ pi + self.reg * v

    def hessian(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        pi = self._softmax(v)
        mu = self.X.T @ pi
        H = (self.X.T * pi) @ self.X - np.outer(mu, mu)
        return H / self.temp + self.reg * np.eye(self.dim)

    def _centered_many(self, P: np.ndarray, V: np.ndarray):
        """Softmax weights and centered score projections, one column per pair."""
        Pi = self._softmax(P)
        S = self.X @ V
        return Pi, S - _col_dot(Pi, S)

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        # One point per row, so each sum over the data is pairwise.
        lse = self._lse(P.T @ self.X.T / self.temp)
        return self.temp * lse + 0.5 * self.reg * _col_dot(P, P)

    def third_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        Pi, C = self._centered_many(P, V)
        C2 = C**2
        var = _col_dot(Pi, C2)
        beta = 1.0 / self.temp
        return beta**2 * (self.X.T @ (Pi * (C2 - var)))

    def fourth_dir_many(self, P, V) -> np.ndarray:
        P, V = _block_pair(P, V, self.dim)
        Pi, C = self._centered_many(P, V)
        C2 = C**2
        C3 = C2 * C
        var = _col_dot(Pi, C2)
        k3 = _col_dot(Pi, C3)
        beta = 1.0 / self.temp
        return beta**3 * (self.X.T @ (Pi * (C3 - 3.0 * var * C - k3)))


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
    """Pointwise sum of two oracles on the same space."""

    def __init__(self, first: Oracle, second: Oracle) -> None:
        if first.dim != second.dim:
            raise DimensionMismatch(f"summands have dimensions {first.dim} and {second.dim}")
        self.first = first
        self.second = second
        self.dim = first.dim
        self.has_third = first.has_third and second.has_third
        self.has_fourth = first.has_fourth and second.has_fourth

    def gradient(self, x) -> np.ndarray:
        return self.first.gradient(x) + self.second.gradient(x)

    def hessian(self, x) -> np.ndarray:
        return self.first.hessian(x) + self.second.hessian(x)

    def value_many(self, P) -> np.ndarray:
        return self.first.value_many(P) + self.second.value_many(P)

    def third_dir_many(self, P, V) -> np.ndarray:
        return self.first.third_dir_many(P, V) + self.second.third_dir_many(P, V)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return self.first.fourth_dir_many(P, V) + self.second.fourth_dir_many(P, V)


class ScaledOracle(Oracle):
    """``c * f`` for a nonnegative weight ``c``."""

    def __init__(self, base: Oracle, weight: float) -> None:
        weight = float(weight)
        if weight < 0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        self.base = base
        self.weight = weight
        self.dim = base.dim
        self.has_third = base.has_third
        self.has_fourth = base.has_fourth

    def gradient(self, x) -> np.ndarray:
        return self.weight * self.base.gradient(x)

    def hessian(self, x) -> np.ndarray:
        return self.weight * self.base.hessian(x)

    def value_many(self, P) -> np.ndarray:
        return self.weight * self.base.value_many(P)

    def third_dir_many(self, P, V) -> np.ndarray:
        return self.weight * self.base.third_dir_many(P, V)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return self.weight * self.base.fourth_dir_many(P, V)


class _LinearShiftOracle(Oracle):
    """``g(x) = f(x) + <x, A>``; all curvature is inherited from ``f``."""

    def __init__(self, base: Oracle, tilt: np.ndarray) -> None:
        self.base = base
        self.tilt = as_vector(tilt, base.dim)
        self.dim = base.dim
        self.has_third = base.has_third
        self.has_fourth = base.has_fourth

    def gradient(self, x) -> np.ndarray:
        return self.base.gradient(x) + self.tilt

    def hessian(self, x) -> np.ndarray:
        return self.base.hessian(x)

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        return self.base.value_many(P) + self.tilt @ P

    def third_dir_many(self, P, V) -> np.ndarray:
        return self.base.third_dir_many(P, V)

    def fourth_dir_many(self, P, V) -> np.ndarray:
        return self.base.fourth_dir_many(P, V)


def linearly_perturb(f: Oracle, A) -> Oracle:
    """Return ``g(x) = f(x) + <x, A>``."""
    return _LinearShiftOracle(f, A)


def quadratically_penalize(f: Oracle, penalty_sq) -> Oracle:
    """Return ``f(x) + 0.5 x' G^2 x`` for symmetric positive semidefinite ``G^2``."""
    pen = PsdQuadraticOracle(penalty_sq)
    if pen.dim != f.dim:
        raise DimensionMismatch(
            f"penalty has dimension {pen.dim}, objective has {f.dim}"
        )
    return SumOracle(f, pen)


def smoothly_penalize(f: Oracle, pen: Oracle) -> Oracle:
    """Return ``f + pen`` after spot-checking that ``pen`` is convex.

    Convexity cannot be verified globally from black-box access; a handful
    of seeded probe points must have positive semidefinite penalty Hessians,
    which catches sign errors without pretending to be a proof.  A
    :class:`PsdQuadraticOracle` is not probed: its constructor already
    checked symmetry and positive semidefiniteness exactly.
    """
    if pen.dim != f.dim:
        raise DimensionMismatch(f"penalty has dimension {pen.dim}, objective has {f.dim}")
    if isinstance(pen, PsdQuadraticOracle):
        return SumOracle(f, pen)
    rng = np.random.default_rng(0)
    for _ in range(5):
        point = rng.standard_normal(pen.dim)
        H = pen.hessian(point)
        scale = max(np.abs(H).max(), 1e-300)
        if float(np.linalg.eigvalsh(0.5 * (H + H.T))[0]) < -1e-8 * scale:
            raise NotPsd("penalty Hessian is indefinite at a probe point")
    return SumOracle(f, pen)


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
    h3 = FD_DIR_STEP / 2.0  # unit directions, so 1e-4 / (1 + |u|)

    g = f.gradient(x)
    H = f.hessian(x)
    gscale = 1.0 + float(np.linalg.norm(g))
    hscale = 1.0 + float(np.linalg.norm(H, 2))

    worst = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    for _ in range(directions):
        u = rng.standard_normal(f.dim)
        u /= np.linalg.norm(u)

        fd1 = (f.value(x + h1 * u) - f.value(x - h1 * u)) / (2.0 * h1)
        worst[1] = max(worst[1], abs(fd1 - float(g @ u)) / gscale)

        fd2 = (f.gradient(x + h1 * u) - f.gradient(x - h1 * u)) / (2.0 * h1)
        worst[2] = max(worst[2], float(np.linalg.norm(fd2 - H @ u)) / hscale)

        if f.has_third:
            fd3 = (f.hessian(x + h3 * u) - f.hessian(x - h3 * u)) @ u / (2.0 * h3)
            t3 = f.third_dir(x, u)
            scale3 = 1.0 + float(np.linalg.norm(t3))
            worst[3] = max(worst[3], float(np.linalg.norm(fd3 - t3)) / scale3)

        if f.has_fourth:
            fd4 = (f.third_dir(x + h3 * u, u) - f.third_dir(x - h3 * u, u)) / (2.0 * h3)
            t4 = f.fourth_dir(x, u)
            scale4 = 1.0 + float(np.linalg.norm(t4))
            worst[4] = max(worst[4], float(np.linalg.norm(fd4 - t4)) / scale4)

    tolerances = {1: 1e-6, 2: 1e-5, 3: 1e-3, 4: 1e-3}
    record = DiagnosticsRecord(
        name="fd_probe",
        metadata={"directions": directions, "seed": seed, "steps": {"h1": h1, "h3": h3}},
    )
    for order in (1, 2, 3, 4):
        if order == 3 and not f.has_third:
            continue
        if order == 4 and not f.has_fourth:
            continue
        record.checks.append(
            CheckResult(
                name=f"order_{order}",
                worst_ratio=worst[order] / tolerances[order],
                passed=worst[order] <= tolerances[order],
                details={"mismatch": worst[order], "tolerance": tolerances[order]},
            )
        )
    return record
