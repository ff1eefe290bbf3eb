"""Differentiable problem oracles and perturbation constructors.

An :class:`Oracle` exposes value, gradient, Hessian, and directional third
and fourth derivatives of a smooth function.  The directional forms are the
only higher-order access the rest of the package ever needs:

``third_dir(x, u)``
    the vector ``<grad^3 f(x), u (x) u (x) e_i>`` over coordinates ``i``,
``fourth_dir(x, u)``
    the vector ``<grad^4 f(x), u (x) u (x) u (x) e_i>``.

A subclass implements ``value_many(P)`` at the points in the columns of
``P``, ``gradient``, ``hessian`` and ``jet_many(P, V, parts)``: the values
and the two tensor forms at the points paired with the directions in the
columns of ``V``, each ``None`` unless ``parts`` names it (all three by
default) and a tensor ``None`` if it has no closed form.  The scalar
``value``, ``third_dir`` and ``fourth_dir`` are derived on
:class:`Oracle`: each asks a one-column ``jet_many`` for its one part, so
it is bit for bit column 0 of a batched call, and a missing tensor raises.
Only :func:`_fd_third` and :func:`_fd_fourth`, :func:`fd_probe`'s
references, difference a tensor.  An oracle has a tensor exactly when
``jet_many`` returns it; the one flag, ``quadratic``, says whether the
function is exactly quadratic.  Logistic and log-sum-exp problems form
their tensors on three products with the data: the margins or scores
``P' X'`` (one point per row, as ``value_many`` forms them), the
projections of ``V``, and one product of ``X`` with the tensors' weights.

A logistic or log-sum-exp Hessian is a weighted Gram matrix
``X' diag(w) X``.  It is formed as ``B' B`` with ``B = diag(sqrt(w)) X``, a
product of an array with its own transpose that NumPy hands to BLAS
``syrk``: half the flops of a general product, and a result symmetric to
the last bit.

Every quadratic is one :class:`QuadraticOracle` ``0.5 (x - c)' Q (x - c)``:
an objective built from a factored :class:`SpdOperator`, or a penalty from a
positive semidefinite array.  Every weighted term and every perturbed
objective is one :class:`SumOracle` ``sum_i w_i f_i + <., A>`` with
nonnegative weights: a linear tilt, a scaling (a ridge weight ``lam`` too)
and a penalty differ only in their terms.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import constants
from .diagnostics import Gate
from .errors import BadLabels, DimensionMismatch, NotPsd
from .errors import MissingFourthDerivative, MissingThirdDerivative
from .linalg import SpdOperator, as_matrix, as_nonnegative, as_symmetric, as_vector

__all__ = [
    "Oracle",
    "QuadraticOracle",
    "LogisticOracle",
    "LogSumExpOracle",
    "CustomOracle",
    "SumOracle",
    "quadratically_penalize",
    "smoothly_penalize",
    "fd_probe",
]

FD_DIR_STEP = 1e-4  # base step for Hessian differencing, scaled by 1/(1+|u|)
PARTS = ("values", "third", "fourth")  # the parts of a jet, in the order jet_many returns them
Jet = tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]  # (values, third, fourth)


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


def _fd_third(f: Oracle, P, V) -> np.ndarray:
    """Third directional derivative of ``f``: central differences of its Hessian by columns."""
    P, V = _block_pair(P, V, f.dim)
    out = np.empty(P.shape)
    for j, h in enumerate(_fd_steps(V)):
        p, v = P[:, j], V[:, j]
        out[:, j] = (f.hessian(p + h * v) - f.hessian(p - h * v)) @ v / (2.0 * h)
    return out


def _fd_fourth(f: Oracle, P, V) -> np.ndarray:
    """Fourth directional derivative of ``f``: central differences of its third tensor."""
    P, V = _block_pair(P, V, f.dim)
    h = _fd_steps(V)
    ends = (P + h * V, P - h * V)
    plus, minus = (f.jet_many(Q, V, parts=("third",))[1] for Q in ends)
    if plus is None:  # no closed form: differences of _fd_third
        plus, minus = (_fd_third(f, Q, V) for Q in ends)
    return (plus - minus) / (2.0 * h)


class Oracle:
    """Base class of every problem oracle.

    A subclass implements ``value_many``, ``gradient``, ``hessian`` and
    ``jet_many``, which forms only the parts asked for and gives ``None``
    for a tensor with no closed form.  The scalar forms are derived here.
    """

    dim: int
    quadratic: bool = False

    def value_many(self, P) -> np.ndarray:
        """Values at the columns of ``P``, shape ``(k,)``."""
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        """``(values, third, fourth)`` at the column pairs of ``P`` and ``V``: a part
        ``None`` unless ``parts`` names it, a tensor ``None`` if it has no closed form."""
        raise NotImplementedError

    def value(self, x) -> float:
        return float(self.value_many(as_vector(x, self.dim)[:, None])[0])

    def third_dir(self, x, u) -> np.ndarray:
        third = self.jet_many(*_one_column(x, u, self.dim), parts=("third",))[1]
        if third is None:
            raise MissingThirdDerivative("oracle lacks analytic third derivatives")
        return third[:, 0]

    def fourth_dir(self, x, u) -> np.ndarray:
        fourth = self.jet_many(*_one_column(x, u, self.dim), parts=("fourth",))[2]
        if fourth is None:
            raise MissingFourthDerivative("oracle lacks analytic fourth derivatives")
        return fourth[:, 0]


class QuadraticOracle(Oracle):
    """``f(x) = 0.5 (x - c)' Q (x - c)`` for symmetric positive semidefinite ``Q``.

    ``Q`` is a factored :class:`SpdOperator`, trusted as checked, or an
    array, taken as its symmetric part (:func:`as_symmetric`) and checked
    positive semidefinite here (it may be singular, as a ridge penalty
    ``0.5 x' G2 x`` is).  The center ``c`` defaults to the origin; third
    and fourth derivatives vanish.
    """

    quadratic = True

    def __init__(self, Q, center=None) -> None:
        if isinstance(Q, SpdOperator):
            Q = Q.matrix
        else:
            Q = as_symmetric(Q)
            lo = float(np.linalg.eigvalsh(Q)[0])
            if lo < -constants.PSD_EIG_RTOL * max(np.abs(Q).max(), 1e-300):
                raise NotPsd(f"quadratic matrix has negative eigenvalue {lo:.3e}")
        self.Q = Q
        self.dim = Q.shape[0]
        self.center = np.zeros(self.dim) if center is None else as_vector(center, self.dim)

    def gradient(self, x) -> np.ndarray:
        return self.Q @ (as_vector(x, self.dim) - self.center)

    def hessian(self, x) -> np.ndarray:
        as_vector(x, self.dim)
        return self.Q.copy()

    def value_many(self, P) -> np.ndarray:
        Dp = as_matrix(P, self.dim) - self.center[:, None]
        return 0.5 * _col_dot(Dp, self.Q @ Dp)

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        P, V = _block_pair(P, V, self.dim)
        values = self.value_many(P) if "values" in parts else None
        return values, *(np.zeros(P.shape) if t in parts else None for t in PARTS[1:])


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

    def __init__(self, X, y, reg: float = 0.0) -> None:
        X = as_matrix(X)
        y = np.asarray(y, dtype=float)
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"labels shape {y.shape} does not match {X.shape[0]} rows"
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise BadLabels("labels must all be -1 or +1")
        self.X = X
        self.y = y
        self.reg = as_nonnegative(reg, "reg")
        self.n, self.dim = X.shape

    def gradient(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        s = _sigmoid(self.y * (self.X @ v))
        return self.X.T @ (self.y * (s - 1.0)) / self.n + self.reg * v

    def hessian(self, x) -> np.ndarray:
        """``X' diag(s (1 - s) / n) X + reg I``, the Gram matrix on BLAS ``syrk``."""
        v = as_vector(x, self.dim)
        s = _sigmoid(self.y * (self.X @ v))
        H = _gram(self.X, s * (1.0 - s) / self.n)
        return _add_to_diagonal(H, self.reg)

    def _margin_rows(self, P: np.ndarray) -> np.ndarray:
        """The margins ``t = y x' p`` with one point ``p`` per row."""
        T = P.T @ self.X.T
        T *= self.y
        return T

    def _values(self, T: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Mean loss over each row of the margins ``T`` (overwritten), plus the ridge.

        Each mean is a pairwise sum over a row: the sampled remainders
        ``f(x + u) - f(x) - ...`` cancel most of the value.  The loss is
        ``max(-t, 0) + log1p(exp(-|t|))``, the formula ``np.logaddexp``
        evaluates entry by entry, here on vector ufuncs.
        """
        loss = np.abs(T)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        np.negative(T, out=T)
        np.maximum(T, 0.0, out=T)
        loss += T
        return np.mean(loss, axis=1) + 0.5 * self.reg * _col_dot(P, P)

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        return self._values(self._margin_rows(P), P)

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        """Values, and the tensors asked for from one product ``X' [W3, W4]``.

        The weights take one point per column and keep the left to right
        order of the class docstring's formulas, so every entry rounds as
        the plain expression would, for any ``parts``.
        """
        P, V = _block_pair(P, V, self.dim)
        third, fourth = "third" in parts, "fourth" in parts
        T = self._margin_rows(P)
        S = _sigmoid(T.T.copy())
        values = self._values(T, P) if "values" in parts else None
        if not (third or fourth):
            return values, None, None
        proj = self.X @ V
        W = np.empty((third + fourth, *proj.shape))  # [W3, W4], or the one asked for
        W3, W4 = W[0], W[-1]
        Q = 1.0 - S
        curv = S * Q
        sq = np.square(proj)
        if third:
            np.multiply(curv, np.subtract(1.0, 2.0 * S), out=W3)
            W3 *= self.y[:, None]
            W3 *= sq
        if fourth:
            S *= 6.0
            S *= Q
            np.multiply(curv, np.subtract(1.0, S, out=S), out=W4)
            # proj**2 * proj: an integer power other than 2 goes through pow().
            sq *= proj
            W4 *= sq
        R = self.X.T @ W
        R /= self.n
        return values, R[0] if third else None, R[-1] if fourth else None


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

    ``jet_many`` takes the softmax and the cumulants with one point per
    column: the cumulants cancel, so their sums keep this order.
    """

    def __init__(self, X, temp: float = 1.0, reg: float = 0.0) -> None:
        self.X = as_matrix(X)
        self.temp = as_nonnegative(temp, "temp", positive=True)
        with np.errstate(all="ignore"):
            # Derivatives up to the fourth scale as 1/temp**3: keep one power spare.
            if not np.isfinite(1.0 / np.float64(self.temp) ** 4):
                raise ValueError(f"temp {self.temp!r} is too small: 1/temp**4 overflows")
        self.reg = as_nonnegative(reg, "reg")
        self.n, self.dim = self.X.shape

    def _softmax(self, v: np.ndarray) -> np.ndarray:
        # Softmax weights of a point.
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

    def _exp_scores(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``exp(z - max z)`` of the scores ``z = P' X' / temp`` by rows, and each row's max."""
        Z = P.T @ self.X.T
        Z /= self.temp
        m = Z.max(axis=1, keepdims=True)
        Z -= m
        np.exp(Z, out=Z)
        return Z, m

    def _values(self, E: np.ndarray, m: np.ndarray, P: np.ndarray) -> np.ndarray:
        # Each sum over the data runs along a row of E, so it is pairwise.
        lse = (m + np.log(E.sum(axis=1, keepdims=True)))[:, 0]
        return self.temp * lse + 0.5 * self.reg * _col_dot(P, P)

    def value_many(self, P) -> np.ndarray:
        P = as_matrix(P, self.dim)
        return self._values(*self._exp_scores(P), P)

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        """Values, and the tensors asked for from one product ``X' [W3, W4]``.

        The weights work in place on the centered projections but keep the
        left to right order of the class docstring's cumulants, so every
        entry rounds as the plain expression would, for any ``parts``.
        """
        P, V = _block_pair(P, V, self.dim)
        third, fourth = "third" in parts, "fourth" in parts
        E, m = self._exp_scores(P)
        Pi = E.T.copy()  # one point per column
        Pi /= Pi.sum(axis=0)
        values = self._values(E, m, P) if "values" in parts else None
        if not (third or fourth):
            return values, None, None
        C = self.X @ V
        C -= _col_dot(Pi, C)
        W = np.empty((third + fourth, *C.shape))  # [C2, C3], or the one asked for
        C2 = np.square(C, out=W[0] if third else None)
        var = _col_dot(Pi, C2)
        if fourth:  # reads C2 before the third tensor's weights center it
            C3 = np.multiply(C2, C, out=W[-1])
            k3 = _col_dot(Pi, C3)
            C *= 3.0 * var
            C3 -= C
            C3 -= k3
            C3 *= Pi
        if third:
            C2 -= var
            C2 *= Pi
        R = self.X.T @ W
        if third:
            R[0] *= (1.0 / self.temp) ** 2
        if fourth:
            R[-1] *= (1.0 / self.temp) ** 3
        return values, R[0] if third else None, R[-1] if fourth else None


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
        self._tensors = (third_dir, fourth_dir)

    def _values(self, P: np.ndarray) -> np.ndarray:
        return np.array([float(self._value(p)) for p in P.T])

    def value_many(self, P) -> np.ndarray:
        return self._values(as_matrix(P, self.dim))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self._gradient(as_vector(x, self.dim)), dtype=float)

    def hessian(self, x) -> np.ndarray:
        return np.asarray(self._hessian(as_vector(x, self.dim)), dtype=float)

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        """The callables of the parts asked for, looped over the columns."""
        P, V = _block_pair(P, V, self.dim)

        def looped(fn) -> np.ndarray:
            out = np.empty(P.shape)
            for j in range(P.shape[1]):
                out[:, j] = as_vector(fn(P[:, j], V[:, j]), self.dim)
            return out

        values = self._values(P) if "values" in parts else None
        fns = [fn if part in parts else None for part, fn in zip(PARTS[1:], self._tensors)]
        return values, *(None if fn is None else looped(fn) for fn in fns)


class SumOracle(Oracle):
    """``sum_i w_i f_i + <., tilt>``: nonnegatively weighted oracles and a tilt.

    The one composition rule: a sum ``SumOracle(f, g)``, a scaling
    ``SumOracle(f, weights=(w,))`` (a weighted ridge or smooth penalty
    included), a linear tilt ``SumOracle(f, tilt=A)`` and a penalized
    objective (:func:`smoothly_penalize`) are each one of these.
    Every form is the sum of the terms' forms in term order, each term
    multiplied by its weight unless the weight is 1, and ``None`` in
    ``jet_many`` where a term's is.  The tilt enters the value and the
    gradient only.  It is ``quadratic`` when every term is.
    """

    def __init__(self, *oracles: Oracle, weights=None, tilt=None) -> None:
        pairs = zip([1.0] * len(oracles) if weights is None else weights, oracles, strict=True)
        self.terms = [(as_nonnegative(w, "weight"), f) for w, f in pairs]
        if not self.terms:
            raise ValueError("a sum needs at least one oracle")
        self.dim = oracles[0].dim
        for f in oracles:
            if f.dim != self.dim:
                raise DimensionMismatch(f"a summand has dimension {f.dim}, the first {self.dim}")
        self.tilt = None if tilt is None else as_vector(tilt, self.dim)
        self.quadratic = all(f.quadratic for f in oracles)

    def _sum(self, parts) -> np.ndarray:
        """``sum_i w_i part_i`` over one part per term, in term order."""
        total = None
        for (weight, _), part in zip(self.terms, parts, strict=True):
            if weight != 1.0:
                part = weight * part
            total = part if total is None else total + part
        return total

    def gradient(self, x) -> np.ndarray:
        grad = self._sum(f.gradient(x) for _, f in self.terms)
        return grad if self.tilt is None else grad + self.tilt

    def hessian(self, x) -> np.ndarray:
        return self._sum(f.hessian(x) for _, f in self.terms)

    def value_many(self, P) -> np.ndarray:
        if self.tilt is None:
            return self._sum(f.value_many(P) for _, f in self.terms)
        P = as_matrix(P, self.dim)
        return self._sum(f.value_many(P) for _, f in self.terms) + self.tilt @ P

    def jet_many(self, P, V, parts=PARTS) -> Jet:
        P, V = _block_pair(P, V, self.dim)
        jets = [f.jet_many(P, V, parts=parts) for _, f in self.terms]
        values, third, fourth = (
            None if any(jet[i] is None for jet in jets) else self._sum(jet[i] for jet in jets)
            for i in range(3)
        )
        if values is not None and self.tilt is not None:
            values = values + self.tilt @ P
        return values, third, fourth


def quadratically_penalize(f: Oracle, penalty_sq) -> Oracle:
    """Return ``f(x) + 0.5 x' G^2 x`` for symmetric positive semidefinite ``G^2``."""
    return smoothly_penalize(f, QuadraticOracle(penalty_sq))


def smoothly_penalize(f: Oracle, pen: Oracle) -> Oracle:
    """Return ``f + pen`` after spot-checking that ``pen`` is convex.

    Convexity cannot be verified globally from black-box access; a handful
    of seeded probe points must have positive semidefinite penalty Hessians,
    which catches sign errors without pretending to be a proof.  A
    quadratic penalty is not probed: its :class:`QuadraticOracle` matrices
    were checked positive semidefinite when they were built.
    """
    penalized = SumOracle(f, pen)
    if pen.quadratic:
        return penalized
    rng = np.random.default_rng(0)
    for _ in range(5):
        point = rng.standard_normal(pen.dim)
        H = pen.hessian(point)
        scale = max(np.abs(H).max(), 1e-300)
        lo = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
        if lo < -constants.PENALTY_PROBE_EIG_RTOL * scale:
            raise NotPsd("penalty Hessian is indefinite at a probe point")
    return penalized


# ---------------------------------------------------------------------------
# Finite-difference probing
# ---------------------------------------------------------------------------


def fd_probe(f: Oracle, x, directions: int = 8, seed: int = 0) -> list[Gate]:
    """Cross-check analytic derivatives against central finite differences.

    For each random unit direction the mismatch of order ``k`` is measured
    relative to the scale of the order-``k`` analytic quantity (``1 +`` its
    norm for orders 1 and 2, its norm for orders 3 and 4), and the worst
    case over directions is reported per order, as a gate ``order_k``
    comparing it with that order's tolerance.  Orders 3 and 4 are only
    probed where ``jet_many`` returns the tensor.
    """
    x = as_vector(x, f.dim)
    rng = np.random.default_rng(seed)
    h1 = 1e-5 * (1.0 + float(np.linalg.norm(x)))
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

    # Orders 3 and 4 compare _fd_third / _fd_fourth (step FD_DIR_STEP / 2 on
    # unit directions, all directions as one block) with the analytic tensor,
    # relative to its norm.  The floor only keeps an exactly zero tensor (a
    # quadratic's, whose differences are exactly zero too) from dividing by
    # zero.
    def worst_relative(fd: np.ndarray, exact: np.ndarray) -> float:
        scale = np.maximum(np.linalg.norm(exact, axis=0), np.finfo(float).tiny)
        return float(np.max(np.linalg.norm(fd - exact, axis=0) / scale, initial=0.0))

    _, third, fourth = f.jet_many(X, U, parts=("third", "fourth"))
    if third is not None:
        worst[3] = worst_relative(_fd_third(f, X, U), third)
    if fourth is not None:
        worst[4] = worst_relative(_fd_fourth(f, X, U), fourth)

    tolerances = {1: 1e-6, 2: 1e-5, 3: 1e-3, 4: 1e-3}
    return [Gate(f"order_{k}", mismatch, tolerances[k]) for k, mismatch in worst.items()]
