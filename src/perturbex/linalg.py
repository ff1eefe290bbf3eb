"""Dense symmetric positive definite operators, each factored once by Cholesky.

Downstream code needs three things of a curvature ``F``: solves ``F^{-1} t``
for Newton steps, the primal norm ``||F^{1/2} v||`` and the dual norm
``||F^{-1/2} t||``.  A metric ``D`` enters only through its Gram ``D^2``:
``||D v||^2 = v' D^2 v``, ``||D^{-1} t||^2 = t' D^{-2} t``, the domination
``D^2 <= kappa^2 F``, the spectrum of ``D^{-1} H D^{-1}`` and the law of
``D^{-1} z / ||z||`` for uniform ``z`` (any root of ``D^{-2}`` gives it).
So a metric is held as the operator ``M = D^2`` of its Gram, and one
Cholesky factor ``M = L L'`` serves every use of ``F`` and of ``D``:

- ``solve(t) = L^{-T} L^{-1} t``;
- ``norm(v) = ||L' v||``, the metric norm ``||D v||``;
- ``dual_norm(t) = ||L^{-1} t||``, the dual metric norm ``||D^{-1} t||``;
- ``L^{-T} Z`` maps normal columns ``Z`` to metric directions.

NumPy has no triangular solve, so :func:`factor` keeps ``L^{-1}`` as well,
and every curvature, each Hessian the solver evaluates included, is factored
once and handed on.  No eigendecomposition is taken: the SPD floor is a
Cholesky test of a shifted matrix (:func:`check_floor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

__all__ = [
    "SpdOperator",
    "factor",
    "check_floor",
    "spd_from_dense",
    "kappa_between",
    "as_vector",
    "as_matrix",
]


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a finite 1-d float array, optionally checking length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_matrix(M, dim: int) -> np.ndarray:
    """Coerce a block of column vectors to a finite 2-d float array with ``dim`` rows."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {arr.shape}")
    if arr.shape[0] != dim:
        raise DimensionMismatch(f"expected {dim} rows, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SpdOperator:
    """A symmetric positive definite matrix with its Cholesky factor.

    Attributes
    ----------
    matrix : ndarray
        The (symmetrized) dense matrix ``M``.
    L : ndarray
        Lower-triangular Cholesky factor, ``M = L L'``.
    L_inv : ndarray
        ``L^{-1}``, lower triangular.
    """

    matrix: np.ndarray
    L: np.ndarray
    L_inv: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", int(self.matrix.shape[0]))
        for arr in (self.matrix, self.L, self.L_inv):
            arr.setflags(write=False)

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product ``M v``."""
        return self.matrix @ as_vector(v, self.dim)

    def solve(self, t) -> np.ndarray:
        """``M^{-1} t``."""
        return self.L_inv.T @ (self.L_inv @ as_vector(t, self.dim))

    def norm(self, v) -> float:
        """``sqrt(v' M v) = ||L' v||``."""
        return float(np.linalg.norm(self.L.T @ as_vector(v, self.dim)))

    def dual_norm(self, t) -> float:
        """``sqrt(t' M^{-1} t) = ||L^{-1} t||``."""
        return float(np.linalg.norm(self.L_inv @ as_vector(t, self.dim)))

    def __repr__(self) -> str:  # keep reprs short in reports and tracebacks
        return f"SpdOperator(dim={self.dim})"


# Diagonal blocks of at most this many rows are inverted by np.linalg.inv.
TRI_INV_LEAF = 64


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular ``L``, by 2x2 blocks.

    ``[[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 14),
    recursing to leaves of at most ``TRI_INV_LEAF`` rows, each
    ``tril(inv(leaf))``; a matrix that small is its own leaf.
    """
    n = len(L)
    if n <= TRI_INV_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    R = np.zeros_like(L)
    R[:h, :h] = A = _tril_inv(L[:h, :h])
    R[h:, h:] = C = _tril_inv(L[h:, h:])
    R[h:, :h] = -(C @ (L[h:, :h] @ A))
    return R


def factor(matrix: np.ndarray) -> SpdOperator:
    """Cholesky-factor the symmetric part of ``matrix``, unchecked, in units of its
    largest entry ``s`` so that no entry overflows: ``sym(M) / s = U U'``,
    ``L = sqrt(s) U``.  Raises ``np.linalg.LinAlgError`` if there is no factor."""
    scale = np.abs(matrix).max()
    sym = 0.5 * (matrix + matrix.T)
    U = np.linalg.cholesky(sym / scale if scale > 0.0 else sym)
    root = np.sqrt(scale)
    return SpdOperator(matrix=sym, L=U * root, L_inv=_tril_inv(U) / root)


def check_floor(matrix: np.ndarray) -> None:
    """Raise :class:`NotPositiveDefinite` unless ``M / s - SPD_EIG_FLOOR ||M / s||_inf I``
    has a Cholesky factor, for a symmetric ``M`` with largest entry ``s``: since
    ``lambda_max <= ||M||_inf``, any ``M`` with an eigenvalue at or below
    ``SPD_EIG_FLOOR * lambda_max`` raises, and any other has a factor."""
    scale = np.abs(matrix).max()
    unit = matrix / scale if scale > 0.0 else matrix
    row_sum = float(np.abs(unit).sum(axis=1).max())
    try:
        np.linalg.cholesky(unit - constants.SPD_EIG_FLOOR * row_sum * np.eye(len(unit)))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"smallest eigenvalue below floor {constants.SPD_EIG_FLOOR:.0e} * "
            f"{row_sum * scale:.3e} (the largest absolute row sum)"
        ) from None


def spd_from_dense(matrix) -> SpdOperator:
    """Validate a dense symmetric positive definite matrix and :func:`factor` it.

    Asymmetry beyond ``1e-12`` relative to the largest entry raises
    :class:`NotSymmetric`; the symmetric part is held to :func:`check_floor`.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(M).max()
    asym = np.abs(M - M.T).max()
    if asym > constants.SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {constants.SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    check_floor(0.5 * (M + M.T))
    return factor(M)


def kappa_between(M, F: SpdOperator) -> float:
    """Smallest ``kappa`` with ``D^2 <= kappa^2 F`` for the metric Gram ``M = D^2``.

    ``M`` may be an :class:`SpdOperator` or any symmetric positive
    semidefinite array (a zero metric gives ``kappa = 0``).  A metric that is
    ``F`` itself, or equal to it, gives exactly 1; any other is the square
    root of the largest eigenvalue of ``L^{-1} M L^{-T}`` for ``F = L L'``.
    """
    if M is F:
        return 1.0
    mat = M.matrix if isinstance(M, SpdOperator) else np.asarray(M, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] != F.dim:
        raise DimensionMismatch(f"metric has dimension {mat.shape[0]}, curvature has {F.dim}")
    if np.array_equal(mat, F.matrix):
        return 1.0
    S = F.L_inv @ mat @ F.L_inv.T
    top = float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
    return float(np.sqrt(max(top, 0.0)))
