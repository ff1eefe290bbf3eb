"""Dense symmetric positive definite operators with cached spectral form.

Everything downstream needs fractional powers of the same few matrices
(curvature ``F`` and metric ``D``): ``F^{-1}`` for Newton steps,
``F^{-1/2}`` and ``F^{1/2}`` for dual/primal curvature norms, ``D^{-1}``
for metric-normalized residuals.  A single eigendecomposition per operator,
computed at construction and reused for every power, is the cheapest safe
way to get all of them at the problem sizes this package targets
(dimension up to a few hundred).

Operators that share an eigenbasis share its eigendecomposition:

- ``F.shifted(lam)`` is ``F + lam I`` (a ridge with identity ``G2``), with
  eigenvalues ``F.eigenvalues + lam`` and ``F``'s eigenvectors;
- ``spd_power_operator(F, t)`` is ``F^t``, and it records its base ``F``
  with ``kappa_between(F^t, F)`` from the eigenvalues, so a metric that is
  a power of the curvature (of any operator with ``F``'s matrix) never
  costs an eigensolve for ``kappa``.

Every operator, factored or derived, passes the same SPD floor.  A factored
or shifted operator also passes the eigenfactor round-trip check; a power
reuses eigenpairs that already passed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

__all__ = [
    "SpdOperator",
    "spd_from_dense",
    "spd_power_operator",
    "weighted_norm",
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
    """A symmetric positive definite matrix with its eigendecomposition.

    Attributes
    ----------
    matrix : ndarray
        The (symmetrized) dense matrix.
    eigenvalues : ndarray
        Eigenvalues in descending order, all strictly positive.
    eigenvectors : ndarray
        Orthonormal eigenvectors, column ``i`` paired with ``eigenvalues[i]``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int = field(init=False)
    # kappa_between(D, self) by metric operator; both are immutable.
    _kappa_by_metric: dict = field(init=False, repr=False, default_factory=dict)
    # (M, kappa_between(self, M)) when this operator is a power of M.
    _power_of: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", int(self.matrix.shape[0]))
        for arr in (self.matrix, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product ``M v``."""
        return self.matrix @ as_vector(v, self.dim)

    def apply_power(self, t: float, v) -> np.ndarray:
        """Apply ``M^t v`` through the spectral factorization."""
        vec = as_vector(v, self.dim)
        coeffs = self.eigenvectors.T @ vec
        return self.eigenvectors @ (self.eigenvalues**t * coeffs)

    def power(self, t: float) -> np.ndarray:
        """Dense ``M^t`` as a symmetric matrix."""
        scaled = self.eigenvectors * self.eigenvalues**t
        out = scaled @ self.eigenvectors.T
        return 0.5 * (out + out.T)

    def shifted(self, lam: float) -> SpdOperator:
        """``M + lam I`` in the same eigenbasis, with no new eigensolve.

        The shifted operator passes the same SPD floor and round-trip
        checks as one built by :func:`spd_from_dense`.
        """
        sym = self.matrix + lam * np.eye(self.dim)
        return _checked_spd(sym, self.eigenvalues + lam, self.eigenvectors)

    @property
    def condition_number(self) -> float:
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    def __repr__(self) -> str:  # keep reprs short in reports and tracebacks
        return f"SpdOperator(dim={self.dim}, cond={self.condition_number:.3g})"


def _check_floor(vals: np.ndarray) -> None:
    """The smallest of descending eigenvalues must clear the floor relative to the largest."""
    if vals[0] <= 0.0 or vals[-1] <= constants.SPD_EIG_FLOOR * vals[0]:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {vals[-1]:.3e} below floor "
            f"{constants.SPD_EIG_FLOOR:.0e} * {vals[0]:.3e}"
        )


def _checked_spd(sym: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> SpdOperator:
    """Wrap a symmetric matrix and its descending eigenpairs after the SPD checks.

    The eigenvalues must clear the floor (:func:`_check_floor`), and the
    eigenpairs must rebuild the matrix to ``RECONSTRUCTION_RTOL``.
    """
    _check_floor(vals)
    # Both Frobenius norms in units of the largest entry, so that entries
    # near the top of the float range cannot overflow them.
    scale = np.abs(sym).max()
    unit = sym / scale
    err = np.linalg.norm((vecs * (vals / scale)) @ vecs.T - unit)
    if err > constants.RECONSTRUCTION_RTOL * max(np.linalg.norm(unit), 1e-300):
        raise NotPositiveDefinite(
            f"eigenfactor round-trip error {err:.3e} (in units of the largest entry) too large"
        )
    return SpdOperator(matrix=sym, eigenvalues=vals, eigenvectors=vecs)


def spd_from_dense(matrix) -> SpdOperator:
    """Validate a dense symmetric positive definite matrix and factor it.

    Parameters
    ----------
    matrix : array_like
        Square matrix.  Asymmetry beyond ``1e-12`` relative to the largest
        entry raises :class:`NotSymmetric`; an eigenvalue below
        ``1e-10 * lambda_max`` raises :class:`NotPositiveDefinite`.

    Returns
    -------
    SpdOperator
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
    sym = 0.5 * (M + M.T)
    vals, vecs = np.linalg.eigh(sym)
    return _checked_spd(sym, vals[::-1].copy(), vecs[:, ::-1].copy())


def spd_power_operator(M: SpdOperator, t: float) -> SpdOperator:
    """Build ``M^t`` as a new :class:`SpdOperator`, reusing the eigenbasis.

    ``M^t`` records ``M`` and ``kappa_between(M^t, M)`` as
    ``sqrt(max_i lambda_i(M)^(2t - 1))``: ``(M^t)^2 = M^(2t)`` and ``M``
    share eigenvectors, so no eigensolve is needed.  The eigenvalues of
    ``M^t`` must clear the SPD floor; the eigenpairs are ``M``'s, already
    checked, so no round trip is taken.
    """
    vals = M.eigenvalues**t
    order = np.argsort(vals)[::-1]
    vals = vals[order].copy()
    _check_floor(vals)
    vecs = M.eigenvectors[:, order].copy()
    dense = (vecs * vals) @ vecs.T
    kappa = float(np.sqrt((M.eigenvalues ** (2.0 * t - 1.0)).max()))
    return SpdOperator(
        matrix=0.5 * (dense + dense.T), eigenvalues=vals, eigenvectors=vecs, _power_of=(M, kappa)
    )


def weighted_norm(M: SpdOperator, v) -> float:
    """Euclidean norm of ``M v``."""
    return float(np.linalg.norm(M.apply(v)))


def _square_of(D) -> np.ndarray:
    if isinstance(D, SpdOperator):
        mat = D.matrix
    else:
        mat = np.asarray(D, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat @ mat


def kappa_between(D, F: SpdOperator) -> float:
    """Smallest ``kappa`` with ``D^2 <= kappa^2 F`` in the Loewner order.

    ``D`` may be an :class:`SpdOperator` or any symmetric positive
    semidefinite array (a zero metric gives ``kappa = 0``).  Computed as the
    square root of the largest eigenvalue of ``F^{-1/2} D^2 F^{-1/2}``, once
    per pair of operators: the value is kept on ``F`` keyed by an operator
    ``D`` (array metrics are recomputed on every call).  A metric built by
    :func:`spd_power_operator` from ``F``, or from any operator whose matrix
    equals ``F``'s, states its value in closed form.
    """
    if isinstance(D, SpdOperator):
        if D._power_of is not None:
            base, kappa = D._power_of
            # Identity first: the command's metric is a power of this very factor.
            if base is F or np.array_equal(base.matrix, F.matrix):
                return kappa
        cached = F._kappa_by_metric.get(D)
        if cached is not None:
            return cached
    D2 = _square_of(D)
    if D2.shape[0] != F.dim:
        raise DimensionMismatch(
            f"metric has dimension {D2.shape[0]}, curvature has {F.dim}"
        )
    Fmh = F.power(-0.5)
    S = Fmh @ D2 @ Fmh
    S = 0.5 * (S + S.T)
    top = float(np.linalg.eigvalsh(S)[-1])
    kappa = float(np.sqrt(max(top, 0.0)))
    if isinstance(D, SpdOperator):
        F._kappa_by_metric[D] = kappa
    return kappa
