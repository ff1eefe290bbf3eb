"""Sampled smoothness constants and the certificate that carries them.

The certified radii downstream depend on three numbers measured around an
anchor point in the geometry of a user-chosen metric ``D``, held as the
operator ``M = D^2`` of its Gram (``||D v|| = M.norm(v)``):

``omega``
    worst ratio of the second-order Taylor remainder of ``f`` against
    ``||D u||^2 / 2`` over the trust ball,
``tau3`` / ``tau4``
    worst third / fourth directional derivative against the matching
    powers of ``||D .||`` over the trust ball.

The sampled maxima are lower bounds on the true suprema.  They are
therefore inflated (factor 1.5 by default) before any gate consumes them;
the raw values and the sampling settings are kept in the certificate's
provenance so a reviewer can rescale or resample.

Sampling uses one seeded generator drawing a fixed number of variates per
sample, so the first ``k`` samples of a longer run coincide with a shorter
run: estimates are nondecreasing in the sample count for a fixed seed.
The estimators draw every variate first, in that per-sample order, and then
evaluate the samples through the oracle's batched forms in blocks of
``SAMPLE_BLOCK`` columns.  The last block is padded to full width, so a
sample is always computed at the same block position with the same array
shapes, and a longer run extends a shorter one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import constants
from .diagnostics import Gate
from .errors import (
    DimensionMismatch,
    MissingFourthDerivative,
    MissingThirdDerivative,
    NotAtMinimum,
)
from .linalg import SpdOperator, as_vector, spd_from_dense
from .oracle import Oracle

__all__ = [
    "SmoothnessCertificate",
    "estimate_omega",
    "estimate_tau3",
    "estimate_tau4",
    "taylor_diagnostics",
    "estimate_certificate",
    "declared_certificate",
]

# Columns per batched oracle call in the sampled estimators.  Wide enough for
# matrix-matrix products to pay, narrow enough to keep the temporaries (a few
# n x SAMPLE_BLOCK arrays) small.
SAMPLE_BLOCK = 32


@dataclass(frozen=True, eq=False, kw_only=True)
class SmoothnessCertificate:
    """Constants of one anchor point, in the geometry of ``metric``.

    ``metric`` is the Gram ``M = D^2`` of the metric ``D``.  ``radius`` is
    measured in ``||D .||``; the constants are only claimed
    on that ball.  A constant is ``None`` when it is not stated: ``tau3`` /
    ``tau4`` for an oracle without derivatives of that order, a sampled 0 on
    a non-quadratic oracle, or any one a declared certificate omits.
    """

    metric: SpdOperator
    radius: float
    omega: float | None
    tau3: float | None = None
    tau4: float | None = None
    provenance: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # NaN fails every comparison quietly, so finiteness is checked first.
        for name in ("radius", "omega", "tau3", "tau4"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def to_dict(self) -> dict[str, Any]:
        """The constants and provenance; the metric itself is not serialized."""
        return {key: value for key, value in vars(self).items() if key != "metric"}


def _metric_direction(rng: np.random.Generator, M: SpdOperator) -> np.ndarray:
    """A vector with ``||D v|| = 1``, direction uniform in the metric of Gram ``M``."""
    z = rng.standard_normal(M.dim)
    return M.L_inv.T @ (z / np.linalg.norm(z))


def _radial(rng: np.random.Generator, r: float, dim: int) -> float:
    # Radius law biased toward the shell; floored away from zero so ratios
    # of tiny cancellations cannot dominate the running max.  ``random()``
    # draws the same double as ``uniform()`` on [0, 1).
    u = rng.random()
    return r * (0.05 + 0.95 * u ** (1.0 / dim))


def check_anchor(f: Oracle, xstar: np.ndarray, M: SpdOperator, rtol: float) -> None:
    """Raise ``NotAtMinimum`` unless ``||D^{-1} grad f(x*)|| <= rtol (1 + |f(x*)|)``."""
    resid = M.dual_norm(f.gradient(xstar))
    scale = 1.0 + abs(f.value_many(xstar[:, None])[0])
    if resid > rtol * scale:
        raise NotAtMinimum(
            f"metric-dual gradient norm {resid:.3e} at the anchor exceeds "
            f"{rtol:.0e} * {scale:.3g}"
        )


def _draw_samples(
    rng: np.random.Generator, dim: int, r: float, samples: int, paired: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every variate of a run, drawn in the per-sample order of the generator.

    Per sample: a normal vector for the offset direction, the radial law,
    and (``paired``) a normal vector for the tensor direction.  Sample ``i``
    is column ``i % SAMPLE_BLOCK`` of block ``i // SAMPLE_BLOCK``; each block
    is a contiguous ``(dim, SAMPLE_BLOCK)`` array (radii: ``SAMPLE_BLOCK``).
    The last block is padded with unit vectors and radius 0, which evaluate
    at the anchor and are discarded.

    The generator writes each vector into a contiguous row, one sample per
    row; the blocks are that array transposed once.
    """
    blocks = -(-samples // SAMPLE_BLOCK)
    rows = np.ones((2 if paired else 1, blocks * SAMPLE_BLOCK, dim))
    rad = np.zeros(blocks * SAMPLE_BLOCK)
    for i in range(samples):
        rng.standard_normal(out=rows[0, i])
        rad[i] = _radial(rng, r, dim)
        if paired:
            rng.standard_normal(out=rows[1, i])
    cols = rows.reshape(len(rows), blocks, SAMPLE_BLOCK, dim).transpose(0, 1, 3, 2)
    cols = np.ascontiguousarray(cols)
    return cols[0], rad.reshape(blocks, SAMPLE_BLOCK), cols[1] if paired else None


def _metric_block(M: SpdOperator, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``v = L^{-T} z / ||z||`` and their metric norms ``||D v|| = ||L' v||``.

    ``L^{-T} = D^{-1} Q`` for an orthogonal ``Q``, so ``v`` has the law of
    ``D^{-1} z / ||z||``.
    """
    V = M.L_inv.T @ (Z / np.linalg.norm(Z, axis=0))
    return V, np.linalg.norm(M.L.T @ V, axis=0)


def _checked(block: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An oracle's batched result, checked for its shape and finite entries."""
    if block.shape != shape:
        raise DimensionMismatch(f"expected a block of shape {shape}, got {block.shape}")
    if not np.all(np.isfinite(block)):
        raise ValueError("oracle returned non-finite entries")
    return block


def _running_max(worst: float, ratio: np.ndarray, name: str, r: float) -> float:
    """``worst`` raised to the largest ``ratio``, which must be finite (``max`` drops NaN)."""
    if not np.all(np.isfinite(ratio)):
        raise ValueError(f"sampled {name} is not finite at radius {r:g}; use a larger radius")
    return max(worst, float(ratio.max()))


def estimate_omega(
    f: Oracle,
    xstar,
    M: SpdOperator,
    F: SpdOperator,
    r: float,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampled second-order remainder constant at a minimizer.

    Maximizes ``2 |f(x* + u) - f(x*) - 0.5 u' F u| / ||D u||^2`` over
    points of the ``D``-ball of radius ``r``, for the metric Gram
    ``M = D^2``.  The anchor must have a
    vanishing gradient (``NotAtMinimum`` otherwise), since the linear term
    is dropped.
    """
    xstar = as_vector(xstar, f.dim)
    if samples < 1:
        raise ValueError("samples must be positive")
    check_anchor(f, xstar, M, constants.ANCHOR_GRAD_RTOL)
    fstar = f.value_many(xstar[:, None])[0]
    Z, rad, _ = _draw_samples(np.random.default_rng(seed), f.dim, r, samples, paired=False)
    worst = 0.0
    for b in range(len(rad)):
        directions, dnorm = _metric_block(M, Z[b])
        U = directions * rad[b]
        quad = 0.5 * np.einsum("ij,ij->j", U, F.matrix @ U)
        values = _checked(f.value_many(xstar[:, None] + U), (SAMPLE_BLOCK,))
        live = slice(0, samples - b * SAMPLE_BLOCK)  # padding has radius 0: no ratio
        remainder = np.abs(values[live] - fstar - quad[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = 2.0 * remainder / (dnorm[live] * rad[b, live]) ** 2
        worst = _running_max(worst, ratio, "omega", r)
    return worst


def _estimate_tensor_sup(
    f: Oracle,
    x,
    M: SpdOperator,
    r: float,
    samples: int,
    seed: int,
    order: int,
) -> float:
    if samples < 1:
        raise ValueError("samples must be positive")
    x = as_vector(x, f.dim)
    Z, rad, W = _draw_samples(np.random.default_rng(seed), f.dim, r, samples, paired=True)
    rad[0, 0] = 0.0  # the anchor itself is always sampled
    contract = f.third_dir_many if order == 3 else f.fourth_dir_many
    worst = 0.0
    for b in range(len(rad)):
        directions, _ = _metric_block(M, Z[b])
        V, vnorm = _metric_block(M, W[b])
        tens = _checked(contract(x[:, None] + directions * rad[b], V), V.shape)
        # The last slot is maximized in closed form: over ||D w|| = 1 the
        # largest pairing with the contracted tensor is its dual norm,
        # ||D^{-1} t|| = ||L^{-1} t||.
        numer = np.linalg.norm(M.L_inv @ tens, axis=0)
        ratio = numer / vnorm ** (order - 1)
        worst = _running_max(worst, ratio[: samples - b * SAMPLE_BLOCK], f"tau{order}", r)
    return worst


def estimate_tau3(
    f: Oracle,
    x,
    M: SpdOperator,
    r: float,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampled third-derivative constant over the ``D``-ball of radius ``r``.

    Maximizes ``|<grad^3 f(x + u), v (x) v (x) w>|`` over ball points ``u``
    and metric-unit directions ``v`` (``||D v|| = 1``); the last slot ``w``
    is maximized exactly via the dual norm, and the anchor ``u = 0`` is
    always included.  Symmetric three-linear forms attain their norm on
    repeated arguments, so this scheme sees every component of the tensor.
    """
    if not f.has_third:
        raise MissingThirdDerivative("oracle lacks analytic third derivatives")
    return _estimate_tensor_sup(f, x, M, r, samples, seed, order=3)


def estimate_tau4(
    f: Oracle,
    x,
    M: SpdOperator,
    r: float,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampled fourth-derivative constant; same scheme as :func:`estimate_tau3`."""
    if not f.has_fourth:
        raise MissingFourthDerivative("oracle lacks analytic fourth derivatives")
    return _estimate_tensor_sup(f, x, M, r, samples, seed, order=4)


def taylor_diagnostics(
    f: Oracle,
    x,
    cert: SmoothnessCertificate,
    samples: int = 100,
    seed: int = 0,
) -> list[Gate]:
    """Sampled verification of the four Taylor-remainder inequalities.

    With ``tau3``/``tau4`` from the certificate and offsets in the
    certificate ball, checks that

    1. the gradient remainder obeys ``(tau3 / 2) ||D u||^2``,
    2. the Hessian difference obeys ``tau3 ||D (u1 - u)||`` in the
       ``D``-sandwiched spectral norm,
    3. the two-point gradient remainder obeys ``(3 tau3 / 2) ||D (u1 - u)||^2``
       on pairs with ``||D u|| <= ||D (u1 - u)||`` (outside that regime the
       stated constant is not achievable: the base-point contribution
       ``tau3 ||D u|| ||D (u1 - u)||`` grows without bound relative to the
       step),
    4. the third-order gradient remainder obeys ``(tau4 / 6) ||D u||^3``
       (skipped when ``tau4`` is absent).

    Returns one gate per inequality, comparing the worst sampled ratio of
    its two sides with 1 (plus a rounding tolerance).  Ratios at or below 1
    mean the certificate constants dominate the sampled behavior.
    """
    x = as_vector(x, f.dim)
    if cert.tau3 is None:
        raise MissingThirdDerivative("certificate lacks tau3")
    M = cert.metric
    r = cert.radius
    tau3 = cert.tau3
    tau4 = cert.tau4
    rng = np.random.default_rng(seed)
    H0 = f.hessian(x)
    g0 = f.gradient(x)
    floor = 1e-12 * (1.0 + float(np.linalg.norm(g0)))

    def ratio(lhs: float, rhs: float) -> float:
        if rhs <= 0.0:
            return 0.0 if lhs <= floor else np.inf
        return lhs / rhs

    fourth = tau4 is not None and f.has_third
    worst = dict.fromkeys((1, 2, 3, 4), 0.0)
    for _ in range(samples):
        # check 1 and 4 share the sample offset u
        u = _radial(rng, r, f.dim) * _metric_direction(rng, M)
        du = M.norm(u)
        grad_u = f.gradient(x + u)
        rem1 = grad_u - g0 - H0 @ u
        lhs1 = M.dual_norm(rem1)
        worst[1] = max(worst[1], ratio(lhs1, 0.5 * tau3 * du**2))

        if fourth:
            rem4 = rem1 - 0.5 * f.third_dir(x, u)
            lhs4 = M.dual_norm(rem4)
            worst[4] = max(worst[4], ratio(lhs4, tau4 / 6.0 * du**3))

        # check 2: Hessian difference between two ball points; L^{-1} H L^{-T}
        # has the spectrum of D^{-1} H D^{-1}
        a = _radial(rng, r, f.dim) * _metric_direction(rng, M)
        b = _radial(rng, r, f.dim) * _metric_direction(rng, M)
        diff = M.L_inv @ (f.hessian(x + b) - f.hessian(x + a)) @ M.L_inv.T
        lhs2 = float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).max())
        dstep = M.norm(b - a)
        worst[2] = max(worst[2], ratio(lhs2, tau3 * dstep))

        # check 3: base offset no larger than the step, both points in ball
        step_len = _radial(rng, r, f.dim) * (2.0 / 3.0)
        delta = step_len * _metric_direction(rng, M)
        dd = M.norm(delta)
        cap = min(dd, r - dd)
        base = (cap * rng.uniform()) * _metric_direction(rng, M)
        rem3 = f.gradient(x + base + delta) - f.gradient(x + base) - H0 @ delta
        lhs3 = M.dual_norm(rem3)
        worst[3] = max(worst[3], ratio(lhs3, 1.5 * tau3 * dd**2))

    names = {
        1: "gradient_remainder",
        2: "hessian_difference",
        3: "two_point_gradient",
        4: "third_order_remainder",
    }
    # The inequalities may be attained with equality (constant third
    # derivative), so the pass mark allows rounding-level overshoot.
    return [
        Gate(names[k], worst[k], 1.0 + constants.SLACK_TOLERANCE)
        for k in ((1, 2, 3, 4) if fourth else (1, 2, 3))
    ]


def estimate_certificate(
    f: Oracle,
    xstar,
    curvature: SpdOperator | None = None,
    metric: SpdOperator | None = None,
    radius: float = 1.0,
    samples: int = 200,
    seed: int = 0,
    inflation: float = constants.ESTIMATE_INFLATION,
    include_omega: bool = True,
) -> SmoothnessCertificate:
    """Measure a full certificate at a minimizer.

    The metric (the Gram ``D^2``) defaults to the curvature ``F`` itself, so
    ``D = F^{1/2}``.  The sampled constants are multiplied by ``inflation``
    before storage, and the raw values are retained in the provenance.
    Pass ``include_omega=False`` when the anchor is not a minimizer of
    ``f`` (the quadratic-remainder constant is anchored to a vanishing
    gradient, but the tensor constants are not); ``omega`` is then not
    stated (``None``).  A constant sampled as exactly 0 is stated only when
    ``f.quadratic``; otherwise it underflowed, and it is left unstated with
    the raw 0 kept in the provenance.
    """
    xstar = as_vector(xstar, f.dim)
    if curvature is None:
        curvature = spd_from_dense(f.hessian(xstar))
    if metric is None:
        metric = curvature
    raw_omega = (
        estimate_omega(f, xstar, metric, curvature, radius, samples, seed)
        if include_omega
        else None
    )
    raw_tau3 = (
        estimate_tau3(f, xstar, metric, radius, samples, seed + 1)
        if f.has_third
        else None
    )
    raw_tau4 = (
        estimate_tau4(f, xstar, metric, radius, samples, seed + 2)
        if f.has_fourth
        else None
    )

    def stated(raw: float | None) -> float | None:
        # A sampled 0 claims exactness, which only a quadratic backs; on any
        # other oracle it may be an underflow, so the constant goes unstated.
        if raw is None or (raw == 0.0 and not f.quadratic):
            return None
        return raw * inflation

    return SmoothnessCertificate(
        metric=metric,
        radius=radius,
        omega=stated(raw_omega),
        tau3=stated(raw_tau3),
        tau4=stated(raw_tau4),
        provenance={
            "mode": "estimated",
            "samples": samples,
            "seed": seed,
            "inflation": inflation,
            "raw": {"omega": raw_omega, "tau3": raw_tau3, "tau4": raw_tau4},
        },
    )


def declared_certificate(
    metric: SpdOperator,
    radius: float,
    *,
    omega: float | None,
    tau3: float | None = None,
    tau4: float | None = None,
) -> SmoothnessCertificate:
    """Certificate from externally supplied constants (no sampling); ``None`` is not stated."""
    return SmoothnessCertificate(
        metric=metric,
        radius=radius,
        omega=omega,
        tau3=tau3,
        tau4=tau4,
        provenance={"mode": "declared"},
    )
