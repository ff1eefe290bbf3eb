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

One sampler, :func:`sample_constants`, measures all three from one draw
whose first ``k`` columns are a shorter run's: estimates are nondecreasing
in the sample count for a fixed seed.  Column 0 is the anchor itself, a
point for ``tau3`` and ``tau4``; columns 1 to ``samples`` are the ball
points.  Blocks of ``SAMPLE_BLOCK`` columns go through one oracle call
each, ``jet_many``, the last one padded to full width, so a column is
always computed with the same array shapes and a longer run extends a
shorter one bit for bit.  A tensor is sampled when the first block's
``jet_many`` returns it, and never taken by finite differences.  The
provenance records where each constant peaked: its column and that
point's ``D``-norm radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from . import constants
from .diagnostics import Gate
from .errors import DimensionMismatch, MissingConstant, NotAtMinimum
from .linalg import SpdOperator, as_vector, spd_from_dense
from .oracle import PARTS, Oracle

__all__ = [
    "SmoothnessCertificate",
    "SampledMax",
    "sample_constants",
    "taylor_diagnostics",
    "estimate_certificate",
    "declared_certificate",
]

# Columns per batched oracle call in the sampler.  Wide enough for
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


def _radial(u, r: float, dim: int):
    # Radius law of uniform ``u`` (a float or an array), biased toward the shell;
    # floored away from zero so tiny cancellations cannot dominate the running max.
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


class SampledMax(NamedTuple):
    """A sampled constant, its column (0 is the anchor) and that point's radius ``||D u||``."""

    value: float
    column: int
    radius: float


def _draw(seed: int, dim: int, r: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit directions of every column, in blocks, and the offset radii.

    The seed spawns one generator each for the offset directions, the radii
    and the tensor directions, each filled in one call.  Column 0 is the
    anchor (radius 0); padding is unit vectors at radius 0.  A block holds
    the offset directions, then the tensor directions.
    """
    columns = samples + 1
    blocks = -(-columns // SAMPLE_BLOCK)
    # Any integer seeds a run: a negative one is taken modulo 2**64.
    root = np.random.SeedSequence(seed % 2**64)
    offsets, radii, tensors = map(np.random.default_rng, root.spawn(3))
    rows = np.ones((2, blocks * SAMPLE_BLOCK, dim))
    rows[0, 1:columns] = offsets.standard_normal((samples, dim))
    rows[1, :columns] = tensors.standard_normal((columns, dim))
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    rad = np.zeros(blocks * SAMPLE_BLOCK)
    rad[1:columns] = _radial(radii.random(samples), r, dim)
    # Contiguous for any block count, so every block has one memory layout.
    cols = np.ascontiguousarray(rows.reshape(2, blocks, SAMPLE_BLOCK, dim).transpose(1, 3, 0, 2))
    return cols.reshape(blocks, dim, 2 * SAMPLE_BLOCK), rad.reshape(blocks, SAMPLE_BLOCK)


def _checked(block: np.ndarray | None, shape: tuple[int, ...], f: Oracle) -> np.ndarray:
    """A part of ``f.jet_many`` asked for or given before, checked present, shaped, finite."""
    if block is None:
        name = type(f).__name__
        raise ValueError(f"{name}.jet_many gave None for a part asked for or given before")
    if block.shape != shape:
        raise DimensionMismatch(f"expected a block of shape {shape}, got {block.shape}")
    if not np.all(np.isfinite(block)):
        raise ValueError("oracle returned non-finite entries")
    return block


def _running_max(
    peak: tuple[float, int], ratio: np.ndarray, first: int, name: str, r: float
) -> tuple[float, int]:
    """``peak = (value, column)`` raised to the largest finite ``ratio`` (column ``first`` on).

    A non-finite ratio raises (``max`` drops NaN); a tie keeps the earlier column."""
    if not np.all(np.isfinite(ratio)):
        raise ValueError(f"sampled {name} is not finite at radius {r:g}; use a larger radius")
    j = int(ratio.argmax())
    return (float(ratio[j]), first + j) if ratio[j] > peak[0] else peak


def sample_constants(
    f: Oracle,
    x,
    metric: SpdOperator,
    curvature: SpdOperator,
    radius: float,
    samples: int = 200,
    seed: int = 0,
    include_omega: bool = True,
) -> tuple[SampledMax | None, SampledMax | None, SampledMax | None]:
    """Sampled ``(omega, tau3, tau4)`` over the ``D``-ball of radius ``radius`` around ``x``.

    ``metric`` is the Gram ``M = D^2 = L L'``.  An offset is ``u = rho v``
    with ``v = L^{-T} z / ||z||``, so ``||D u|| = rho`` and ``v`` has the law
    of ``D^{-1} z / ||z||``.

    - ``omega`` maximizes ``2 |f(x + u) - f(x) - 0.5 u' F u| / ||D u||^2``
      over the ball points, for ``F = curvature``.  The linear term is
      dropped, so ``x`` must have a vanishing gradient (``NotAtMinimum``).
      ``None`` unless ``include_omega``.
    - ``tau3`` maximizes ``|<grad^3 f(x + u), w (x) w (x) e>|`` over the
      anchor and the ball points, each with a direction ``||D w|| = 1``; the
      last slot ``e`` is maximized exactly via the dual norm.  Symmetric
      three-linear forms attain their norm on repeated arguments, so this
      sees every component of the tensor.  ``tau4`` has four slots.  Each is
      ``None`` when ``f.jet_many`` returns no such tensor.

    A block of ``SAMPLE_BLOCK`` columns costs one product ``L^{-T} [Z | W]``,
    one ``f.jet_many`` (values only when ``omega`` is sampled) and one
    product ``L^{-1} [T3 | T4]``.  The tensors sampled are those the first
    block's ``jet_many`` returns; a later block must return them too.
    """
    x = as_vector(x, f.dim)
    if samples < 1:
        raise ValueError("samples must be positive")
    if include_omega:
        check_anchor(f, x, metric, constants.ANCHOR_GRAD_RTOL)
    blocks, rad = _draw(seed, f.dim, radius, samples)
    peaks = {}  # name -> (value, column), for the constants sampled
    fstar = 0.0
    for b, block in enumerate(blocks):
        first = b * SAMPLE_BLOCK
        live = min(samples + 1 - first, SAMPLE_BLOCK)  # columns that are not padding
        directions = metric.L_inv.T @ block
        U = directions[:, :SAMPLE_BLOCK] * rad[b]
        P, V = x[:, None] + U, directions[:, SAMPLE_BLOCK:]
        values, *tensors = f.jet_many(P, V, parts=PARTS if include_omega else PARTS[1:])
        if b == 0:
            orders = [order for order, t in zip((3, 4), tensors) if t is not None]
        if include_omega:
            values = _checked(values, (SAMPLE_BLOCK,), f)
            if b == 0:
                fstar = values[0]  # column 0 is the anchor itself
            quad = 0.5 * np.einsum("ij,ij->j", U, curvature.matrix @ U)
            remainder = np.abs(values - fstar - quad)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = 2.0 * remainder / rad[b] ** 2
            start = 1 if b == 0 else 0  # the anchor has no remainder
            peak = peaks.get("omega", (-np.inf, 0))
            peaks["omega"] = _running_max(peak, ratio[start:live], first + start, "omega", radius)
        if orders:
            T = np.concatenate([_checked(tensors[o - 3], V.shape, f) for o in orders], axis=1)
            # The last slot is maximized in closed form: over ||D e|| = 1 the
            # largest pairing with the contracted tensor is its dual norm,
            # ||D^{-1} t|| = ||L^{-1} t||; ||D w|| = 1 leaves no denominator.
            duals = np.linalg.norm(metric.L_inv @ T, axis=0).reshape(len(orders), SAMPLE_BLOCK)
            for order, ratio in zip(orders, duals):
                name = f"tau{order}"
                peak = peaks.get(name, (-np.inf, 0))
                peaks[name] = _running_max(peak, ratio[:live], first, name, radius)
    return tuple(
        SampledMax(*peaks[name], float(rad.flat[peaks[name][1]])) if name in peaks else None
        for name in ("omega", "tau3", "tau4")
    )


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
       (skipped when ``tau4`` is absent or ``f.jet_many`` returns no third
       tensor; it is never differenced).

    Returns one gate per inequality, comparing the worst sampled ratio of
    its two sides with 1 (plus a rounding tolerance).  Ratios at or below 1
    mean the certificate constants dominate the sampled behavior.
    """
    x = as_vector(x, f.dim)
    if cert.tau3 is None:
        raise MissingConstant("certificate lacks tau3")
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

    worst = dict.fromkeys((1, 2, 3), 0.0)
    for _ in range(samples):
        # check 1 and 4 share the sample offset u
        u = _radial(rng.random(), r, f.dim) * _metric_direction(rng, M)
        du = M.norm(u)
        grad_u = f.gradient(x + u)
        rem1 = grad_u - g0 - H0 @ u
        lhs1 = M.dual_norm(rem1)
        worst[1] = max(worst[1], ratio(lhs1, 0.5 * tau3 * du**2))

        third = None if tau4 is None else f.jet_many(x[:, None], u[:, None], parts=("third",))[1]
        if third is not None:
            rem4 = rem1 - 0.5 * third[:, 0]
            lhs4 = M.dual_norm(rem4)
            worst[4] = max(worst.get(4, 0.0), ratio(lhs4, tau4 / 6.0 * du**3))

        # check 2: Hessian difference between two ball points; L^{-1} H L^{-T}
        # has the spectrum of D^{-1} H D^{-1}
        a = _radial(rng.random(), r, f.dim) * _metric_direction(rng, M)
        b = _radial(rng.random(), r, f.dim) * _metric_direction(rng, M)
        diff = M.L_inv @ (f.hessian(x + b) - f.hessian(x + a)) @ M.L_inv.T
        lhs2 = float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).max())
        dstep = M.norm(b - a)
        worst[2] = max(worst[2], ratio(lhs2, tau3 * dstep))

        # check 3: base offset no larger than the step, both points in ball
        step_len = _radial(rng.random(), r, f.dim) * (2.0 / 3.0)
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
    return [Gate(names[k], w, 1.0 + constants.SLACK_TOLERANCE) for k, w in worst.items()]


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
    """Measure a full certificate at a minimizer by :func:`sample_constants`.

    The metric (the Gram ``D^2``) defaults to the curvature ``F`` itself, so
    ``D = F^{1/2}``.  The sampled constants are multiplied by ``inflation``
    before storage; the raw values, and the column and radius where each
    peaked, are retained in the provenance.
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
    sampled = sample_constants(f, xstar, metric, curvature, radius, samples, seed, include_omega)
    sampled = dict(zip(("omega", "tau3", "tau4"), sampled))
    raw = {name: None if s is None else s.value for name, s in sampled.items()}
    peak = {
        name: None if s is None else {"column": s.column, "radius": s.radius}
        for name, s in sampled.items()
    }

    def stated(name: str) -> float | None:
        # A sampled 0 claims exactness, which only a quadratic backs; on any
        # other oracle it may be an underflow, so the constant goes unstated.
        if raw[name] is None or (raw[name] == 0.0 and not f.quadratic):
            return None
        return raw[name] * inflation

    return SmoothnessCertificate(
        metric=metric,
        radius=radius,
        omega=stated("omega"),
        tau3=stated("tau3"),
        tau4=stated("tau4"),
        provenance={
            "mode": "estimated",
            "samples": samples,
            "seed": seed,
            "inflation": inflation,
            "raw": raw,
            "peak": peak,
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
