"""Seeded test-problem generation.

A problem descriptor is a plain JSON object; the ``(seed, shape)`` pair
fully determines the generated data, so any instance in a report can be
rebuilt exactly from its descriptor.

Descriptor fields
-----------------
``kind``
    one of ``"quadratic"``, ``"logistic"``, ``"logsumexp"``.
``dim``
    problem dimension (required).
``seed``
    RNG seed for the data (required).
``n``
    number of rows for data-driven kinds (default ``6 * dim``).
``reg``
    ridge weight (default 0.1 for data kinds, unused for quadratic).
``temp``
    temperature for ``logsumexp`` (default 1.0).
``cond``
    target condition number for ``quadratic`` (default 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpdOperator, spd_from_dense
from .oracle import LogisticOracle, LogSumExpOracle, Oracle, QuadraticOracle

__all__ = ["ZooProblem", "random_spd", "oracle_from_descriptor"]


@dataclass
class ZooProblem:
    oracle: Oracle
    descriptor: dict
    x0: np.ndarray
    minimizer: np.ndarray | None = None  # known in closed form, if ever
    curvature: SpdOperator | None = None  # exact Hessian when constant


def random_spd(rng: np.random.Generator, dim: int, cond: float = 10.0) -> SpdOperator:
    """Random SPD matrix with spread eigenvalues and condition ``cond``."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if dim == 1:
        vals = np.array([1.0])
    else:
        vals = np.geomspace(1.0, 1.0 / cond, dim)
    M = (Q * vals) @ Q.T
    return spd_from_dense(0.5 * (M + M.T))


def _logistic_data(rng: np.random.Generator, n: int, dim: int):
    X = rng.standard_normal((n, dim)) / np.sqrt(dim)
    w = rng.standard_normal(dim)
    y = np.sign(X @ w + 0.3 * rng.standard_normal(n))
    y[y == 0] = 1.0
    return X, y


def oracle_from_descriptor(desc: dict) -> ZooProblem:
    """Build the oracle (and known structure) a descriptor names."""
    kind = desc.get("kind")
    if kind not in ("quadratic", "logistic", "logsumexp"):
        raise ValueError(f"unknown problem kind {kind!r}")
    if "dim" not in desc or "seed" not in desc:
        raise ValueError("descriptor needs 'dim' and 'seed'")
    dim = int(desc["dim"])
    seed = int(desc["seed"])
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)

    if kind == "quadratic":
        cond = float(desc.get("cond", 10.0))
        F = random_spd(rng, dim, cond)
        center = rng.standard_normal(dim)
        oracle = QuadraticOracle(F, center)
        return ZooProblem(
            oracle=oracle,
            descriptor=dict(desc),
            x0=np.zeros(dim),
            minimizer=center,
            curvature=F,
        )

    n = int(desc.get("n", 6 * dim))
    reg = float(desc.get("reg", 0.1))
    if kind == "logistic":
        X, y = _logistic_data(rng, n, dim)
        oracle = LogisticOracle(X, y, reg)
    else:
        temp = float(desc.get("temp", 1.0))
        X = rng.standard_normal((n, dim)) / np.sqrt(dim)
        oracle = LogSumExpOracle(X, temp, reg)
    return ZooProblem(oracle=oracle, descriptor=dict(desc), x0=np.zeros(dim))
