"""Seeded config pools for the benchmark workloads.

A pool is a list of ``(config_id, command, config)`` triples. Each workload
fixes its class mix (problem kind, dimension, g2 mode), so run times and
certified fractions stay comparable across seeds; ``--seed`` only draws the
instance seeds of the problem, tilt, certificate and g2 direction. The
package sees nothing but the config files written from these dicts.

This module imports nothing from the package or NumPy, so tests can build
pools without pinning BLAS threads first.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify-small", "certify-large", "ridge-sweep")

SMALL_KINDS = ("logistic", "logsumexp", "quadratic")
SMALL_DIMS = (4, 8, 16)
SMALL_INSTANCES = 4  # per (kind, dim) class: 36 configs

LARGE_KINDS = ("logistic", "logsumexp")
LARGE_DIM = 200
LARGE_ROWS = 1200
LARGE_INSTANCES = 3  # per kind: 6 configs

SWEEP_KINDS = ("logistic", "logsumexp")
SWEEP_G2_MODES = ("identity", "rank1")
SWEEP_DIM = 200
SWEEP_ROWS = 1200
SWEEP_INSTANCES = 4  # per (kind, mode) class: 16 configs
LAMBDA_GRID = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]

TILT_SCALE = 0.02
REG = 0.1
CERT_RADIUS = 0.5
CERTIFY_SAMPLES = 200
SWEEP_SAMPLES = 16


def _problem(kind: str, dim: int, rows: int | None, seed: int) -> dict:
    desc = {"kind": kind, "dim": dim, "seed": seed}
    if kind != "quadratic":
        desc["n"] = rows if rows is not None else 6 * dim
        desc["reg"] = REG
    return desc


def _certify(kind: str, dim: int, rows: int | None, rng: random.Random) -> dict:
    seeds = [rng.randrange(2**31) for _ in range(4)]
    orders: list = [2, 3, 4]
    if kind == "quadratic":
        orders.append("exact")
    return {
        "seed": seeds[0],
        "problem": _problem(kind, dim, rows, seeds[1]),
        "perturbation": {"kind": "linear", "scale": TILT_SCALE, "seed": seeds[2]},
        "orders": orders,
        "certificate": {
            "mode": "estimated",
            "samples": CERTIFY_SAMPLES,
            "seed": seeds[3],
            "radius": CERT_RADIUS,
        },
    }


def _sweep(kind: str, mode: str, rng: random.Random) -> dict:
    seeds = [rng.randrange(2**31) for _ in range(4)]
    return {
        "seed": seeds[0],
        "problem": _problem(kind, SWEEP_DIM, SWEEP_ROWS, seeds[1]),
        "certificate": {
            "mode": "estimated",
            "samples": SWEEP_SAMPLES,
            "seed": seeds[2],
            "radius": CERT_RADIUS,
        },
        "sweep": {
            "lambda_grid": list(LAMBDA_GRID),
            "g2": {"mode": mode, "seed": seeds[3]},
        },
    }


def pool(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """The workload's configs for ``seed``, classes interleaved in a fixed order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # A string seed hashes through SHA-512, so pools do not depend on
    # PYTHONHASHSEED or the platform.
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "certify-small":
        for _ in range(SMALL_INSTANCES):
            for kind in SMALL_KINDS:
                for dim in SMALL_DIMS:
                    cfg = _certify(kind, dim, None, rng)
                    out.append((f"{len(out):02d}-{kind}-d{dim}", "certify", cfg))
    elif workload == "certify-large":
        for _ in range(LARGE_INSTANCES):
            for kind in LARGE_KINDS:
                cfg = _certify(kind, LARGE_DIM, LARGE_ROWS, rng)
                out.append((f"{len(out):02d}-{kind}-d{LARGE_DIM}", "certify", cfg))
    else:
        for _ in range(SWEEP_INSTANCES):
            for kind in SWEEP_KINDS:
                for mode in SWEEP_G2_MODES:
                    cfg = _sweep(kind, mode, rng)
                    out.append(
                        (f"{len(out):02d}-{kind}-d{SWEEP_DIM}-{mode}", "ridge-sweep", cfg)
                    )
    return out
