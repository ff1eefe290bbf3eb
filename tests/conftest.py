from __future__ import annotations

import numpy as np
import pytest

import perturbex as px

# One line per acceptance criterion, echoed again after the test summary so
# the verdicts survive pytest's output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion():
    """Record (and print) one PASS/FAIL line for an acceptance criterion."""

    def record(name: str, ok: bool, detail: str = "") -> bool:
        line = f"acceptance: {name} ... {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


@pytest.fixture(scope="session")
def logistic_anchor():
    """A small solved logistic problem reused across test modules."""
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9}
    )
    sol = px.newton_minimize(prob.oracle, prob.x0)
    return prob.oracle, sol.xhat


@pytest.fixture(scope="session")
def logistic_certificate(logistic_anchor):
    f, xstar = logistic_anchor
    F = px.spd_from_dense(f.hessian(xstar))
    cert = px.estimate_certificate(
        f, xstar, curvature=F, radius=0.5, samples=200, seed=21
    )
    return f, xstar, F, cert


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def envelope_extremes():
    """Sampled extremes of the cubic/quadratic envelopes over the ball ``||u|| <= r``.

    The returned function gives ``max (tau/3)||u||^3 - (u - s)'U(u - s)`` and
    ``min (tau/3)||u||^3 + (u - s)'U(u - s)`` over ``samples`` uniform ball
    points plus the analytic candidates: the stationary points
    ``(U +- rho I)^{-1} U s`` with ``rho = tau r / 3`` (the second clipped to
    the ball), ``s`` itself and the boundary point along ``s``.
    """

    def extremes(U: px.SpdOperator, s: np.ndarray, tau: float, r: float, seed: int,
                 samples: int = 100_000):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((samples, U.dim))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        pts = Z * (r * rng.uniform(size=samples) ** (1.0 / U.dim))[:, None]
        rho = tau * r / 3.0
        inner = np.linalg.solve(U.matrix + rho * np.eye(U.dim), U.apply(s))
        outer = np.linalg.solve(U.matrix - rho * np.eye(U.dim), U.apply(s))
        outer *= min(1.0, r / float(np.linalg.norm(outer)))
        boundary = (r / float(np.linalg.norm(s))) * s
        pts = np.vstack([pts, inner, s, boundary, outer])
        diff = pts - s
        quad = np.einsum("ij,jk,ik->i", diff, U.matrix, diff)
        cubic = (tau / 3.0) * np.linalg.norm(pts, axis=1) ** 3
        return float(np.max(cubic - quad)), float(np.min(cubic + quad))

    return extremes
