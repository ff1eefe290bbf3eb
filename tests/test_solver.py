from __future__ import annotations

import numpy as np
import pytest

import perturbex as px
from perturbex.errors import DimensionMismatch, HessianNotPd, MaxIterExceeded


def test_quadratic_converges_in_one_newton_step(rng):
    F = px.random_spd(rng, 4, cond=12.0)
    center = rng.standard_normal(4)
    f = px.QuadraticOracle(F, center)
    sol = px.newton_minimize(f, np.zeros(4))
    assert sol.converged
    assert sol.iterations <= 2
    np.testing.assert_allclose(sol.xhat, center, atol=1e-10)


def test_logistic_converges_quickly():
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 8, "n": 64, "reg": 0.1, "seed": 2}
    )
    sol = px.newton_minimize(prob.oracle, prob.x0)
    assert sol.converged
    assert sol.iterations <= 50
    grad = prob.oracle.gradient(sol.xhat)
    assert np.linalg.norm(grad) < 1e-10


def test_indefinite_hessian_raises():
    f = px.CustomOracle(
        dim=2,
        value=lambda x: float(x[0] ** 2 - x[1] ** 2),
        gradient=lambda x: np.array([2 * x[0], -2 * x[1]]),
        hessian=lambda x: np.diag([2.0, -2.0]),
    )
    with pytest.raises(HessianNotPd):
        px.newton_minimize(f, np.array([1.0, 1.0]))


def test_max_iter_exceeded():
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 6, "n": 48, "reg": 0.05, "seed": 5}
    )
    with pytest.raises(MaxIterExceeded):
        px.newton_minimize(prob.oracle, prob.x0 + 3.0, tol=1e-12, max_iter=1)


def test_descent_to_tight_tolerance_on_tilted_problem(logistic_anchor):
    """Solves started at the old minimizer reach ~1e-12 decrements.

    This is the regime verification relies on: the perturbed problem is
    solved from the unperturbed anchor, and the stopping rule must get
    through the floating-point noise floor of the value.
    """
    f, xstar = logistic_anchor
    A = 0.05 * np.ones(f.dim) / np.sqrt(f.dim)
    g = px.linearly_perturb(f, A)
    sol = px.newton_minimize(g, xstar)
    assert sol.converged
    assert sol.grad_norm_dual <= 1e-12 * (1 + abs(g.value(xstar)))


def test_solution_is_stationary_for_every_start(rng):
    prob = px.oracle_from_descriptor(
        {"kind": "logsumexp", "dim": 5, "n": 30, "reg": 0.2, "seed": 7}
    )
    for _ in range(3):
        x0 = rng.standard_normal(5)
        sol = px.newton_minimize(prob.oracle, x0)
        assert np.linalg.norm(prob.oracle.gradient(sol.xhat)) < 1e-9


@pytest.fixture(params=["logistic", "logsumexp"])
def tilted(request):
    """A tilted problem ``g`` and its verification start, the untilted minimizer."""
    desc = {"kind": request.param, "dim": 7, "n": 42, "reg": 0.1, "seed": 11}
    prob = px.oracle_from_descriptor(desc)
    xstar = px.newton_minimize(prob.oracle, prob.x0).xhat
    A = 0.2 * np.random.default_rng(3).standard_normal(prob.oracle.dim)
    return px.linearly_perturb(prob.oracle, A), xstar


class TestHeldHessian:
    """A held Hessian at the start point stands in for the first evaluation."""

    def test_held_hessian_is_bit_identical(self, tilted):
        g, x0 = tilted
        plain = px.newton_minimize(g, x0)
        held = px.newton_minimize(g, x0, hessian=g.hessian(x0))
        assert plain.iterations >= 1
        np.testing.assert_array_equal(held.xhat, plain.xhat)
        assert held.value == plain.value
        assert held.grad_norm_dual == plain.grad_norm_dual
        assert held.iterations == plain.iterations
        np.testing.assert_array_equal(held.hessian, plain.hessian)

    def test_first_hessian_is_not_evaluated(self, tilted, monkeypatch):
        g, x0 = tilted
        points = []
        hessian = type(g).hessian

        def counting(oracle, x):
            points.append(np.array(x))
            return hessian(oracle, x)

        H0 = g.hessian(x0)
        monkeypatch.setattr(type(g), "hessian", counting)
        sol = px.newton_minimize(g, x0, hessian=H0)
        assert len(points) == sol.iterations
        assert not any(np.array_equal(p, x0) for p in points)

    def test_result_carries_end_hessian_and_start_value(self, tilted):
        g, x0 = tilted
        sol = px.newton_minimize(g, x0)
        np.testing.assert_array_equal(sol.hessian, g.hessian(sol.xhat))
        assert sol.start_value == g.value(x0)
        assert sol.value == g.value(sol.xhat)

    def test_indefinite_held_matrix_raises(self, tilted):
        g, x0 = tilted
        H = g.hessian(x0)
        H[0, 0] = -1.0
        with pytest.raises(HessianNotPd):
            px.newton_minimize(g, x0, hessian=H)

    @pytest.mark.parametrize("shape", [(7, 6), (6, 7), (7,), (7, 7, 1)])
    def test_wrong_shape_raises(self, tilted, shape):
        g, x0 = tilted
        with pytest.raises(DimensionMismatch):
            px.newton_minimize(g, x0, hessian=np.ones(shape))

    def test_non_finite_held_matrix_raises(self, tilted):
        g, x0 = tilted
        H = g.hessian(x0)
        H[1, 2] = np.nan
        with pytest.raises(ValueError):
            px.newton_minimize(g, x0, hessian=H)
