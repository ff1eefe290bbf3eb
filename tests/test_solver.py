from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perturbex as px
import perturbex.solver as solver
from perturbex.errors import (
    DimensionMismatch,
    HessianNotPd,
    LineSearchFailed,
    MaxIterExceeded,
)


def test_quadratic_converges_in_one_newton_step(rng):
    F = px.random_spd(rng, 4, cond=12.0)
    center = rng.standard_normal(4)
    f = px.QuadraticOracle(F, center)
    sol = px.newton_minimize(f, np.zeros(4))
    assert sol.grad_norm_dual <= 1e-12 * (1 + abs(f.value(np.zeros(4))))
    assert sol.iterations <= 2
    np.testing.assert_allclose(sol.xhat, center, atol=1e-10)


def test_logistic_converges_quickly():
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 8, "n": 64, "reg": 0.1, "seed": 2}
    )
    sol = px.newton_minimize(prob.oracle, prob.x0)
    assert sol.grad_norm_dual <= 1e-12 * (1 + abs(prob.oracle.value(prob.x0)))
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


def test_max_iter_exceeded(monkeypatch):
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 6, "n": 48, "reg": 0.05, "seed": 5}
    )
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    with pytest.raises(MaxIterExceeded, match=r" after 1 iterations$"):
        px.newton_minimize(prob.oracle, prob.x0 + 3.0)


def test_step_underflow_raises():
    """No damped step lowers the value (0 at the start, 1 elsewhere), so
    backtracking halves the step below its floor."""
    f = px.CustomOracle(
        dim=1,
        value=lambda x: 0.0 if x[0] == 0.0 else 1.0,
        gradient=lambda x: np.array([1.0]),
        hessian=lambda x: np.array([[1.0]]),
    )
    with pytest.raises(LineSearchFailed, match=r"^step underflow at iteration 0 \(value 0\)$"):
        px.newton_minimize(f, np.zeros(1))


def test_descent_to_tight_tolerance_on_tilted_problem(logistic_anchor):
    """Solves started at the old minimizer reach ~1e-12 decrements.

    This is the regime verification relies on: the perturbed problem is
    solved from the unperturbed anchor, and the stopping rule must get
    through the floating-point noise floor of the value.
    """
    f, xstar = logistic_anchor
    A = 0.05 * np.ones(f.dim) / np.sqrt(f.dim)
    g = px.SumOracle(f, tilt=A)
    sol = px.newton_minimize(g, xstar)
    assert sol.grad_norm_dual <= 1e-12 * (1 + abs(g.value(xstar)))


def test_solution_is_stationary_for_every_start(rng):
    prob = px.oracle_from_descriptor(
        {"kind": "logsumexp", "dim": 5, "n": 30, "reg": 0.2, "seed": 7}
    )
    for _ in range(3):
        x0 = rng.standard_normal(5)
        sol = px.newton_minimize(prob.oracle, x0)
        assert np.linalg.norm(prob.oracle.gradient(sol.xhat)) < 1e-9


class TestNullStep:
    """A step that leaves ``x`` unchanged ends the solve at once on the Hessian
    at ``x``; a curvature held from an earlier point first gives way to it."""

    def test_null_step_on_the_hessian_at_x_raises_at_once(self):
        # f(x) = (x - c) + 500 (x - c)^2 at x = c = 1e16: the Newton step is
        # -1e-3, below half the float spacing (2) of x, for every damping.  The
        # value is 0 there, so the decrement 1e3^-1/2 is far above the target 1e-12.
        c = 1e16
        f = px.CustomOracle(
            dim=1,
            value=lambda x: float((x[0] - c) + 500.0 * (x[0] - c) ** 2),
            gradient=lambda x: np.array([1.0 + 1e3 * (x[0] - c)]),
            hessian=lambda x: np.array([[1e3]]),
        )
        with pytest.raises(LineSearchFailed, match=r"^null step at iteration 0 \(value 0\)$"):
            px.newton_minimize(f, np.array([c]))

    def test_held_curvature_gives_way_before_the_solve_fails(self, monkeypatch):
        """The tilted log-sum-exp of ``scaling``'s huge-tilt config: its chord
        step at x near -2e139 leaves x unchanged, so the Hessian there is
        evaluated, and its step leaves x unchanged too."""
        prob = px.oracle_from_descriptor(
            {"kind": "logsumexp", "dim": 1, "n": 2, "temp": 1.23e-54, "reg": 0.1, "seed": 0}
        )
        anchor = px.newton_minimize(prob.oracle, prob.x0)
        v = np.random.default_rng(3).standard_normal(1)
        p = px.predict(prob.oracle, anchor.xhat, 2.16e138 * v / np.linalg.norm(v),
                       curvature=anchor.curvature)
        points = _hessian_points(monkeypatch, p.g)
        gradients = []
        gradient = type(p.g).gradient
        monkeypatch.setattr(
            type(p.g), "gradient", lambda g, x: gradients.append(np.array(x)) or gradient(g, x)
        )
        with pytest.raises(LineSearchFailed, match="null step at iteration 3 "):
            px.newton_minimize(p.g, anchor.xhat, curvature=p.F)
        assert len(gradients) == 4
        # The last two Hessians: where the chord steps stopped contracting,
        # and at the point of the null step, where the solve fails.
        assert len(points) == 2
        np.testing.assert_array_equal(points[-1], gradients[-1])
        assert abs(points[-1][0]) > 1e139


def _tilted(kind: str, scale: float):
    """A tilted problem ``g``, its verification start (the untilted minimizer)
    and ``g``'s factored Hessian there."""
    desc = {"kind": kind, "dim": 7, "n": 42, "reg": 0.1, "seed": 11}
    prob = px.oracle_from_descriptor(desc)
    xstar = px.newton_minimize(prob.oracle, prob.x0).xhat
    A = scale * np.random.default_rng(3).standard_normal(prob.oracle.dim)
    g = px.SumOracle(prob.oracle, tilt=A)
    return g, xstar, px.spd_from_dense(g.hessian(xstar))


@pytest.fixture(params=["logistic", "logsumexp"])
def tilted(request):
    return _tilted(request.param, 0.2)


def _exact_decrement(g, x) -> float:
    """``sqrt(grad' H^{-1} grad)`` at ``x`` from ``g``'s own Hessian there, by LU."""
    grad = g.gradient(x)
    return float(np.sqrt(grad @ np.linalg.solve(g.hessian(x), grad)))


def _assert_exact_decrement(g, sol) -> None:
    """The decrement is the returned factor's dual norm of the gradient at
    ``xhat``, bit for bit, and the LU reference to rounding."""
    assert sol.grad_norm_dual == sol.curvature.dual_norm(g.gradient(sol.xhat))
    assert sol.grad_norm_dual == pytest.approx(_exact_decrement(g, sol.xhat), rel=1e-12)


def _hessian_points(monkeypatch, g) -> list:
    """The points at which ``g``'s Hessian is evaluated from now on."""
    points = []
    hessian = type(g).hessian

    def counting(oracle, x):
        points.append(np.array(x))
        return hessian(oracle, x)

    monkeypatch.setattr(type(g), "hessian", counting)
    return points


class TestHeldHessian:
    """A held curvature steps the solve; the stopping rule stays exact."""

    def test_decrement_is_exact_at_xhat(self, tilted):
        g, x0, F = tilted
        sol = px.newton_minimize(g, x0, curvature=F)
        _assert_exact_decrement(g, sol)
        assert sol.grad_norm_dual <= 1e-12 * (1 + abs(g.value(x0)))

    def test_held_and_plain_solves_agree(self, tilted):
        g, x0, F = tilted
        plain = px.newton_minimize(g, x0)
        held = px.newton_minimize(g, x0, curvature=F)
        assert plain.iterations >= 1
        np.testing.assert_allclose(held.xhat, plain.xhat, rtol=0, atol=1e-10)
        assert held.value == pytest.approx(plain.value, rel=1e-14)
        assert held.hessians < plain.hessians

    def test_first_hessian_is_not_evaluated(self, tilted, monkeypatch):
        g, x0, F = tilted
        points = _hessian_points(monkeypatch, g)
        sol = px.newton_minimize(g, x0, curvature=F)
        assert sol.hessians == len(points) < sol.iterations
        assert not any(np.array_equal(p, x0) for p in points)
        np.testing.assert_array_equal(points[-1], sol.xhat)

    @pytest.mark.parametrize("kind", ["logistic", "logsumexp"])
    def test_small_tilt_evaluates_one_hessian(self, kind, monkeypatch):
        """Near the start a held curvature contracts every step, so the only
        Hessian evaluated is the one that confirms convergence."""
        g, x0, F = _tilted(kind, 0.02)
        points = _hessian_points(monkeypatch, g)
        sol = px.newton_minimize(g, x0, curvature=F)
        assert sol.hessians == len(points) == 1
        assert sol.iterations >= 2
        np.testing.assert_array_equal(points[0], sol.xhat)

    def test_result_carries_end_hessian_and_start_value(self, tilted):
        """The returned curvature is the Hessian at ``xhat`` and the factor
        ``spd_from_dense`` makes of it, bit for bit."""
        g, x0, F = tilted
        for curvature in (None, F):
            sol = px.newton_minimize(g, x0, curvature=curvature)
            np.testing.assert_array_equal(sol.curvature.matrix, g.hessian(sol.xhat))
            again = px.spd_from_dense(sol.curvature.matrix)
            np.testing.assert_array_equal(sol.curvature.L, again.L)
            np.testing.assert_array_equal(sol.curvature.L_inv, again.L_inv)
            assert sol.start_value == g.value(x0)
            assert sol.value == g.value(sol.xhat)

    def test_minimizer_start_evaluates_no_hessian(self, tilted, monkeypatch):
        g, x0, F = tilted
        xhat = px.newton_minimize(g, x0).xhat
        G = px.spd_from_dense(g.hessian(xhat))
        points = _hessian_points(monkeypatch, g)
        sol = px.newton_minimize(g, xhat, curvature=G)
        assert sol.iterations == sol.hessians == len(points) == 0
        assert sol.curvature is G
        assert sol.grad_norm_dual == G.dual_norm(g.gradient(xhat))

    @pytest.mark.parametrize("poor", ["10H", "H/10", "identity"])
    def test_poor_curvature_still_converges(self, tilted, poor):
        g, x0, F = tilted
        curvature = {
            "10H": px.spd_from_dense(10.0 * F.matrix),
            "H/10": px.spd_from_dense(F.matrix / 10.0),
            "identity": px.spd_from_dense(np.eye(g.dim)),
        }[poor]
        sol = px.newton_minimize(g, x0, curvature=curvature)
        _assert_exact_decrement(g, sol)
        assert sol.grad_norm_dual <= 1e-12 * (1 + abs(g.value(x0)))
        np.testing.assert_allclose(sol.xhat, px.newton_minimize(g, x0).xhat, rtol=0, atol=1e-10)

    def test_indefinite_hessian_at_last_iterate_raises(self, tilted):
        g, x0, F = tilted

        def indefinite(x):
            H = g.hessian(x)
            H[0, 0] = -1.0
            return H

        f = px.CustomOracle(dim=g.dim, value=g.value, gradient=g.gradient, hessian=indefinite)
        with pytest.raises(HessianNotPd):
            px.newton_minimize(f, x0, curvature=F)

    @pytest.mark.parametrize("shape", [(6, 6), (8, 8), (1, 1), (14, 14)])
    def test_wrong_shape_raises(self, tilted, shape):
        g, x0, _ = tilted
        with pytest.raises(DimensionMismatch):
            px.newton_minimize(g, x0, curvature=px.spd_from_dense(np.eye(shape[0])))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "logsumexp"]),
    dim=st.integers(2, 6),
    seed=st.integers(0, 1000),
    scale=st.floats(0.0, 2.0),
    held_scale=st.floats(0.1, 10.0),
)
def test_any_held_curvature_reaches_the_exact_decrement(kind, dim, seed, scale, held_scale):
    """Small problems, tilts up to 2 and held curvatures off by up to 10x."""
    desc = {"kind": kind, "dim": dim, "n": 8 * dim, "reg": 0.1, "seed": seed}
    prob = px.oracle_from_descriptor(desc)
    xstar = px.newton_minimize(prob.oracle, prob.x0).xhat
    A = scale * np.random.default_rng(seed).standard_normal(dim) / np.sqrt(dim)
    g = px.SumOracle(prob.oracle, tilt=A)
    held = px.spd_from_dense(held_scale * g.hessian(xstar))
    sol = px.newton_minimize(g, xstar, curvature=held)
    tol = 1e-12 * (1 + abs(g.value(xstar)))
    if sol.iterations:
        _assert_exact_decrement(g, sol)
    else:
        assert sol.curvature is held
    assert sol.grad_norm_dual <= tol
    np.testing.assert_allclose(sol.xhat, px.newton_minimize(g, xstar).xhat, rtol=0, atol=1e-9)
