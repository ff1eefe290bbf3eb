from __future__ import annotations

import numpy as np
import pytest

import perturbex as px
from perturbex.errors import MissingConstant, NotAtMinimum, PreconditionViolated

_I1 = px.spd_from_dense(np.eye(1))


@pytest.fixture(scope="module")
def ridge_setup():
    """Solved logistic problem with a fixed ridge penalty and certificate."""
    prob = px.oracle_from_descriptor(
        {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9}
    )
    f = prob.oracle
    sol = px.newton_minimize(f, prob.x0)
    xstar = sol.xhat
    G2 = 0.05 * np.eye(5)
    fG = px.quadratically_penalize(f, G2)
    FG = px.spd_from_dense(fG.hessian(xstar))
    cert = px.estimate_certificate(
        fG, xstar, curvature=FG, radius=0.5, samples=200, seed=21, include_omega=False
    )
    return f, xstar, G2, cert


def _ridge(f, xstar, G2, cert, order=3):
    return px.smooth_penalty_bias(
        f, xstar, px.QuadraticOracle(G2), cert, order
    )


def _verify(f, xstar, G2, rep):
    """Solve ``f + ridge`` from ``x*`` and check one bias report against it."""
    return px.compare_with_solution(rep, rep.prediction.solution)


class TestExactRidge:
    def test_one_dimensional_closed_form(self):
        """F = 1, G^2 = 1, anchor 1: bias -1/2 and value change -1/4."""
        rep = px.ridge_bias_exact_quadratic(_I1, np.array([[1.0]]), np.array([1.0]))
        assert rep.predicted_shift[0] == pytest.approx(-0.5, abs=1e-15)
        assert rep.predicted_value_change == pytest.approx(-0.25, abs=1e-15)
        assert all(b.radius == 0.0 for b in rep.bounds.shift_bounds)

    def test_matches_solver_on_random_quadratic(self, rng):
        F = px.random_spd(rng, 4, cond=7.0)
        center = rng.standard_normal(4)
        f = px.QuadraticOracle(F, center)
        G2mat = 0.3 * np.eye(4)
        rep = px.ridge_bias_exact_quadratic(F, G2mat, center)
        comp = px.compare_with_solution(rep, rep.prediction.solution)
        assert comp.violations == []
        assert comp.max_certified_slack == 0.0

    def test_zero_penalty_is_a_fixed_point(self, rng):
        F = px.random_spd(rng, 3, cond=5.0)
        rep = px.ridge_bias_exact_quadratic(F, np.zeros((3, 3)), rng.standard_normal(3))
        np.testing.assert_array_equal(rep.predicted_shift, np.zeros(3))
        assert rep.predicted_value_change == 0.0
        np.testing.assert_array_equal(rep.prediction.A, np.zeros(3))


class TestRidgeBounds:
    def test_order3_certifies(self, ridge_setup):
        f, xstar, G2, cert = ridge_setup
        rep = _ridge(f, xstar, G2, cert)
        assert rep.order == "3"
        assert rep.bounds.all_gates_pass
        comp = _verify(f, xstar, G2, rep)
        assert comp.certifying
        assert comp.violations == []
        assert comp.max_certified_slack <= 1.0

    def test_order4_certifies_and_is_tighter(self, ridge_setup):
        f, xstar, G2, cert = ridge_setup
        rep3 = _ridge(f, xstar, G2, cert)
        rep4 = _ridge(f, xstar, G2, cert, order=4)
        comp3 = _verify(f, xstar, G2, rep3)
        comp4 = _verify(f, xstar, G2, rep4)
        assert comp4.violations == []
        resid3 = comp3.residual_norms["newton_residual_dinvf"]
        resid4 = comp4.residual_norms["skew_residual_dinvf"]
        assert resid4 <= resid3

    def test_frozen_skew_radius(self):
        """tau3 = 0.3, tau4 = 0.2, kappa = 1, bG = 0.5: radius 0.02375."""
        f = px.QuadraticOracle(_I1, np.zeros(1))
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.0, tau3=0.3, tau4=0.2)
        rep = _ridge(f, np.zeros(1), np.array([[0.0]]), cert, order=4)
        # Zero penalty gives bG = 0; drive the formula through a tilt instead:
        # reuse the bound expression by checking the fourth-order expansion
        # with b = 0.5 directly.
        exp = px.fourth_order_expansion(
            px.predict(f, np.zeros(1), np.array([0.5]), curvature=_I1), cert
        )
        skew = next(
            b for b in exp.bounds.shift_bounds if b.name == "skew_residual_dinvf"
        )
        assert skew.radius == pytest.approx(0.02375, rel=1e-12)
        assert cert.metric.norm(rep.predicted_shift) == 0.0

    def test_mu_proximity_diagnostic(self, ridge_setup):
        """The corrected direction sits within O(tau3 bG^2) of the Newton bias;
        flipping the sign of the Newton term breaks it by ~2 bG."""
        f, xstar, G2, cert = ridge_setup
        rep = _ridge(f, xstar, G2, cert, order=4)
        diag = {g.name: g for g in rep.bounds.diagnostics}
        assert diag["mu_proximity"].satisfied
        assert not diag["mu_proximity_opposite_sign"].satisfied
        assert diag["mu_proximity_opposite_sign"].lhs > 10 * diag["mu_proximity"].lhs

    def test_bias_grows_with_ridge_weight(self):
        """1-d quadratic: bias magnitude lambda/(1+lambda) is increasing."""
        f = px.QuadraticOracle(_I1, np.array([1.0]))
        cert = px.declared_certificate(_I1, radius=5.0, omega=0.0, tau3=0.0, tau4=0.0)
        mags = []
        for lam in (0.1, 0.3, 0.9):
            rep = px.smooth_penalty_bias(
                f, np.array([1.0]), px.QuadraticOracle([[lam]]), cert
            )
            mags.append(abs(rep.predicted_shift[0]))
            assert rep.predicted_shift[0] == pytest.approx(-lam / (1 + lam), rel=1e-12)
        assert mags == sorted(mags)


class TestSmoothPenalty:
    def test_ridge_and_smooth_paths_are_bit_identical(self, ridge_setup):
        f, xstar, G2, cert = ridge_setup
        fG = px.quadratically_penalize(f, G2)
        FG = px.spd_from_dense(fG.hessian(xstar))
        rep_r = px.expansion_for_order(px.predict(fG, xstar, G2 @ xstar, curvature=FG), cert, 3)
        rep_s = px.smooth_penalty_bias(
            f, xstar, px.QuadraticOracle(G2), cert, order=3
        )
        np.testing.assert_array_equal(rep_r.predicted_shift, rep_s.predicted_shift)
        assert rep_r.predicted_value_change == rep_s.predicted_value_change
        assert cert.metric.norm(rep_r.predicted_shift) == cert.metric.norm(rep_s.predicted_shift)
        radii_r = [b.radius for b in rep_r.bounds.shift_bounds]
        radii_s = [b.radius for b in rep_s.bounds.shift_bounds]
        assert radii_r == radii_s

    def test_logsumexp_penalty_certifies(self):
        prob = px.oracle_from_descriptor(
            {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": 14}
        )
        f = prob.oracle
        xstar = px.newton_minimize(f, prob.x0).xhat
        pen_prob = px.oracle_from_descriptor(
            {"kind": "logsumexp", "dim": 4, "n": 16, "seed": 15, "temp": 1.0, "reg": 0.0}
        )
        pen = px.SumOracle(pen_prob.oracle, weights=(0.05,))
        fG = px.smoothly_penalize(f, pen)
        FG = px.spd_from_dense(fG.hessian(xstar))
        cert = px.estimate_certificate(
            fG, xstar, curvature=FG, radius=0.4, samples=200, seed=41,
            include_omega=False,
        )
        for order in (3, 4):
            rep = px.smooth_penalty_bias(f, xstar, pen, cert, order)
            comp = px.compare_with_solution(rep, rep.prediction.solution)
            assert comp.certifying, rep.bounds.failed_gates()
            assert comp.violations == []

    @pytest.mark.parametrize("weight", [0.005, 0.02, 0.05])
    def test_bias_report_is_verified_on_the_penalized_problem(self, weight):
        """``report.prediction.solution`` solves ``f + pen``, the problem the
        report was predicted for, bit for bit as a solve of
        ``smoothly_penalize(f, pen)`` from ``x*``; orders 3 and 4 certify."""
        prob = px.oracle_from_descriptor(
            {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.1, "seed": 6}
        )
        f = prob.oracle
        xstar = px.newton_minimize(f, prob.x0).xhat
        pen = px.QuadraticOracle(weight * np.eye(5))
        fG = px.smoothly_penalize(f, pen)
        FG = px.spd_from_dense(fG.hessian(xstar))
        cert = px.estimate_certificate(
            fG, xstar, curvature=FG, radius=0.5, samples=60, seed=5, include_omega=False
        )
        expected = px.newton_minimize(fG, xstar, curvature=FG)
        for order in (3, 4):
            rep = px.smooth_penalty_bias(f, xstar, pen, cert, order)
            solution = rep.prediction.solution
            comp = px.compare_with_solution(rep, solution)
            np.testing.assert_array_equal(solution.actual_shift, expected.xhat - xstar)
            assert solution.actual_value_change == expected.value - expected.start_value
            assert solution.solver == expected.stats()
            assert comp.certifying
            assert comp.violations == []

    def test_rejects_off_minimum_anchor(self, ridge_setup):
        f, xstar, G2, cert = ridge_setup
        with pytest.raises(NotAtMinimum):
            _ridge(f, xstar + 0.5, G2, cert)

    def test_anchor_is_held_to_the_estimators_tolerance(self, ridge_setup):
        """An anchor whose metric-dual gradient is about ``1e-7 (1 + |f(x*)|)`` is no
        minimizer: the penalty's anchor test is a sampled omega's, ``ANCHOR_GRAD_RTOL``."""
        f, xstar, G2, cert = ridge_setup

        def ratio(x):
            return cert.metric.dual_norm(f.gradient(x)) / (1.0 + abs(f.value(x)))

        step = 1e-6 * np.ones(f.dim)
        anchor = xstar + step * (1e-7 / ratio(xstar + step))
        assert ratio(anchor) == pytest.approx(1e-7, rel=0.05)
        with pytest.raises(NotAtMinimum):
            _ridge(f, anchor, G2, cert)

    def test_order_validation(self, ridge_setup):
        """The certificate and the problem decide the orders; no order list does."""
        f, xstar, G2, cert = ridge_setup
        with pytest.raises(MissingConstant, match="omega"):
            _ridge(f, xstar, G2, cert, order=2)
        with pytest.raises(PreconditionViolated, match="not quadratic"):
            _ridge(f, xstar, G2, cert, order="exact")
        with pytest.raises(ValueError, match="unsupported order"):
            _ridge(f, xstar, G2, cert, order=5)

    def test_exact_order_is_the_closed_form(self, rng):
        F = px.random_spd(rng, 4, cond=7.0)
        center = rng.standard_normal(4)
        G2 = 0.3 * np.eye(4)
        metric = px.spd_from_dense(F.matrix + G2)
        cert = px.declared_certificate(metric=metric, radius=1.0, omega=None)
        rep = px.smooth_penalty_bias(
            px.QuadraticOracle(F, center), center, px.QuadraticOracle(G2), cert, "exact"
        )
        closed = px.ridge_bias_exact_quadratic(F, G2, center)
        assert rep.order == closed.order == "exact-quadratic"
        np.testing.assert_array_equal(rep.predicted_shift, closed.predicted_shift)
        assert rep.predicted_value_change == closed.predicted_value_change
        assert rep.to_dict() == closed.to_dict()

