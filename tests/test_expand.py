from __future__ import annotations

import json

import numpy as np
import pytest

import perturbex as px
import perturbex.expand as expand
import perturbex.harness as harness
from perturbex.errors import (
    HessianNotPd,
    MissingConstant,
    MissingThirdDerivative,
    PreconditionViolated,
)
from perturbex.oracle import PARTS

_I1 = px.spd_from_dense(np.eye(1))


def _predict(F, A, f=None, xstar=None):
    """The tilt ``A`` of ``f`` (the quadratic of ``F`` by default) at ``x*`` (0 by
    default), stepping on the caller's curvature ``F``."""
    f = px.QuadraticOracle(F) if f is None else f
    xstar = np.zeros(F.dim) if xstar is None else xstar
    return px.predict(f, xstar, A, curvature=F)


def _compare(rep):
    """``rep`` checked against its prediction's verification solve."""
    return px.compare_with_solution(rep, rep.prediction.solution)


def _cubic_1d():
    return px.CustomOracle(
        dim=1,
        value=lambda x: 0.5 * float(x[0]) ** 2 + float(x[0]) ** 3 / 6.0,
        gradient=lambda x: np.array([float(x[0]) + 0.5 * float(x[0]) ** 2]),
        hessian=lambda x: np.array([[1.0 + float(x[0])]]),
        third_dir=lambda x, u: np.array([float(u[0]) ** 2]),
        fourth_dir=lambda x, u: np.array([0.0]),
    )


class TestExactQuadratic:
    def test_frozen_two_by_two(self):
        # F = diag(2, 4), A = (1, 2): shift -F^{-1}A = (-1/2, -1/2) and
        # value -||F^{-1/2}A||^2/2 = -(1/2 + 1)/2 = -3/4.
        F = px.spd_from_dense(np.diag([2.0, 4.0]))
        rep = px.exact_quadratic_expansion(_predict(F, np.array([1.0, 2.0])))
        np.testing.assert_allclose(rep.predicted_shift, [-0.5, -0.5], atol=1e-15)
        assert rep.predicted_value_change == pytest.approx(-0.75, abs=1e-15)
        assert all(b.radius == 0.0 for b in rep.bounds.shift_bounds)
        assert rep.bounds.value_bound.lower == 0.0 == rep.bounds.value_bound.upper

    def test_verified_against_solver(self, rng):
        F = px.random_spd(rng, 6, cond=40.0)
        center = rng.standard_normal(6)
        f = px.QuadraticOracle(F, center)
        A = rng.standard_normal(6)
        rep = px.exact_quadratic_expansion(_predict(F, A, f, center))
        comp = _compare(rep)
        assert comp.certifying
        assert comp.violations == []
        assert comp.max_certified_slack == 0.0

    def test_mixed_term_is_exchangeable(self, rng):
        """v(A+B) - v(A) - v(B) equals -<A, F^{-1}B> = -<B, F^{-1}A>."""
        F = px.random_spd(rng, 4, cond=9.0)
        A = rng.standard_normal(4)
        B = rng.standard_normal(4)
        v = lambda t: px.exact_quadratic_expansion(_predict(F, t)).predicted_value_change
        cross = v(A + B) - v(A) - v(B)
        assert cross == pytest.approx(-float(A @ F.solve(B)), rel=1e-12)
        assert cross == pytest.approx(-float(B @ F.solve(A)), rel=1e-12)


class TestSecondOrder:
    """Frozen example: omega = 0.2, kappa = 1, b = xi = 1, radius 2."""

    def _bounds(self):
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.2)
        return px.second_order_bounds(_predict(_I1, np.array([1.0])), cert)

    def test_gates_all_pass(self):
        assert self._bounds().all_gates_pass

    def test_newton_radius(self):
        # 2 sqrt(0.2) / (1 - 0.2) = sqrt(5)/2.
        bounds = self._bounds()
        newton = next(b for b in bounds.shift_bounds if b.name == "newton_residual_d")
        assert newton.radius == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-14)

    def test_shift_radius(self):
        bounds = self._bounds()
        shift = next(b for b in bounds.shift_bounds if b.name == "shift_d")
        assert shift.radius == pytest.approx((1 + 2 * np.sqrt(0.2)) / 0.8, rel=1e-14)

    def test_value_bracket_is_asymmetric(self):
        vb = self._bounds().value_bound
        assert vb.lower == pytest.approx(-0.125, abs=1e-15)  # -0.2 / (2 * 0.8)
        assert vb.upper == pytest.approx(1.0 / 12.0, rel=1e-14)  # 0.2 / (2 * 1.2)

    def test_omega_cap_gate(self):
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.4)
        bounds = px.second_order_bounds(_predict(_I1, np.array([0.1])), cert)
        assert not bounds.gate("omega_cap").satisfied


class TestThirdOrder:
    def test_frozen_radii(self):
        """tau3 = 0.4, b = xi = 1: newton radius 0.3, value half-width 0.1."""
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.0, tau3=0.4)
        bounds = px.third_order_bounds(_predict(_I1, np.array([1.0])), cert)
        by_name = {b.name: b.radius for b in bounds.shift_bounds}
        assert by_name["newton_residual_dinvf"] == pytest.approx(0.3, rel=1e-14)
        assert by_name["shift_d"] == pytest.approx(1.5, rel=1e-14)
        assert by_name["shift_fhalf"] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert by_name["shift_d_wide"] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert bounds.value_bound.upper == pytest.approx(0.1, rel=1e-14)
        # At b = 1 the curvature-ball tensor gate 0.4 < 1/4 fails while the
        # metric-ball gate 0.4 < 4/9 still holds.
        assert not bounds.gate("tau3_fnorm").satisfied
        assert bounds.gate("tau3_dnorm").satisfied

    def test_small_tilt_passes_all_gates(self):
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.0, tau3=0.4)
        bounds = px.third_order_bounds(_predict(_I1, np.array([0.5])), cert)
        assert bounds.all_gates_pass
        newton = next(
            b for b in bounds.shift_bounds if b.name == "newton_residual_dinvf"
        )
        assert newton.radius == pytest.approx(0.075, rel=1e-14)

    def test_requires_tau3(self):
        cert = px.declared_certificate(_I1, radius=1.0, omega=0.1)
        with pytest.raises(MissingConstant, match="^certificate lacks tau3$"):
            px.third_order_bounds(_predict(_I1, np.array([0.1])), cert)

    def test_metric_four_times_the_curvature_has_kappa_two(self, logistic_certificate):
        """``D^2 = 4 F`` gives the computed ``kappa = 2``: the wide radius is ``(4/3) 2 xi``."""
        f, xstar, F, _ = logistic_certificate
        M = px.spd_from_dense(4.0 * F.matrix)
        cert = px.estimate_certificate(f, xstar, curvature=F, metric=M, radius=1.0, seed=21)
        p = _predict(F, 0.02 * np.ones(f.dim), f, xstar)
        rep = px.expansion_for_order(p, cert, 3)
        assert px.kappa_between(M, F) == pytest.approx(2.0, rel=1e-12)
        wide = next(b for b in rep.bounds.shift_bounds if b.name == "shift_d_wide")
        assert wide.radius == pytest.approx(4.0 / 3.0 * 2.0 * p.xi, rel=1e-12)
        comp = _compare(rep)
        (entry,) = [e for e in comp.entries if e["name"] == "shift_d_wide"]
        assert entry["certified"] and entry["slack"] <= 1.0
        assert comp.violations == []


class TestSkewness:
    def test_pure_cubic(self):
        """f = x^3 has constant third derivative 6: T(1) = 1, gradT(1) = 3."""
        f = px.CustomOracle(
            dim=1,
            value=lambda x: float(x[0]) ** 3,
            gradient=lambda x: np.array([3.0 * float(x[0]) ** 2]),
            hessian=lambda x: np.array([[6.0 * float(x[0])]]),
            third_dir=lambda x, u: np.array([6.0 * float(u[0]) ** 2]),
        )
        T, gradT = px.skewness_correction(f, np.zeros(1), np.array([1.0]))
        assert T == pytest.approx(1.0, abs=1e-15)
        assert gradT[0] == pytest.approx(3.0, abs=1e-15)

    def test_T_is_odd_gradT_is_even(self, logistic_anchor):
        f, xstar = logistic_anchor
        u = 0.1 * np.arange(1.0, f.dim + 1)
        T1, g1 = px.skewness_correction(f, xstar, u)
        T2, g2 = px.skewness_correction(f, xstar, -u)
        assert T2 == -T1
        np.testing.assert_array_equal(g1, g2)


class TestFourthOrder:
    def test_frozen_radii_with_declared_constants(self):
        """tau3 = 0.4, tau4 = 0.3, b = 1: skew radius 0.31, value 0.2136."""
        f = px.QuadraticOracle(_I1, np.zeros(1))  # zero tensors, pure formulas
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.0, tau3=0.4, tau4=0.3)
        rep = px.fourth_order_expansion(_predict(_I1, np.array([1.0]), f, np.zeros(1)), cert)
        assert rep.bounds.all_gates_pass
        skew = next(
            b for b in rep.bounds.shift_bounds if b.name == "skew_residual_dinvf"
        )
        assert skew.radius == pytest.approx(0.31, rel=1e-12)
        assert rep.bounds.value_bound.upper == pytest.approx(0.2136, rel=1e-12)
        np.testing.assert_array_equal(rep.prediction.skew[0], np.zeros(1))

    def test_cubic_correction_is_computed_exactly(self):
        """For f = x^2/2 + x^3/6 and A = 1: u0 = 1, T = 1/6, skew = -1/2."""
        f = _cubic_1d()
        cert = px.declared_certificate(_I1, radius=2.0, omega=1.0, tau3=1.0, tau4=0.0)
        rep = px.fourth_order_expansion(_predict(_I1, np.array([1.0]), f, np.zeros(1)), cert)
        assert rep.prediction.skew[0][0] == pytest.approx(-0.5, abs=1e-15)
        assert rep.predicted_shift[0] == pytest.approx(-1.5, abs=1e-15)
        assert rep.predicted_value_change == pytest.approx(-0.5 - 1.0 / 6.0, abs=1e-15)

    def test_prediction_is_antisymmetric_about_the_skew(self, logistic_certificate):
        """shift(A) + shift(-A) = 2 * skew(A): the Newton parts cancel exactly."""
        f, xstar, F, cert = logistic_certificate
        A = 0.02 * np.arange(1.0, f.dim + 1)
        plus = px.fourth_order_expansion(_predict(F, A, f, xstar), cert)
        minus = px.fourth_order_expansion(_predict(F, -A, f, xstar), cert)
        np.testing.assert_allclose(
            plus.predicted_shift + minus.predicted_shift,
            2.0 * plus.prediction.skew[0],
            atol=1e-15,
        )

    def test_tilt_reports_mu_proximity(self, logistic_certificate):
        """The corrected shift sits within (tau3 / 2) b^2 of the Newton step."""
        f, xstar, F, cert = logistic_certificate
        A = 0.02 * np.arange(1.0, f.dim + 1)
        rep = px.fourth_order_expansion(_predict(F, A, f, xstar), cert)
        diag = {g.name: g for g in rep.bounds.diagnostics}
        assert diag["mu_proximity"].satisfied
        b = cert.metric.norm(F.solve(A))
        assert diag["mu_proximity"].rhs == 0.5 * cert.tau3 * b**2
        assert not diag["mu_proximity_opposite_sign"].satisfied

    def test_tau4_gate(self):
        f = px.QuadraticOracle(_I1, np.zeros(1))
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.0, tau3=0.1, tau4=0.5)
        rep = px.fourth_order_expansion(_predict(_I1, np.array([1.0]), f, np.zeros(1)), cert)
        assert not rep.bounds.gate("tau4_dnorm").satisfied


class TestPrediction:
    def test_skew_term_is_computed_once_on_demand(self):
        """For f = x^2/2 + x^3/6 and A = 1: u0 = 1, T = 1/6, skew = -1/2."""
        calls = []
        cubic = _cubic_1d()
        f = px.CustomOracle(
            dim=1,
            value=cubic.value,
            gradient=cubic.gradient,
            hessian=cubic.hessian,
            third_dir=lambda x, u: calls.append(1) or cubic.third_dir(x, u),
        )
        p = _predict(_I1, np.array([1.0]), f, np.zeros(1))
        assert p.to_dict() == {
            "newton_shift": [-1.0], "newton_value_change": -0.5,
            "skew_correction": None, "skew_value": None,
        }
        cert = px.declared_certificate(_I1, radius=2.0, omega=1.0, tau3=1.0, tau4=0.0)
        for order in (2, 3, 4, 4):
            px.expansion_for_order(p, cert, order)
        assert len(calls) == 1
        assert p.to_dict()["skew_correction"] == [-0.5]
        assert p.to_dict()["skew_value"] == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["tilt", "penalty"])
    def test_prediction_states_its_problem(self, kind, logistic_certificate):
        """``g`` is ``f + <., A>`` or ``f + pen``, with the drive ``A`` and ``g``'s
        factored Hessian ``F`` at ``x*``; verification solves that ``g``."""
        f, xstar, F, cert = logistic_certificate
        A = 0.01 * np.ones(f.dim)
        pen = px.QuadraticOracle(0.1 * np.eye(f.dim))
        p = px.predict(f, xstar, A if kind == "tilt" else pen, curvature=F)
        np.testing.assert_array_equal(p.xstar, xstar)
        np.testing.assert_array_equal(p.g.gradient(xstar), f.gradient(xstar) + p.A)
        np.testing.assert_allclose(p.F.matrix, p.g.hessian(xstar), rtol=1e-14)
        assert (p.F is F) == (kind == "tilt")
        xhat = xstar + p.solution.actual_shift
        assert p.F.dual_norm(p.g.gradient(xhat)) <= 1e-10
        with pytest.raises(TypeError):
            px.predict(F, A, f, xstar)  # the old positional form binds nothing silently

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_weighted_ridge_factors_its_curvature_unless_zero(self, lam, logistic_certificate):
        """A ridge of weight 0 leaves the prediction on the caller's ``F``; a
        positive weight ``lam`` factors ``F + lam G2``."""
        f, xstar, F, _ = logistic_certificate
        G2 = np.diag(np.arange(1.0, f.dim + 1))
        pen = px.SumOracle(px.QuadraticOracle(G2), weights=(lam,))
        p = px.predict(f, xstar, pen, curvature=F)
        assert (p.F is F) == (lam == 0.0)
        np.testing.assert_array_equal(p.F.matrix, F.matrix + lam * G2)
        np.testing.assert_array_equal(p.A, lam * (G2 @ xstar))


class TestDispatch:
    def test_unknown_order(self, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        with pytest.raises(ValueError):
            px.expansion_for_order(_predict(F, np.zeros(f.dim), f, xstar), cert, 5)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_order_tag_matches(self, order, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        A = 0.01 * np.ones(f.dim)
        rep = px.expansion_for_order(_predict(F, A, f, xstar), cert, order)
        assert rep.order == str(order)
        assert rep.anchor == "base-minimizer"

    def test_exact_order_needs_a_quadratic_objective(self, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        A = 0.01 * np.ones(f.dim)
        for g in (f, px.SumOracle(f, tilt=A)):
            with pytest.raises(PreconditionViolated, match="not quadratic"):
                px.expansion_for_order(_predict(F, A, g, xstar), cert, "exact")


class TestVerification:
    def test_reports_of_one_problem_share_its_curvature(self, logistic_certificate, monkeypatch):
        """Every report of one prediction is checked against one solve of its
        ``g``, stepping on its ``F`` and made on the first read of
        ``p.solution``; a run whose orders are all skipped makes none."""
        solves = []
        solve = expand.newton_minimize

        def counting(*args, **kwargs):
            solves.append((args, kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(expand, "newton_minimize", counting)
        f, xstar, F, cert = logistic_certificate
        A = 0.01 * np.ones(f.dim)
        g = px.SumOracle(f, tilt=A)
        p = _predict(F, A, f, xstar)
        reports = [px.expansion_for_order(p, cert, order) for order in (2, 3)]
        assert solves == []
        comps = [_compare(rep) for rep in reports]
        assert p.solution is p.solution
        ((args, kwargs),) = solves
        assert args == (p.g, p.xstar) and kwargs == {"curvature": p.F}
        assert [c.certifying for c in comps] == [True, True]
        assert p.solution.solver["grad_norm_dual"] <= 1e-12 * (1 + abs(g.value(xstar)))
        skipped = px.ExperimentConfig.from_dict(
            {
                "problem": {"kind": "logistic", "dim": 3, "n": 20, "seed": 1},
                "perturbation": {"kind": "linear", "scale": 0.1, "seed": 2},
                "orders": ["exact"],
                "certificate": {"mode": "declared", "tau3": 0.0},
            },
            "certify",
        )
        report = harness.run_certify(skipped)
        assert report["solution"] is None and report["warnings"]
        assert len(solves) == 1

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_logistic_orders_certify_with_slack(self, order, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        rng = np.random.default_rng(17)
        v = rng.standard_normal(f.dim)
        A = 0.02 * v / np.linalg.norm(v)
        rep = px.expansion_for_order(_predict(F, A, f, xstar), cert, order)
        comp = _compare(rep)
        assert comp.certifying, rep.bounds.failed_gates()
        assert comp.violations == []
        assert comp.max_certified_slack <= 1.0

    def test_zero_tilt_has_zero_slack(self, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        A = np.zeros(f.dim)
        rep = px.expansion_for_order(_predict(F, A, f, xstar), cert, 3)
        comp = _compare(rep)
        assert comp.violations == []
        assert comp.max_certified_slack == 0.0

    def test_false_certificate_is_caught(self):
        """A deliberately tiny tau3 yields radii the truth must violate."""
        f = _cubic_1d()
        lying = px.declared_certificate(_I1, radius=1.0, omega=0.5, tau3=1e-6, tau4=0.0)
        A = np.array([0.3])
        rep = px.expansion_for_order(_predict(_I1, A, f, np.zeros(1)), lying, 3)
        assert rep.bounds.all_gates_pass  # the lie makes every gate easy
        comp = _compare(rep)
        assert "newton_residual_dinvf" in comp.violations

    def test_uncertified_bounds_never_raise_violations(self):
        """Failed gates exclude a bound from the violation list."""
        f = _cubic_1d()
        cert = px.declared_certificate(_I1, radius=0.1, omega=0.5, tau3=1e-6, tau4=0.0)
        A = np.array([0.3])  # dnorm_radius gate fails: 0.45 > 0.1
        rep = px.expansion_for_order(_predict(_I1, A, f, np.zeros(1)), cert, 3)
        assert not rep.bounds.all_gates_pass
        comp = _compare(rep)
        assert not comp.certifying
        assert comp.violations == []

    @pytest.mark.parametrize("resid, end", [(0.05, 1.0 / 12.0), (-0.05, 0.125)])
    def test_value_entry_states_the_bracket_end_it_is_measured_against(self, resid, end):
        """Order 2's value bracket [-1/8, 1/12] (TestSecondOrder's example) is
        asymmetric: each residual's slack and stated radius use one end."""
        cert = px.declared_certificate(_I1, radius=2.0, omega=0.2)
        rep = px.expansion_for_order(_predict(_I1, np.array([1.0])), cert, 2)
        actual = rep.predicted_value_change + resid
        comp = px.compare_with_solution(rep, px.Solution(rep.predicted_shift, actual, {}))
        (entry,) = [e for e in comp.entries if e["name"] == "value"]
        assert entry["radius"] == pytest.approx(end, rel=1e-14)
        assert entry["slack"] == entry["residual"] / entry["radius"] * np.sign(resid)
        assert entry["slack"] == pytest.approx(abs(resid) / end, rel=1e-12)

    def test_report_roundtrips_through_json(self, logistic_certificate):
        f, xstar, F, cert = logistic_certificate
        A = 0.02 * np.ones(f.dim)
        rep = px.expansion_for_order(_predict(F, A, f, xstar), cert, 4)
        comp = _compare(rep)
        blob = json.dumps({"report": rep.to_dict(), "verification": comp.to_dict()})
        parsed = json.loads(blob)
        assert parsed["report"]["order"] == "4"
        assert {e["name"] for e in parsed["verification"]["entries"]} >= {"shift_d", "value"}


class TestDistanceToOptimum:
    def test_prediction_covers_true_distance(self, logistic_certificate):
        f, xstar, _, cert = logistic_certificate
        xk = xstar + 0.05 * np.random.default_rng(1).standard_normal(f.dim)
        rep = px.distance_to_optimum(f, xk, cert)
        assert rep.anchor == "iterate"
        assert rep.bounds.all_gates_pass
        shift_d = next(b for b in rep.bounds.shift_bounds if b.name == "shift_d")
        true_dist = cert.metric.norm(xstar - xk)
        assert true_dist <= shift_d.radius
        # The Newton step from xk lands much closer than xk started.
        landed = np.linalg.norm(xk + rep.predicted_shift - xstar)
        assert landed < 0.05 * np.linalg.norm(xk - xstar)

    def test_at_the_minimizer_everything_vanishes(self, logistic_certificate):
        f, xstar, _, cert = logistic_certificate
        rep = px.distance_to_optimum(f, xstar, cert)
        assert np.linalg.norm(rep.predicted_shift) < 1e-10

    def test_indefinite_hessian_at_the_iterate_raises(self):
        saddle = px.CustomOracle(
            dim=2,
            value=lambda x: float(x[0] ** 2 - x[1] ** 2),
            gradient=lambda x: np.array([2 * x[0], -2 * x[1]]),
            hessian=lambda x: np.diag([2.0, -2.0]),
        )
        cert = px.declared_certificate(px.spd_from_dense(np.eye(2)), radius=1.0, omega=0.0)
        with pytest.raises(HessianNotPd):
            px.distance_to_optimum(saddle, np.ones(2), cert)


class TestCubicBoundCheck:
    """The envelope lemma on single instances: for ``U >= I``,
    ``(3/4) r <= ||s|| <= r`` and ``tau r <= 1/3``, both envelope extremes
    stay at or below ``(tau/2) ||s||^3``."""

    def _ball_instance(self, seed=0, dim=3):
        rng = np.random.default_rng(seed)
        U = px.random_spd(rng, dim, cond=4.0)
        # Lift the spectrum above 1 as the lemma requires.
        lowest = np.linalg.eigvalsh(U.matrix)[0]
        U = px.spd_from_dense(U.matrix + (1.0 - lowest + 0.3) * np.eye(dim))
        s = rng.standard_normal(dim)
        s *= 0.85 / np.linalg.norm(s)
        return U, s

    def test_generic_instance_passes(self, envelope_extremes):
        U, s = self._ball_instance()
        bound = 0.5 * 0.25 * float(np.linalg.norm(s)) ** 3
        for lhs in envelope_extremes(U, s, tau=0.25, r=1.0, seed=1, samples=30_000):
            assert lhs <= bound + 1e-9 * (1.0 + bound)

    def test_tau_zero_reduces_to_quadratic_identity(self, envelope_extremes):
        U, s = self._ball_instance(seed=2)
        # Both envelopes reduce to -+ (u - s)' U (u - s), extreme at u = s.
        assert envelope_extremes(U, s, tau=0.0, r=1.0, seed=3, samples=5_000) == (0.0, 0.0)


class _Delegate(px.Oracle):
    """An :class:`Oracle` subclass that implements the four methods by
    delegating to ``f`` and sets no attribute but ``dim``.  With
    ``tensors=False`` its ``jet_many`` returns no tensors."""

    def __init__(self, f, tensors=True):
        self.f, self.dim, self.tensors = f, f.dim, tensors
        self.hessians = 0

    def value_many(self, P):
        return self.f.value_many(P)

    def gradient(self, x):
        return self.f.gradient(x)

    def hessian(self, x):
        self.hessians += 1
        return self.f.hessian(x)

    def jet_many(self, P, V, parts=PARTS):
        values, third, fourth = self.f.jet_many(P, V, parts)
        return (values, third, fourth) if self.tensors else (values, None, None)


class TestTensorsAreWhatJetReturns:
    """An oracle has a tensor exactly when its ``jet_many`` returns it."""

    @staticmethod
    def _anchor():
        descriptor = {"kind": "logistic", "dim": 3, "n": 20, "reg": 0.1, "seed": 2}
        prob = px.oracle_from_descriptor(descriptor)
        sol = px.newton_minimize(prob.oracle, prob.x0)
        return prob.oracle, sol.xhat, sol.curvature, np.array([0.1, -0.05, 0.02])

    def test_returned_tensors_are_sampled_built_and_probed(self):
        f, xstar, F, A = self._anchor()
        g = _Delegate(f)
        cert = px.estimate_certificate(g, xstar, curvature=F, radius=0.5, samples=40, seed=3)
        direct = px.estimate_certificate(f, xstar, curvature=F, radius=0.5, samples=40, seed=3)
        assert cert.tau3 is not None and cert.tau4 is not None
        assert (cert.tau3, cert.tau4) == (direct.tau3, direct.tau4)
        p = px.predict(g, xstar, A, curvature=F)
        assert [px.expansion_for_order(p, cert, k).order for k in (3, 4)] == ["3", "4"]
        gates = px.fd_probe(g, xstar, directions=4)
        assert [gate.name for gate in gates] == ["order_1", "order_2", "order_3", "order_4"]
        assert all(gate.satisfied for gate in gates)

    def test_without_tensors_order_4_is_skipped_and_nothing_differenced(self):
        class Stale(_Delegate):
            # Attributes of an older oracle contract; nothing may read them.
            has_third = has_fourth = True

        f, xstar, F, A = self._anchor()
        g = Stale(f, tensors=False)
        cert = px.declared_certificate(F, 0.5, omega=0.1, tau3=0.5, tau4=0.5)
        p = px.predict(g, xstar, A, curvature=F)
        for order in (2, 3):
            px.expansion_for_order(p, cert, order)
        g.hessians = 0
        with pytest.raises(MissingThirdDerivative, match="^oracle lacks analytic third"):
            px.expansion_for_order(p, cert, 4)
        assert g.hessians == 0
        assert [gate.name for gate in px.fd_probe(g, xstar, directions=4)] == [
            "order_1", "order_2",
        ]
