from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import perturbex as px
from perturbex.errors import MissingThirdDerivative, NotAtMinimum
from perturbex.smoothness import SAMPLE_BLOCK, _draw_samples, _running_max


def _cubic_1d():
    """f(x) = x^2/2 + x^3/6: unit curvature at 0, constant third derivative 1."""
    return px.CustomOracle(
        dim=1,
        value=lambda x: 0.5 * float(x[0]) ** 2 + float(x[0]) ** 3 / 6.0,
        gradient=lambda x: np.array([float(x[0]) + 0.5 * float(x[0]) ** 2]),
        hessian=lambda x: np.array([[1.0 + float(x[0])]]),
        third_dir=lambda x, u: np.array([float(u[0]) ** 2]),
        fourth_dir=lambda x, u: np.array([0.0]),
    )


def _quartic_1d():
    """f(x) = x^2/2 + x^4/12: remainder over the quadratic model is u^4/12."""
    return px.CustomOracle(
        dim=1,
        value=lambda x: 0.5 * float(x[0]) ** 2 + float(x[0]) ** 4 / 12.0,
        gradient=lambda x: np.array([float(x[0]) + float(x[0]) ** 3 / 3.0]),
        hessian=lambda x: np.array([[1.0 + float(x[0]) ** 2]]),
        third_dir=lambda x, u: np.array([2.0 * float(x[0]) * float(u[0]) ** 2]),
        fourth_dir=lambda x, u: np.array([2.0 * float(u[0]) ** 3]),
    )


_I1 = px.spd_from_dense(np.eye(1))


class TestOmega:
    def test_quadratic_has_no_remainder(self, rng):
        F = px.random_spd(rng, 4, cond=10.0)
        f = px.QuadraticOracle(F, np.zeros(4))
        omega = px.estimate_omega(f, np.zeros(4), F, F, r=1.0, samples=80, seed=0)
        assert omega <= 1e-10

    def test_quartic_remainder_matches_closed_form(self):
        # 2|u^4/12| / u^2 = u^2/6, so the exact constant on [-r, r] is r^2/6.
        f = _quartic_1d()
        F = _I1
        for r in (0.5, 1.0):
            omega = px.estimate_omega(f, np.zeros(1), _I1, F, r=r, samples=400, seed=1)
            assert omega <= r**2 / 6.0 + 1e-12
            assert omega >= 0.8 * r**2 / 6.0

    def test_monotone_in_radius(self):
        f = _quartic_1d()
        small = px.estimate_omega(f, np.zeros(1), _I1, _I1, r=0.5, samples=200, seed=2)
        large = px.estimate_omega(f, np.zeros(1), _I1, _I1, r=1.0, samples=200, seed=2)
        assert small < large

    def test_requires_stationary_anchor(self):
        f = _quartic_1d()
        with pytest.raises(NotAtMinimum):
            px.estimate_omega(f, np.array([0.4]), _I1, _I1, r=0.5)


class TestTauEstimators:
    def test_constant_third_derivative_is_recovered_exactly(self):
        """f''' = 1 with D = I: every sample sees the ratio 1."""
        tau = px.estimate_tau3(_cubic_1d(), np.zeros(1), _I1, r=0.5, samples=20, seed=0)
        assert tau == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_has_zero_tensors(self, rng):
        F = px.random_spd(rng, 3, cond=4.0)
        f = px.QuadraticOracle(F, np.zeros(3))
        assert px.estimate_tau3(f, np.zeros(3), F, r=1.0, samples=30) == 0.0
        assert px.estimate_tau4(f, np.zeros(3), F, r=1.0, samples=30) == 0.0

    def test_more_samples_never_shrink_the_estimate(self, logistic_anchor):
        f, xstar = logistic_anchor
        D = px.spd_from_dense(f.hessian(xstar))
        values = [
            px.estimate_tau3(f, xstar, D, r=0.5, samples=n, seed=4)
            for n in (25, 50, 100, 200)
        ]
        assert values == sorted(values)

    def test_metric_scaling_equivariance(self, logistic_anchor):
        """tau3 against c*D over the matching ball is tau3 against D over c^3.

        ``D`` is held as its Gram ``D^2``, so ``c*D`` is held as ``c^2 D^2``."""
        f, xstar = logistic_anchor
        D = px.spd_from_dense(f.hessian(xstar))
        c = 2.0
        cD = px.spd_from_dense(c**2 * D.matrix)
        t1 = px.estimate_tau3(f, xstar, D, r=0.5, samples=60, seed=5)
        t2 = px.estimate_tau3(f, xstar, cD, r=c * 0.5, samples=60, seed=5)
        assert t2 == pytest.approx(t1 / c**3, rel=1e-12)

    def test_missing_third_derivative_raises(self):
        blind = px.CustomOracle(
            dim=1,
            value=lambda x: 0.5 * float(x[0]) ** 2,
            gradient=lambda x: x.copy(),
            hessian=lambda x: np.eye(1),
        )
        with pytest.raises(MissingThirdDerivative):
            px.estimate_tau3(blind, np.zeros(1), _I1, r=1.0)


class TestCertificate:
    def test_estimate_inflates_and_keeps_raw(self, logistic_certificate):
        _, _, _, cert = logistic_certificate
        raw = cert.provenance["raw"]
        assert cert.tau3 == pytest.approx(raw["tau3"] * 1.5)
        assert cert.omega == pytest.approx(raw["omega"] * 1.5)
        assert "kappa" not in cert.to_dict()

    def test_underflowed_zero_is_not_stated(self, logistic_anchor):
        """In a metric of scale 1e150 the sampled tau3 and tau4 underflow to 0."""
        f, xstar = logistic_anchor
        D = px.spd_from_dense(1e150 * np.eye(f.dim))
        cert = px.estimate_certificate(f, xstar, metric=D, radius=1.0, samples=20)
        assert cert.provenance["raw"]["tau3"] == 0.0
        assert cert.provenance["raw"]["tau4"] == 0.0
        assert cert.tau3 is None and cert.tau4 is None

    def test_quadratic_states_zero(self, rng):
        f = px.QuadraticOracle(px.random_spd(rng, 3, cond=6.0), np.zeros(3))
        cert = px.estimate_certificate(f, np.zeros(3), radius=1.0, samples=20)
        assert cert.provenance["raw"] == {"omega": 0.0, "tau3": 0.0, "tau4": 0.0}
        assert (cert.omega, cert.tau3, cert.tau4) == (0.0, 0.0, 0.0)

    def test_declared_certificate_carries_constants(self):
        D = px.spd_from_dense(np.eye(2))
        cert = px.declared_certificate(D, radius=1.0, omega=0.1, tau3=0.3)
        assert cert.tau4 is None
        assert cert.provenance == {"mode": "declared"}

    def test_negative_constants_rejected(self):
        D = px.spd_from_dense(np.eye(2))
        with pytest.raises(ValueError):
            px.declared_certificate(D, radius=1.0, omega=-0.1)
        with pytest.raises(ValueError):
            px.declared_certificate(D, radius=-1.0, omega=0.1)

    def test_constants_are_keyword_only(self):
        """The old positional ``(metric, radius, kappa, omega)`` call raises, not reading
        ``kappa`` as ``omega``."""
        D = px.spd_from_dense(np.eye(2))
        with pytest.raises(TypeError):
            px.declared_certificate(D, 1.0, 1.0, 0.1)
        with pytest.raises(TypeError):
            px.SmoothnessCertificate(D, 1.0, 0.1)

    @pytest.mark.parametrize("field", ["radius", "omega", "tau3", "tau4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constants_rejected(self, field, bad):
        """NaN fails every comparison quietly, so each field is checked finite."""
        D = px.spd_from_dense(np.eye(2))
        constants = {"radius": 1.0, "omega": 0.1, "tau3": 0.3, "tau4": 0.2}
        constants[field] = bad
        with pytest.raises(ValueError, match=field):
            px.declared_certificate(D, **constants)


class TestTaylorDiagnostics:
    def test_quadratic_remainders_vanish(self, rng):
        F = px.random_spd(rng, 3, cond=6.0)
        f = px.QuadraticOracle(F, np.zeros(3))
        cert = px.estimate_certificate(f, np.zeros(3), radius=1.0, samples=40, seed=6)
        gates = px.taylor_diagnostics(f, np.zeros(3), cert, samples=40, seed=7)
        assert all(g.satisfied for g in gates)
        for gate in gates:
            assert gate.lhs <= 1e-6

    def test_cubic_gradient_remainder_is_tight(self):
        """With f''' = 1 the bound (tau3/2) u^2 is met with equality."""
        f = _cubic_1d()
        cert = px.declared_certificate(_I1, radius=0.5, omega=0.5 / 2, tau3=1.0, tau4=0.0)
        found = px.taylor_diagnostics(f, np.zeros(1), cert, samples=150, seed=8)
        gates = {g.name: g for g in found}
        assert all(g.satisfied for g in gates.values())
        assert gates["gradient_remainder"].lhs == pytest.approx(1.0, abs=0.05)

    def test_all_checks_hold_on_logistic(self, logistic_certificate):
        f, xstar, _, cert = logistic_certificate
        gates = px.taylor_diagnostics(f, xstar, cert, samples=120, seed=9)
        assert all(g.satisfied for g in gates), [g.to_dict() for g in gates]
        assert {g.name for g in gates} == {
            "gradient_remainder",
            "hessian_difference",
            "two_point_gradient",
            "third_order_remainder",
        }

    def test_no_tau4_skips_the_third_order_remainder(self, logistic_certificate):
        f, xstar, _, cert = logistic_certificate
        gates = px.taylor_diagnostics(f, xstar, replace(cert, tau4=None), samples=40, seed=9)
        assert [g.name for g in gates] == [
            "gradient_remainder",
            "hessian_difference",
            "two_point_gradient",
        ]

    def test_two_point_constant_is_tight_only_with_small_base(self):
        """The two-point inequality needs the base offset below the step.

        For f(x) = x^2/2 + x^3/6 (so the third derivative is 1 and tau3 = 1
        for D = I on any ball) the two-point gradient remainder at base u and
        step d is |d| * |u + d/2|.  Against the allowance (3/2) d^2:

        * with u = d the ratio is exactly 1 — the constant is attained;
        * with u fixed and d -> 0 the ratio |u + d/2| / (1.5 |d|) blows up,
          so no constant works for arbitrary base points.
        """
        f = _cubic_1d()
        x = np.zeros(1)

        def remainder(u, d):
            gu = f.gradient(x + u)
            return abs(float((f.gradient(x + u + d) - gu - f.hessian(x) @ d)[0]))

        d = np.array([0.001])
        tight = remainder(d, d) / (1.5 * float(d[0]) ** 2)
        assert tight == pytest.approx(1.0, abs=1e-9)

        far_base = np.array([0.4])
        exploded = remainder(far_base, d) / (1.5 * float(d[0]) ** 2)
        assert exploded > 100.0


def test_certificate_skips_tau4_when_unavailable():
    only_third = px.CustomOracle(
        dim=1,
        value=lambda x: 0.5 * float(x[0]) ** 2 + float(x[0]) ** 3 / 6.0,
        gradient=lambda x: np.array([float(x[0]) + 0.5 * float(x[0]) ** 2]),
        hessian=lambda x: np.array([[1.0 + float(x[0])]]),
        third_dir=lambda x, u: np.array([float(u[0]) ** 2]),
    )
    cert = px.estimate_certificate(only_third, np.zeros(1), radius=0.3, samples=20)
    assert cert.tau3 is not None
    assert cert.tau4 is None


@pytest.fixture(scope="module")
def logsumexp_anchor():
    prob = px.oracle_from_descriptor(
        {"kind": "logsumexp", "dim": 5, "n": 30, "reg": 0.2, "temp": 0.5, "seed": 4}
    )
    sol = px.newton_minimize(prob.oracle, prob.x0)
    return prob.oracle, sol.xhat


class TestBatchedEstimators:
    @pytest.mark.parametrize("which", ["logistic", "logsumexp"])
    def test_closed_forms_make_no_scalar_calls(
        self, which, logistic_anchor, logsumexp_anchor, monkeypatch
    ):
        """The sampled constants go through the batched forms only."""
        f, xstar = logistic_anchor if which == "logistic" else logsumexp_anchor
        calls = []
        for method in ("value", "third_dir", "fourth_dir"):
            original = getattr(type(f), method)

            def counted(self, *args, _original=original, _method=method):
                calls.append(_method)
                return _original(self, *args)

            monkeypatch.setattr(type(f), method, counted)
        cert = px.estimate_certificate(f, xstar, radius=0.5, samples=70, seed=3)
        assert cert.tau3 > 0 and cert.tau4 > 0 and cert.omega > 0
        assert calls == []

    def test_longer_runs_extend_shorter_ones_across_blocks(self, logistic_anchor):
        f, xstar = logistic_anchor
        F = D = px.spd_from_dense(f.hessian(xstar))
        counts = (31, 32, 33, 64, 65)
        estimates = {
            "omega": [px.estimate_omega(f, xstar, D, F, 0.5, n, seed=8) for n in counts],
            "tau3": [px.estimate_tau3(f, xstar, D, 0.5, n, seed=8) for n in counts],
            "tau4": [px.estimate_tau4(f, xstar, D, 0.5, n, seed=8) for n in counts],
        }
        for name, values in estimates.items():
            assert values == sorted(values), (name, values)


def _reference_draw(rng, dim, r, samples, paired):
    """The sampling stream as one loop over samples, column by column."""
    blocks = -(-samples // SAMPLE_BLOCK)
    Z = np.ones((blocks, dim, SAMPLE_BLOCK))
    W = np.ones((blocks, dim, SAMPLE_BLOCK)) if paired else None
    rad = np.zeros((blocks, SAMPLE_BLOCK))
    for i in range(samples):
        b, j = divmod(i, SAMPLE_BLOCK)
        Z[b, :, j] = rng.standard_normal(dim)
        rad[b, j] = r * (0.05 + 0.95 * rng.uniform() ** (1.0 / dim))
        if paired:
            W[b, :, j] = rng.standard_normal(dim)
    return Z, rad, W


@pytest.mark.parametrize("samples", [1, 16, 31, 32, 33, 200])
@pytest.mark.parametrize("paired", [False, True])
def test_sampling_stream_is_pinned(samples, paired):
    """Every variate lands where the per-sample loop puts it, bit for bit."""
    dim, r = 7, 0.4
    Z, rad, W = _draw_samples(np.random.default_rng(17), dim, r, samples, paired)
    Zr, radr, Wr = _reference_draw(np.random.default_rng(17), dim, r, samples, paired)
    np.testing.assert_array_equal(Z, Zr)
    np.testing.assert_array_equal(rad, radr)
    assert Z.flags.c_contiguous and all(block.flags.c_contiguous for block in Z)
    if paired:
        np.testing.assert_array_equal(W, Wr)
        assert W.flags.c_contiguous
    else:
        assert W is None


class TestNonFiniteRatios:
    """A sampled ratio that is NaN or infinite is an error, never a dropped sample."""

    def test_underflowing_omega_radius_raises(self, logistic_anchor):
        f, xstar = logistic_anchor
        F = px.spd_from_dense(f.hessian(xstar))
        with pytest.raises(ValueError, match="omega.*radius 1e-300"):
            px.estimate_omega(f, xstar, F, F, 1e-300, samples=40, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_running_max_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="tau3"):
            _running_max(0.5, np.array([0.1, bad]), "tau3", 1.0)
        assert _running_max(0.5, np.array([0.1, 2.0]), "tau3", 1.0) == 2.0

    def test_tensor_estimate_rejects_non_finite_ratio(self, monkeypatch, logistic_anchor):
        f, xstar = logistic_anchor
        monkeypatch.setattr(
            type(f), "third_dir_many", lambda self, P, V: np.full(V.shape, np.finfo(float).max)
        )
        D = px.spd_from_dense(1e-10 * np.eye(f.dim))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="tau3"):
            px.estimate_tau3(f, xstar, D, 0.5, samples=8, seed=0)
