from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import perturbex as px
from perturbex.errors import DimensionMismatch, MissingConstant, NotAtMinimum
from perturbex.oracle import PARTS
from perturbex.smoothness import SAMPLE_BLOCK, _draw, _running_max


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


def _omega(f, x, M, F, r, samples=200, seed=0):
    return px.sample_constants(f, x, M, F, r, samples, seed)[0].value


def _tau(order, f, x, M, r, samples=200, seed=0):
    """``tau3`` or ``tau4`` alone: the anchor need not be a minimizer."""
    return px.sample_constants(f, x, M, M, r, samples, seed, include_omega=False)[order - 2].value


class TestOmega:
    def test_quadratic_has_no_remainder(self, rng):
        F = px.random_spd(rng, 4, cond=10.0)
        f = px.QuadraticOracle(F, np.zeros(4))
        omega = _omega(f, np.zeros(4), F, F, r=1.0, samples=80, seed=0)
        assert omega <= 1e-10

    def test_quartic_remainder_matches_closed_form(self):
        # 2|u^4/12| / u^2 = u^2/6, so the exact constant on [-r, r] is r^2/6.
        f = _quartic_1d()
        F = _I1
        for r in (0.5, 1.0):
            omega = _omega(f, np.zeros(1), _I1, F, r=r, samples=400, seed=1)
            assert omega <= r**2 / 6.0 + 1e-12
            assert omega >= 0.8 * r**2 / 6.0

    def test_monotone_in_radius(self):
        f = _quartic_1d()
        small = _omega(f, np.zeros(1), _I1, _I1, r=0.5, samples=200, seed=2)
        large = _omega(f, np.zeros(1), _I1, _I1, r=1.0, samples=200, seed=2)
        assert small < large

    def test_requires_stationary_anchor(self):
        f = _quartic_1d()
        with pytest.raises(NotAtMinimum):
            _omega(f, np.array([0.4]), _I1, _I1, r=0.5)


class TestTauEstimators:
    def test_constant_third_derivative_is_recovered_exactly(self):
        """f''' = 1 with D = I: every sample sees the ratio 1."""
        tau = _tau(3, _cubic_1d(), np.zeros(1), _I1, r=0.5, samples=20, seed=0)
        assert tau == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_has_zero_tensors(self, rng):
        F = px.random_spd(rng, 3, cond=4.0)
        f = px.QuadraticOracle(F, np.zeros(3))
        assert _tau(3, f, np.zeros(3), F, r=1.0, samples=30) == 0.0
        assert _tau(4, f, np.zeros(3), F, r=1.0, samples=30) == 0.0

    def test_more_samples_never_shrink_the_estimate(self, logistic_anchor):
        f, xstar = logistic_anchor
        D = px.spd_from_dense(f.hessian(xstar))
        values = [
            _tau(3, f, xstar, D, r=0.5, samples=n, seed=4)
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
        t1 = _tau(3, f, xstar, D, r=0.5, samples=60, seed=5)
        t2 = _tau(3, f, xstar, cD, r=c * 0.5, samples=60, seed=5)
        assert t2 == pytest.approx(t1 / c**3, rel=1e-12)

    def test_missing_third_derivative_raises(self):
        """Without analytic tensors no tau is sampled, and using it raises."""
        blind = px.CustomOracle(
            dim=1,
            value=lambda x: 0.5 * float(x[0]) ** 2,
            gradient=lambda x: x.copy(),
            hessian=lambda x: np.eye(1),
        )
        omega, tau3, tau4 = px.sample_constants(blind, np.zeros(1), _I1, _I1, 1.0, 20)
        assert omega.value <= 1e-12 and tau3 is None and tau4 is None
        cert = px.estimate_certificate(blind, np.zeros(1), radius=1.0, samples=20)
        with pytest.raises(MissingConstant, match="^certificate lacks tau3$"):
            px.taylor_diagnostics(blind, np.zeros(1), cert)


class TestCertificate:
    def test_estimate_inflates_and_keeps_raw(self, logistic_certificate):
        _, _, _, cert = logistic_certificate
        raw = cert.provenance["raw"]
        assert cert.tau3 == pytest.approx(raw["tau3"] * 1.5)
        assert cert.omega == pytest.approx(raw["omega"] * 1.5)
        assert "kappa" not in cert.to_dict()

    def test_peak_is_where_the_constant_was_sampled(self, logistic_certificate):
        """Each constant, evaluated again with the scalar forms at its peak column."""
        f, xstar, F, cert = logistic_certificate
        prov = cert.provenance
        offsets, tensors, rad = _columns(prov["samples"], f.dim, cert.radius, prov["seed"])
        for name, peak in prov["peak"].items():
            c = peak["column"]
            u = rad[c] * (F.L_inv.T @ offsets[:, c])
            v = F.L_inv.T @ tensors[:, c]
            assert peak["radius"] == rad[c] and F.norm(u) == pytest.approx(rad[c], rel=1e-12)
            if name == "omega":
                remainder = f.value(xstar + u) - f.value(xstar) - 0.5 * u @ F.apply(u)
                again = 2.0 * abs(remainder) / rad[c] ** 2
                assert c > 0 and again == pytest.approx(prov["raw"][name], rel=1e-6)
            else:
                tensor = f.third_dir if name == "tau3" else f.fourth_dir
                again = F.dual_norm(tensor(xstar + u, v))
                assert again == pytest.approx(prov["raw"][name], rel=1e-12)

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


def _counted_calls(f, monkeypatch) -> list[str]:
    """The oracle methods called on ``f``'s class from now on, in order.

    A ``jet_many`` asked for no values is recorded as ``jet_many/tensors``.
    """
    calls = []
    for method in ("value", "third_dir", "fourth_dir", "value_many", "jet_many"):
        original = getattr(type(f), method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            values = "values" in kwargs.get("parts", PARTS)
            calls.append(_method if values else _method + "/tensors")
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(type(f), method, counted)
    return calls


class TestBatchedEstimators:
    @pytest.mark.parametrize("which", ["logistic", "logsumexp"])
    def test_closed_forms_make_no_scalar_calls(
        self, which, logistic_anchor, logsumexp_anchor, monkeypatch
    ):
        """The sampled constants go through ``jet_many`` only: one call per block
        of ``samples + 1`` columns, besides ``check_anchor``'s value.  Without
        omega it is asked for no values."""
        f, xstar = logistic_anchor if which == "logistic" else logsumexp_anchor
        calls = _counted_calls(f, monkeypatch)
        for samples in (1, 31, 32, 70):
            blocks = -(-(samples + 1) // SAMPLE_BLOCK)
            calls.clear()
            cert = px.estimate_certificate(f, xstar, radius=0.5, samples=samples, seed=3)
            assert cert.tau3 > 0 and cert.tau4 > 0 and cert.omega > 0
            assert calls == ["value_many"] + ["jet_many"] * blocks, samples
            calls.clear()
            cert = px.estimate_certificate(
                f, xstar, radius=0.5, samples=samples, seed=3, include_omega=False
            )
            assert cert.tau3 > 0 and cert.tau4 > 0 and cert.omega is None
            assert calls == ["jet_many/tensors"] * blocks, samples

    @pytest.mark.parametrize("third", [False, True])
    def test_absent_tensors_are_not_differenced(self, third, monkeypatch):
        """An oracle without both tensors makes one ``jet_many`` call per block,
        and no Hessian is differenced for the tensor it lacks."""
        hessians = []

        def hessian(x):
            hessians.append(x)
            return np.diag(1.0 + x**2)

        f = px.CustomOracle(
            dim=3,
            value=lambda x: 0.5 * float(x @ x) + float(np.sum(x**4)) / 12.0,
            gradient=lambda x: x + x**3 / 3.0,
            hessian=hessian,
            third_dir=(lambda x, u: 2.0 * x * u**2) if third else None,
        )
        calls = _counted_calls(f, monkeypatch)
        per_block = ["jet_many"]
        for samples in (1, 32, 70):
            blocks = -(-(samples + 1) // SAMPLE_BLOCK)
            calls.clear()
            hessians.clear()
            cert = px.estimate_certificate(f, np.zeros(3), radius=0.5, samples=samples, seed=3)
            assert cert.omega > 0 and (cert.tau3 is not None) == third and cert.tau4 is None
            assert calls == ["value_many"] + per_block * blocks, samples
            assert len(hessians) == 1  # the curvature at the anchor

    @pytest.mark.parametrize("dropped", [1, 2], ids=["has_third", "has_fourth"])
    def test_a_declared_tensor_must_be_returned(self, dropped):
        """The first block's ``jet_many`` declares the oracle's tensors; a later
        block that does not return one is a one-line error naming the oracle class."""

        class Fickle(px.CustomOracle):
            def jet_many(self, P, V, parts=PARTS):
                jet = list(super().jet_many(P, V, parts))
                self.blocks += 1
                if self.blocks > 1:
                    jet[dropped] = None
                return tuple(jet)

        f = Fickle(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x,
            hessian=lambda x: np.eye(2),
            third_dir=lambda x, u: np.zeros(2),
            fourth_dir=lambda x, u: np.zeros(2),
        )
        f.blocks = 0
        with pytest.raises(
            ValueError, match=r"^Fickle\.jet_many gave None for a part asked for or given before$"
        ):
            px.estimate_certificate(f, np.zeros(2), radius=0.5, samples=SAMPLE_BLOCK)
        assert f.blocks == 2

    @pytest.mark.parametrize(
        "third, error, message",
        [
            (lambda V: V[:, 1:], DimensionMismatch, "^expected a block of shape"),
            (lambda V: V * np.nan, ValueError, "^oracle returned non-finite entries$"),
        ],
        ids=["shape", "non-finite"],
    )
    def test_a_returned_block_is_shaped_and_finite(self, third, error, message):
        class Malformed(px.Oracle):
            """``|x|^2 / 2`` in 2-d, whose ``jet_many`` third tensor is ``third(V)``."""

            dim = 2

            def value_many(self, P):
                return 0.5 * np.einsum("ij,ij->j", P, P)

            def gradient(self, x):
                return np.array(x, dtype=float)

            def hessian(self, x):
                return np.eye(2)

            def jet_many(self, P, V, parts=PARTS):
                return self.value_many(P) if "values" in parts else None, third(V), None

        I2 = px.spd_from_dense(np.eye(2))
        with pytest.raises(error, match=message):
            px.sample_constants(Malformed(), np.zeros(2), I2, I2, 0.5, samples=4)

    def test_longer_runs_extend_shorter_ones_across_blocks(self, logistic_anchor):
        """Each constant is nondecreasing in the sample count, and a k-sample
        draw is the first k + 1 columns (the anchor, then the draws) of a longer one."""
        f, xstar = logistic_anchor
        F = D = px.spd_from_dense(f.hessian(xstar))
        counts = (1, 31, 32, 33, 64, 65)
        runs = [px.sample_constants(f, xstar, D, F, 0.5, n, seed=8) for n in counts]
        for name, values in zip(("omega", "tau3", "tau4"), zip(*runs)):
            values = [peak.value for peak in values]
            assert values == sorted(values), (name, values)
        longest = _columns(counts[-1])
        for n in counts:
            for short, long in zip(_columns(n), longest):
                np.testing.assert_array_equal(short[..., : n + 1], long[..., : n + 1])


def _columns(samples, dim=7, r=0.4, seed=17):
    """Offset directions, tensor directions and radii of a draw, one column each."""
    blocks, rad = _draw(seed, dim, r, samples)
    offsets = np.concatenate(blocks[:, :, :SAMPLE_BLOCK], axis=1)
    tensors = np.concatenate(blocks[:, :, SAMPLE_BLOCK:], axis=1)
    return offsets, tensors, rad.reshape(-1)


def _reference_draw(dim, r, samples, seed=17):
    """The sampling stream as one loop over columns, padded to whole blocks.

    The tensor directions are drawn for the anchor too; the offset
    directions and the radii for columns 1 to ``samples``.
    """
    offsets, radii, tensors = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    width = -(-(samples + 1) // SAMPLE_BLOCK) * SAMPLE_BLOCK
    rows = np.ones((2, width, dim))
    u = np.empty(samples)
    for j in range(samples + 1):
        rows[1, j] = tensors.standard_normal(dim)
        if j > 0:
            rows[0, j] = offsets.standard_normal(dim)
            u[j - 1] = radii.uniform()  # the same double as the sampler's random()
    rad = np.zeros(width)
    rad[1 : samples + 1] = r * (0.05 + 0.95 * u ** (1.0 / dim))
    unit = rows / np.linalg.norm(rows, axis=2, keepdims=True)
    return unit[0].T, unit[1].T, rad


@pytest.mark.parametrize("samples", [1, 16, 31, 32, 33, 200])
@pytest.mark.parametrize("paired", [False, True])
def test_sampling_stream_is_pinned(samples, paired):
    """Every variate lands where the per-column loop puts it, bit for bit.

    ``paired`` checks the tensor directions paired with the points, else
    the offset directions."""
    dim, r = 7, 0.4
    offsets, tensors, rad = _columns(samples, dim, r)
    ref_offsets, ref_tensors, ref_rad = _reference_draw(dim, r, samples)
    if paired:
        np.testing.assert_array_equal(tensors, ref_tensors)
    else:
        np.testing.assert_array_equal(offsets, ref_offsets)
    np.testing.assert_array_equal(rad, ref_rad)
    assert rad[0] == 0.0 and np.all(rad[samples + 1 :] == 0.0)
    blocks, _ = _draw(17, dim, r, samples)
    assert blocks.flags.c_contiguous and blocks.shape[2] == 2 * SAMPLE_BLOCK


class TestNonFiniteRatios:
    """A sampled ratio that is NaN or infinite is an error, never a dropped sample."""

    def test_underflowing_omega_radius_raises(self, logistic_anchor):
        f, xstar = logistic_anchor
        F = px.spd_from_dense(f.hessian(xstar))
        with pytest.raises(ValueError, match="omega.*radius 1e-300"):
            _omega(f, xstar, F, F, 1e-300, samples=40, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_running_max_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="tau3"):
            _running_max((0.5, 3), np.array([0.1, bad]), 32, "tau3", 1.0)
        assert _running_max((0.5, 3), np.array([0.1, 2.0]), 32, "tau3", 1.0) == (2.0, 33)
        assert _running_max((0.5, 3), np.array([0.1, 0.5]), 32, "tau3", 1.0) == (0.5, 3)
        assert _running_max((-np.inf, 0), np.array([0.0, 0.0]), 1, "tau3", 1.0) == (0.0, 1)

    def test_tensor_estimate_rejects_non_finite_ratio(self, monkeypatch, logistic_anchor):
        f, xstar = logistic_anchor
        original = type(f).jet_many

        def huge_third(self, P, V, parts=PARTS):
            values, _, fourth = original(self, P, V, parts)
            return values, np.full(V.shape, np.finfo(float).max), fourth

        monkeypatch.setattr(type(f), "jet_many", huge_third)
        D = px.spd_from_dense(1e-10 * np.eye(f.dim))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="tau3"):
            _tau(3, f, xstar, D, 0.5, samples=8, seed=0)
