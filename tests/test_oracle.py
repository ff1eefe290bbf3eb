from __future__ import annotations

import numpy as np
import pytest

import perturbex as px
from perturbex import oracle as oracle_module
from perturbex.errors import (
    BadLabels,
    DimensionMismatch,
    MissingFourthDerivative,
    MissingThirdDerivative,
    NotPsd,
)
from perturbex.oracle import PARTS, _fd_fourth, _fd_third


def _tensors(f):
    """Which of the third and fourth tensors ``f.jet_many`` returns."""
    _, third, fourth = f.jet_many(np.zeros((f.dim, 1)), np.ones((f.dim, 1)), ("third", "fourth"))
    return third is not None, fourth is not None


def _zoo(kind, seed=0, dim=4):
    extra = {}
    if kind == "logistic":
        extra = {"n": 32, "reg": 0.1}
    elif kind == "logsumexp":
        extra = {"n": 20, "reg": 0.05, "temp": 0.8}
    return px.oracle_from_descriptor({"kind": kind, "dim": dim, "seed": seed, **extra})


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "logsumexp"])
@pytest.mark.parametrize("probe_seed", [0, 1])
def test_analytic_derivatives_match_finite_differences(kind, probe_seed):
    """Every closed-form derivative agrees with central differences."""
    prob = _zoo(kind, seed=3 + probe_seed)
    rng = np.random.default_rng(probe_seed)
    for _ in range(5):
        x = 0.3 * rng.standard_normal(prob.oracle.dim)
        gates = px.fd_probe(prob.oracle, x, directions=4, seed=probe_seed)
        assert all(g.satisfied for g in gates), [g.to_dict() for g in gates]


@pytest.mark.parametrize(
    "order, error",
    # The order-3 and order-4 mismatches are relative to the analytic
    # tensor's norm ||t||, and their tolerance is 1e-3.  Scaling t by
    # 1 - 1e-3 gives a mismatch of 1e-3 / (1 - 1e-3), just above it (by
    # 1e-6, far above the differencing error of about 1e-9).
    [(1, 1e-3), (2, 1e-3), (3, -1e-3), (4, -1e-3)],
    ids=["gradient", "hessian", "third_dir", "fourth_dir"],
)
def test_fd_probe_catches_a_wrong_derivative(order, error):
    """Scaling one derivative by ``1 + error`` fails that order's gate,
    while the gates of the orders below it hold."""
    f = _zoo("logsumexp", seed=3).oracle
    scale = {k: 1.0 + (error if k == order else 0.0) for k in (1, 2, 3, 4)}
    wrong = px.CustomOracle(
        dim=f.dim,
        value=f.value,
        gradient=lambda x: scale[1] * f.gradient(x),
        hessian=lambda x: scale[2] * f.hessian(x),
        third_dir=lambda x, u: scale[3] * f.third_dir(x, u),
        fourth_dir=lambda x, u: scale[4] * f.fourth_dir(x, u),
    )
    x = 0.3 * np.random.default_rng(1).standard_normal(f.dim)
    gates = {g.name: g for g in px.fd_probe(wrong, x, directions=4, seed=0)}
    assert not gates[f"order_{order}"].satisfied
    for below in range(1, order):
        assert gates[f"order_{below}"].satisfied


class TestTensorParity:
    """third_dir is even in its direction; fourth_dir contracts an odd power."""

    @pytest.mark.parametrize("kind", ["logistic", "logsumexp"])
    def test_third_dir_is_even(self, kind, rng):
        f = _zoo(kind).oracle
        x = 0.2 * rng.standard_normal(f.dim)
        u = rng.standard_normal(f.dim)
        np.testing.assert_array_equal(f.third_dir(x, -u), f.third_dir(x, u))

    @pytest.mark.parametrize("kind", ["logistic", "logsumexp"])
    def test_fourth_dir_is_odd(self, kind, rng):
        f = _zoo(kind).oracle
        x = 0.2 * rng.standard_normal(f.dim)
        u = rng.standard_normal(f.dim)
        np.testing.assert_array_equal(f.fourth_dir(x, -u), -f.fourth_dir(x, u))


class TestLogistic:
    def test_value_at_origin_is_log_two(self):
        f = _zoo("logistic").oracle
        reg_part = 0.0  # x = 0 kills the ridge term
        assert f.value(np.zeros(f.dim)) == pytest.approx(np.log(2.0) + reg_part)

    def test_rejects_bad_labels(self, rng):
        X = rng.standard_normal((6, 3))
        with pytest.raises(BadLabels):
            px.LogisticOracle(X, np.array([1.0, -1.0, 2.0, 1.0, -1.0, 1.0]), reg=0.1)

    def test_rejects_negative_reg(self, rng):
        X = rng.standard_normal((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            px.LogisticOracle(X, y, reg=-0.1)

    def test_hessian_is_positive_definite_with_reg(self, rng):
        f = _zoo("logistic").oracle
        x = rng.standard_normal(f.dim)
        w = np.linalg.eigvalsh(f.hessian(x))
        assert w.min() >= 0.1 - 1e-12


class TestLogSumExp:
    def test_single_row_is_affine(self, rng):
        """With one data row the function is affine, so all curvature vanishes."""
        X = rng.standard_normal((1, 3))
        f = px.LogSumExpOracle(X, temp=1.0, reg=0.0)
        x = rng.standard_normal(3)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(f.hessian(x), np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(f.third_dir(x, u), np.zeros(3), atol=1e-14)

    def test_zero_matrix_is_constant(self):
        f = px.LogSumExpOracle(np.zeros((5, 3)), temp=1.0, reg=0.0)
        assert f.value(np.ones(3)) == pytest.approx(np.log(5.0))
        np.testing.assert_allclose(f.gradient(np.ones(3)), np.zeros(3), atol=1e-15)

    def test_rejects_nonpositive_temp(self, rng):
        with pytest.raises(ValueError):
            px.LogSumExpOracle(rng.standard_normal((4, 2)), temp=0.0)

    def test_rejects_temp_whose_quartic_inverse_overflows(self, rng):
        with pytest.raises(ValueError, match="temp"):
            px.LogSumExpOracle(rng.standard_normal((4, 2)), temp=1e-300)
        px.LogSumExpOracle(rng.standard_normal((4, 2)), temp=1e-70)


class TestQuadratics:
    def test_minimum_at_center(self, rng):
        F = px.random_spd(rng, 3, cond=5.0)
        center = rng.standard_normal(3)
        f = px.QuadraticOracle(F, center)
        np.testing.assert_allclose(f.gradient(center), np.zeros(3), atol=1e-14)
        assert _tensors(f) == (True, True)

    def test_psd_quadratic_allows_singular(self):
        pen = px.QuadraticOracle(np.diag([1.0, 0.0]))
        assert pen.value(np.array([2.0, 5.0])) == pytest.approx(2.0)

    def test_psd_quadratic_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            px.QuadraticOracle(np.diag([1.0, -1e-3]))

    def test_psd_quadratic_scaled_skips_the_check(self, rng, monkeypatch):
        v = rng.standard_normal(3)
        base = px.QuadraticOracle(np.outer(v, v))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # a second check would fail
        pen = base.scaled(0.3)
        assert isinstance(pen, px.QuadraticOracle) and pen.Q is not base.Q
        np.testing.assert_array_equal(pen.Q, 0.3 * np.outer(v, v))
        np.testing.assert_array_equal(base.Q, np.outer(v, v))
        with pytest.raises(ValueError):
            base.scaled(-1.0)


class TestPerturbations:
    def test_linear_tilt_roundtrip(self, rng):
        f = _zoo("logistic").oracle
        A = rng.standard_normal(f.dim)
        g = px.SumOracle(f, tilt=A)
        h = px.SumOracle(g, tilt=-A)
        x = rng.standard_normal(f.dim)
        assert abs(h.value(x) - f.value(x)) < 1e-14 * (1 + abs(f.value(x)))
        np.testing.assert_allclose(h.gradient(x), f.gradient(x), atol=1e-14)

    def test_quadratic_penalty_adds_curvature(self, rng):
        f = _zoo("logistic").oracle
        G2 = 0.5 * np.eye(f.dim)
        fG = px.quadratically_penalize(f, G2)
        x = rng.standard_normal(f.dim)
        np.testing.assert_allclose(fG.hessian(x) - f.hessian(x), G2, atol=1e-14)

    def test_quadratic_penalty_checks_dim(self):
        f = _zoo("logistic").oracle
        with pytest.raises(DimensionMismatch):
            px.quadratically_penalize(f, np.eye(f.dim + 1))

    def test_smooth_penalty_rejects_concave(self):
        f = _zoo("quadratic", dim=2).oracle
        concave = px.CustomOracle(
            dim=2,
            value=lambda x: -float(x @ x),
            gradient=lambda x: -2.0 * x,
            hessian=lambda x: -2.0 * np.eye(2),
        )
        with pytest.raises(NotPsd):
            px.smoothly_penalize(f, concave)


class TestScaledOracle:
    def test_scales_all_orders(self, rng):
        f = _zoo("logistic").oracle
        g = px.SumOracle(f, weights=(0.25,))
        x = 0.1 * rng.standard_normal(f.dim)
        u = rng.standard_normal(f.dim)
        assert g.value(x) == pytest.approx(0.25 * f.value(x))
        np.testing.assert_array_equal(g.third_dir(x, u), 0.25 * f.third_dir(x, u))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            px.SumOracle(_zoo("quadratic").oracle, weights=(-1.0,))


@pytest.mark.parametrize(
    "build",
    [
        lambda f: px.QuadraticOracle(np.array([[np.nan]])),
        lambda f: px.QuadraticOracle(np.diag([1.0, np.inf])),
        lambda f: px.SumOracle(f, weights=(np.nan,)),
        lambda f: px.SumOracle(f, weights=(np.inf,)),
        lambda f: px.QuadraticOracle(np.eye(4)).scaled(np.inf),
        lambda f: px.QuadraticOracle(np.eye(4)).scaled(np.nan),
        lambda f: px.SumOracle(f, f, weights=(1.0, np.nan)),
        lambda f: px.SumOracle(f, weights=(-np.inf,)),
    ],
    ids=[
        "quadratic-nan", "quadratic-inf", "scaled-nan", "scaled-inf",
        "quadratic-scaled-inf", "quadratic-scaled-nan", "sum-nan", "sum-minus-inf",
    ],
)
def test_non_finite_input_is_rejected(build):
    """A NaN or infinite matrix entry or weight fails at construction, not later."""
    with pytest.raises(ValueError):
        build(_zoo("logistic").oracle)


def _five_forms(f, x, P, V):
    """Every derivative form of ``f``: at a point ``x`` or on column blocks ``P``, ``V``."""
    return {
        "value_many": f.value_many(P),
        "gradient": f.gradient(x),
        "hessian": f.hessian(x),
        "third": f.jet_many(P, V, ("third",))[1],
        "fourth": f.jet_many(P, V, ("fourth",))[2],
    }


class TestOneSum:
    """Every composition is ``sum_i w_i f_i + <., tilt>``, computed in term order."""

    @staticmethod
    def _explicit(weighted, tilt, x, P, V):
        forms = [(w, _five_forms(f, x, P, V)) for w, f in weighted]
        out = {}
        for name in forms[0][1]:
            total = forms[0][0] * forms[0][1][name]
            for w, form in forms[1:]:
                total = total + w * form[name]
            out[name] = total
        if tilt is not None:
            out["value_many"] = out["value_many"] + tilt @ P
            out["gradient"] = out["gradient"] + tilt
        return out

    @pytest.mark.parametrize("nested", [False, True])
    def test_forms_equal_the_explicit_sum_bit_for_bit(self, nested, rng):
        logistic = _zoo("logistic").oracle
        logsumexp = _zoo("logsumexp").oracle
        quad = px.QuadraticOracle(np.diag([1.0, 0.0, 2.0, 0.5]), rng.standard_normal(4))
        tilt = rng.standard_normal(4)
        if nested:
            g = px.SumOracle(
                px.smoothly_penalize(logistic, px.SumOracle(logsumexp, weights=(0.3,))), tilt=tilt
            )
            weighted = [(1.0, logistic), (0.3, logsumexp)]
        else:
            g = px.SumOracle(logistic, logsumexp, quad, weights=(1.0, 0.3, 2.0), tilt=tilt)
            weighted = [(1.0, logistic), (0.3, logsumexp), (2.0, quad)]
        x = 0.3 * rng.standard_normal(4)
        P = 0.3 * rng.standard_normal((4, 5))
        V = rng.standard_normal((4, 5))
        expected = self._explicit(weighted, tilt, x, P, V)
        for name, value in _five_forms(g, x, P, V).items():
            np.testing.assert_array_equal(value, expected[name], err_msg=name)

    def test_flags_are_the_and_of_the_terms(self):
        """A sum has a tensor exactly when every term's ``jet_many`` returns it."""
        third_only = px.CustomOracle(
            dim=4,
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(4),
            hessian=lambda x: np.zeros((4, 4)),
            third_dir=lambda x, u: np.zeros(4),
        )
        oracles = [_zoo("logistic").oracle, _quartic_custom(4, analytic=False), third_only]
        for a in oracles:
            for b in oracles:
                both = px.SumOracle(a, b, weights=(0.5, 2.0), tilt=np.ones(4))
                assert _tensors(both) == tuple(p and q for p, q in zip(_tensors(a), _tensors(b)))
            for g in (px.SumOracle(a, weights=(0.5,)), px.SumOracle(a, tilt=np.ones(4))):
                assert _tensors(g) == _tensors(a)

    def test_quadratic_flag_composes_like_the_tensor_flags(self, rng):
        F = px.random_spd(rng, 4, cond=8.0)
        quad = px.QuadraticOracle(F, rng.standard_normal(4))
        ridge = px.QuadraticOracle(np.diag([1.0, 0.0, 2.0, 0.5]))
        logistic = _zoo("logistic").oracle
        assert quad.quadratic and ridge.scaled(0.3).quadratic
        assert not px.Oracle.quadratic and not logistic.quadratic
        assert not _quartic_custom(4, analytic=True).quadratic
        assert px.SumOracle(quad, ridge, weights=(0.5, 2.0), tilt=np.ones(4)).quadratic
        assert px.SumOracle(px.smoothly_penalize(quad, ridge), tilt=np.ones(4)).quadratic
        assert not px.SumOracle(quad, logistic, weights=(0.5, 2.0)).quadratic
        assert not px.SumOracle(logistic, tilt=np.ones(4)).quadratic

    def test_rejects_mismatched_terms(self):
        f = _zoo("logistic").oracle
        with pytest.raises(ValueError):
            px.SumOracle(f, f, weights=(1.0, -0.5))
        with pytest.raises(ValueError):
            px.SumOracle(f, f, weights=(1.0,))
        with pytest.raises(ValueError):
            px.SumOracle()
        with pytest.raises(DimensionMismatch):
            px.SumOracle(f, _zoo("logistic", dim=3).oracle)

    def test_operator_and_array_quadratics_agree(self, rng):
        F = px.random_spd(rng, 4, cond=8.0)
        center = rng.standard_normal(4)
        trusted = px.QuadraticOracle(F, center)
        checked = px.QuadraticOracle(F.matrix, center)
        np.testing.assert_array_equal(trusted.Q, checked.Q)
        x = rng.standard_normal(4)
        P = rng.standard_normal((4, 3))
        V = rng.standard_normal((4, 3))
        expected = _five_forms(checked, x, P, V)
        for name, value in _five_forms(trusted, x, P, V).items():
            np.testing.assert_array_equal(value, expected[name], err_msg=name)

    def test_quadratic_penalties_are_not_probed(self, rng, monkeypatch):
        f = _zoo("logistic").oracle
        F = px.random_spd(rng, 4, cond=8.0)
        penalties = [
            px.QuadraticOracle(F),
            px.QuadraticOracle(F.matrix),
            px.SumOracle(px.QuadraticOracle(F), weights=(0.5,)),
        ]
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # a probe would fail
        for pen in penalties:
            assert isinstance(px.smoothly_penalize(f, pen), px.SumOracle)
        with pytest.raises(TypeError):
            px.smoothly_penalize(f, px.SumOracle(_zoo("logsumexp").oracle, weights=(0.5,)))


class TestFiniteDifferenceFallbacks:
    """Oracles without closed forms raise on a tensor read; only the probe's
    references ``_fd_third`` / ``_fd_fourth`` difference their Hessians."""

    def test_fd_third_dir_on_cubic(self):
        f = px.CustomOracle(
            dim=1,
            value=lambda x: float(x[0]) ** 3 / 6.0,
            gradient=lambda x: np.array([float(x[0]) ** 2 / 2.0]),
            hessian=lambda x: np.array([[float(x[0])]]),
        )
        assert _tensors(f) == (False, False)
        x, u = np.array([0.3]), np.array([2.0])
        with pytest.raises(MissingThirdDerivative, match="oracle lacks analytic third"):
            f.third_dir(x, u)
        with pytest.raises(MissingFourthDerivative, match="oracle lacks analytic fourth"):
            f.fourth_dir(x, u)
        # d^3/dx^3 (x^3/6) = 1, contracted twice with u = 2 gives 4.
        approx = _fd_third(f, x[:, None], u[:, None])[:, 0]
        assert approx[0] == pytest.approx(4.0, rel=1e-6)

    def test_sum_oracle_combines_capability_flags(self):
        """A term without tensors leaves the sum's ``jet_many`` without them."""
        quad = _zoo("quadratic").oracle
        blind = px.CustomOracle(
            dim=quad.dim,
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(quad.dim),
            hessian=lambda x: np.zeros((quad.dim, quad.dim)),
        )
        both = px.SumOracle(quad, blind)
        assert _tensors(both) == (False, False)


def _quartic_custom(dim, analytic):
    """``0.5 |x|^2 + sum x_i^4 / 12``, with or without closed-form tensors."""
    tensors = {}
    if analytic:
        tensors = {
            "third_dir": lambda x, u: 2.0 * x * u**2,
            "fourth_dir": lambda x, u: 2.0 * u**3,
        }
    return px.CustomOracle(
        dim=dim,
        value=lambda x: 0.5 * float(x @ x) + float(np.sum(x**4)) / 12.0,
        gradient=lambda x: x + x**3 / 3.0,
        hessian=lambda x: np.diag(1.0 + x**2),
        **tensors,
    )


def _batched_zoo():
    """Every oracle class, keyed by a test id; all of dimension 4."""
    rng = np.random.default_rng(11)
    logistic = _zoo("logistic").oracle
    logsumexp = _zoo("logsumexp").oracle
    psd = px.QuadraticOracle(np.diag([1.0, 0.0, 2.0, 0.5]))
    return {
        "logistic": logistic,
        "logsumexp": logsumexp,
        "logsumexp-temp0.3": px.LogSumExpOracle(rng.standard_normal((25, 4)), temp=0.3, reg=0.05),
        "quadratic": px.QuadraticOracle(px.random_spd(rng, 4, cond=8.0), rng.standard_normal(4)),
        "psd-quadratic": psd,
        "sum": px.SumOracle(logistic, psd),
        "scaled": px.SumOracle(logsumexp, weights=(0.25,)),
        "linear-tilt": px.SumOracle(logistic, tilt=rng.standard_normal(4)),
        "custom-analytic": _quartic_custom(4, analytic=True),
        "custom-fd": _quartic_custom(4, analytic=False),
        "weighted-tilt": px.SumOracle(
            logistic, logsumexp, weights=(0.5, 2.0), tilt=rng.standard_normal(4)
        ),
        "sum-custom-fd": px.SumOracle(_quartic_custom(4, analytic=False), logistic),
    }


# The zoo entries without closed-form tensors: their ``jet_many`` returns neither.
_TENSORLESS = {"custom-fd", "sum-custom-fd"}


class TestBatchedForms:
    """Each batched form equals the column loop of its scalar method.

    A scalar method is a one-column call of its batched form, so at width 1
    the two agree bit for bit.  Wider blocks sum in another order
    (matrix-matrix products, column-wise reductions), so they agree to
    rounding: ``rtol=1e-12``, and an entry that cancels to almost nothing is
    held to ``1e-12`` times the largest entry of its block.
    """

    @pytest.mark.parametrize("name", list(_batched_zoo()))
    @pytest.mark.parametrize("width", [1, 31, 32, 33])
    def test_batched_equals_looped(self, name, width):
        f = _batched_zoo()[name]
        rng = np.random.default_rng(width)
        P = 0.3 * rng.standard_normal((f.dim, width))
        V = rng.standard_normal((f.dim, width))
        looped = np.array([f.value(P[:, j]) for j in range(width)])
        if width == 1:
            np.testing.assert_array_equal(f.value_many(P), looped)
        np.testing.assert_allclose(f.value_many(P), looped, rtol=1e-12)
        for part, one, fd, missing in (
            ("third", f.third_dir, _fd_third, MissingThirdDerivative),
            ("fourth", f.fourth_dir, _fd_fourth, MissingFourthDerivative),
        ):
            batched = f.jet_many(P, V, (part,))[PARTS.index(part)]
            columns = [(P[:, [j]], V[:, [j]]) for j in range(width)]
            if name in _TENSORLESS:  # no closed form: the read raises, the differences serve
                assert batched is None
                with pytest.raises(missing):
                    one(P[:, 0], V[:, 0])
                batched = fd(f, P, V)
                looped = np.column_stack([fd(f, p, v)[:, 0] for p, v in columns])
            else:
                looped = np.column_stack([one(p[:, 0], v[:, 0]) for p, v in columns])
            assert batched.shape == (f.dim, width)
            if width == 1:
                np.testing.assert_array_equal(batched, looped)
            np.testing.assert_allclose(
                batched, looped, rtol=1e-12, atol=1e-12 * np.abs(looped).max()
            )

    @pytest.mark.parametrize("name", list(_batched_zoo()))
    @pytest.mark.parametrize("width", [1, 33])
    def test_jet_holds_the_three_forms(self, name, width):
        """``jet_many`` gives ``value_many`` and the tensor forms bit for bit, and
        a scalar form is column 0 of a one-column ``jet_many``."""
        f = _batched_zoo()[name]
        rng = np.random.default_rng(width)
        P = 0.3 * rng.standard_normal((f.dim, width))
        V = rng.standard_normal((f.dim, width))
        values, third, fourth = f.jet_many(P, V)
        assert values.shape == (width,)
        np.testing.assert_array_equal(values, f.value_many(P))
        x, u = P[:, 0], V[:, 0]
        one = f.jet_many(x[:, None], u[:, None])
        assert one[0][0] == f.value(x)
        has = name not in _TENSORLESS
        tensors = (
            (third, one[1], f.third_dir, has),
            (fourth, one[2], f.fourth_dir, has),
        )
        for tensor, column, scalar, has in tensors:
            if not has:  # no closed form
                assert tensor is None and column is None
                continue
            assert tensor.shape == (f.dim, width)
            np.testing.assert_array_equal(column[:, 0], scalar(x, u))
            if f.quadratic:
                assert not tensor.any()
        # Each part asked for alone is the same part of the full jet, bit for
        # bit, and every part not asked for is None.
        for part, full in zip(PARTS, (values, third, fourth)):
            alone = f.jet_many(P, V, (part,))
            for other, got in zip(PARTS, alone):
                if other != part:
                    assert got is None, (part, other)
                elif full is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, full, err_msg=part)

    @pytest.mark.parametrize("name", ["logistic", "custom-analytic"])
    def test_block_inputs_are_checked(self, name):
        f = _batched_zoo()[name]
        P = np.zeros((f.dim, 3))
        bad = P.copy()
        bad[:, 1] = np.nan
        with pytest.raises(ValueError):
            f.value_many(bad)
        with pytest.raises(ValueError):
            f.jet_many(P, bad, ("third",))
        with pytest.raises(DimensionMismatch):
            f.value_many(np.zeros((f.dim + 1, 3)))
        with pytest.raises(DimensionMismatch):
            f.jet_many(P, np.zeros((f.dim, 2)), ("fourth",))


class TestOneExtensionPoint:
    """``jet_many`` is the one batched higher-order form an oracle implements."""

    def test_only_the_base_class_derives_the_tensor_forms(self):
        """The base class derives the one-column forms; no class has a batched
        tensor form besides ``jet_many``."""
        classes = [
            cls for cls in vars(oracle_module).values()
            if isinstance(cls, type) and issubclass(cls, px.Oracle)
        ]
        scalar = {"value", "third_dir", "fourth_dir"}
        for cls in classes:
            assert "jet_many" in vars(cls), cls
            assert scalar & set(vars(cls)) == (scalar if cls is px.Oracle else set())
            assert not hasattr(cls, "third_dir_many") and not hasattr(cls, "fourth_dir_many")

    def test_no_class_declares_its_tensors(self):
        """An oracle has a tensor when ``jet_many`` returns it; no attribute says so."""
        classes = [
            cls for cls in vars(oracle_module).values()
            if isinstance(cls, type) and issubclass(cls, px.Oracle)
        ]
        for f in [*classes, *_batched_zoo().values()]:
            assert not hasattr(f, "has_third") and not hasattr(f, "has_fourth"), f

    @pytest.mark.parametrize("name", list(_batched_zoo()))
    @pytest.mark.parametrize("with_values", [False, True])
    def test_jet_tensors_match_the_flags(self, name, with_values):
        """A tensor is ``None`` exactly where the oracle has no closed form for it;
        where it is there, the derived form is that tensor bit for bit."""
        f = _batched_zoo()[name]
        rng = np.random.default_rng(3)
        P = 0.3 * rng.standard_normal((f.dim, 5))
        V = rng.standard_normal((f.dim, 5))
        values, third, fourth = f.jet_many(P, V, parts=PARTS if with_values else PARTS[1:])
        assert (values is None) == (not with_values)
        has = name not in _TENSORLESS
        assert (third is None) == (not has)
        assert (fourth is None) == (not has)
        if has:
            np.testing.assert_array_equal(f.jet_many(P, V, ("third",))[1], third)
            np.testing.assert_array_equal(f.jet_many(P, V, ("fourth",))[2], fourth)

    def test_sum_with_a_tensorless_term_differences_the_sum(self):
        """A term without closed-form tensors leaves the sum without them: its
        one-column reads raise, and the probe's references difference the whole
        sum to the terms' tensors."""
        f = _batched_zoo()["sum-custom-fd"]
        assert _tensors(f) == (False, False)
        rng = np.random.default_rng(4)
        P = 0.3 * rng.standard_normal((f.dim, 6))
        V = rng.standard_normal((f.dim, 6))
        with pytest.raises(MissingThirdDerivative):
            f.third_dir(P[:, 0], V[:, 0])
        with pytest.raises(MissingFourthDerivative):
            f.fourth_dir(P[:, 0], V[:, 0])
        # The sum is the quartic 0.5 |x|^2 + sum x_i^4 / 12 plus a logistic loss.
        _, third, fourth = _zoo("logistic").oracle.jet_many(P, V, ("third", "fourth"))
        for fd, exact, rtol in (
            (_fd_third(f, P, V), 2.0 * P * V**2 + third, 1e-9),
            (_fd_fourth(f, P, V), 2.0 * V**3 + fourth, 1e-6),
        ):
            error = np.linalg.norm(fd - exact, axis=0) / np.linalg.norm(exact, axis=0)
            assert error.max() <= rtol, error


def _counting_quartic(dim=3):
    """``_quartic_custom(dim, analytic=True)`` whose value and tensor callables count
    their calls."""
    base = _quartic_custom(dim, analytic=True)
    calls = dict.fromkeys(PARTS, 0)

    def counted(part, fn):
        def call(*args):
            calls[part] += 1
            return fn(*args)

        return call

    f = px.CustomOracle(
        dim=dim,
        value=counted("values", base.value),
        gradient=base.gradient,
        hessian=base.hessian,
        third_dir=counted("third", base.third_dir),
        fourth_dir=counted("fourth", base.fourth_dir),
    )
    return f, calls


class TestOnlyThePartsAskedFor:
    """A caller forms only the parts of ``jet_many`` it reads, so a
    ``CustomOracle`` runs no callable of a part nobody asked for."""

    def test_one_column_reads_run_one_callable(self):
        f, calls = _counting_quartic()
        x, u = np.array([0.3, -0.1, 0.2]), np.array([1.0, -0.5, 2.0])
        np.testing.assert_array_equal(f.third_dir(x, u), 2.0 * x * u**2)
        assert calls == {"values": 0, "third": 1, "fourth": 0}
        np.testing.assert_array_equal(f.fourth_dir(x, u), 2.0 * u**3)
        assert calls == {"values": 0, "third": 1, "fourth": 1}

    def test_tensors_alone_run_no_value_callable(self):
        f, calls = _counting_quartic()
        rng = np.random.default_rng(2)
        P, V = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        values, third, fourth = f.jet_many(P, V, ("third",))
        assert values is None and fourth is None and third.shape == (3, 5)
        assert calls == {"values": 0, "third": 5, "fourth": 0}

    def test_skew_term_and_check_4_run_no_fourth_callable(self):
        f, calls = _counting_quartic()
        xstar, u = np.zeros(3), np.array([0.2, -0.1, 0.3])
        px.skewness_correction(f, xstar, u)
        assert calls == {"values": 0, "third": 1, "fourth": 0}
        cert = px.declared_certificate(
            px.spd_from_dense(np.eye(3)), radius=0.5, omega=0.1, tau3=1.0, tau4=3.0
        )
        gates = px.taylor_diagnostics(f, xstar, cert, samples=10, seed=0)
        assert gates[-1].name == "third_order_remainder"
        assert calls == {"values": 0, "third": 1 + 10, "fourth": 0}


def _kernel_pair(seed=5, n=60, dim=7):
    """A logistic and a log-sum-exp oracle on one design, with a point block."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    logistic = px.LogisticOracle(X, y, reg=0.1)
    logsumexp = px.LogSumExpOracle(X, temp=0.7, reg=0.05)
    P = 0.5 * rng.standard_normal((dim, 9))
    V = rng.standard_normal((dim, 9))
    return logistic, logsumexp, P, V


def _reference_sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _reference_softmax(f, P):
    z = f.X @ P / f.temp
    z = z - z.max(axis=0)
    e = np.exp(z)
    return e / e.sum(axis=0)


def _col(A, B):
    return np.einsum("ij,ij->j", A, B)


class TestKernels:
    """The d-dimensional kernels against the plain expressions they replace."""

    @pytest.mark.filterwarnings("error")
    def test_logistic_value_matches_logaddexp(self):
        margins = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                            745.0, -745.0, 1e4, -1e4])
        # One data point x = 1, y = 1: the margin of the point p is p itself.
        f = px.LogisticOracle(np.ones((1, 1)), np.ones(1))
        with np.errstate(all="raise", under="ignore"):
            got = f.value_many(margins[None, :])
        expected = np.logaddexp(0.0, -margins)
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
        assert got[0] == np.log(2.0)

    @pytest.mark.parametrize("which", ["logistic", "logsumexp"])
    def test_hessian_is_the_two_sided_gram_matrix(self, which):
        logistic, logsumexp, P, _ = _kernel_pair()
        f = logistic if which == "logistic" else logsumexp
        for x in P.T:
            H = f.hessian(x)
            if which == "logistic":
                s = _reference_sigmoid(f.y * (f.X @ x))
                expected = (f.X.T * (s * (1.0 - s))) @ f.X / f.n
            else:
                pi = _reference_softmax(f, x)
                mu = f.X.T @ pi
                expected = ((f.X.T * pi) @ f.X - np.outer(mu, mu)) / f.temp
            expected = expected + f.reg * np.eye(f.dim)
            np.testing.assert_allclose(H, expected, rtol=1e-13, atol=0.0)
            assert np.abs(H - H.T).max() <= 1e-15 * np.abs(H).max()

    # The tensor references below are the formulas the batched tensor forms
    # held before ``jet_many`` fused them, with one point
    # per column, as ``jet_many`` forms its weights.

    def test_logistic_tensor_forms_are_the_plain_expressions(self):
        f, _, P, V = _kernel_pair()
        S = _reference_sigmoid(f.y[:, None] * (f.X @ P))
        proj = f.X @ V
        L3 = S * (1.0 - S) * (1.0 - 2.0 * S)
        third = f.X.T @ (L3 * f.y[:, None] * proj**2) / f.n
        L4 = S * (1.0 - S) * (1.0 - 6.0 * S * (1.0 - S))
        fourth = f.X.T @ (L4 * (proj**2 * proj)) / f.n
        _, jet_third, jet_fourth = f.jet_many(P, V)
        np.testing.assert_allclose(jet_third, third, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(jet_fourth, fourth, rtol=1e-13, atol=0.0)

    def test_logsumexp_tensor_forms_are_the_plain_expressions(self):
        _, f, P, V = _kernel_pair()
        Pi = _reference_softmax(f, P)
        S = f.X @ V
        C = S - _col(Pi, S)
        C2 = C**2
        C3 = C2 * C
        var = _col(Pi, C2)
        k3 = _col(Pi, C3)
        beta = 1.0 / f.temp
        third = beta**2 * (f.X.T @ (Pi * (C2 - var)))
        fourth = beta**3 * (f.X.T @ (Pi * (C3 - 3.0 * var * C - k3)))
        _, jet_third, jet_fourth = f.jet_many(P, V)
        np.testing.assert_allclose(jet_third, third, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(jet_fourth, fourth, rtol=1e-13, atol=0.0)

    def test_logsumexp_value_is_the_plain_expression(self):
        _, f, P, _ = _kernel_pair()
        z = P.T @ f.X.T / f.temp
        m = z.max(axis=-1, keepdims=True)
        lse = (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]
        expected = f.temp * lse + 0.5 * f.reg * _col(P, P)
        np.testing.assert_array_equal(f.value_many(P), expected)
