from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perturbex as px
from perturbex import constants, linalg
from perturbex.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric


class TestSpdFromDense:
    def test_cholesky_factor_of_frozen_matrix(self):
        # [[2, 1], [1, 2]] = L L' with L = [[sqrt 2, 0], [1/sqrt 2, sqrt 3/2]].
        op = px.spd_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[np.sqrt(2.0), 0.0], [np.sqrt(0.5), np.sqrt(1.5)]])
        np.testing.assert_allclose(op.L, expected, rtol=1e-15)
        np.testing.assert_allclose(op.L_inv @ op.L, np.eye(2), atol=1e-15)
        assert op.L_inv[0, 1] == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            px.spd_from_dense(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_quadratic_rejects_asymmetric(self):
        """A quadratic's array is held to the same symmetry rule, not reported as indefinite."""
        with pytest.raises(NotSymmetric, match="asymmetry"):
            px.QuadraticOracle(np.triu(np.ones((3, 3))))

    def test_kappa_rejects_an_asymmetric_metric(self):
        """An asymmetric array metric raises; it is not symmetrized in silence."""
        with pytest.raises(NotSymmetric, match="asymmetry"):
            px.kappa_between(np.triu(np.ones((3, 3))), px.spd_from_dense(np.eye(3)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            px.spd_from_dense(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            px.spd_from_dense(np.diag([1.0, 0.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            px.spd_from_dense(np.ones((2, 3)))

    def test_operator_is_write_protected(self):
        op = px.spd_from_dense(np.eye(2))
        for arr in (op.matrix, op.L, op.L_inv):
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0


def _cholesky_factor(rng, dim: int, cond: float) -> np.ndarray:
    M = px.random_spd(rng, dim, cond=cond).matrix
    return np.linalg.cholesky(M / np.abs(M).max())


class TestTriangularInverse:
    """``_tril_inv`` inverts a Cholesky factor by 2x2 blocks above 64 rows."""

    # Higham (Accuracy and Stability of Numerical Algorithms, 2002, ch. 14)
    # bounds the left residual of a triangular inverse componentwise,
    # |X L - I| <= gamma_d |X| |L| with gamma_d = d u / (1 - d u).  A block
    # adds two products, each accurate to gamma_d in the same terms, so the
    # block inverse is held to the sum of three such bounds, rounded up to 4.
    RESIDUAL_CONSTANT = 4.0
    DIMS = [65, 127, 128, 200, 257]

    @pytest.mark.parametrize("dim", [1, 2, 17, 63, 64])
    def test_small_factor_is_one_leaf(self, rng, dim):
        L = _cholesky_factor(rng, dim, 1e3)
        np.testing.assert_array_equal(linalg._tril_inv(L), np.tril(np.linalg.inv(L)))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("cond", [10.0, 1e3])
    def test_block_inverse_componentwise_residual(self, rng, dim, cond):
        L = _cholesky_factor(rng, dim, cond)
        R = linalg._tril_inv(L)
        assert not np.triu(R, 1).any()
        bound = self.RESIDUAL_CONSTANT * dim * np.finfo(float).eps / 2 * (np.abs(R) @ np.abs(L))
        assert np.all(np.abs(R @ L - np.eye(dim)) <= bound)

    @pytest.mark.parametrize("dim", DIMS)
    def test_ill_conditioned_block_inverse_normwise_residual(self, rng, dim):
        """The leaves come from ``np.linalg.inv``, an LU with partial pivoting,
        which is bounded only normwise: ``||X L - I|| <= c d u kappa(L)``.
        Componentwise, a cond-1e6 leaf alone (the whole inverse at d <= 64)
        can exceed the bound above by 70x, so an ill-conditioned factor is
        held to the normwise bound with the same constant."""
        L = _cholesky_factor(rng, dim, 1e6)
        R = linalg._tril_inv(L)
        assert not np.triu(R, 1).any()
        kappa = np.linalg.norm(L, np.inf) * np.linalg.norm(R, np.inf)
        residual = np.linalg.norm(R @ L - np.eye(dim), np.inf)
        assert residual <= self.RESIDUAL_CONSTANT * dim * np.finfo(float).eps / 2 * kappa


class TestScaleNearOverflow:
    """The floor and the factor work in units of the largest entry."""

    def _huge(self, rng):
        return 1e300 * px.random_spd(rng, 6, cond=10.0).matrix

    def test_factors_without_warnings(self, rng):
        M = self._huge(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = px.spd_from_dense(M)
            unit = px.spd_from_dense(M / 1e300)
            v = rng.standard_normal(6)
            assert op.norm(v) == pytest.approx(1e150 * unit.norm(v), rel=1e-13)
            assert op.dual_norm(v) == pytest.approx(1e-150 * unit.dual_norm(v), rel=1e-13)
            np.testing.assert_allclose(op.solve(v), 1e-300 * unit.solve(v), rtol=1e-12)


def _spd_with_ratio(rng, dim: int, ratio: float) -> np.ndarray:
    """A dense symmetric matrix with eigenvalues 1 and ``ratio`` among others between."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.concatenate([[1.0, ratio], rng.uniform(max(ratio, 0.0), 1.0, dim - 2)])
    M = (Q * vals) @ Q.T
    return 0.5 * (M + M.T)


class TestFloor:
    """The Cholesky floor rejects every matrix the eigenvalue floor rejects."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=-1.0, max_value=0.99),
        st.integers(min_value=-200, max_value=200),
    )
    def test_every_ratio_below_the_floor_raises(self, seed, dim, fraction, exponent):
        """``lambda_min / lambda_max`` below ``SPD_EIG_FLOOR``, at any scale, raises."""
        rng = np.random.default_rng(seed)
        M = 10.0**exponent * _spd_with_ratio(rng, dim, fraction * constants.SPD_EIG_FLOOR)
        with pytest.raises(NotPositiveDefinite, match="below floor"):
            px.spd_from_dense(M)

    @pytest.mark.parametrize("ratio, accepted", [(2e-10, True), (5e-11, False)])
    def test_diagonal_floor_is_exact(self, ratio, accepted):
        M = np.diag([1.0, 0.5, ratio])
        if accepted:
            assert px.spd_from_dense(M).dim == 3
        else:
            with pytest.raises(NotPositiveDefinite, match="below floor"):
                px.spd_from_dense(M)


class TestPowers:
    """The factor gives the square root and the inverse in the Gram sense:
    ``L L' = M`` and ``L^{-T} L^{-1} = M^{-1}``."""

    def test_diagonal_square_root(self):
        op = px.spd_from_dense(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(op.L, np.diag([2.0, 3.0]))
        np.testing.assert_allclose(op.L_inv, np.diag([0.5, 1.0 / 3.0]), rtol=1e-15)

    def test_inverse_application(self):
        op = px.spd_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(op.apply(op.solve(v)), v, atol=1e-13)

    def test_identity_power_is_identity(self):
        op = px.spd_from_dense(np.eye(3))
        assert np.array_equal(op.L, np.eye(3)) and np.array_equal(op.L_inv, np.eye(3))

    def test_power_below_the_floor_raises(self):
        """``M^2`` at condition 1e12 fails the floor; ``M`` at 1e6 passes it."""
        M = np.diag(np.geomspace(1.0, 1e-6, 5))
        assert px.spd_from_dense(M).dim == 5
        with pytest.raises(NotPositiveDefinite, match="floor"):
            px.spd_from_dense(M @ M)


class TestKappaBetween:
    """kappa is the smallest c with D^2 <= c^2 F, for the metric Gram M = D^2."""

    def test_zero_metric(self):
        F = px.spd_from_dense(np.eye(2))
        assert px.kappa_between(np.zeros((2, 2)), F) == 0.0

    def test_metric_equals_sqrt_curvature(self, monkeypatch):
        """``D = F^{1/2}`` has the Gram ``F``: kappa is exactly 1, with no eigensolve."""
        F = px.spd_from_dense(np.array([[3.0, 1.0], [1.0, 2.0]]))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert px.kappa_between(F, F) == 1.0
        assert px.kappa_between(px.spd_from_dense(F.matrix.copy()), F) == 1.0
        assert px.kappa_between(F.matrix.copy(), F) == 1.0

    @pytest.mark.parametrize("t", [0.5, 0.25, 1.0, 1.5])
    def test_power_metric_kept_from_eigenvalues(self, rng, t):
        """A power ``D = F^t`` has kappa ``sqrt(max lambda^(2t - 1))`` from ``F``'s eigenvalues."""
        F = px.random_spd(rng, 6, cond=4.0)
        w, V = np.linalg.eigh(F.matrix)
        M = (V * w ** (2.0 * t)) @ V.T
        kept = float(np.sqrt((w ** (2.0 * t - 1.0)).max()))
        assert px.kappa_between(0.5 * (M + M.T), F) == pytest.approx(kept, rel=1e-12)

    def test_identity_metric_against_diagonal(self):
        # D = I, F = diag(4, 9): D^2 <= c^2 F first holds at c^2 = 1/4.
        F = px.spd_from_dense(np.diag([4.0, 9.0]))
        assert px.kappa_between(np.eye(2), F) == pytest.approx(0.5, abs=1e-12)

    def test_scaling_is_linear_in_metric(self, rng):
        F = px.random_spd(rng, 3, cond=5.0)
        M = px.random_spd(rng, 3, cond=3.0)
        k1 = px.kappa_between(M, F)
        k2 = px.kappa_between(px.spd_from_dense(4.0 * M.matrix), F)
        assert k2 == pytest.approx(2.0 * k1, rel=1e-12)

    def test_rejects_a_metric_of_another_dimension(self):
        F = px.spd_from_dense(np.eye(2))
        with pytest.raises(DimensionMismatch):
            px.kappa_between(np.eye(3), F)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    def test_is_the_smallest_dominating_constant(self, seed, dim):
        """``kappa^2 F - D^2`` is PSD up to rounding, and with ``(1 - 1e-6) kappa`` it is not.

        This is the domination every order's radii assume of the computed kappa.
        """
        rng = np.random.default_rng(seed)
        F = px.random_spd(rng, dim, cond=float(rng.uniform(1.0, 100.0)))
        M = px.random_spd(rng, dim, cond=float(rng.uniform(1.0, 100.0)))
        kappa = px.kappa_between(M, F)
        rounding = 1e-12 * kappa**2 * np.abs(F.matrix).max()

        def lowest(c: float) -> float:
            return float(np.linalg.eigvalsh(c**2 * F.matrix - M.matrix)[0])

        assert lowest(kappa) >= -rounding
        assert lowest((1.0 - 1e-6) * kappa) < -rounding


class TestVectors:
    def test_as_vector_accepts_lists(self):
        np.testing.assert_array_equal(px.as_vector([1, 2], 2), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [[1.0], [[1.0, 2.0]]])
    def test_as_vector_rejects_bad_shape(self, bad):
        with pytest.raises(DimensionMismatch):
            px.as_vector(bad, 2)

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            px.as_vector([np.nan, 0.0], 2)

    def test_as_matrix_keeps_columns(self):
        M = px.as_matrix([[1, 2, 3], [4, 5, 6]], 2)
        assert M.dtype == float
        np.testing.assert_array_equal(M[:, 1], [2.0, 5.0])

    def test_as_matrix_rejects_a_nan_column(self):
        M = np.ones((3, 4))
        M[:, 2] = np.nan
        with pytest.raises(ValueError):
            px.as_matrix(M, 3)

    @pytest.mark.parametrize("bad", [np.ones((2, 4)), np.ones(3), np.ones((3, 4, 1))])
    def test_as_matrix_rejects_bad_shape(self, bad):
        with pytest.raises(DimensionMismatch):
            px.as_matrix(bad, 3)

    def test_weighted_norm(self):
        # D = diag(2, 3) is held as its Gram diag(4, 9); its norm is ||D v||.
        M = px.spd_from_dense(np.diag([4.0, 9.0]))
        assert M.norm([1.0, 0.0]) == 2.0
        assert M.norm([0.0, 1.0]) == 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_power_roundtrip_property(seed, dim):
    """``L'`` composed with ``L^{-T}``, and ``F`` with ``F^{-1}``, are the identity."""
    rng = np.random.default_rng(seed)
    F = px.random_spd(rng, dim, cond=50.0)
    v = rng.standard_normal(dim)
    atol = 1e-10 * (1 + np.linalg.norm(v))
    np.testing.assert_allclose(F.L_inv.T @ (F.L.T @ v), v, atol=atol)
    np.testing.assert_allclose(F.solve(F.apply(v)), v, atol=atol)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=1.0, max_value=1e6),
)
def test_operations_match_dense_numpy(seed, dim, cond):
    """``solve``, ``norm``, ``dual_norm`` and ``L^{-T} L^{-1}`` against dense NumPy."""
    rng = np.random.default_rng(seed)
    F = px.random_spd(rng, dim, cond=cond)
    inverse = np.linalg.inv(F.matrix)
    v = rng.standard_normal(dim)
    rtol = 1e-15 * cond * dim * 10
    np.testing.assert_allclose(
        F.solve(v), inverse @ v, rtol=rtol, atol=rtol * np.linalg.norm(inverse @ v)
    )
    assert F.norm(v) == pytest.approx(np.sqrt(v @ F.matrix @ v), rel=rtol)
    assert F.dual_norm(v) == pytest.approx(np.sqrt(v @ inverse @ v), rel=rtol)
    np.testing.assert_allclose(
        F.L_inv.T @ F.L_inv, inverse, rtol=rtol, atol=rtol * np.abs(inverse).max()
    )
    np.testing.assert_allclose(F.L @ F.L.T, F.matrix, atol=1e-15 * dim)
