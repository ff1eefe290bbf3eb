from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perturbex as px
from perturbex.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric


class TestSpdFromDense:
    def test_eigendecomposition_of_frozen_matrix(self):
        # [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        op = px.spd_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert op.eigenvalues == pytest.approx([3.0, 1.0])
        assert op.condition_number == pytest.approx(3.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            px.spd_from_dense(np.array([[1.0, 0.5], [0.0, 1.0]]))

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
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestScaleNearOverflow:
    """The round-trip check works in units of the largest entry."""

    def _huge(self, rng):
        return 1e300 * px.random_spd(rng, 6, cond=10.0).matrix

    def test_factors_without_warnings(self, rng):
        M = self._huge(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = px.spd_from_dense(M)
        assert op.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(M / 1e300)[-1] * 1e300)

    def test_corrupted_eigenbasis_still_raises(self, rng, monkeypatch):
        M = self._huge(rng)
        eigh = np.linalg.eigh

        def corrupted(A):
            vals, vecs = eigh(A)
            vecs = vecs.copy()
            vecs[:, [0, 1]] = vecs[:, [1, 0]]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="round-trip"):
                px.spd_from_dense(M)


class TestShifted:
    def test_matches_refactoring(self, rng):
        F = px.random_spd(rng, 5, cond=20.0)
        shifted = F.shifted(0.3)
        direct = px.spd_from_dense(F.matrix + 0.3 * np.eye(5))
        assert shifted.eigenvectors is F.eigenvectors
        np.testing.assert_allclose(shifted.eigenvalues, direct.eigenvalues, rtol=1e-13)
        np.testing.assert_array_equal(shifted.matrix, F.matrix + 0.3 * np.eye(5))
        v = rng.standard_normal(5)
        np.testing.assert_allclose(
            shifted.apply_power(-1.0, v), direct.apply_power(-1.0, v), rtol=1e-12
        )

    def test_floor_check_runs(self):
        F = px.spd_from_dense(np.diag([2.0, 1.0]))
        with pytest.raises(NotPositiveDefinite, match="below floor"):
            F.shifted(-1.0)

    def test_round_trip_check_runs(self):
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        bad = px.SpdOperator(
            matrix=np.diag([3.0, 1.0]), eigenvalues=np.array([3.0, 1.0]), eigenvectors=vecs
        )
        with pytest.raises(NotPositiveDefinite, match="round-trip"):
            bad.shifted(0.5)


class TestPowers:
    def test_diagonal_square_root(self):
        op = px.spd_from_dense(np.diag([4.0, 9.0]))
        half = px.spd_power_operator(op, 0.5)
        np.testing.assert_allclose(half.matrix, np.diag([2.0, 3.0]), atol=1e-14)

    def test_inverse_application(self):
        op = px.spd_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(
            op.apply(op.apply_power(-1.0, v)), v, atol=1e-13
        )

    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0, 2.0])
    def test_power_matches_dense_eig(self, t, rng):
        M = px.random_spd(rng, 4, cond=30.0)
        powered = px.spd_power_operator(M, t)
        w, V = np.linalg.eigh(M.matrix)
        expected = (V * w**t) @ V.T
        np.testing.assert_allclose(powered.matrix, expected, atol=1e-12)

    def test_identity_power_is_identity(self):
        op = px.spd_from_dense(np.eye(3))
        assert np.array_equal(px.spd_power_operator(op, -0.5).matrix, np.eye(3))

    def test_power_below_the_floor_raises(self):
        """``M^2`` at condition 1e12 fails the floor that ``spd_from_dense`` applies."""
        M = np.diag(np.geomspace(1.0, 1e-6, 5))
        op = px.spd_from_dense(M)
        with pytest.raises(NotPositiveDefinite, match="floor"):
            px.spd_from_dense(M @ M)
        with pytest.raises(NotPositiveDefinite, match="floor"):
            px.spd_power_operator(op, 2.0)
        assert px.spd_power_operator(op, 0.5).condition_number == pytest.approx(1e3)


class TestKappaBetween:
    """kappa is the smallest c with D^2 <= c^2 F."""

    def test_zero_metric(self):
        F = px.spd_from_dense(np.eye(2))
        assert px.kappa_between(np.zeros((2, 2)), F) == 0.0

    def test_metric_equals_sqrt_curvature(self):
        F = px.spd_from_dense(np.array([[3.0, 1.0], [1.0, 2.0]]))
        D = px.spd_power_operator(F, 0.5)
        assert px.kappa_between(D, F) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 0.25, 1.0, 1.5])
    def test_power_metric_kept_from_eigenvalues(self, rng, t):
        """A power of ``F`` finds its kappa kept; the eigensolve form agrees."""
        F = px.random_spd(rng, 6, cond=4.0)
        D = px.spd_power_operator(F, t)
        kept = px.kappa_between(D, F)
        assert kept == np.sqrt((F.eigenvalues ** (2.0 * t - 1.0)).max())
        assert kept == pytest.approx(px.kappa_between(D.matrix, F), rel=1e-14)

    def test_identity_metric_against_diagonal(self):
        # D = I, F = diag(4, 9): D^2 <= c^2 F first holds at c^2 = 1/4.
        F = px.spd_from_dense(np.diag([4.0, 9.0]))
        assert px.kappa_between(np.eye(2), F) == pytest.approx(0.5, abs=1e-12)

    def test_scaling_is_linear_in_metric(self, rng):
        F = px.random_spd(rng, 3, cond=5.0)
        D = px.random_spd(rng, 3, cond=3.0)
        k1 = px.kappa_between(D, F)
        k2 = px.kappa_between(px.spd_from_dense(2.0 * D.matrix), F)
        assert k2 == pytest.approx(2.0 * k1, rel=1e-12)


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
        D = px.spd_from_dense(np.diag([2.0, 3.0]))
        assert px.weighted_norm(D, [1.0, 0.0]) == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_power_roundtrip_property(seed, dim):
    """F^{1/2} composed with F^{-1/2} is the identity on random vectors."""
    rng = np.random.default_rng(seed)
    F = px.random_spd(rng, dim, cond=50.0)
    v = rng.standard_normal(dim)
    half = F.apply_power(0.5, v)
    back = F.apply_power(-0.5, half)
    np.testing.assert_allclose(back, v, atol=1e-10 * (1 + np.linalg.norm(v)))
