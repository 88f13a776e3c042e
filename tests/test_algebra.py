import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns.algebra import (
    InvalidRankOnePair,
    RankOnePair,
    dense_solve,
    make_rank_one_pair,
    sup_norm,
)
from lattice_akns.errors import DimensionError, SingularMatrix, VariantUnavailable
from reference import laurent_eval


@pytest.mark.parametrize("min_degree", [-1, 0])
def test_laurent_eval_matches_the_explicit_sum(min_degree):
    rng = np.random.default_rng(3)
    shape = (3, 4, 2, 2)  # (K, N, d, d): K coefficients of each of N sites
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for lam in (0.7, -1.3 + 0.4j, 2.0j):
        explicit = sum(lam ** (min_degree + k) * coeffs[k] for k in range(shape[0]))
        got = laurent_eval(coeffs, min_degree, lam)
        assert got.shape == shape[1:]
        assert np.abs(got - explicit).max() <= 1e-14 * np.abs(explicit).max()


def _stack(nan_at=None):
    a = np.full((12, 2, 2), 3 + 4j)
    if nan_at is not None:
        a[nan_at] = np.nan
    return a


class TestSupNorm:
    @pytest.mark.parametrize(
        "args",
        [
            (_stack(nan_at=(5, 1, 0)), [0.5, -2.0], 3.0),
            (_stack(), [0.5, np.nan], 3.0),
            (_stack(), [0.5, -2.0], np.nan),
            (7.0, np.nan),
            (np.nan, 7.0),
        ],
        ids=["stack", "list", "scalar", "after-a-larger-value", "first"],
    )
    def test_nan_in_any_argument_gives_nan(self, args):
        assert np.isnan(sup_norm(*args))

    def test_all_empty_arguments_give_zero(self):
        for args in [(), ([],), ([], np.zeros((0, 2, 2), dtype=complex))]:
            got = sup_norm(*args)
            assert got == 0.0 and type(got) is float

    def test_scalars_lists_and_stacks_mix(self):
        assert sup_norm(_stack(), [1.0, -6.0], 2.5) == 6.0
        assert sup_norm(0.5, _stack(), []) == 5.0
        assert sup_norm([], -0.25) == 0.25
        assert sup_norm(_stack()) == np.abs(_stack()).max()


class TestRankOnePair:
    def test_scalar_triple(self):
        pair = make_rank_one_pair(1, 1, 1.0, "triple")
        assert pair.bhat[0, 0] == 1 and pair.b[0, 0] == 1
        assert pair.triple_residual() == 0

    def test_rectangular_triple(self):
        pair = make_rank_one_pair(1, 2, 2.0, "triple")
        assert np.allclose(pair.bhat, [[1, 0]])
        assert np.allclose(pair.b, [[2], [0]])
        assert np.abs(pair.bhat @ pair.b @ pair.bhat - 2 * pair.bhat).max() == 0

    def test_identity_closure(self):
        pair = make_rank_one_pair(2, 2, 1.0, "identity")
        assert np.allclose(pair.bhat, np.eye(2))
        assert np.allclose(pair.bhat @ pair.b, np.eye(2))
        assert pair.identity_residual() < 1e-12

    def test_identity_requires_square(self):
        with pytest.raises(VariantUnavailable):
            make_rank_one_pair(1, 2, 1.0, "identity")

    def test_zero_kappa_rejected(self):
        with pytest.raises(VariantUnavailable):
            make_rank_one_pair(1, 1, 0.0, "triple")

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=3, allow_nan=False, allow_infinity=False),
    )
    def test_triple_invariants_always_hold(self, n, m, kappa):
        pair = make_rank_one_pair(n, m, kappa, "triple")
        assert pair.triple_residual() < 1e-12

    def test_mismatched_shapes_raise(self):
        with pytest.raises(DimensionError):
            RankOnePair(np.ones((2, 3)), np.ones((2, 3)), 1.0)

    def test_overflowing_closure_is_invalid_without_warnings(self):
        # b @ bhat @ b overflows, so the triple residual reads NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidRankOnePair, match="nan"):
                make_rank_one_pair(1, 1, 1e300, "triple")


def _rcond(a):
    """1 / (|a|_1 |a^-1|_1) from an explicit inverse."""
    return 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))


class TestDenseSolve:
    def test_identity(self):
        rhs = np.arange(6, dtype=float).reshape(3, 2)
        x, rcond = dense_solve(np.eye(3), rhs)
        assert np.allclose(x, rhs)
        assert rcond == 1.0

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        x, rcond = dense_solve(a, np.array([[1.0], [1.0]]))
        assert np.allclose(x, [[0.5], [0.25]])
        assert rcond == _rcond(a) == 0.5

    def test_random_residual(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)) + 5 * np.eye(20)
        rhs = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        x, rcond = dense_solve(a, rhs)
        resid = np.abs(a @ x - rhs).max()
        assert resid < 1e-10 * np.abs(rhs).max()
        assert abs(rcond - _rcond(a)) <= 1e-12 * _rcond(a)

    def test_vector_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 4.0])
        x, rcond = dense_solve(a, b)
        assert x.shape == (2,)
        assert np.allclose(a @ x, b)
        assert abs(rcond - _rcond(a)) <= 1e-14 * _rcond(a)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            dense_solve(a, np.ones(2))

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.diag([1e-20, 1.0])],
        ids=["rank-one-plus-ulp", "tiny-diagonal"],
    )
    def test_near_singular_raises(self, a):
        # not exactly singular: LAPACK alone would return a solution
        assert np.isfinite(np.linalg.solve(a, np.ones(2))).all()
        with pytest.raises(SingularMatrix, match="reciprocal condition"):
            dense_solve(a, np.ones(2))

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            dense_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionError):
            dense_solve(np.eye(2), np.ones(3))
