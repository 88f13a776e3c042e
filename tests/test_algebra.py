import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns.algebra import (
    RankOnePair,
    SpectralMatrixPoly,
    dense_solve,
    laurent_eval,
    make_rank_one_pair,
    poly_mul,
)
from lattice_akns.errors import DimensionError, SingularMatrix, VariantUnavailable


def poly_from(coeffs, min_degree=0):
    return SpectralMatrixPoly(min_degree, np.array(coeffs, dtype=complex))


def eye_poly(degree, dim=2):
    return SpectralMatrixPoly(degree, np.eye(dim)[None])


def value(p, lam):
    return laurent_eval(p.coeffs, p.min_degree, lam)


def test_lambda_identity_square():
    p = eye_poly(1)
    sq = poly_mul(p, p)
    assert sq.min_degree == 2 and sq.max_degree == 2
    assert np.allclose(sq.coeff(2), np.eye(2))


def test_laurent_difference_of_squares():
    p = eye_poly(1) + eye_poly(-1)
    q = eye_poly(1) - eye_poly(-1)
    prod = poly_mul(p, q)
    expect = eye_poly(2) - eye_poly(-2)
    assert prod.distance(expect) < 1e-14


def test_poly_mul_against_interpolation_oracle():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma_plus = np.diag([1.0, 0.0])
    p = poly_from([np.eye(2) + u, sigma_plus])
    q = poly_from([np.eye(2) + v, sigma_plus])
    prod = poly_mul(p, q)
    # evaluate the product pointwise and interpolate degree-2 coefficients
    lams = np.array([0.3, -0.7, 1.1, 2.0, -1.5])
    vander = np.vander(lams, 3, increasing=True)  # columns 1, lam, lam^2
    samples = np.array([(value(p, l) @ value(q, l)).ravel() for l in lams])
    coeffs, *_ = np.linalg.lstsq(vander, samples, rcond=None)
    for k in range(3):
        assert np.abs(coeffs[k].reshape(2, 2) - prod.coeff(k)).max() < 1e-12


def _random_poly(rng, min_degree, n_coeffs, dim=2):
    c = rng.normal(size=(n_coeffs, dim, dim)) + 1j * rng.normal(size=(n_coeffs, dim, dim))
    return SpectralMatrixPoly(min_degree, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(-2, 2), st.integers(-2, 2))
def test_poly_mul_associative_and_distributive(seed, d1, d2):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, d1, 2)
    q = _random_poly(rng, d2, 3)
    r = _random_poly(rng, 0, 2)
    left = poly_mul(poly_mul(p, q), r)
    right = poly_mul(p, poly_mul(q, r))
    assert left.distance(right) < 1e-12
    dist = poly_mul(p, q + r)
    expanded = poly_mul(p, q) + poly_mul(p, r)
    assert dist.distance(expanded) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_evaluation_homomorphism(seed):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, -1, 3)
    q = _random_poly(rng, 0, 2)
    prod = poly_mul(p, q)
    for _ in range(20):
        lam = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        direct = value(p, lam) @ value(q, lam)
        assert np.abs(value(prod, lam) - direct).max() < 1e-10


def test_distance_counts_differences_below_the_trim_tolerance():
    p = poly_from([np.eye(2), [[0.5, 0.0], [2.0, 1.0]]], min_degree=-1)
    c = p.coeffs.copy()
    c[1, 0, 1] = 1e-15
    # the same degrees, one coefficient off by 1e-15
    assert p.distance(SpectralMatrixPoly(-1, c)) == 1e-15
    # an extra degree whose only coefficient is 1e-15, on either side
    longer = poly_from([*p.coeffs, 1e-15 * np.eye(2)], min_degree=-1)
    assert p.distance(longer) == 1e-15
    assert longer.distance(p) == 1e-15
    assert p.distance(p) == 0


def test_normalization_trims_noise():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = np.eye(2)
    c[2] = 1e-14 * np.ones((2, 2))
    p = SpectralMatrixPoly(0, c).normalized()
    assert p.min_degree == 1 and p.max_degree == 1


def test_dimension_mismatch_raises():
    p = eye_poly(0, dim=2)
    q = eye_poly(0, dim=3)
    with pytest.raises(DimensionError):
        poly_mul(p, q)


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

    def test_identity_closure_with_rotation(self):
        th = 0.3
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        pair = make_rank_one_pair(2, 2, 2.0 + 1j, "identity", unitary=u)
        assert pair.identity_residual() < 1e-12
        assert pair.triple_residual() < 1e-12

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


class TestDenseSolve:
    def test_identity(self):
        rhs = np.arange(6, dtype=float).reshape(3, 2)
        assert np.allclose(dense_solve(np.eye(3), rhs), rhs)

    def test_diagonal(self):
        x = dense_solve(np.diag([2.0, 4.0]), np.array([[1.0], [1.0]]))
        assert np.allclose(x, [[0.5], [0.25]])

    def test_random_residual(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)) + 5 * np.eye(20)
        rhs = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        x = dense_solve(a, rhs)
        resid = np.abs(a @ x - rhs).max()
        assert resid < 1e-10 * np.abs(rhs).max()

    def test_vector_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 4.0])
        x = dense_solve(a, b)
        assert x.shape == (2,)
        assert np.allclose(a @ x, b)

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
