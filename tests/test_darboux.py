import dataclasses

import numpy as np
import pytest

from lattice_akns import darboux as dx
from lattice_akns import dnls
from lattice_akns.algebra import make_rank_one_pair
from lattice_akns.errors import (
    DegenerateBianchi,
    DegenerateMode,
    InconsistentDressing,
    PeriodicityViolation,
    SingularSoliton,
)

N_SITES = 12
XI_UNIT = np.exp(2j * np.pi / N_SITES)


class TestLinearSolution:
    def test_dispersion_trivial_base(self):
        for alpha in (1, 2, 3):
            assert dx.dispersion(1.0, alpha, dx.FORWARD) == 0

    def test_dispersion_forward_second_flow(self):
        assert dx.dispersion(2.0, 2, dx.FORWARD) == 1.0

    def test_dispersion_symmetric(self):
        assert abs(dx.dispersion(2.0, 1, dx.SYMMETRIC) - 0.5) < 1e-15

    def test_zero_base_rejected(self):
        with pytest.raises(DegenerateMode):
            dx.build_linear_solution([(1.0, 0.0)], 1)

    @pytest.mark.parametrize("scheme,alpha", [(dx.FORWARD, 1), (dx.FORWARD, 2), (dx.FORWARD, 3)])
    def test_forward_modes_solve_their_lattice_equation(self, scheme, alpha):
        import math

        lin = dx.build_linear_solution([(0.7, 1.4 + 0.2j), (1.2, 0.8)], alpha, scheme)
        rng = np.random.default_rng(0)
        for _ in range(6):
            n, t = int(rng.integers(-5, 15)), rng.uniform(0, 2)
            lhs = lin.derivative(n, t)
            rhs = sum(
                (-1) ** (alpha - k) * math.comb(alpha, k) * lin.evaluate(n + k, t)
                for k in range(alpha + 1)
            )
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_symmetric_modes_solve_their_lattice_equation(self):
        lin = dx.build_linear_solution([(1.0, 2.0), (0.4, 1.5)], 1, dx.SYMMETRIC)
        for n, t in [(0, 0.3), (4, 1.1), (-3, 0.7)]:
            lhs = lin.derivative(n, t)
            rhs = lin.evaluate(n + 1, t) - 2 * lin.evaluate(n, t) + lin.evaluate(n - 1, t)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestClosedFormSeeds:
    def test_d_recursion_example(self):
        # d1 = 1, xi = 2, kappa = 1: one recursion step gives 1/3
        d, _, _ = dx._dd_closed(2.0, 1.0, 1.0, np.array([1, 2]), 0.0, 0.0)
        assert abs(d[0] - 1.0) < 1e-15
        assert abs(d[1] - 1.0 / 3.0) < 1e-15
        assert abs(d[1] - d[0] / (2.0 + 1.0 * d[0])) < 1e-15

    def test_a_recursion_example(self):
        # a1 = 1/2, xi = 2, kappa = 1: a2 = 2
        a, _, _ = dx._asol_closed(2.0, 1.0, 0.5, np.array([1, 2]), 0.0, 0.0)
        assert abs(a[0] - 0.5) < 1e-15
        assert abs(a[1] - 2.0) < 1e-15
        xitil, kaptil = 0.5, -0.5
        assert abs(a[1] - a[0] / (kaptil * a[0] + xitil)) < 1e-14

    def test_zero_seeds_give_zero_state(self):
        params = dx.zero_seed_params(XI_UNIT, 1.0)
        st = dx.soliton_type1(params, N_SITES)
        assert np.abs(st.x).max() == 0 and np.abs(st.y).max() == 0


class TestType1:
    def test_periodicity_enforced(self):
        params = dx.type1_params(1.3 + 0.2j, 1.0, 0.1, 0.7)
        with pytest.raises(PeriodicityViolation):
            dx.soliton_type1(params, N_SITES, require_periodic=True)

    def test_periodic_state_wraps(self):
        params = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7)
        (x, y, _, _), _ = dx.type1_scalars(params, np.array([1, N_SITES + 1]), 0.4)
        assert abs(x[1] - x[0]) < 1e-12
        assert abs(y[1] - y[0]) < 1e-12

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_eom_residual(self, alpha):
        params = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7, alpha=alpha)

        def fields(n, t):
            (x, y, _, _), (dxv, dyv, _, _) = dx.type1_scalars(params, n, t)
            return (x, y), (dxv, dyv)

        resid = dx.scalar_eom_residual(fields, 1.0, alpha, np.arange(1, N_SITES + 1), 0.3)
        assert resid < 1e-8

    def test_eom_residual_generic_base_window(self):
        params = dx.type1_params(1.4 + 0.3j, 0.8, 0.05 + 0.02j, 1.1, alpha=2)

        def fields(n, t):
            (x, y, _, _), (dxv, dyv, _, _) = dx.type1_scalars(params, n, t)
            return (x, y), (dxv, dyv)

        resid = dx.scalar_eom_residual(fields, 0.8, 2, np.arange(1, 9), 0.2)
        assert resid < 1e-8

    def test_block_state_zero_curvature(self):
        pair = make_rank_one_pair(1, 2, 0.8, "triple")
        params = dx.type1_params(XI_UNIT, 0.8, 0.1 + 0.05j, 0.6, pair=pair)
        st = dx.soliton_type1(params, N_SITES, 0.1, require_periodic=True)
        assert st.n_dim == 1 and st.m_dim == 2
        assert max(dnls.zero_curvature_residual(st, 1, [0.5, 1.4 + 0.3j])) < 1e-11

    def test_darboux_identity(self):
        params = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7)
        resid = dx.darboux_identity_residual(params, N_SITES, 0.15, [0.5, 1.0, 2.0, 1j, 1 + 1j])
        assert resid < 1e-9

    def test_darboux_identity_is_nan_on_non_finite_fields(self):
        # xi^(n-1) leaves float range from site 103: 98 of the 200 x values are not finite
        params = dx.type1_params(1000, 1, 0.1, 0.7)
        assert np.isnan(dx.darboux_identity_residual(params, 200, 0, [0.5, 1.5]))

    def test_non_finite_denominator_is_singular(self):
        # 20^(n-1) leaves float range at site 237; the scan reports the
        # non-finite x denominator there instead of building a NaN state
        params = dx.type1_params(20.0, 1.0, 0.1, 0.7)
        with pytest.raises(SingularSoliton, match="x denominator is not finite at site 237"):
            dx.soliton_type1(params, 250)


class TestType2:
    def test_parameter_definitions(self):
        params = dx.type2_params(0.5, 1.0, 0.1, 0.9)
        assert params.eta == 1.5 and params.epsilon == 0.5
        assert abs(params.epsilon / params.eta - 1.0 / 3.0) < 1e-15
        assert params.zeta == 0.25

    def test_degenerate_shift_rejected(self):
        with pytest.raises(DegenerateMode):
            dx.type2_params(0.0, 1.0, 0.1, 0.9)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_eom_residual(self, alpha):
        params = dx.type2_params(0.4, 1.0, 0.15 + 0.1j, 0.9, alpha=alpha)

        def fields(n, t):
            (x, y, _, _), (dxv, dyv, _, _) = dx.type2_scalars(params, n, t)
            return (x, y), (dxv, dyv)

        resid = dx.scalar_eom_residual(fields, 1.0, alpha, np.arange(1, 9), 0.25)
        assert resid < 1e-8

    def test_overflowing_closed_forms_fail_the_constraint_check(self):
        # (1 +- 1e150)**n overflows from n = 3: the sampled constraint
        # residual is NaN, which must fail the check rather than pass it
        params = dx.type2_params(1e150, 1.0, 0.15 + 0.1j, 0.9)
        with pytest.raises(InconsistentDressing, match="residual nan"):
            dx.soliton_type2(params, 12)

    @staticmethod
    def two_exponential_xy(params, n, t):
        """Family-2 x and y written as ratios of an eta- and an eps-geometric
        term, x = (xibar - 1) x1 / (p h - r k), with exact time derivatives."""
        eta, eps, kappa = params.eta, params.epsilon, params.kappa
        xibar, kbar = eps / eta, kappa / eta
        lam, lamhat = params.c**params.alpha, (-params.c) ** params.alpha

        def ratio(num, seed, h, k, rate_h, rate_k):
            p, r = xibar - 1 + kbar * seed, kbar * seed
            den = p * h - r * k
            val = num / den
            return val, -val * (p * rate_h * h - r * rate_k * k) / den  # den**2 would overflow first

        x = ratio(
            (xibar - 1) * params.x1, params.d1,
            eta ** (1 - n) * np.exp(-lam * t), eps ** (1 - n) * np.exp(-lamhat * t), -lam, -lamhat,
        )
        y = ratio(
            eta * (1 / xibar - 1) * (1 + kbar * params.a1 / xibar) * params.y1, params.a1,
            eta**n * np.exp(lam * t), eps**n * np.exp(lamhat * t), lam, lamhat,
        )
        return x, y

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.4, 0.3 + 0.2j, -0.6])
    def test_fields_match_two_exponential_ratios(self, c, alpha):
        params = dx.type2_params(c, 0.7, 0.15 + 0.1j, 0.9, alpha=alpha)
        n = np.arange(-5, 40)
        (x, y, _, _), (dxv, dyv, _, _) = dx.type2_scalars(params, n, 0.37)
        (x_ref, dx_ref), (y_ref, dy_ref) = self.two_exponential_xy(params, n.astype(float), 0.37)
        for got, ref in [(x, x_ref), (dxv, dx_ref), (y, y_ref), (dyv, dy_ref)]:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_fields_match_two_exponential_ratios_out_to_float_range(self, alpha):
        # xibar = 19: xibar^(n-1) leaves float range from n = 242, while the
        # eta- and eps-terms 10^(n-1) and 1.9^(1-n) stay inside it to n = 300
        params = dx.type2_params(-0.9, 0.7, 0.15 + 0.1j, 0.9, alpha=alpha)
        n = np.arange(-5, 301)
        (x, y, _, _), (dxv, dyv, _, _) = dx.type2_scalars(params, n, 0.37)
        (x_ref, dx_ref), (y_ref, dy_ref) = self.two_exponential_xy(params, n.astype(float), 0.37)
        for got, ref in [(x, x_ref), (dxv, dx_ref), (y, y_ref), (dyv, dy_ref)]:
            assert np.isfinite(ref).all()
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_large_rate_time_builds_a_finite_state(self):
        # Re((-c) - c) t = 800: exp of the barred rate leaves float range,
        # while the eta- and eps-terms carry exp(-+400) and stay inside it
        params = dx.type2_params(-0.01 + 0.3j, 0.7, 0.15 + 0.1j, 0.9)
        t, n = 40000.0, np.arange(1, 251)
        st = dx.soliton_type2(params, 250, t)
        assert np.isfinite(st.x).all() and np.isfinite(st.y).all()
        assert np.all(st.x != 0) and np.all(st.y != 0)
        (x, y, _, _), _ = dx.type2_scalars(params, n, t)
        (x_ref, _), (y_ref, _) = self.two_exponential_xy(params, n.astype(float), t)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0)

    def test_unshifted_blocks_sum_to_zero(self):
        params = dx.type2_params(0.3 + 0.2j, 0.7, 0.1, 1.2)
        (x, y, a, d), _ = dx.type2_scalars(params, np.arange(1, 9), 0.15)
        assert np.abs(a + d).max() < 1e-12
        # product relation ties the sequences together
        (_, _, a_next, _), _ = dx.type2_scalars(params, np.arange(2, 10), 0.15)
        assert np.abs((a_next - a) - params.kappa * x * y).max() < 1e-12


class TestTodaGeneral:
    def test_constant_data_gives_fixed_point(self):
        lin = dx.build_linear_solution([(3.0, 1.0)], 1, dx.FORWARD)
        st = dx.toda_general_solution(lin, 1.0, 0.8, 8, t=0.7)
        assert np.abs(st.x).max() < 1e-14
        # y scalar is constant y1; the stored block carries the pair's b
        assert np.allclose(st.y[:, 0, 0], 0.8)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_eom_residual_three_modes(self, alpha):
        lin = dx.build_linear_solution(
            [(1.5, 1.0), (0.4, 1.2), (0.2, 0.7 + 0.1j)], alpha, dx.FORWARD
        )
        resid = dx.scalar_eom_residual(
            lambda n, t: dx.toda_scalars(lin, 1.0, 0.8, n, t), 1.0, alpha, np.arange(1, 11), 0.2
        )
        assert resid < 1e-8

    def test_reduces_to_type1(self):
        xi, kappa, d1, x1 = 1.3 + 0.25j, 0.9, 0.12 + 0.05j, 0.8
        params = dx.type1_params(xi, kappa, d1, x1)
        lin = dx.build_linear_solution(
            [(-kappa * d1, 1.0), (xi - 1 + kappa * d1, xi)], 1, dx.FORWARD
        )
        ns = np.arange(1, 9)
        (xt, yt), _ = dx.toda_scalars(lin, kappa, 1.0, ns, 0.27)
        (x_cf, y_cf, _, _), _ = dx.type1_scalars(params, ns, 0.27)
        rx = xt / x_cf
        ry = yt / y_cf
        assert np.abs(rx - rx[0]).max() < 1e-9
        assert np.abs(ry - ry[0]).max() < 1e-9
        # the reciprocal constants cancel in the product
        assert np.abs(xt * yt - x_cf * y_cf).max() < 1e-12

    def test_reduces_to_type2(self):
        params = dx.type2_params(0.4, 1.0, 0.15 + 0.1j, 0.9)
        eta, eps = params.eta, params.epsilon
        kbar = params.kappa / eta
        lin = dx.build_linear_solution(
            [(-kbar * params.d1, eta), ((eps / eta) - 1 + kbar * params.d1, eps)], 1, dx.FORWARD
        )
        ns = np.arange(1, 9)
        (xt, yt), _ = dx.toda_scalars(lin, params.kappa, 1.0, ns, 0.2)
        (x_cf, y_cf, _, _), _ = dx.type2_scalars(params, ns, 0.2)
        rx = xt / x_cf
        ry = yt / y_cf
        assert np.abs(rx - rx[0]).max() < 1e-9
        assert np.abs(ry - ry[0]).max() < 1e-9

    def test_vanishing_linear_solution_rejected(self):
        lin = dx.build_linear_solution([(1.0, 1.0), (-1.0, 1.1)], 1, dx.FORWARD)
        with pytest.raises(SingularSoliton):
            dx.toda_general_solution(lin, 1.0, 1.0, 8)  # crosses zero at site 1


class TestBianchi:
    P1 = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7)
    P2 = dx.type1_params(np.exp(4j * np.pi / N_SITES), 1.0, 0.15 + 0.05j, 0.9)

    def test_argument_order_invariance(self):
        st12 = dx.bianchi_two_soliton(self.P1, self.P2, N_SITES, 0.2)
        st21 = dx.bianchi_two_soliton(self.P2, self.P1, N_SITES, 0.2)
        assert np.abs(st12.x - st21.x).max() < 1e-10
        assert np.abs(st12.y - st21.y).max() < 1e-10

    def test_collapse_to_single_soliton(self):
        pz = dx.zero_seed_params(np.exp(4j * np.pi / N_SITES), 1.0)
        st = dx.bianchi_two_soliton(self.P1, pz, N_SITES, 0.2)
        ref = dx.soliton_type1(self.P1, N_SITES, 0.2, require_periodic=True)
        assert np.abs(st.x - ref.x).max() < 1e-10
        assert np.abs(st.y - ref.y).max() < 1e-10

    def test_first_flow_eom(self):
        def fields(n, t):
            x_here, _, _ = dx.bianchi_scalars(self.P1, self.P2, np.asarray(n), t)
            _, ym_up, _ = dx.bianchi_scalars(self.P1, self.P2, np.asarray(n) + 1, t)
            return (x_here[0], ym_up[0]), (x_here[1], ym_up[1])

        resid = dx.scalar_eom_residual(fields, 1.0, 1, np.arange(1, N_SITES + 1), 0.2)
        assert resid < 1e-8

    def test_coincident_parameters_rejected(self):
        other = dx.type1_params(XI_UNIT, 1.0, 0.2, 0.9)
        with pytest.raises(DegenerateBianchi):
            dx.bianchi_two_soliton(self.P1, other, N_SITES)

    def test_conjugate_pair_inputs_run(self):
        # breather-style experiment: conjugate bases are accepted and produce
        # finite fields; no closed-form validity claim is attached
        xi = np.exp(2j * np.pi / N_SITES)
        pa = dx.type1_params(xi, 1.0, 0.1, 0.7)
        pb = dx.type1_params(np.conj(xi), 1.0, 0.1, 0.7)
        st = dx.bianchi_two_soliton(pa, pb, N_SITES, 0.1)
        assert np.all(np.isfinite(st.x.view(np.float64)))

    def test_mixed_families_combine(self):
        pair = make_rank_one_pair(1, 1, 1.0, "identity")
        p2 = dx.type2_params(0.4, 1.0, 0.15, 0.9, pair=pair)
        p1 = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7, pair=pair)
        st = dx.bianchi_two_soliton(p1, p2, N_SITES, 0.1)
        assert np.all(np.isfinite(st.x.view(np.float64)))


class TestDressing:
    def test_dressed_matches_printed_all_flows(self):
        params = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7)
        st = dx.soliton_type1(params, N_SITES, 0.15, require_periodic=True)
        kmats = dx.darboux_blocks(params, N_SITES, 0.15)
        for alpha in (1, 2, 3):
            dressed = dnls.dressed_v_from_recursion(st, kmats, alpha)
            assert dressed.shape == (alpha + 1, N_SITES, 2, 2)
            worst = np.abs(dressed - dnls.v_coeffs(st, alpha)).max()
            assert worst < 1e-9, f"flow {alpha}: {worst:.2e}"

    def test_zero_field_dressing(self):
        st = dnls.zero_state(6)
        kmats = np.zeros((6, 2, 2), dtype=complex)
        dressed = dnls.dressed_v_from_recursion(st, kmats, 1)
        assert np.array_equal(dressed, dnls.v_coeffs(st, 1))

    def test_nan_dressing_block_is_inconsistent(self):
        params = dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7)
        st = dx.soliton_type1(params, N_SITES, 0.15, require_periodic=True)
        kmats = dx.darboux_blocks(params, N_SITES, 0.15)
        kmats[3, 1, 1] = np.nan  # one D entry; every other relation still holds
        assert np.isnan(dnls.dressing_constraint_residual(st, kmats))
        with pytest.raises(InconsistentDressing):
            dnls.dressed_v_from_recursion(st, kmats, 2)


def identity_residual_per_site(params, n_sites, t, lambda_samples):
    """Gauge-identity residual built site by site from the printed blocks.

    M_n = lam I + [[a_n A, -x_n bhat], [y_{n-1} b, d_n D]] with A, D the
    rank-one directions (family 1) or identities (family 2); L0 and L_n are
    the theta = 1 Lax matrices of the vacuum and of the soliton.
    """
    pair = params.pair
    nd, md = pair.n_dim, pair.m_dim
    n_ext = np.arange(1, n_sites + 2)
    (x, y, a, d), _ = dx.family_scalars(params, n_ext, t)
    (_, ym, _, _), _ = dx.family_scalars(params, n_ext - 1, t)
    if params.family == "type1":
        a_dir, d_dir = pair.bhat @ pair.b, pair.b @ pair.bhat
    else:
        a_dir, d_dir = np.eye(nd), np.eye(md)

    def kmat(i):
        k = np.zeros((nd + md, nd + md), dtype=complex)
        k[:nd, :nd] = a[i] * a_dir
        k[nd:, nd:] = d[i] * d_dir
        k[:nd, nd:] = -x[i] * pair.bhat
        k[nd:, :nd] = ym[i] * pair.b
        return k

    eye = np.eye(nd + md)
    worst = 0.0
    for lam in lambda_samples:
        l0 = np.block([[(lam + 1.0) * np.eye(nd), np.zeros((nd, md))], [np.zeros((md, nd)), np.eye(md)]])
        for i in range(n_sites):
            l_n = np.block(
                [
                    [(lam + 1.0) * np.eye(nd) + x[i] * pair.bhat @ (y[i] * pair.b), x[i] * pair.bhat],
                    [y[i] * pair.b, np.eye(md)],
                ]
            )
            m_n, m_next = lam * eye + kmat(i), lam * eye + kmat(i + 1)
            worst = max(worst, np.abs(m_next @ l0 - l_n @ m_n).max())
    return worst


IDENTITY_CASES = {
    "type1-1x1": lambda: dx.type1_params(XI_UNIT, 1.0, 0.1, 0.7),
    "type1-1x2": lambda: dx.type1_params(
        XI_UNIT, 0.8, 0.1 + 0.05j, 0.6, pair=make_rank_one_pair(1, 2, 0.8, "triple")
    ),
    "type1-2x1": lambda: dx.type1_params(
        1.3 + 0.2j, 0.9, 0.05 - 0.02j, 0.8, pair=make_rank_one_pair(2, 1, 0.9, "triple")
    ),
    "type2-scalar": lambda: dx.type2_params(0.4, 1.0, 0.15 + 0.1j, 0.9),
    "type2-2x2": lambda: dx.type2_params(
        0.3 + 0.1j, 1.0, 0.1, 0.8, pair=make_rank_one_pair(2, 2, 1.0, "identity")
    ),
}
IDENTITY_LAMBDAS = [0.5, 1.0, 2.0, 1j, 1 + 1j]


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_darboux_identity_matches_per_site_reference(case):
    params = IDENTITY_CASES[case]()
    resid = dx.darboux_identity_residual(params, N_SITES, 0.15, IDENTITY_LAMBDAS)
    assert resid < 1e-12
    reference = identity_residual_per_site(params, N_SITES, 0.15, IDENTITY_LAMBDAS)
    assert abs(resid - reference) <= 1e-14
    # a y seed off its constraint breaks the identity; both routes must see the same size
    broken = dataclasses.replace(params, y1=1.1 * params.y1 + 0.05)
    resid = dx.darboux_identity_residual(broken, N_SITES, 0.15, IDENTITY_LAMBDAS)
    assert resid > 1e-2
    assert abs(resid - identity_residual_per_site(broken, N_SITES, 0.15, IDENTITY_LAMBDAS)) <= 1e-14
