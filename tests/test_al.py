import dataclasses

import numpy as np
import pytest

from lattice_akns import al, conserved, lattice
from lattice_akns.algebra import make_rank_one_pair, sup_norm
from lattice_akns.errors import BlowUp, DegenerateMode, InconsistentDressing, SpectralPole
from lattice_akns.lattice import block_stack, rk4, shift
from reference import laurent_eval

PAIR = make_rank_one_pair(1, 1, 1.0, "triple")


def scalar_state(bhat_values, b_values, boundary=al.PERIODIC):
    bhat = np.asarray(bhat_values, dtype=complex)[:, None, None]
    b = np.asarray(b_values, dtype=complex)[:, None, None]
    return al.AlState(len(bhat_values), 1, 1, bhat, b, boundary)


class TestLax:
    def test_zero_fields(self):
        st = al.zero_state(4)
        assert np.allclose(lattice.lax_stacks(st, [2.0])[0, 0], np.diag([2.0, 0.5]))

    def test_scalar_entries(self):
        st = scalar_state([1.0], [-1.0])
        assert np.allclose(lattice.lax_stacks(st, [1.0])[0, 0], [[1, 1], [-1, 1]])

    def test_determinant(self):
        st = scalar_state([0.4 + 0.1j], [0.7])
        for z in (0.5, 2.0, 1j):
            det = np.linalg.det(lattice.lax_stacks(st, [z])[0, 0])
            expected = 1.0 - st.bhat[0, 0, 0] * st.b[0, 0, 0]
            assert abs(det - expected) < 1e-14

    def test_pole_at_origin(self):
        with pytest.raises(SpectralPole):
            lattice.lax_stacks(al.zero_state(3), [0.0])

    def test_zero_curvature_pole_at_origin(self):
        for variant in al.VARIANTS:
            with pytest.raises(SpectralPole):
                al.al_zero_curvature_residual(al.zero_state(3), variant, [0])


class TestVOperator:
    def test_standard_variant_vanishes_at_unit_z_zero_fields(self):
        st = al.zero_state(4)
        assert np.abs(laurent_eval(al.al_v_coeffs(st, al.VARIANT_AL), -2, 1.0)[0]).max() == 0

    def test_network_variant_zero_fields(self):
        st = al.zero_state(4)
        assert np.allclose(laurent_eval(al.al_v_coeffs(st, al.VARIANT_NETWORK), -2, 2.0)[0], np.diag([4.0, 0.25]))

    def test_soliton_zero_curvature(self):
        st = al.localized_oscillator().state(16, 0.1)
        resid = max(al.al_zero_curvature_residual(st, al.VARIANT_AL, [0.8, 1.5, 0.7j]))
        assert resid < 1e-10


class TestEom:
    def test_zero_fields(self):
        dbh, db = lattice.eom_rhs(al.zero_state(5), al.FLOWS[al.VARIANT_AL])
        assert np.abs(dbh).max() == 0 and np.abs(db).max() == 0

    def test_single_pulse_hand_values(self):
        n = 6
        bhat = np.zeros(n)
        bhat[0] = 1.0
        st = scalar_state(bhat, np.zeros(n))
        dbh, _ = lattice.eom_rhs(st, al.FLOWS[al.VARIANT_AL])
        assert dbh[0, 0, 0] == -2.0
        assert dbh[1, 0, 0] == 1.0 and dbh[n - 1, 0, 0] == 1.0
        assert np.abs(dbh[2:-1]).max() == 0

    def test_network_symmetric_reduction(self):
        rng = np.random.default_rng(0)
        b = 0.4 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        st = scalar_state(b, b)
        dbh, db = lattice.eom_rhs(st, al.FLOWS[al.VARIANT_NETWORK])
        assert np.abs(dbh - db).max() < 1e-15
        bp, bm = np.roll(b, -1), np.roll(b, 1)
        expected = bp - bm - bp * b**2 + b**2 * bm
        assert np.abs(db[:, 0, 0] - expected).max() < 1e-14

    def test_zero_curvature_random_both_variants(self):
        rng = np.random.default_rng(1)
        st = al.random_state(rng, 8, scale=0.4)
        zs = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        for variant in (al.VARIANT_AL, al.VARIANT_NETWORK):
            assert max(al.al_zero_curvature_residual(st, variant, zs)) < 1e-11


class TestEvolve:
    def test_zero_state_unchanged(self):
        final = al.al_evolve(al.zero_state(6), al.VARIANT_AL, 1e-2, 30)[-1][1]
        assert np.abs(final.bhat).max() == 0

    def test_symmetric_reduction_preserved(self):
        rng = np.random.default_rng(2)
        b = 0.3 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        st = scalar_state(b, b)
        final = al.al_evolve(st, al.VARIANT_NETWORK, 1e-3, 500)[-1][1]
        assert np.abs(final.bhat - final.b).max() < 1e-10

    def test_soliton_trace_conservation(self):
        st = al.localized_oscillator().state(16, 0.0)
        final = al.al_evolve(st, al.VARIANT_AL, 1e-3, 300)[-1][1]
        for z in (0.8, 1.5):
            t0 = conserved.transfer_trace(st, z)
            t1 = conserved.transfer_trace(final, z)
            assert abs(t1 - t0) / abs(t0) < 1e-6


class TestFundamentalSoliton:
    def test_zero_seeds_zero_state(self):
        params = al.AlDarbouxParams(big_q=1.1, pair=PAIR)
        st = al.al_soliton_fundamental(params, 8)
        assert np.abs(st.bhat).max() == 0 and np.abs(st.b).max() == 0

    def test_recursion_against_product_form(self):
        params = al.AlDarbouxParams(big_q=1.1, pair=PAIR, a1=0.05, d1=0.04, bhat1=0.3, b1=0.2)
        n = 10
        a, d, bh, b = al.al_fundamental_scalars(params, 1, n)
        q2 = params.big_q**2
        # defining relations, site by site
        for i in range(1, n):
            assert abs(bh[i - 1] - q2 * (1 + d[i]) * bh[i]) < 1e-13
            assert abs(b[i - 1] - (1 + a[i]) * b[i] / q2) < 1e-13
        # product closed form for the hatted field
        prods = np.cumprod(1 + d[1:])
        expected = bh[0] * q2 ** (-np.arange(1, n)) / prods
        assert np.abs(bh[1:] - expected).max() < 1e-13

    def test_gauge_identity(self):
        params = al.AlDarbouxParams(big_q=1.1, pair=PAIR, a1=0.05, d1=0.04, bhat1=0.3, b1=0.2)
        resid = al.al_darboux_identity_residual(params, 10, [0.5, 1.0, 2.0, 1j, 1 + 1j])
        assert resid < 1e-9


def per_z_identity_residual(params, n_sites, zs):
    """The intertwining residual M_{n+1} L0_n - L_n M_n, built one z at a time."""
    a, d, bh, b = al.al_fundamental_scalars(params, 0, n_sites + 1)
    pair, q = params.pair, params.big_q
    nd, md = pair.n_dim, pair.m_dim
    eye_n, eye_m = np.eye(nd), np.eye(md)
    state = al.al_soliton_fundamental(params, n_sites)
    sites = np.arange(1, n_sites + 2)[:, None, None]
    amat = eye_n + a[sites] * (pair.bhat @ pair.b)
    dmat = eye_m + d[sites] * (pair.b @ pair.bhat)
    bmat = -(1 / q) * bh[sites - 1] * pair.bhat
    cmat = q * b[sites - 1] * pair.b
    resid = []
    for z in zs:
        qz = q * z
        m = block_stack(n_sites + 1, nd, md, (qz * eye_n - (1 / qz) * amat, bmat, cmat, qz * dmat - (1 / qz) * eye_m))
        l0 = block_stack(1, nd, md, (z * eye_n, 0, 0, eye_m / z))[0, 0]
        resid.append(m[0, 1:] @ l0 - lattice.lax_stacks(state, [z])[0] @ m[0, :-1])
    return sup_norm(*resid)


@pytest.mark.parametrize("n_sites", [1, 4, 10])
@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gauge_identity_matches_per_z_reference(n_dim, m_dim, n_sites):
    pair = make_rank_one_pair(n_dim, m_dim, 0.9 + 0.2j, "triple")
    params = al.AlDarbouxParams(big_q=1.1 - 0.1j, pair=pair, a1=0.05, d1=0.04 + 0.01j, bhat1=0.3, b1=0.2j)
    zs = [0.5, 1.0, 2.0, 1j, 1 + 1j, 0.7 - 0.4j]
    got = al.al_darboux_identity_residual(params, n_sites, zs)
    assert got == per_z_identity_residual(params, n_sites, zs)
    assert 0 < got < 1e-12


class TestOscillatorSoliton:
    def test_dispersion_value(self):
        sol = al.al_soliton_oscillator(
            al.AlDarbouxParams(big_q=1.0, pair=PAIR, kappa=0.4, zeta=0.4), [(1.0, 2.0)], u_seed=1.0
        )
        # base 2 carries rate (sqrt2 - 1/sqrt2)^2 = 1/2
        lam = (np.sqrt(2.0) - 1 / np.sqrt(2.0)) ** 2
        assert abs(lam - 0.5) < 1e-15
        h0 = sol.heat.evaluate(3, 0.0)
        h1 = sol.heat.evaluate(3, 1.0)
        assert abs(h1 / h0 - np.exp(0.5)) < 1e-12

    def test_zero_heat_data_means_zero_upper_field(self):
        sol = al.al_soliton_oscillator(
            al.AlDarbouxParams(big_q=1.0, pair=PAIR, kappa=0.4, zeta=0.4), [(0.0, 2.0)], u_seed=1.0
        )
        st = sol.state(10, 0.3)
        assert np.abs(st.bhat).max() == 0

    def test_constraint_mismatch_rejected(self):
        with pytest.raises(InconsistentDressing):
            al.al_soliton_oscillator(
                al.AlDarbouxParams(big_q=1.0, pair=PAIR, kappa=0.4, zeta=0.3), [(1.0, 2.0)]
            )

    def test_resonant_base_rejected(self):
        with pytest.raises(DegenerateMode):
            al.al_soliton_oscillator(
                al.AlDarbouxParams(big_q=1.0, pair=PAIR, kappa=0.4, zeta=0.4), [(1.0, 0.4)]
            )

    def test_flow_residual(self):
        sol = al.localized_oscillator()
        ns = np.arange(1, 17)
        t = 0.3
        bh, b, dbh, db = sol.scalars_with_derivative(ns, t)
        bhp, bp, _, _ = sol.scalars_with_derivative(ns + 1, t)
        bhm, bm, _, _ = sol.scalars_with_derivative(ns - 1, t)
        rh = dbh - (bhp + bhm - 2 * bh - bh * b * bhm - bhp * b * bh)
        rb = db - (-bp - bm + 2 * b + bp * bh * b + b * bh * bm)
        assert max(np.abs(rh).max(), np.abs(rb).max()) < 1e-8


def test_fundamental_singular_step_reported():
    # seeds driving 1 + kappa*d through zero on the first step
    params = al.AlDarbouxParams(big_q=1.0, pair=PAIR, a1=0.0, d1=-1.0, bhat1=0.0, b1=0.0)
    with pytest.raises(al.SingularDressing):
        al.al_fundamental_scalars(params, 1, 6)


def printed_al_lax_and_v(st, variant):
    """Per-site Lax and V Laurent coefficients built from the printed formulas."""
    n_sites, nd, md = st.n_sites, st.n_dim, st.m_dim
    eye_n, eye_m = np.eye(nd), np.eye(md)
    zn, zm, znm, zmn = np.zeros((nd, nd)), np.zeros((md, md)), np.zeros((nd, md)), np.zeros((md, nd))
    sign = -1.0 if variant == al.VARIANT_AL else 1.0

    def field(a, site):
        if st.boundary == al.PERIODIC:
            return a[site % n_sites]
        return a[site] if 0 <= site < n_sites else np.zeros_like(a[0])

    lax, v = [], []
    for n in range(n_sites):
        bh, b = st.bhat[n], st.b[n]
        bh_m, b_m = field(st.bhat, n - 1), field(st.b, n - 1)
        lax.append(
            [
                np.block([[zn, znm], [zmn, eye_m]]),
                np.block([[zn, bh], [b, zm]]),
                np.block([[eye_n, znm], [zmn, zm]]),
            ]
        )
        c0 = np.block([[-bh @ b_m, znm], [zmn, -sign * b @ bh_m]])
        if variant == al.VARIANT_AL:
            c0 = c0 - np.block([[eye_n, znm], [zmn, -eye_m]])
        v.append(
            [
                np.block([[zn, znm], [zmn, sign * eye_m]]),
                np.block([[zn, sign * bh_m], [sign * b, zm]]),
                c0,
                np.block([[zn, bh], [b_m, zm]]),
                np.block([[eye_n, znm], [zmn, zm]]),
            ]
        )
    # site-major lists -> (K, n_sites, d, d) coefficient stacks
    return np.swapaxes(np.array(lax), 0, 1), np.swapaxes(np.array(v), 0, 1)


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", [al.VARIANT_AL, al.VARIANT_NETWORK])
def test_stacks_match_printed_per_site_formulas(n_dim, m_dim, boundary, variant):
    rng = np.random.default_rng(10 * n_dim + m_dim)
    st = al.random_state(rng, 7, n_dim, m_dim, scale=0.5, boundary=boundary)
    lax_ref, v_ref = printed_al_lax_and_v(st, variant)
    assert np.abs(st.lax_coeffs() - lax_ref).max() < 1e-14
    assert np.abs(al.al_v_coeffs(st, variant) - v_ref).max() < 1e-14
    z = 0.7 + 0.9j
    lax_at = lax_ref[0] / z + lax_ref[1] + z * lax_ref[2]
    assert np.abs(lattice.lax_stacks(st, [z])[0] - lax_at).max() < 1e-14


def test_zero_curvature_random_vanishing_window():
    rng = np.random.default_rng(4)
    st = al.random_state(rng, 10, 1, 2, scale=0.5, boundary=al.VANISHING)
    zs = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    for variant in (al.VARIANT_AL, al.VARIANT_NETWORK):
        assert max(al.al_zero_curvature_residual(st, variant, zs)) < 1e-13


@pytest.mark.parametrize("n_sites", [1, 2, 3])
@pytest.mark.parametrize("variant", al.VARIANTS)
def test_zero_curvature_vanishing_window_of_few_sites(variant, n_sites):
    st = al.random_state(np.random.default_rng(n_sites), n_sites, 1, 2, scale=0.5, boundary=al.VANISHING)
    zs = [0.8, 1.5 + 0.3j, 0.7j]
    resid = al.al_zero_curvature_residual(st, variant, zs)
    assert len(resid) == len(zs)
    if n_sites < 3:
        # both edge sites are left out, and no site lies between them
        assert resid == [0.0] * len(zs)
    else:
        assert 0 < max(resid) < 1e-13


def test_zero_curvature_needs_a_sample():
    with pytest.raises(ValueError):
        al.al_zero_curvature_residual(al.zero_state(3), al.VARIANT_AL, [])


def _mixed_al_states(rng):
    """Two states of each width, size and boundary, vanishing windows of 1-3 sites among them, shuffled."""
    states = [
        al.random_state(rng, n, nd, md, scale=0.4, boundary=boundary)
        for n in (1, 2, 3, 6, 13)
        for nd, md in ((1, 1), (1, 2), (2, 1))
        for boundary in (al.PERIODIC, al.VANISHING)
        for _ in range(2)
    ]
    return [states[i] for i in rng.permutation(len(states))]


@pytest.mark.parametrize("variant", al.VARIANTS)
def test_batched_residuals_equal_each_state_exactly(variant):
    rng = np.random.default_rng(len(variant))
    states = _mixed_al_states(rng)
    zs = rng.uniform(0.5, 2.0, (len(states), 4)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (len(states), 4)))
    got = lattice.zero_curvature_residuals(states, al.FLOWS[variant], zs)
    assert got.shape == (len(states), 4)
    for st, row, res in zip(states, zs, got):
        assert res.tolist() == al.al_zero_curvature_residual(st, variant, row)
        if st.boundary == al.VANISHING and st.n_sites < 3:
            assert not res.any()
    assert 0 < got.max() < 1e-13


def _residual_per_sample(state, variant, zs):
    """The residual from the single-state Lax, V and right-hand side functions, one sample at a time."""
    dbh, db = lattice.eom_rhs(state, al.FLOWS[variant])
    dl = block_stack(state.n_sites, state.n_dim, state.m_dim, (0, dbh, db, 0))[0]
    v = al.al_v_coeffs(state, variant)
    out = []
    for z, lax in zip(zs, lattice.lax_stacks(state, zs)):
        vs = laurent_eval(v, -2, z)
        resid = dl - (shift(vs, 1, state.periodic) @ lax - lax @ vs)
        out.append(sup_norm(resid if state.periodic else resid[1:-1]))
    return out


@pytest.mark.parametrize("boundary", (al.PERIODIC, al.VANISHING))
def test_batched_residuals_take_each_sample_as_given(boundary):
    # python complexes, whose z**-2 rounds differently from numpy's
    rng = np.random.default_rng(6)
    states = [al.random_state(rng, 5, nd, md, boundary=boundary) for nd, md in ((1, 1), (1, 2), (1, 1))]
    zs = rng.uniform(0.5, 2.0, (3, 4)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 4)))
    rows = [(0.8, 2, *map(complex, row)) for row in zs]
    for variant in al.VARIANTS:
        got = lattice.zero_curvature_residuals(states, al.FLOWS[variant], rows)
        assert [r.tolist() for r in got] == [_residual_per_sample(st, variant, row) for st, row in zip(states, rows)]


@pytest.mark.parametrize("variant", al.VARIANTS)
def test_batched_residuals_build_one_rhs_per_block_shape(variant):
    rng = np.random.default_rng(50 + len(variant))
    widths = ((1, 1), (1, 2), (2, 1))
    states = [
        al.random_state(rng, n, nd, md, boundary=boundary)
        for n in range(1, 14)
        for nd, md in widths
        for boundary in (al.PERIODIC, al.VANISHING)
    ]
    zs = rng.uniform(0.5, 2.0, (len(states), 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (len(states), 3)))
    builds, flow = [], al.FLOWS[variant]

    def counting_rhs(constants):
        build = flow.rhs(constants)

        def counted(src, dst):
            builds.append(src[0].shape[-2:])
            return build(src, dst)

        return counted

    got = lattice.zero_curvature_residuals(states, dataclasses.replace(flow, rhs=counting_rhs), zs)
    # every size and boundary of one block shape on one site axis: one build per shape
    assert sorted(builds) == sorted(widths)
    for st, row, res in zip(states, zs, got):
        assert res.tolist() == al.al_zero_curvature_residual(st, variant, row)


@pytest.mark.parametrize("boundary", (al.PERIODIC, al.VANISHING))
def test_batched_residuals_keep_a_nan_in_its_own_row(boundary):
    rng = np.random.default_rng(60)
    states = [al.random_state(rng, n, 1, 2, boundary=bd) for n, bd in ((5, boundary), (1, al.PERIODIC), (7, boundary))]
    states += [al.random_state(rng, n, 1, 2, boundary=bd) for n, bd in ((2, al.VANISHING), (6, al.PERIODIC))]
    b = states[2].b.copy()
    # at both ends, next to the ghost sites that border its neighbours
    b[[0, -1], 1, 0] = np.nan
    states[2] = states[2].with_fields(states[2].bhat, b)
    zs = rng.uniform(0.5, 2.0, (len(states), 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (len(states), 3)))
    for variant in al.VARIANTS:
        got = lattice.zero_curvature_residuals(states, al.FLOWS[variant], zs)
        assert np.isnan(got[2]).all()
        for i in (0, 1, 3, 4):
            assert np.isfinite(got[i]).all()
            assert got[i].tolist() == al.al_zero_curvature_residual(states[i], variant, zs[i])


def test_batched_residuals_pole_and_empty_rows():
    states = [al.zero_state(3), al.zero_state(3)]
    with pytest.raises(SpectralPole):
        lattice.zero_curvature_residuals(states, al.FLOWS[al.VARIANT_AL], [[0.8], [0]])
    with pytest.raises(ValueError):
        lattice.zero_curvature_residuals(states, al.FLOWS[al.VARIANT_AL], [[], []])
    with pytest.raises(ValueError):
        al.al_zero_curvature_residual(states[0], "bogus", [0.8])


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", al.VARIANTS)
def test_batched_evolve_equals_each_lone_al_evolve(variant, boundary, n_dim, m_dim):
    rng = np.random.default_rng(70 + 10 * n_dim + m_dim)
    states = [al.random_state(rng, 7, n_dim, m_dim, scale=0.5, boundary=boundary) for _ in range(3)]
    got = lattice.evolve(states, al.FLOWS[variant], 1e-2, 25, 4)
    assert len(got) == len(states)
    for st, traj in zip(states, got):
        ref = al.al_evolve(st, variant, 1e-2, 25, 4)
        assert len(traj) == len(ref) == 8 and traj[0][1] is st
        for (t, sample), (t_ref, sample_ref) in zip(traj, ref):
            assert t == t_ref and sample.boundary == boundary
            assert sample.bhat.tobytes() == sample_ref.bhat.tobytes()
            assert sample.b.tobytes() == sample_ref.b.tobytes()


def test_batched_evolve_blowup_names_the_al_member():
    rng = np.random.default_rng(8)
    states = [al.random_state(rng, 6, scale=0.2) for _ in range(3)]
    big = np.full((6, 1, 1), 50.0 + 0j)
    states[2] = states[2].with_fields(big, big)
    with pytest.raises(BlowUp) as single:
        al.al_evolve(states[2], al.VARIANT_AL, 0.1, 50)
    assert single.value.members is None
    with pytest.raises(BlowUp) as info:
        lattice.evolve(states, al.FLOWS[al.VARIANT_AL], 0.1, 50)
    assert info.value.step == single.value.step
    assert info.value.members == (2,)


def test_evolve_blowup_reports_step():
    st = al.random_state(np.random.default_rng(3), 8, scale=1.5)
    with pytest.raises(BlowUp) as info:
        al.al_evolve(st, al.VARIANT_AL, 0.1, 200)
    step = info.value.step
    assert step > 1
    # the reported step is the first non-finite one: running exactly that
    # many steps blows up, one step fewer still ends on a finite state
    with pytest.raises(BlowUp):
        al.al_evolve(st, al.VARIANT_AL, 0.1, step)
    final = al.al_evolve(st, al.VARIANT_AL, 0.1, step - 1)[-1][1]
    assert np.all(np.isfinite(final.bhat)) and np.all(np.isfinite(final.b))


@pytest.mark.parametrize(
    "boundary,variant,first",
    [
        (al.PERIODIC, al.VARIANT_AL, 29),
        (al.PERIODIC, al.VARIANT_NETWORK, 33),
        (al.VANISHING, al.VARIANT_AL, 81),
        (al.VANISHING, al.VARIANT_NETWORK, 37),
    ],
)
def test_blowup_report_does_not_depend_on_save_every(boundary, variant, first):
    st = al.random_state(np.random.default_rng(3), 8, scale=1.5, boundary=boundary)
    for save_every in (None, 7, 1):
        with pytest.raises(BlowUp) as info:
            al.al_evolve(st, variant, 0.05, 100, save_every)
        assert (info.value.step, info.value.members) == (first, None)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_evolve_rejects_nonpositive_dt(dt):
    with pytest.raises(ValueError):
        al.al_evolve(al.zero_state(4), al.VARIANT_AL, dt, 5)


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", [al.VARIANT_AL, al.VARIANT_NETWORK])
def test_evolve_matches_state_built_rk4(variant, boundary, n_dim, m_dim):
    rng = np.random.default_rng(30 + 10 * n_dim + m_dim)
    st = al.random_state(rng, 9, n_dim, m_dim, scale=0.4, boundary=boundary)

    def build(src, dst):
        def rhs():
            # reference right-hand side: a full state per RK4 stage, no ghosts
            dst[0][...], dst[1][...] = lattice.eom_rhs(st.with_fields(*src), al.FLOWS[variant])

        return [(rhs, ())]

    ref = rk4(build, st.bhat, st.b, 0, st.periodic, 1e-2, 25, 4)
    got = al.al_evolve(st, variant, 1e-2, 25, 4)
    assert len(got) == len(ref) + 1 and got[0][0] == 0.0 and got[0][1] is st
    for (t, sample), (t_ref, bhat, b) in zip(got[1:], ref):
        assert t == t_ref
        assert sample.bhat.tobytes() == bhat.tobytes() and sample.b.tobytes() == b.tobytes()


def test_evolve_rejects_unknown_variant():
    with pytest.raises(ValueError):
        al.al_evolve(al.zero_state(4), "bogus", 1e-3, 2)


@pytest.mark.parametrize(
    "variant,dt,steps,save_every",
    [
        ("bogus", 1e-3, 0, None),
        (al.VARIANT_AL, float("nan"), 5, None),
        (al.VARIANT_AL, 1e-3, -3, None),
        (al.VARIANT_NETWORK, 1e-3, 5, 0),
        (al.VARIANT_NETWORK, 1e-3, 5, -2),
    ],
)
def test_evolve_rejects_bad_arguments(variant, dt, steps, save_every):
    with pytest.raises(ValueError):
        al.al_evolve(al.zero_state(4), variant, dt, steps, save_every)
