import numpy as np
import pytest

from lattice_akns import dnls
from lattice_akns.algebra import sup_norm
from lattice_akns.lattice import block_stack, rk4, shift
from lattice_akns.darboux import soliton_type1, type1_params
from lattice_akns.errors import BlowUp, FlowUnsupported, InconsistentDressing
from reference import laurent_eval


def test_lax_zero_fields_is_identity_at_origin():
    st = dnls.zero_state(4)
    assert np.allclose(dnls.lax_stacks(st, [0.0])[0, 0], np.eye(2))


def test_lax_scalar_hand_value():
    st = dnls.zero_state(3).with_fields(
        np.full((3, 1, 1), 2.0 + 0j), np.full((3, 1, 1), 3.0 + 0j)
    )
    # composite block is 1 + 2*3 = 7
    assert np.allclose(dnls.lax_stacks(st, [0.0])[0, 1], [[7, 2], [3, 1]])


def test_lax_block_zero_fields():
    st = dnls.zero_state(3, n_dim=1, m_dim=2)
    assert np.allclose(dnls.lax_stacks(st, [5.0])[0, 0], np.diag([6.0, 1.0, 1.0]))


def test_v1_zero_fields_is_half_grading():
    st = dnls.zero_state(5, n_dim=2, m_dim=2)
    v = laurent_eval(dnls.v_coeffs(st, 1), 0, 2.0)[0]
    assert np.allclose(v, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_v2_zero_fields():
    st = dnls.zero_state(5)
    assert np.allclose(laurent_eval(dnls.v_coeffs(st, 2), 0, 2.0)[0], np.diag([2.0, -2.0]))


def test_v_operator_unsupported_flow():
    st = dnls.zero_state(4)
    with pytest.raises(FlowUnsupported):
        dnls.v_coeffs(st, 4)


def test_eom_zero_fields_is_zero():
    st = dnls.zero_state(6)
    for alpha in (1, 2):
        dx, dy = dnls.eom_rhs(st, alpha)
        assert np.abs(dx).max() == 0 and np.abs(dy).max() == 0


def test_eom_single_site_pulse_hand_values():
    n = 6
    x = np.zeros((n, 1, 1), dtype=complex)
    x[0] = 1.0
    st = dnls.zero_state(n).with_fields(x, np.zeros((n, 1, 1), dtype=complex))
    dx, dy = dnls.eom_rhs(st, 1)
    assert dx[0, 0, 0] == -1.0  # x_1 - x_0 with x_1 = 0
    assert dx[n - 1, 0, 0] == 1.0  # x_0 wraps in as the forward neighbor
    assert np.abs(dx[1:-1]).max() == 0
    assert np.abs(dy).max() == 0


def test_eom_unsupported_flow():
    with pytest.raises(FlowUnsupported):
        dnls.eom_rhs(dnls.zero_state(4), 3)


def test_zero_curvature_zero_fields():
    st = dnls.zero_state(5)
    assert max(dnls.zero_curvature_residual(st, 1, [0.5, 2.0, 1j])) == 0


def test_zero_curvature_needs_a_sample():
    with pytest.raises(ValueError):
        dnls.zero_curvature_residual(dnls.zero_state(3), 1, [])


def test_zero_curvature_random_scalar_first_flow():
    rng = np.random.default_rng(0)
    st = dnls.random_state(rng, 8, scale=0.7)
    lams = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    assert max(dnls.zero_curvature_residual(st, 1, lams)) < 1e-12


def test_zero_curvature_random_block_second_flow():
    rng = np.random.default_rng(1)
    st = dnls.random_state(rng, 8, n_dim=1, m_dim=2, scale=0.7)
    lams = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    assert max(dnls.zero_curvature_residual(st, 2, lams)) < 1e-11


def test_zero_curvature_general_theta():
    rng = np.random.default_rng(2)
    st = dnls.random_state(rng, 6, scale=0.5, theta=0.4 + 0.2j)
    assert max(dnls.zero_curvature_residual(st, 2, [0.8, -1.2 + 0.5j])) < 1e-12


def _mixed_dnls_states(rng):
    """Two states of each width and size, each with its own theta, in a shuffled order."""
    states = [
        dnls.random_state(rng, n, nd, md, scale=0.6, theta=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)))
        for n in (1, 2, 3, 6, 13)
        for nd, md in ((1, 1), (1, 2), (2, 1))
        for _ in range(2)
    ]
    return [states[i] for i in rng.permutation(len(states))]


@pytest.mark.parametrize("alpha", (1, 2))
def test_batched_residuals_equal_each_state_exactly(alpha):
    rng = np.random.default_rng(alpha)
    states = _mixed_dnls_states(rng)
    samples = rng.uniform(-1.5, 1.5, (len(states), 4)) + 1j * rng.uniform(-1.5, 1.5, (len(states), 4))
    got = dnls.zero_curvature_residuals(states, alpha, samples)
    assert got.shape == (len(states), 4)
    for st, row, res in zip(states, samples, got):
        assert res.tolist() == dnls.zero_curvature_residual(st, alpha, row)
    assert 0 < got.max() < 1e-11


def _residual_per_sample(state, alpha, lams):
    """The residual from the single-state Lax, V and right-hand side functions, one sample at a time."""
    dx, dy = dnls.eom_rhs(state, alpha)
    dl = block_stack(state.n_sites, state.n_dim, state.m_dim, (dx @ state.y + state.x @ dy, dx, dy, 0))[0]
    v = dnls.v_coeffs(state, alpha)
    out = []
    for lam, lax in zip(lams, dnls.lax_stacks(state, lams)):
        vs = laurent_eval(v, 0, lam)
        out.append(sup_norm(dl - (shift(vs, 1) @ lax - lax @ vs)))
    return out


@pytest.mark.parametrize("alpha", (1, 2))
def test_batched_residuals_take_each_sample_as_given(alpha):
    # python floats, ints and complexes, as a caller's tuple holds them
    rng = np.random.default_rng(5)
    states = [dnls.random_state(rng, 7, 1, m, theta=0.9 + 0.1j * m) for m in (1, 2, 1)]
    lams = rng.uniform(-1.5, 1.5, (3, 4)) + 1j * rng.uniform(-1.5, 1.5, (3, 4))
    rows = [(0.5, 2, *map(complex, row)) for row in lams]
    got = dnls.zero_curvature_residuals(states, alpha, rows)
    assert [r.tolist() for r in got] == [_residual_per_sample(st, alpha, row) for st, row in zip(states, rows)]


@pytest.mark.parametrize(
    "n_states,rows",
    [
        (1, [[]]),  # an empty row
        (2, [[0.5], []]),
        (2, [[0.5, 1.0], [0.5]]),  # rows of different lengths
        (2, [[0.5]]),  # fewer rows than states
        (0, []),
    ],
)
def test_batched_residuals_reject_bad_sample_rows(n_states, rows):
    with pytest.raises(ValueError):
        dnls.zero_curvature_residuals([dnls.zero_state(3)] * n_states, 1, rows)


def test_batched_residuals_unsupported_flow():
    with pytest.raises(FlowUnsupported):
        dnls.zero_curvature_residuals([dnls.zero_state(4)], 3, [[0.5]])


def frozen_soliton_derivative(xi, kappa, d1, x1, a1, y1, n, t, alpha):
    """Independent oracle: hand-differentiated closed forms.

    x = A E / (C E + D) with E = xi^(n-1) exp(L t) gives
    dx/dt = A D L E / (C E + D)^2, and similarly for y on the reversed
    factor G = xi^(-n) exp(-L t).
    """
    lam = (xi - 1.0) ** alpha
    e = xi ** (n - 1) * np.exp(lam * t)
    a_coef, c_coef, d_coef = (xi - 1) * x1, xi - 1 + kappa * d1, -kappa * d1
    dx = a_coef * d_coef * lam * e / (c_coef * e + d_coef) ** 2
    g = xi ** (-n) * np.exp(-lam * t)
    a2, c2, d2 = (xi - 1) * (1 - kappa * a1) * y1, xi - 1 + kappa * a1, -kappa * a1
    dy = a2 * d2 * (-lam) * g / (c2 * g + d2) ** 2
    return dx, dy


def test_soliton_rhs_matches_hand_derivative():
    n_sites = 12
    params = type1_params(np.exp(2j * np.pi / n_sites), 1.0, 0.1, 0.7)
    t = 0.2
    st = soliton_type1(params, n_sites, t, require_periodic=True)
    dx, dy = dnls.eom_rhs(st, 1)
    ns = np.arange(1, n_sites + 1)
    ox, oy = frozen_soliton_derivative(
        params.xi, params.kappa, params.d1, params.x1, params.a1, params.y1, ns, t, 1
    )
    assert np.abs(dx[:, 0, 0] - ox).max() < 1e-9
    assert np.abs(dy[:, 0, 0] - oy).max() < 1e-9


def test_evolve_zero_state_unchanged():
    st = dnls.zero_state(6)
    final = dnls.evolve(st, 1, 1e-2, 50)[-1][1]
    assert np.abs(final.x).max() == 0 and np.abs(final.y).max() == 0


def test_evolve_tracks_closed_form():
    n_sites = 12
    params = type1_params(np.exp(2j * np.pi / n_sites), 1.0, 0.1, 0.7)
    st = soliton_type1(params, n_sites, 0.0, require_periodic=True)
    t_final = 0.5
    final = dnls.evolve(st, 1, 1e-3, 500)[-1][1]
    ref = soliton_type1(params, n_sites, t_final, require_periodic=True)
    assert np.abs(final.x - ref.x).max() < 1e-6
    assert np.abs(final.y - ref.y).max() < 1e-6


def test_evolve_blowup_detected():
    n = 4
    big = np.full((n, 1, 1), 50.0 + 0j)
    st = dnls.zero_state(n).with_fields(big, big)
    with pytest.raises(BlowUp):
        dnls.evolve(st, 1, 1.0, 50)


def test_dressed_recursion_rejects_inconsistent_blocks():
    rng = np.random.default_rng(3)
    st = dnls.random_state(rng, 6, scale=0.5)
    kmats = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    with pytest.raises(InconsistentDressing):
        dnls.dressed_v_from_recursion(st, kmats, 1)


def test_states_are_write_protected():
    st = dnls.zero_state(4)
    with pytest.raises(ValueError):
        st.x[0, 0, 0] = 1.0


def printed_lax_and_v(st, alpha):
    """Per-site Lax and V coefficients built from the printed formulas."""
    n_sites, nd, md = st.n_sites, st.n_dim, st.m_dim
    eye_n, eye_m = np.eye(nd), np.eye(md)
    zn, zm, znm, zmn = np.zeros((nd, nd)), np.zeros((md, md)), np.zeros((nd, md)), np.zeros((md, nd))
    lax, v = [], []
    for n in range(n_sites):

        def X(k):
            return st.x[(n + k) % n_sites]

        def Y(k):
            return st.y[(n + k) % n_sites]

        def NN(k):
            return st.theta * eye_n + X(k) @ Y(k)

        lax.append([np.block([[NN(0), X(0)], [Y(0), eye_m]]), np.block([[eye_n, znm], [zmn, zm]])])
        coeffs = [np.block([[zn, X(0)], [Y(-1), zm]]), np.block([[0.5 * eye_n, znm], [zmn, -0.5 * eye_m]])]
        if alpha >= 2:
            w_mid = np.block(
                [
                    [-X(0) @ Y(-1), X(1) - NN(0) @ X(0)],
                    [Y(-2) - Y(-1) @ NN(-1), Y(-1) @ X(0)],
                ]
            )
            coeffs.insert(0, w_mid)
        if alpha == 3:
            w11 = X(0) @ Y(-1) @ NN(-1) + NN(0) @ X(0) @ Y(-1) - X(0) @ Y(-2) - X(1) @ Y(-1)
            w12 = (
                X(2) - X(0) @ Y(-1) @ X(0) - NN(1) @ X(1) - X(1) @ Y(0) @ X(0)
                - NN(0) @ X(1) + NN(0) @ NN(0) @ X(0)
            )
            w21 = (
                Y(-3) - Y(-2) @ NN(-2) - Y(-2) @ NN(-1) - Y(-1) @ X(-1) @ Y(-2)
                + Y(-1) @ NN(-1) @ NN(-1) - Y(-1) @ X(0) @ Y(-1)
            )
            w22 = Y(-2) @ X(0) - Y(-1) @ NN(-1) @ X(0) + Y(-1) @ X(1) - Y(-1) @ NN(0) @ X(0)
            coeffs.insert(0, np.block([[w11, w12], [w21, w22]]))
        v.append(coeffs)
    # site-major lists -> (K, n_sites, d, d) coefficient stacks
    return np.swapaxes(np.array(lax), 0, 1), np.swapaxes(np.array(v), 0, 1)


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_stacks_match_printed_per_site_formulas(n_dim, m_dim, alpha):
    rng = np.random.default_rng(10 * n_dim + m_dim)
    st = dnls.random_state(rng, 7, n_dim, m_dim, scale=0.6, theta=0.8 + 0.3j)
    lax_ref, v_ref = printed_lax_and_v(st, alpha)
    assert np.abs(dnls.lax_coeffs(st) - lax_ref).max() < 1e-14
    assert np.abs(dnls.v_coeffs(st, alpha) - v_ref).max() < 1e-14
    lam = 0.6 - 1.1j
    lax_at = lax_ref[0] + lam * lax_ref[1]
    assert np.abs(dnls.lax_stacks(st, [lam])[0] - lax_at).max() < 1e-14


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_lax_stack_equals_evaluated_coefficients(n_dim, m_dim):
    # lax_stacks builds the entries directly; Horner on lax_coeffs rounds the same way
    st = dnls.random_state(np.random.default_rng(3), 9, n_dim, m_dim, scale=0.6, theta=0.8 + 0.3j)
    for lam in (0.0, 0.6 - 1.1j, -2.5, 3j):
        assert np.array_equal(dnls.lax_stacks(st, [lam])[0], laurent_eval(dnls.lax_coeffs(st), 0, lam))


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_evolve_matches_state_built_rk4(n_dim, m_dim, alpha):
    rng = np.random.default_rng(20 + 10 * n_dim + m_dim)
    st = dnls.random_state(rng, 9, n_dim, m_dim, scale=0.4, theta=0.8 + 0.3j)

    def build(src, dst):
        def rhs():
            # reference right-hand side: a full state per RK4 stage, no ghosts
            dst[0][...], dst[1][...] = dnls.eom_rhs(st.with_fields(*src), alpha)

        return [(rhs, ())]

    ref = rk4(build, st.x, st.y, 0, True, 1e-2, 25, 4)
    got = dnls.evolve(st, alpha, 1e-2, 25, 4)
    assert len(got) == len(ref) + 1 and got[0][0] == 0.0 and got[0][1] is st
    for (t, sample), (t_ref, x, y) in zip(got[1:], ref):
        assert t == t_ref
        assert sample.x.tobytes() == x.tobytes() and sample.y.tobytes() == y.tobytes()


# dt, steps, save_every that evolve and evolve_batch must refuse before stepping
BAD_RUN_ARGS = [
    (float("nan"), 5, None),
    (0.0, 5, None),
    (1e-3, -3, None),
    (1e-3, 5, 0),
    (1e-3, 5, -2),
]


@pytest.mark.parametrize("dt,steps,save_every", BAD_RUN_ARGS)
def test_evolve_rejects_bad_arguments(dt, steps, save_every):
    with pytest.raises(ValueError):
        dnls.evolve(dnls.zero_state(4), 1, dt, steps, save_every)


def _batch_members(rng, b, n_dim, m_dim, scale=0.4):
    thetas = (1.0, 0.8 + 0.3j, 1.2 - 0.1j)
    return [
        dnls.random_state(rng, 9, n_dim, m_dim, scale=scale, theta=thetas[k % 3]) for k in range(b)
    ]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_evolve_batch_matches_evolve(alpha, n_dim, m_dim, batch):
    rng = np.random.default_rng(40 + 10 * n_dim + m_dim + batch)
    states = _batch_members(rng, batch, n_dim, m_dim)
    got = dnls.evolve_batch(states, alpha, 1e-2, 25, 4)
    assert len(got) == batch
    for st, traj in zip(states, got):
        ref = dnls.evolve(st, alpha, 1e-2, 25, 4)
        assert len(traj) == len(ref) == 8 and traj[0][1] is st
        for (t, sample), (t_ref, sample_ref) in zip(traj, ref):
            assert t == t_ref and sample.theta == st.theta
            assert sample.x.tobytes() == sample_ref.x.tobytes()
            assert sample.y.tobytes() == sample_ref.y.tobytes()


def test_evolve_batch_blowup_names_member():
    rng = np.random.default_rng(5)
    states = _batch_members(rng, 3, 1, 1, scale=0.2)
    big = np.full((9, 1, 1), 50.0 + 0j)
    states[1] = states[1].with_fields(big, big)
    with pytest.raises(BlowUp) as single:
        dnls.evolve(states[1], 1, 0.1, 50)
    with pytest.raises(BlowUp) as info:
        dnls.evolve_batch(states, 1, 0.1, 50)
    assert info.value.step == single.value.step
    assert info.value.members == (1,)
    # the other members are still finite at the failing step
    for st in (states[0], states[2]):
        final = dnls.evolve(st, 1, 0.1, single.value.step)[-1][1]
        assert np.all(np.isfinite(final.x)) and np.all(np.isfinite(final.y))


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("alpha,first", [(1, 25), (2, 8)])
def test_blowup_report_does_not_depend_on_save_every(alpha, first, batched):
    # member 1 goes non-finite first and the others later, so a finiteness
    # test at a later sample sees more than the first non-finite step does
    states = _batch_members(np.random.default_rng(5), 3, 1, 1, scale=0.2)
    for k, scale in ((1, 1.0), (2, 0.6)):
        wild = dnls.random_state(np.random.default_rng(7), 9, scale=scale)
        states[k] = states[k].with_fields(wild.x, wild.y)
    reports = []
    for save_every in (None, 7, 1):
        with pytest.raises(BlowUp) as info:
            if batched:
                dnls.evolve_batch(states, alpha, 0.1, 100, save_every)
            else:
                dnls.evolve(states[1], alpha, 0.1, 100, save_every)
        reports.append((info.value.step, info.value.members))
    assert reports == [(first, (1,) if batched else None)] * 3


@pytest.mark.parametrize(
    "states",
    [
        [],
        [dnls.zero_state(4), dnls.zero_state(5)],
        [dnls.zero_state(4), dnls.zero_state(4, 1, 2)],
        [dnls.zero_state(4, 2, 1), dnls.zero_state(4, 1, 2)],
    ],
)
def test_evolve_batch_rejects_empty_or_mixed_shapes(states):
    # the library's own check, not the ValueError np.stack raises on mixed shapes
    with pytest.raises(ValueError, match="at least one state|must share"):
        dnls.evolve_batch(states, 1, 1e-3, 2)


def test_evolve_batch_rejects_unsupported_flow():
    with pytest.raises(FlowUnsupported):
        dnls.evolve_batch([dnls.zero_state(4)], 3, 1e-3, 2)


@pytest.mark.parametrize("dt,steps,save_every", BAD_RUN_ARGS)
def test_evolve_batch_rejects_bad_arguments(dt, steps, save_every):
    with pytest.raises(ValueError):
        dnls.evolve_batch([dnls.zero_state(4)] * 2, 1, dt, steps, save_every)
