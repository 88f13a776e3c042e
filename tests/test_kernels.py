"""The lattice kernels against references written out here.

The block product against ``@``, the site shift against ``np.roll`` and an
explicit zero padding, the dnls V coefficients against the same formulas
over ``np.roll`` shifts, and both models' right-hand sides and RK4 runs
against the printed equations of motion, evaluated site by site; and the
saved RK4 samples of every integrator entry point as snapshots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns import al, dnls, lattice


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(
    # leading axes: none, sites, or sites and a member axis (and one more)
    lead=st.lists(st.integers(1, 5), min_size=0, max_size=3),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_bmm_matches_matmul(lead, n, k, m, seed):
    rng = np.random.default_rng(seed)
    a = _cplx(rng, (*lead, n, k))
    b = _cplx(rng, (*lead, k, m))
    got = lattice.bmm(a, b)
    assert got.shape == (*lead, n, m)
    assert np.abs(got - a @ b).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()
    # written in place, the same sum in the same order
    out = np.empty_like(got)
    assert lattice.bmm(a, b, out=out) is out
    assert out.tobytes() == got.tobytes()


@pytest.mark.parametrize("a_shape, b_shape", [((3, 2, 1), (3, 2, 2)), ((3, 2, 2), (3, 3, 2)), ((2, 3), (2, 3))])
def test_bmm_rejects_mismatched_inner_dimensions(a_shape, b_shape):
    a, b = np.ones(a_shape, complex), np.ones(b_shape, complex)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        lattice.bmm(a, b)


def _zero_padded(a, k):
    out = np.zeros_like(a)
    for n in range(len(a)):
        if 0 <= n + k < len(a):
            out[n] = a[n + k]
    return out


def _offsets(n):
    """Offsets within the ghost range and past the lattice, beyond one or two wraps."""
    return (*range(-3, 4), n, -n, n + 1, -n - 1, 2 * n + 1, -2 * n - 1, -n - 2)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n_sites", range(1, 8))
def test_halo_shifts_match_references(n_sites, periodic):
    a = 1.0 + np.arange(n_sites * 2 * 3, dtype=complex).reshape(n_sites, 2, 3)
    for k in _offsets(n_sites):
        got = lattice.shift(a, k, periodic)
        ref = np.roll(a, -k, axis=0) if periodic else _zero_padded(a, k)
        assert got.shape == a.shape
        assert np.array_equal(got, ref), k
        assert not np.shares_memory(got, a)


def v_rolled(state, alpha):
    """The flow-alpha V coefficients as printed, every site shift an ``np.roll``."""
    X, Y, NN = ({k: np.roll(a, -k, axis=0) for k in range(-3, 3)} for a in (state.x, state.y, state.nmat()))
    coeffs = [(0, X[0], Y[-1], 0), (0.5, 0, 0, -0.5)]
    if alpha >= 2:
        coeffs.insert(0, (-X[0] @ Y[-1], X[1] - NN[0] @ X[0], Y[-2] - Y[-1] @ NN[-1], Y[-1] @ X[0]))
    if alpha == 3:
        coeffs.insert(0, (
            X[0] @ Y[-1] @ NN[-1] + NN[0] @ X[0] @ Y[-1] - X[0] @ Y[-2] - X[1] @ Y[-1],
            X[2] - X[0] @ Y[-1] @ X[0] - NN[1] @ X[1] - X[1] @ Y[0] @ X[0] - NN[0] @ X[1] + NN[0] @ NN[0] @ X[0],
            Y[-3] - Y[-2] @ NN[-2] - Y[-2] @ NN[-1] - Y[-1] @ X[-1] @ Y[-2] + Y[-1] @ NN[-1] @ NN[-1]
            - Y[-1] @ X[0] @ Y[-1],
            Y[-2] @ X[0] - Y[-1] @ NN[-1] @ X[0] + Y[-1] @ X[1] - Y[-1] @ NN[0] @ X[0],
        ))
    return lattice.block_stack(state.n_sites, state.n_dim, state.m_dim, *coeffs)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("alpha", dnls.V_OPERATOR_FLOWS)
def test_v_coeffs_match_rolled_reference(alpha, n_sites):
    # at N <= 3 the offsets -3..2 wrap past the lattice
    rng = np.random.default_rng(500 + n_sites)
    for n_dim, m_dim in WIDTHS:
        state = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6, theta=THETA)
        assert dnls.v_coeffs(state, alpha).tobytes() == v_rolled(state, alpha).tobytes(), (n_dim, m_dim)


# --------------------------------------------------------------------------
# printed equations of motion, one site at a time
# --------------------------------------------------------------------------


def _site(a, periodic):
    """a_k with k wrapped, or a zero block outside the window."""
    size = len(a)

    def get(k):
        if periodic:
            return a[k % size]
        return a[k] if 0 <= k < size else np.zeros_like(a[0])

    return get


def dnls_printed(x, y, theta, alpha):
    size, nd = x.shape[0], x.shape[1]
    X, Y = _site(x, True), _site(y, True)

    def nn(k):
        return theta * np.eye(nd) + X(k) @ Y(k)

    dx, dy = np.zeros_like(x), np.zeros_like(y)
    for n in range(size):
        if alpha == 1:
            dx[n] = X(n + 1) - nn(n) @ X(n)
            dy[n] = Y(n) @ nn(n) - Y(n - 1)
        else:
            dx[n] = (
                X(n + 2)
                - (nn(n) + nn(n + 1)) @ X(n + 1)
                + nn(n) @ nn(n) @ X(n)
                - X(n + 1) @ Y(n) @ X(n)
                - X(n) @ Y(n - 1) @ X(n)
            )
            dy[n] = (
                Y(n) @ X(n) @ Y(n - 1)
                + Y(n - 1) @ (nn(n) + nn(n - 1))
                - Y(n) @ nn(n) @ nn(n)
                + Y(n) @ X(n + 1) @ Y(n)
                - Y(n - 2)
            )
    return dx, dy


def al_printed(bh, b, periodic, variant):
    BH, B = _site(bh, periodic), _site(b, periodic)
    dbh, db = np.zeros_like(bh), np.zeros_like(b)
    for n in range(len(bh)):
        if variant == al.VARIANT_AL:
            dbh[n] = (
                BH(n + 1) + BH(n - 1) - 2 * BH(n)
                - BH(n) @ B(n) @ BH(n - 1) - BH(n + 1) @ B(n) @ BH(n)
            )
            db[n] = (
                -B(n + 1) - B(n - 1) + 2 * B(n)
                + B(n + 1) @ BH(n) @ B(n) + B(n) @ BH(n) @ B(n - 1)
            )
        else:
            dbh[n] = (
                BH(n + 1) - BH(n - 1)
                + BH(n) @ B(n) @ BH(n - 1) - BH(n + 1) @ B(n) @ BH(n)
            )
            db[n] = (
                B(n + 1) - B(n - 1)
                - B(n + 1) @ BH(n) @ B(n) + B(n) @ BH(n) @ B(n - 1)
            )
    return dbh, db


def _close(got, ref, tol=1e-13):
    scale = max(1.0, max(np.abs(r).max() for r in ref))
    return all(np.abs(g - r).max() < tol * scale for g, r in zip(got, ref))


WIDTHS = [(1, 1), (1, 2), (2, 1), (2, 2)]
THETA = 0.8 + 0.3j


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
@pytest.mark.parametrize("alpha", [1, 2])
def test_dnls_eom_matches_printed_equations(alpha, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(100 * n_sites + 10 * n_dim + m_dim)
    state = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6, theta=THETA)
    other = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6, theta=1.2 - 0.1j)
    ref = dnls_printed(state.x, state.y, THETA, alpha)
    # the right-hand side lattice.evolve steps, on two members stacked at axis 1
    flow, theta_eye = dnls.FLOWS[alpha], dnls.DnlsState.constants((state, other), np.asarray)
    x, y = (np.stack(pair, axis=1) for pair in ((state.x, other.x), (state.y, other.y)))
    dx, dy = lattice.padded_rhs(flow.rhs(theta_eye), x, y, flow.ghosts, True)
    assert _close((dx[:, 0], dy[:, 0]), ref)
    assert _close((dx[:, 1], dy[:, 1]), dnls_printed(other.x, other.y, other.theta, alpha))
    assert _close(lattice.eom_rhs(state, dnls.FLOWS[alpha]), ref)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", al.VARIANTS)
def test_al_eom_matches_printed_equations(variant, boundary, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(200 * n_sites + 10 * n_dim + m_dim)
    state = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.6, boundary=boundary)
    other = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.6, boundary=boundary)
    periodic = state.periodic
    ref = al_printed(state.bhat, state.b, periodic, variant)
    # the right-hand side lattice.evolve steps, on two members stacked at axis 1
    bh, b = (np.stack(pair, axis=1) for pair in ((state.bhat, other.bhat), (state.b, other.b)))
    flow = al.FLOWS[variant]
    dbh, db = lattice.padded_rhs(flow.rhs(None), bh, b, flow.ghosts, periodic)
    assert _close((dbh[:, 0], db[:, 0]), ref)
    assert _close((dbh[:, 1], db[:, 1]), al_printed(other.bhat, other.b, periodic, variant))
    assert _close(lattice.eom_rhs(state, al.FLOWS[variant]), ref)


def rk4_printed(rhs, u, v, dt, steps):
    for _ in range(steps):
        k1 = rhs(u, v)
        k2 = rhs(u + dt / 2 * k1[0], v + dt / 2 * k1[1])
        k3 = rhs(u + dt / 2 * k2[0], v + dt / 2 * k2[1])
        k4 = rhs(u + dt * k3[0], v + dt * k3[1])
        u = u + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return u, v


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
@pytest.mark.parametrize("alpha", [1, 2])
def test_evolve_matches_printed_rk4(alpha, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(300 + 100 * n_sites + 10 * n_dim + m_dim)
    state = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.5, theta=THETA)
    final = dnls.evolve(state, alpha, 1e-2, 20)[-1][1]
    ref = rk4_printed(lambda x, y: dnls_printed(x, y, THETA, alpha), state.x, state.y, 1e-2, 20)
    assert _close((final.x, final.y), ref)
    # batch members, each against its own printed run
    members = [state, dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.5, theta=1.2 - 0.1j)]
    for member, traj in zip(members, lattice.evolve(members, dnls.FLOWS[alpha], 1e-2, 20)):
        th = member.theta
        ref = rk4_printed(lambda x, y: dnls_printed(x, y, th, alpha), member.x, member.y, 1e-2, 20)
        assert _close((traj[-1][1].x, traj[-1][1].y), ref)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", al.VARIANTS)
def test_al_evolve_matches_printed_rk4(variant, boundary, n_sites):
    rng = np.random.default_rng(400 + n_sites)
    for n_dim, m_dim in WIDTHS:
        state = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.5, boundary=boundary)
        final = al.al_evolve(state, variant, 1e-2, 20)[-1][1]
        periodic = state.periodic
        ref = rk4_printed(lambda bh, b: al_printed(bh, b, periodic, variant), state.bhat, state.b, 1e-2, 20)
        assert _close((final.bhat, final.b), ref), (n_dim, m_dim)


# --------------------------------------------------------------------------
# the parent formulation: closures of allocating bmm calls stepped by an
# allocating RK4, the same ufunc calls in the same order as the programs
# --------------------------------------------------------------------------


def _shifted(a, k, periodic):
    return np.roll(a, -k, axis=0) if periodic else _zero_padded(a, k)


def dnls_bmm(theta_eye, alpha):
    """Flow-alpha right-hand side of (x, y) as a closure over lattice.bmm."""
    bmm = lattice.bmm

    def rhs(x, y):
        x1, y1m = _shifted(x, 1, True), _shifted(y, -1, True)
        nn = theta_eye + bmm(x, y)
        if alpha == 1:
            return x1 - bmm(nn, x), bmm(y, nn) - y1m
        nn1, nn1m = _shifted(nn, 1, True), _shifted(nn, -1, True)
        m = (bmm(nn, nn) - bmm(x1, y)) - bmm(x, y1m)
        dx = (_shifted(x, 2, True) - bmm(nn + nn1, x1)) + bmm(m, x)
        dy = (bmm(y1m, nn + nn1m) - bmm(y, m)) - _shifted(y, -2, True)
        return dx, dy

    return rhs


def al_bmm(variant, periodic):
    """The variant's right-hand side of (bhat, b) as a closure over lattice.bmm."""
    bmm = lattice.bmm

    def rhs(bh, b):
        bh_p, bh_m, b_p, b_m = (_shifted(a, k, periodic) for a in (bh, b) for k in (1, -1))
        p, q = bmm(bh, b), bmm(b, bh)
        if variant == al.VARIANT_AL:
            dbh = (((bh_p + bh_m) - 2 * bh) - bmm(p, bh_m)) - bmm(bh_p, q)
            db = ((((-b_p) - b_m) + 2 * b) + bmm(b_p, p)) + bmm(q, b_m)
        else:
            dbh = ((bh_p - bh_m) + bmm(p, bh_m)) - bmm(bh_p, q)
            db = ((b_p - b_m) - bmm(b_p, p)) + bmm(q, b_m)
        return dbh, db

    return rhs


def rk4_bmm(rhs, u, v, dt, steps, save_every):
    """Allocating RK4 in lattice.rk4's order: z + c k per stage, then z + (dt/6)(((k1 + 2k2) + 2k3) + k4)."""
    half, full, two, sixth = (np.complex128(c) for c in (0.5 * dt, dt, 2, dt / 6.0))
    z, samples = (u, v), []
    for step in range(1, steps + 1):
        k1 = rhs(*z)
        k2 = rhs(*(a + half * k for a, k in zip(z, k1)))
        k3 = rhs(*(a + half * k for a, k in zip(z, k2)))
        k4 = rhs(*(a + full * k for a, k in zip(z, k3)))
        z = tuple(a + sixth * (((c1 + two * c2) + two * c3) + c4) for a, c1, c2, c3, c4 in zip(z, k1, k2, k3, k4))
        if step % save_every == 0 or step == steps:
            samples.append((step * dt, *z))
    return samples


def _same_samples(got, ref, member=...):
    """got[1:] (time, state) equal to ref (time, upper, lower) bit for bit, ref on ``member`` of a batch."""
    assert len(got) == len(ref) + 1
    for (t, state), (t_ref, *fields) in zip(got[1:], ref):
        assert t == t_ref
        assert all(a.tobytes() == f[member].tobytes() for a, f in zip(_fields(state), fields))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
@pytest.mark.parametrize("alpha", [1, 2])
def test_evolve_matches_bmm_closure_rk4_bit_for_bit(alpha, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(600 + 100 * n_sites + 10 * n_dim + m_dim)
    members = [dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.5, theta=th) for th in (THETA, 1.2 - 0.1j)]
    first = members[0]
    ref = rk4_bmm(dnls_bmm(first.theta * np.eye(n_dim)[None], alpha), first.x, first.y, 1e-2, 10, 3)
    _same_samples(dnls.evolve(first, alpha, 1e-2, 10, 3), ref)
    theta_eye = np.array([st.theta for st in members])[:, None, None] * np.eye(n_dim)
    x, y = (np.stack([getattr(st, name) for st in members], axis=1) for name in ("x", "y"))
    ref = rk4_bmm(dnls_bmm(theta_eye, alpha), x, y, 1e-2, 10, 3)
    for b, traj in enumerate(lattice.evolve(members, dnls.FLOWS[alpha], 1e-2, 10, 3)):
        _same_samples(traj, ref, (slice(None), b))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12])
@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
@pytest.mark.parametrize("boundary", [al.PERIODIC, al.VANISHING])
@pytest.mark.parametrize("variant", al.VARIANTS)
def test_al_evolve_matches_bmm_closure_rk4_bit_for_bit(variant, boundary, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(700 + 100 * n_sites + 10 * n_dim + m_dim)
    state = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.5, boundary=boundary)
    ref = rk4_bmm(al_bmm(variant, state.periodic), state.bhat, state.b, 1e-2, 10, 3)
    _same_samples(al.al_evolve(state, variant, 1e-2, 10, 3), ref)


@pytest.mark.parametrize("n_dim,m_dim", WIDTHS)
def test_built_programs_step_only_ufuncs(n_dim, m_dim):
    rng = np.random.default_rng(800 + 10 * n_dim + m_dim)
    x, y = lattice.random_fields(rng, 5, n_dim, m_dim, 0.5)
    builders = [(flow.rhs(THETA * np.eye(n_dim)[None]), flow.ghosts) for flow in dnls.FLOWS.values()]
    builders += [(flow.rhs(None), flow.ghosts) for flow in al.FLOWS.values()]
    for build, ghosts in builders:
        src = tuple(lattice._halo(a, ghosts, ghosts, True) for a in (x, y))
        program = build(src, (np.empty_like(x), np.empty_like(y)))
        assert program
        for fn, args in program:
            assert isinstance(fn, np.ufunc) or fn is np.copyto, fn
            assert isinstance(args, tuple)


def _fields(state):
    return [getattr(state, name) for name in state.FIELDS]


def _runs(n_sites=5):
    """(label, run(steps, save_every) -> samples) for every integrator entry point."""
    rng = np.random.default_rng(7)
    d = dnls.random_state(rng, n_sites, 1, 2, scale=0.5, theta=THETA)
    d2 = dnls.random_state(rng, n_sites, 1, 2, scale=0.5)
    runs = [
        (f"dnls-{alpha}", lambda s, k, alpha=alpha: dnls.evolve(d, alpha, 1e-2, s, k)) for alpha in (1, 2)
    ]
    runs += [
        (f"batch-{alpha}", lambda s, k, alpha=alpha: lattice.evolve([d, d2], dnls.FLOWS[alpha], 1e-2, s, k)[1])
        for alpha in (1, 2)
    ]
    for boundary in (al.PERIODIC, al.VANISHING):
        a = al.random_state(rng, n_sites, 2, 1, scale=0.4, boundary=boundary)
        runs.append((f"al-{boundary}", lambda s, k, a=a: al.al_evolve(a, al.VARIANT_AL, 1e-2, s, k)))
    return runs


@pytest.mark.parametrize("label,run", _runs())
def test_saved_samples_are_snapshots(label, run):
    steps = 6
    samples = run(steps, 1)
    assert [t for t, _ in samples] == [k * 1e-2 for k in range(steps + 1)]
    arrays = [a for _, st in samples for a in _fields(st)]
    assert not any(a.flags.writeable for a in arrays)
    for k, (_, st) in enumerate(samples[1:], start=1):
        # sample k is what a run of exactly k steps ends on
        assert all(a.tobytes() == b.tobytes() for a, b in zip(_fields(st), _fields(run(k, None)[-1][1])))
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
