import numpy as np
import pytest

from lattice_akns import lattice
from lattice_akns.errors import BlowUp


def padded_reference(a, k):
    out = np.zeros_like(a)
    for n in range(a.shape[0]):
        if 0 <= n + k < a.shape[0]:
            out[n] = a[n + k]
    return out


@pytest.mark.parametrize("k", range(-7, 8))
def test_periodic_shift_wraps(k):
    a = np.arange(3 * 2 * 2, dtype=complex).reshape(3, 2, 2)
    assert np.array_equal(lattice.shift(a, k), np.roll(a, -k, axis=0))
    assert np.array_equal(lattice.shift(a, k, periodic=True), a[(np.arange(3) + k) % 3])


@pytest.mark.parametrize("k", range(-7, 8))
def test_zero_padded_shift(k):
    a = 1.0 + np.arange(3 * 1 * 2, dtype=complex).reshape(3, 1, 2)
    out = lattice.shift(a, k, periodic=False)
    assert out.shape == a.shape
    assert np.array_equal(out, padded_reference(a, k))
    if abs(k) >= 3:
        assert not out.any()


def test_shift_does_not_alias_its_input():
    a = np.ones((4, 1, 1), dtype=complex)
    for periodic in (True, False):
        out = lattice.shift(a, 0, periodic)
        out[0] = 5.0
        assert a[0, 0, 0] == 1.0


def test_block_stack_with_a_member_axis_stacks_each_members_blocks():
    rng = np.random.default_rng(0)
    n, members, nd, md = 4, 3, 1, 2
    upper = rng.normal(size=(n, members, nd, md)) + 0j
    diag = rng.normal(size=members) + 1j * rng.normal(size=members)
    lower = upper.transpose(0, 1, 3, 2)
    got = lattice.block_stack((n, members), nd, md, (diag, upper, 0, 1.0), (2.0, 0, lower, 0))
    assert got.shape == (2, n, members, nd + md, nd + md)
    for b in range(members):
        want = lattice.block_stack(n, nd, md, (diag[b], upper[:, b], 0, 1.0), (2.0, 0, lower[:, b], 0))
        assert np.array_equal(got[:, :, b], want)


def test_shape_groups_split_by_model_shape_and_boundary():
    from lattice_akns import al, dnls

    states = [
        dnls.zero_state(4),
        al.zero_state(4),
        dnls.zero_state(4, 1, 2),
        al.zero_state(4, boundary=al.VANISHING),
        dnls.zero_state(4, theta=2.0),
        al.zero_state(4),
        dnls.zero_state(5),
    ]
    assert lattice.shape_groups(states) == [[0, 4], [1, 5], [2], [3], [6]]


# dt, steps, save_every that the integrator must refuse before stepping
BAD_RUN_ARGS = [
    (float("nan"), 5, None),
    (float("inf"), 5, None),
    (0.0, 5, None),
    (-1e-3, 5, None),
    (1e-3, -3, None),
    (1e-3, 5, 0),
    (1e-3, 5, -2),
]


def identity_rhs(ghosts, calls=None):
    """Builder of d/dt (u, v) = (u, v) for lattice.rk4; logs builds and calls in ``calls``."""

    def build(src, dst):
        if calls is not None:
            calls.append("build")
        n = len(dst[0])

        def rhs():
            if calls is not None:
                calls.append("rhs")
            for s, d in zip(src, dst):
                d[...] = s[ghosts : ghosts + n]

        return [(rhs, ())]

    return build


@pytest.mark.parametrize("dt,steps,save_every", BAD_RUN_ARGS)
def test_rk4_rejects_bad_arguments(dt, steps, save_every):
    calls = []
    a = np.ones((3, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        lattice.rk4(identity_rhs(1, calls), a, a, 1, True, dt, steps, save_every)
    # neither built nor run
    assert not calls


def test_block_product_width_mismatch_fails_when_the_program_is_built():
    calls = []

    def build(src, dst):
        calls.append("build")
        # (n, 1, 2) blocks times (n, 1, 2) blocks: inner widths 2 and 1
        return [(calls.append, ("rhs",)), *lattice.block_product(dst[0], dst[0], np.empty_like(dst[0]))]

    a = np.ones((3, 1, 2), dtype=complex)
    with pytest.raises(ValueError, match="inner dimensions"):
        lattice.rk4(build, a, a.transpose(0, 2, 1), 1, True, 0.1, 2)
    # built, never stepped
    assert calls == ["build"]
    with pytest.raises(ValueError, match="inner dimensions"):
        lattice.block_product(a, a, np.empty((3, 1, 2), dtype=complex))


def test_rk4_names_nonfinite_members():
    # four-axis stacks: three members on axis 1; the middle one starts near the float64 limit and overflows
    a = np.ones((4, 3, 1, 1), dtype=complex)
    a[:, 1] = 1e308
    rhs = identity_rhs(1)
    with pytest.raises(BlowUp) as info:
        lattice.rk4(rhs, a, np.zeros_like(a), 1, True, 1.0, 3)
    assert info.value.step == 1
    assert info.value.members == (1,)
    # one three-axis state: no member axis to name
    with pytest.raises(BlowUp) as info:
        lattice.rk4(rhs, a[:, 1], np.zeros_like(a[:, 1]), 1, True, 1.0, 3)
    assert info.value.members is None


def ghost_padded(a, ghosts, periodic):
    """a on sites -ghosts .. n_sites + ghosts - 1: wrapped, or zero past the ends."""
    n = len(a)
    rows = []
    for site in range(-ghosts, n + ghosts):
        if periodic:
            rows.append(a[site % n])
        else:
            rows.append(a[site] if 0 <= site < n else np.zeros_like(a[0]))
    return np.array(rows)


def recording_rhs(ghosts, seen):
    """Builder of d/dt (u, v) = (u, v) that records a copy of its padded sources at every call."""
    identity = identity_rhs(ghosts)

    def build(src, dst):
        return [(lambda: seen.append(tuple(s.copy() for s in src)), ()), *identity(src, dst)]

    return build


# ghost widths at, above and below the number of sites
@pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
@pytest.mark.parametrize("ghosts", [0, 1, 2, 3])
@pytest.mark.parametrize("periodic", [True, False])
def test_padded_sources_wrap_or_stay_zero(n_sites, ghosts, periodic):
    rng = np.random.default_rng(10 * n_sites + ghosts)
    u = rng.standard_normal((n_sites, 1, 2)) + 1j * rng.standard_normal((n_sites, 1, 2))
    v = rng.standard_normal((n_sites, 2, 1)) + 1j
    seen = []
    du, dv = lattice.padded_rhs(recording_rhs(ghosts, seen), u, v, ghosts, periodic)
    assert np.array_equal(du, u) and np.array_equal(dv, v)
    (src,) = seen
    assert np.array_equal(src[0], ghost_padded(u, ghosts, periodic))
    assert np.array_equal(src[1], ghost_padded(v, ghosts, periodic))
    # on a periodic lattice RK4 stage s reads (5 - s) * ghosts sites past each
    # end, the sites that the stages after it depend on; on a vanishing
    # window every stage reads ghosts zero sites.  Each of the eight sources
    # of two steps is the padding of its own sites at its stage's width
    seen.clear()
    lattice.rk4(recording_rhs(ghosts, seen), u, v, ghosts, periodic, 0.1, 2)
    widths = [4 * ghosts, 3 * ghosts, 2 * ghosts, ghosts] if periodic else [ghosts] * 4
    assert len(seen) == 8
    for width, src in zip(widths * 2, seen):
        for s in src:
            assert len(s) == n_sites + 2 * width
            assert np.array_equal(s, ghost_padded(s[width : width + n_sites], width, periodic))


def test_rk4_matches_exponential_growth():
    # d/dt u = u: one classic RK4 step multiplies by 1 + h + h^2/2 + h^3/6 + h^4/24
    a = np.full((3, 1, 1), 1.0 + 0.5j)
    h = 0.1
    ((t, u, v),) = lattice.rk4(identity_rhs(1), a, 2 * a, 1, True, h, 1)
    growth = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert t == h
    assert np.allclose(u, growth * a, rtol=1e-15) and np.allclose(v, 2 * growth * a, rtol=1e-15)
