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


@pytest.mark.parametrize("dt,steps,save_every", BAD_RUN_ARGS)
def test_rk4_rejects_bad_arguments(dt, steps, save_every):
    calls = []

    def rhs(u, v):
        calls.append(1)
        return u, v

    a = np.ones((3, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        lattice.rk4(rhs, a, a, dt, steps, save_every)
    assert not calls


def test_rk4_names_nonfinite_members():
    # three members on axis 1; the middle one starts near the float64 limit and overflows
    a = np.ones((4, 3, 1, 1), dtype=complex)
    a[:, 1] = 1e308

    def rhs(u, v):
        return u, v

    with pytest.raises(BlowUp) as info:
        lattice.rk4(rhs, a, np.zeros_like(a), 1.0, 3, member_axis=1)
    assert info.value.step == 1
    assert info.value.members == (1,)
    with pytest.raises(BlowUp) as info:
        lattice.rk4(rhs, a, np.zeros_like(a), 1.0, 3)
    assert info.value.members is None
