import numpy as np
import pytest

from lattice_akns import lattice


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
