import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns.numtext import e17_cells, e17_strs, unpadded


def _ties(rng, per_exponent):
    """Doubles m / 2**k whose 19-digit decimal expansion ends in 5: ties at the 18th digit."""
    out = []
    for k in range(3, 27):
        low, high = -(-(10**18) // 5**k), min((10**19 - 1) // 5**k, 2**53 - 1)
        m = rng.integers(low, high + 1, per_exponent) | 1
        out.append(np.ldexp(m[m <= high].astype(np.float64), -k))
    return np.concatenate(out)


def test_e17_matches_python_on_a_million_doubles():
    rng = np.random.default_rng(29)
    # 10**k and its neighbours 1-3 ulp away on either side, k = -300..300
    near_powers = [np.array([float(f"1e{k}") for k in range(-300, 301)])]
    for direction in (np.inf, -np.inf):
        v = near_powers[0]
        for _ in range(3):
            v = np.nextafter(v, direction)
            near_powers.append(v)
    ties = _ties(rng, 2000)
    edges = np.array([1e-280, 1e280, 5e-324, 2.2250738585072014e-308, 1.0, 0.5])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), [1.7976931348623157e308]])
    signed = np.concatenate(
        [
            *near_powers,
            ties,
            np.nextafter(ties, 0),
            np.nextafter(ties, np.inf),
            rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64),  # subnormals
            edges,
            [0.0, np.inf, np.nan],
        ]
    )
    values = np.concatenate(
        [
            rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64),  # both signs
            rng.normal(size=300_000) * np.exp(rng.uniform(-700, 700, 300_000)),
            signed,
            -signed,
        ]
    )
    assert values.size >= 10**6
    assert e17_strs(values) == ["%.17e" % v for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_e17_matches_python_on_any_floats(values):
    assert e17_strs(np.array(values)) == ["%.17e" % v for v in values]


@pytest.mark.parametrize("values", [[0.1, -0.0, np.inf, -2.5e-300, 5e-324, -1e23, np.nan], []])
def test_e17_cells_are_python_text_padded_with_nuls(values):
    cells = e17_cells(np.array(values))
    assert cells.shape == (len(values), 36)
    assert [bytes(row[row != 0]) for row in cells] == [b"%.17e" % v for v in values]


@pytest.mark.parametrize("buf", [np.zeros((0, 36), np.uint8), np.zeros((3, 36), np.uint8), np.zeros(0, np.uint8)])
def test_unpadded_of_empty_and_all_nul_buffers(buf):
    assert unpadded(buf) == b""


def test_unpadded_keeps_the_other_bytes_in_order():
    buf = np.frombuffer(b"a\0b\0\0c\n\0", dtype=np.uint8).reshape(2, 4)
    assert unpadded(buf) == b"abc\n"
    # a non-contiguous view reads in row order, as a copy would
    assert unpadded(buf[::-1]) == b"c\nab"
