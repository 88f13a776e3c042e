"""Python's ``'%.17e'`` text of float arrays, formatted in one numpy pass.

The CSV writers of :mod:`lattice_akns.cli` write every number as
``'%.17e' % v`` writes it.  :func:`e17_cells` gives that text for a whole
array, one row of NUL-padded ASCII bytes per value, and :func:`e17_strs` the
same as a list of str.  For 1e-280 <= |v| <= 1e280 the 18 printed digits are
the integer nearest |v| 10**(17 - D), D = floor(log10 |v|), formed in
double-double and accepted only where the rounding is proven
(:func:`_nearest18`); the digits and exponent then come from small tables.
Zeros are written directly, and every other value goes to Python's
formatter: inf, nan, |v| outside that range, near-ties (Python rounds an
exact tie half to even) and digits that round to a power of ten.

This is a module of its own because compiling the package's largest source
file, ``cli.py``, sets the peak memory of an import.  Its tables are built
from Python strings, so importing it runs no numpy operation that the
package's other imports do not.
"""

import numpy as np

# "abc\0" at k = abc, then "a.bc" at 1000 + abc, the leading group of the 18 digits
_DIGITS = np.frombuffer(
    (
        "%03d\0" * 1000 % tuple(range(1000))
        + "".join(f"{h}.%02d" * 100 for h in range(10)) % (tuple(range(100)) * 10)
    ).encode(),
    dtype=np.uint32,
)
# the exponent's digits, at least two as Python writes them: "05", "300"
_EXPONENT = np.frombuffer(
    ("%02d\0\0" * 100 % tuple(range(100)) + "%d\0" * 900 % tuple(range(100, 1000))).encode(), dtype=np.uint32
)
_EXPONENT_SIGN = np.frombuffer(b"e+\0\0e-\0\0", dtype=np.uint32)


def _pow10(p: int) -> tuple[float, float]:
    """``(hi, lo)``: hi the double nearest 10**p, lo the double nearest 10**p - hi.

    Python's int division and int-to-float conversion both round correctly.
    """
    if p >= 0:
        hi = float(10**p)
        return hi, float(10**p - int(hi))
    den = 10**-p
    hi = 1 / den
    num, hi_den = hi.as_integer_ratio()
    return hi, (hi_den - num * den) / (hi_den * den)


def _split(a):
    """Veltkamp's split of doubles into 26-bit halves, whose products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _nearest18(a: np.ndarray):
    """``(q, d, exact)`` for magnitudes ``a``: q the integer nearest y = a 10**(17 - d), d = floor(log10 a).

    y is formed in double-double: 10**(17 - d) as a pair hi + lo, built for the
    exponents that occur, a hi exactly by Dekker's product and a lo in floating
    point, so y is off by less than 1e-13.  ``exact`` marks the q that are proven
    Python's 18 digits: 1e-280 <= a <= 1e280, y more than 1e-6 from a tie, and
    10**17 < q < 10**18, which also proves d right where log10 rounds across a
    power of ten.
    """
    exact = (a >= 1e-280) & (a <= 1e280)
    a = np.where(exact, a, 1.0)
    d = np.floor(np.log10(a)).astype(np.int64)
    p = 17 - d
    low = int(p.min())
    p -= low
    pairs = np.zeros((2, int(p.max()) + 1))
    for k in np.flatnonzero(np.bincount(p)).tolist():
        pairs[:, k] = _pow10(low + k)
    hi, lo = pairs[:, p]
    y_hi = a * hi
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(hi)
    # Dekker's error term of a hi, then a lo
    y_lo = a_hi * b_hi
    y_lo -= y_hi
    y_lo += a_hi * b_lo
    y_lo += a_lo * b_hi
    y_lo += a_lo * b_lo
    y_lo += a * lo
    # y_hi is an integer wherever q is exact (y_hi >= 2**53); the clip keeps the cast in range
    rounded = np.rint(y_lo)
    q = np.minimum(y_hi, 2e18).astype(np.int64) + rounded.astype(np.int64)
    exact &= (np.abs(y_lo - rounded) < 0.5 - 1e-6) & (q > 10**17) & (q < 10**18)
    return q, d, exact


def e17_cells(values) -> np.ndarray:
    """``'%.17e' % v`` of each value as a row of ASCII bytes padded with NULs, shape (n, 36).

    Each row without its NULs is Python's text: the values whose digits
    :func:`_nearest18` proves, and zeros, from the tables, every other value
    from Python's ``'%.17e'``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    cell = np.zeros((x.size, 9), dtype=np.uint32)
    if x.size == 0:
        return cell.view(np.uint8)
    q, d, exact = _nearest18(np.abs(x))
    zero = x == 0
    # q < 10**18 where exact and 0 elsewhere (a zero is written from it, the others are replaced
    # below), so each half of the 18 digits is below 10**9 < 2**31
    q[~exact] = 0
    hi = q // 10**9
    halves = np.empty((2, x.size), dtype=np.int32)
    halves[0] = hi
    np.subtract(q, hi * 10**9, out=halves[1], casting="unsafe")
    # the 18 digits in six groups of three, three per half, the first group with its decimal point
    groups = np.empty((2, 3, x.size), dtype=np.int32)
    np.floor_divide(halves, 10**6, out=groups[:, 0])
    thousands = halves // 1000
    np.subtract(thousands, groups[:, 0] * 1000, out=groups[:, 1])
    np.subtract(halves, thousands * 1000, out=groups[:, 2])
    groups[0, 0] += 1000
    cell[:, 0] = np.signbit(x) * ord("-")
    cell[:, 1:7] = np.take(_DIGITS, groups.reshape(6, x.size)).T
    cell[:, 7] = _EXPONENT_SIGN[(d < 0).view(np.uint8)]
    cell[:, 8] = _EXPONENT[np.abs(d)]
    cell = cell.view(np.uint8)
    fallback = np.flatnonzero(~(exact | zero))
    if fallback.size:
        texts = padded(("%.17e " * fallback.size % tuple(x[fallback].tolist())).split())
        cell[fallback] = 0
        cell[fallback, : texts.shape[1]] = texts
    return cell


def unpadded(buf: np.ndarray) -> bytes:
    """The bytes of ``buf`` in order, without its NULs."""
    return buf.tobytes().translate(None, b"\0")


def e17_strs(values) -> list[str]:
    """``'%.17e' % v`` of each value, as a list."""
    cells = e17_cells(values)
    # a comma after each value
    cells = np.concatenate([cells, np.full((len(cells), 1), ord(","), np.uint8)], axis=1)
    return unpadded(cells).decode("ascii").split(",")[:-1]


def padded(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded byte array."""
    rows = np.array(texts, dtype=bytes)
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)
