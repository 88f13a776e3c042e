"""Reference evaluators that the tests hold the library's kernels to."""

import numpy as np


def laurent_eval(coeffs: np.ndarray, min_degree: int, lam: complex) -> np.ndarray:
    """sum_k lam^(min_degree + k) coeffs[k], summed over the leading axis.

    Horner on the positive part, then the Laurent tail.  A per-site stack of
    coefficients, shape (K, n_sites, d, d), evaluates to a per-site stack of
    matrices.
    """
    acc = np.zeros(coeffs.shape[1:], dtype=np.complex128)
    for c in coeffs[::-1]:
        acc = acc * lam + c
    return acc * lam**min_degree


def closed_form_charges(state) -> tuple[complex, complex, complex, complex]:
    """H1..H4 of one dnls state, one stacked product per term and the site shifts by ``np.roll``.

    The expression of :func:`lattice_akns.conserved.closed_form_charges`
    term by term, in its order of operations.
    """
    x, y, nn = state.x, state.y, state.nmat()

    def shift(a, k):
        return np.roll(a, -k, axis=0)

    def trsum(blocks):
        return complex(np.trace(blocks, axis1=1, axis2=2).sum())

    xy1 = x @ shift(y, -1)
    h1 = trsum(nn)
    h2 = trsum(xy1 - 0.5 * nn @ nn)
    h3 = trsum(x @ shift(y, -2) - (nn + shift(nn, -1)) @ xy1 + nn @ nn @ nn / 3.0)
    h4 = trsum(
        x @ shift(y, -3)
        - (shift(nn, -2) + shift(nn, -1) + nn) @ x @ shift(y, -2)
        + shift(nn, -1) @ nn @ xy1
        + (shift(nn, -1) @ shift(nn, -1) + nn @ nn) @ xy1
        - 0.5 * xy1 @ xy1
        - xy1 @ shift(x, -1) @ shift(y, -2)
        - 0.25 * nn @ nn @ nn @ nn
    )
    return h1, h2, h3, h4
