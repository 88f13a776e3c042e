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
