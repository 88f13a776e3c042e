"""Dense complex block-matrix substrate.

Matrices are plain ``numpy`` arrays of ``complex128``; this module adds the
structures the lattice hierarchies need on top of them:

* :class:`RankOnePair` -- a pair of rectangular matrices ``(bhat, b)`` closed
  under triple products, ``bhat @ b @ bhat = kappa * bhat``.  Every matrix
  soliton formula in the package rides on such a pair.
* :func:`dense_solve` -- LAPACK LU solve (``numpy.linalg.solve``) with an
  explicit singularity rule: an exactly singular matrix, or one whose
  reciprocal 1-norm condition number falls below :data:`RCOND_MIN`, raises
  :class:`SingularMatrix`.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrix, VariantUnavailable

# Linear systems whose reciprocal 1-norm condition number falls below this are
# treated as singular: their solutions carry no significant digits.
RCOND_MIN = 1e-14


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array (copies only when needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def sup_norm(*arrays) -> float:
    """Entrywise max modulus over all arguments (arrays, lists or scalars).

    The one reduction for residuals and drifts: NaN if any entry is NaN
    (so ``not sup_norm(...) <= tol`` fails it), 0.0 if every argument is empty.
    """
    worst = 0.0
    for a in arrays:
        a = np.abs(a)
        if a.size:
            # a scalar skips .max(), which costs more than the rest of the loop
            m = a.max() if a.ndim else a
            if m > worst or m != m:  # m != m: a NaN replaces worst and then stays
                worst = m
    return float(worst)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RankOnePair:
    """Rectangular pair closed under triple products.

    Invariants (checked on construction):
        ``bhat @ b @ bhat == kappa * bhat`` and ``b @ bhat @ b == kappa * b``.
    The identity-closure variant additionally satisfies
    ``bhat @ b == kappa * I`` (which forces square blocks).
    """

    bhat: np.ndarray
    b: np.ndarray
    kappa: complex

    def __post_init__(self):
        bh, b = as_cmatrix(self.bhat), as_cmatrix(self.b)
        if bh.shape != b.shape[::-1]:
            raise DimensionError("bhat and b must have transposed shapes")
        object.__setattr__(self, "bhat", _frozen(bh))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "kappa", complex(self.kappa))
        res = self.triple_residual()
        if not res <= 1e-12:
            raise InvalidRankOnePair(f"triple closure violated by {res:.3e}")

    @property
    def n_dim(self) -> int:
        return self.bhat.shape[0]

    @property
    def m_dim(self) -> int:
        return self.bhat.shape[1]

    def triple_residual(self) -> float:
        """Deviation from the triple closure; NaN, without warnings, if it overflows."""
        bh, b, k = self.bhat, self.b, self.kappa
        with np.errstate(all="ignore"):
            return sup_norm(bh @ b @ bh - k * bh, b @ bh @ b - k * b)

    def identity_residual(self) -> float:
        """Deviation from the identity closure (inf for rectangular pairs)."""
        if self.n_dim != self.m_dim:
            return np.inf
        k_eye = self.kappa * np.eye(self.n_dim)
        with np.errstate(all="ignore"):
            return sup_norm(self.bhat @ self.b - k_eye, self.b @ self.bhat - k_eye)


class InvalidRankOnePair(DimensionError):
    """Constructed pair does not satisfy its closure relations."""


def make_rank_one_pair(
    n_dim: int,
    m_dim: int,
    kappa: complex,
    variant: str = "triple",
) -> RankOnePair:
    """Canonical rank-one pair constructions.

    ``variant="triple"`` places a single nonzero entry: bhat[0,0] = 1,
    b[0,0] = kappa.  ``variant="identity"`` needs square blocks and returns
    bhat = I, b = kappa * I.
    """
    if kappa == 0:
        raise VariantUnavailable("kappa must be nonzero")
    if variant == "triple":
        bhat = np.zeros((n_dim, m_dim), dtype=np.complex128)
        b = np.zeros((m_dim, n_dim), dtype=np.complex128)
        bhat[0, 0] = 1.0
        b[0, 0] = kappa
        return RankOnePair(bhat, b, kappa)
    if variant == "identity":
        if n_dim != m_dim:
            raise VariantUnavailable("identity closure requires square blocks")
        eye = np.eye(n_dim, dtype=np.complex128)
        return RankOnePair(eye, kappa * eye, kappa)
    raise VariantUnavailable(f"unknown variant {variant!r}")


def dense_solve(a, rhs) -> tuple[np.ndarray, float]:
    """Solve a @ x = rhs by LAPACK LU with partial pivoting: ``(x, rcond)``.

    ``rcond`` is the reciprocal 1-norm condition number
    ``1 / (|a|_1 |a^-1|_1)``, with ``a^-1`` from the same LAPACK call, solved
    against ``[rhs | I]``.  Raises :class:`SingularMatrix` when ``a`` is
    exactly singular or when ``rcond`` falls below :data:`RCOND_MIN`.  A
    vector ``rhs`` gives a vector solution.
    """
    a = as_cmatrix(a)
    rhs = np.asarray(rhs, dtype=np.complex128)
    rhs_was_vector = rhs.ndim == 1
    x = rhs.reshape(-1, 1) if rhs_was_vector else rhs
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("coefficient matrix must be square")
    if x.shape[0] != n:
        raise DimensionError("rhs row count does not match matrix")
    if n == 0:
        return rhs.copy(), 1.0
    k = x.shape[1]
    try:
        sol = np.linalg.solve(a, np.concatenate([x, np.eye(n, dtype=np.complex128)], axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("matrix is exactly singular") from exc
    rcond = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(sol[:, k:], 1))
    if not rcond >= RCOND_MIN:
        raise SingularMatrix(f"reciprocal condition {rcond:.3e} below {RCOND_MIN:.0e}")
    x = sol[:, :k]
    return (x[:, 0] if rhs_was_vector else x), float(rcond)
