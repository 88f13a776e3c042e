"""Discrete factorization machinery on an integer window.

Hankel mode data (matrices constant along antidiagonals) solving one of two
linear lattice schemes feed a triangular factorization problem

    (I + K+)(I + F) = (I + K-),

with K+ supported on column >= row and K- strictly below.  Solving the
factorization row by row yields the component blocks whose diagonal elements
reproduce closed-form soliton profiles.

Window convention: abstract indices i, j run over -N..N; storage offsets
them by +N.  Hankel data is stored by the sum m = i + j over -2N..2N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import RCOND_MIN, _solve_rcond, as_cmatrix, sup_norm
from .errors import (
    DegenerateMode,
    DimensionError,
    ModeOverflow,
    SingularGlm,
    SingularMatrix,
)

FORWARD_BACKWARD = "forward-backward"
SYMMETRIC = "symmetric"

OVERFLOW_LIMIT = 1e12

# A bordered row of K+ is kept only when its factorization residual,
# |K+[i, i:] T_i + F[i, i:]|_max, is within this many ulps of 1 + max|F|.
# Bordering through a nearly singular trailing block loses accuracy in every
# row above it while each Schur block still inverts; the residual shows that
# loss, and the rows from there up are solved densely instead.
BORDER_RESIDUAL_ULPS = 1e3


# --------------------------------------------------------------------------
# Hankel mode data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmMode:
    """One discrete mode of the linear problem: hatted and unhatted parts."""

    amp_hat: np.ndarray  # n_dim x m_dim
    lam_hat: complex
    amp: np.ndarray  # m_dim x n_dim
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "amp_hat", as_cmatrix(self.amp_hat))
        object.__setattr__(self, "amp", as_cmatrix(self.amp))
        if self.amp_hat.shape != self.amp.shape[::-1]:
            raise DimensionError("mode amplitude shapes must be transposed")


def scheme_dispersions(mode: GlmMode, scheme: str, weight_w: complex, alpha: int):
    """(lam_hat_disp, lam_disp) for the mode under the given scheme."""
    if scheme == FORWARD_BACKWARD:
        lam_hat = (np.exp(-mode.lam_hat) - 1.0) ** alpha
        lam = weight_w**alpha * (np.exp(mode.lam) - 1.0) ** alpha
    elif scheme == SYMMETRIC:
        lam_hat = (np.exp(-mode.lam_hat / 2) - np.exp(mode.lam_hat / 2)) ** 2
        lam = weight_w * (np.exp(mode.lam / 2) - np.exp(-mode.lam / 2)) ** 2
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return complex(lam_hat), complex(lam)


@dataclass(frozen=True)
class GlmSystem:
    """Hankel data plus scheme metadata, frozen at one time."""

    scheme: str
    weight_w: complex
    alpha: int
    window_n: int
    n_dim: int
    m_dim: int
    time: float
    modes: tuple[GlmMode, ...]
    fhat: np.ndarray = field(repr=False)  # (4N+1, n_dim, m_dim), index m+2N
    f: np.ndarray = field(repr=False)  # (4N+1, m_dim, n_dim)

    def linear_residual(self, samples=12, rng: np.random.Generator | None = None) -> float:
        """Residual of the scheme's lattice equation at random (i, j) pairs.

        Evaluated directly from the modes so the shifted values are exact
        even when they leave the storage window.
        """
        rng = rng or np.random.default_rng(0)
        n = self.window_n
        worst = 0.0
        for _ in range(samples):
            m = int(rng.integers(-2 * n, 2 * n + 1))
            t = self.time
            fh_dot = np.zeros((self.n_dim, self.m_dim), dtype=complex)
            f_dot = np.zeros((self.m_dim, self.n_dim), dtype=complex)
            fh_shift = np.zeros_like(fh_dot)
            f_shift = np.zeros_like(f_dot)
            for mode in self.modes:
                lam_hat, lam = scheme_dispersions(mode, self.scheme, self.weight_w, self.alpha)
                eh = np.exp(-mode.lam_hat * m + lam_hat * t)
                e = np.exp(-mode.lam * m + lam * t)
                fh_dot += lam_hat * eh * mode.amp_hat
                f_dot += lam * e * mode.amp
                if self.scheme == FORWARD_BACKWARD:
                    sh = sum(
                        (-1) ** (self.alpha - k)
                        * math.comb(self.alpha, k)
                        * np.exp(-mode.lam_hat * (m + k))
                        for k in range(self.alpha + 1)
                    )
                    s = self.weight_w**self.alpha * sum(
                        (-1) ** (self.alpha - k)
                        * math.comb(self.alpha, k)
                        * np.exp(-mode.lam * (m - k))
                        for k in range(self.alpha + 1)
                    )
                else:
                    sh = (
                        np.exp(-mode.lam_hat * (m + 1))
                        - 2 * np.exp(-mode.lam_hat * m)
                        + np.exp(-mode.lam_hat * (m - 1))
                    )
                    s = self.weight_w * (
                        np.exp(-mode.lam * (m + 1))
                        - 2 * np.exp(-mode.lam * m)
                        + np.exp(-mode.lam * (m - 1))
                    )
                fh_shift += sh * np.exp(lam_hat * t) * mode.amp_hat
                f_shift += s * np.exp(lam * t) * mode.amp
            worst = max(worst, sup_norm(fh_dot - fh_shift), sup_norm(f_dot - f_shift))
        return worst

    def to_json_dict(self) -> dict:
        def cplx(z):
            z = complex(z)
            return [z.real, z.imag]

        def mat(m):
            return [[cplx(v) for v in row] for row in np.asarray(m)]

        return {
            "scheme": self.scheme,
            "weight_w": cplx(self.weight_w),
            "alpha": self.alpha,
            "window_n": self.window_n,
            "time": self.time,
            "modes": [
                {
                    "amp_hat": mat(m.amp_hat),
                    "lam_hat": cplx(m.lam_hat),
                    "amp": mat(m.amp),
                    "lam": cplx(m.lam),
                }
                for m in self.modes
            ],
        }


def build_hankel_data(
    modes,
    scheme: str,
    weight_w: complex,
    window_n: int,
    alpha: int = 1,
    time: float = 0.0,
) -> GlmSystem:
    """Evaluate mode sums into Hankel storage at the given time.

    Raises ModeOverflow when any entry magnitude exceeds 1e12 on the window
    (the factorization would then be numerically meaningless).
    """
    modes = tuple(modes)
    if not modes:
        raise DegenerateMode("need at least one mode")
    if scheme == SYMMETRIC and alpha != 1:
        raise ValueError("the symmetric scheme carries a single flow")
    nd, md = modes[0].amp_hat.shape
    for m in modes:
        if m.amp_hat.shape != (nd, md):
            raise DimensionError("mode amplitude shapes differ")
    size = 4 * window_n + 1
    fhat = np.zeros((size, nd, md), dtype=complex)
    f = np.zeros((size, md, nd), dtype=complex)
    ms = np.arange(-2 * window_n, 2 * window_n + 1)
    for mode in modes:
        lam_hat, lam = scheme_dispersions(mode, scheme, weight_w, alpha)
        eh = np.exp(-mode.lam_hat * ms + lam_hat * time)
        e = np.exp(-mode.lam * ms + lam * time)
        fhat += eh[:, None, None] * mode.amp_hat[None]
        f += e[:, None, None] * mode.amp[None]
    peak = max(sup_norm(fhat), sup_norm(f))
    if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
        raise ModeOverflow(f"mode data peaks at {peak:.3e} on the window")
    return GlmSystem(
        scheme, complex(weight_w), alpha, window_n, nd, md, time, modes, fhat, f
    )


# --------------------------------------------------------------------------
# Factorization solve
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmSolution:
    """Component blocks of the factorization on the window.

    a, b, c, d are indexed [i+N, j+N] and populated for j >= i; kminus_big
    is the strictly-lower remainder of the assembled product.  min_rcond is
    the smallest reciprocal 1-norm condition number over the row systems.
    """

    window_n: int
    n_dim: int
    m_dim: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    kminus_big: np.ndarray = field(repr=False)
    factorization_residual: float = 0.0
    min_rcond: float = 1.0


def _flatten_blocks(blocks: np.ndarray) -> np.ndarray:
    """(R, C, r, c) block grid -> (R*r, C*c) matrix, block [p, q] at rows p*r."""
    rb, cb, r, c = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rb * r, cb * c)


def _row_solve(gram: np.ndarray, rhs: np.ndarray, i: int):
    """Solve x (I - gram) = -rhs for one block row; SingularGlm if it cannot."""
    try:
        x, rcond = _solve_rcond(np.eye(gram.shape[0], dtype=complex) - gram.T, -rhs.T)
    except SingularMatrix as exc:
        raise SingularGlm(f"row {i}: {exc}") from exc
    return x.T, rcond


def _border_rows(big_f, f_flat, fh_flat, nd, md, kplus) -> tuple[int, np.ndarray]:
    """Rows of K+ from the bottom up by bordering the trailing inverse.

    Writes each row, site-major, into ``kplus`` until a Schur block is
    singular or a row's condition number falls below RCOND_MIN.  Returns the
    number of rows left above, counted from the top (0 when every row was
    bordered), and each row's reciprocal condition number (NaN where unset).
    """
    dim = nd + md
    size = big_f.shape[0] // dim
    eye = np.eye(dim)
    inv = np.zeros_like(big_f)  # T_i^-1 at [wi*dim:, wi*dim:]
    inv_blocks = inv.reshape(size, dim, size, dim)
    op_b = np.eye(size * md, dtype=complex)  # I - F Fhat at [wi*md:, wi*md:]
    op_c = np.eye(size * nd, dtype=complex)  # I - Fhat F at [wi*nd:, wi*nd:]
    rconds = np.full(size, np.nan)
    for wi in range(size - 1, -1, -1):
        s, t = wi * dim, (wi + 1) * dim
        # T_i = [[A, B], [C, T_{i+1}]]: invert through the d x d Schur block
        tinv = inv[t:, t:]
        u = tinv @ big_f[t:, s:t]
        try:
            sinv = np.linalg.inv(eye + big_f[s:t, s:t] - big_f[s:t, t:] @ u)
        except np.linalg.LinAlgError:
            return wi + 1, rconds
        w = sinv @ (big_f[s:t, t:] @ tinv)
        inv[s:t, s:t] = sinv
        inv[s:t, t:] = -w
        inv[t:, s:t] = -u @ sinv
        tinv += u @ w
        # each operator I - G grows by one block row and column and a
        # rank-n_dim (rank-m_dim) term; its inverse is a block of T_i^-1
        ft, fht = f_flat[wi * md :, wi * nd :], fh_flat[wi * nd :, wi * md :]
        conds = []
        for op, x, y, k, j, op_inv in (
            (op_b, ft, fht, md, nd, inv_blocks[wi:, nd:, wi:, nd:]),
            (op_c, fht, ft, nd, md, inv_blocks[wi:, :nd, wi:, :nd]),
        ):
            lo, hi = wi * k, (wi + 1) * k
            op[lo:hi, lo:] -= x[:k] @ y
            op[hi:, lo:hi] -= x[k:] @ y[:, :k]
            op[hi:, hi:] -= x[k:, :j] @ y[:j, k:]
            # |(I - G)^T|_1 |(I - G)^-T|_1, both as maximum row sums
            conds.append(
                np.abs(op[lo:, lo:]).sum(axis=1).max()
                * np.abs(op_inv).sum(axis=(2, 3)).max()
            )
        rconds[wi] = 1.0 / max(conds)
        if not rconds[wi] >= RCOND_MIN:
            return wi + 1, rconds
        kplus[s:t, s:] = inv[s:t, s:]
        kplus[s:t, s:t] -= eye
    return 0, rconds


def solve_glm(system: GlmSystem) -> GlmSolution:
    """Row-window solve of the factorization equations, bottom row first.

    Row i of K+ satisfies K+[i, i:] T_i = -F[i, i:] with T_i = (I + F)[i:, i:],
    so it is the first block row of T_i^-1 minus the identity.  These blocks
    are nested: T_i borders T_{i+1} with one site, so T_i^-1 follows from
    T_{i+1}^-1 through a d x d Schur complement (d = n_dim + m_dim) and the
    whole solve costs O(W^3).  The row operators I - F Fhat and I - Fhat F,
    whose condition numbers min_rcond reports, are bordered alongside.

    Row i of the upper part of (I + K+)(I + F) - I is that row's residual
    K+[i, i:] T_i + F[i, i:].  From the lowest bordered row whose residual
    misses the guard (see BORDER_RESIDUAL_ULPS), or whose Schur block is
    singular or condition number below RCOND_MIN, up to the top, rows fall
    back to one dense solve per row, which decides whether a row is singular.
    Each abstract row i then yields one linear system for the off-diagonal
    block row (the sums truncate at the upper window edge, which assumes
    decaying data there); the diagonal-block rows follow by substitution.
    The Hankel blocks F[wi, wj] = f(i + j) are gathered once and flattened;
    row i works on the trailing views from block wi = i + N on, where its
    Gram matrix is one matmul of the flattened f and fhat blocks.
    """
    n = system.window_n
    nd, md = system.n_dim, system.m_dim
    size, dim = 2 * n + 1, nd + md
    idx = np.arange(size)
    hankel = idx[:, None] + idx[None, :]
    f_grid, fh_grid = system.f[hankel], system.fhat[hankel]
    f_flat = _flatten_blocks(f_grid)  # (size*md, size*nd)
    fh_flat = _flatten_blocks(fh_grid)  # (size*nd, size*md)
    big_f = np.zeros((size * dim, size * dim), dtype=complex)
    f_blocks = big_f.reshape(size, dim, size, dim)
    f_blocks[:, :nd, :, nd:] = fh_grid.transpose(0, 2, 1, 3)
    f_blocks[:, nd:, :, :nd] = f_grid.transpose(0, 2, 1, 3)
    kplus = np.zeros_like(big_f)
    k_blocks = kplus.reshape(size, dim, size, dim)
    on_or_above = (idx[None, :] >= idx[:, None])[:, None, :, None]

    def residual_rows():
        prod = (kplus + big_f + kplus @ big_f).reshape(size, dim, size, dim)
        return prod, np.abs(np.where(on_or_above, prod, 0)).max(axis=(1, 2, 3))

    rows_left, rconds = _border_rows(big_f, f_flat, fh_flat, nd, md, kplus)
    prod, row_residual = residual_rows()
    tol = BORDER_RESIDUAL_ULPS * np.finfo(float).eps * (1.0 + sup_norm(big_f))
    missed = np.flatnonzero(~(row_residual[rows_left:] <= tol))
    if missed.size:
        rows_left += missed[-1] + 1
    min_rcond = float(np.min(rconds[rows_left:], initial=1.0))
    for wi in range(rows_left - 1, -1, -1):
        ft = f_flat[wi * md :, wi * nd :]  # rows (l', a), cols (l, b)
        fht = fh_flat[wi * nd :, wi * md :]
        # b row: sum_l b(i, l) [delta - (f fhat)(l, j)] = -fhat(i + j)
        brow, rc_b = _row_solve(ft @ fht, fht[:nd], wi - n)
        # c row: sum_l c(i, l) [delta - (fhat f)(l, j)] = -f(i + j)
        crow, rc_c = _row_solve(fht @ ft, ft[:md], wi - n)
        min_rcond = min(min_rcond, rc_b, rc_c)
        k = size - wi
        row = k_blocks[wi, :, wi:]
        row[:nd, :, :nd] = (-brow @ ft).reshape(nd, k, nd)
        row[:nd, :, nd:] = brow.reshape(nd, k, md)
        row[nd:, :, :nd] = crow.reshape(md, k, nd)
        row[nd:, :, nd:] = (-crow @ fht).reshape(md, k, md)
    if rows_left:
        prod, row_residual = residual_rows()
    kminus = np.where(on_or_above, 0, prod).reshape(size * dim, size * dim)
    grid = k_blocks.transpose(0, 2, 1, 3)
    hat, unhat = slice(nd), slice(nd, None)
    a, b, c, d = (
        np.ascontiguousarray(grid[..., rows, cols])
        for rows, cols in ((hat, hat), (hat, unhat), (unhat, hat), (unhat, unhat))
    )
    return GlmSolution(n, nd, md, a, b, c, d, kminus, float(row_residual.max()), min_rcond)


# --------------------------------------------------------------------------
# Closed-form single-mode solution and local fields
# --------------------------------------------------------------------------


def one_soliton_closed_form(
    mode: GlmMode,
    kappa: complex,
    window_n: int,
    time: float,
    scheme: str = FORWARD_BACKWARD,
    weight_w: complex = 1.0,
    alpha: int = 1,
):
    """Closed-form off-diagonal blocks for single-mode data.

    B_{kj} = -exp(-lam_hat (k+j) + LamHat t) / (1 - kappa h_k) * amp_hat
    C_{kj} = -exp(-lam (k+j) + Lam t) / (1 - kappa h_k) * amp
    h_k    = exp(-2 (lam+lam_hat) k + (Lam+LamHat) t) / (exp(-(lam+lam_hat)) - 1)^2

    assuming the geometric sums extend past the window edge (decaying data).
    kappa is the triple-closure constant of the amplitude pair.
    """
    lam_hat_d, lam_d = scheme_dispersions(mode, scheme, weight_w, alpha)
    s = mode.lam + mode.lam_hat
    if abs(np.exp(-s) - 1.0) < 1e-12:
        raise DegenerateMode("lam + lam_hat = 0 makes the geometric factor singular")
    ks = np.arange(-window_n, window_n + 1)
    h = np.exp(-2 * s * ks + (lam_d + lam_hat_d) * time) / (np.exp(-s) - 1.0) ** 2
    damp = (1.0 - kappa * h)[:, None]
    kj = ks[:, None] + ks[None, :]
    b = -np.exp(-mode.lam_hat * kj + lam_hat_d * time) / damp
    c = -np.exp(-mode.lam * kj + lam_d * time) / damp
    return b[:, :, None, None] * mode.amp_hat, c[:, :, None, None] * mode.amp


def extract_local_fields(sol: GlmSolution):
    """Diagonal blocks as candidate lattice fields (x_n, y_n) = (B_nn, C_nn)."""
    n = sol.window_n
    idx = np.arange(2 * n + 1)
    return sol.b[idx, idx], sol.c[idx, idx]
