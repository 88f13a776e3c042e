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
from functools import cached_property

import numpy as np

from .algebra import RCOND_MIN, as_cmatrix, dense_solve, sup_norm
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

# A bordered row's forward error grows like eps / rcond of its row operators
# (error * rcond / max|K+| <= 2.4e-15 over 1,600 random windows of 3 and 6),
# so a row whose rcond is below this is refined once against its residual
# formed in extended precision, which brings its error down to a few ulps of
# max|K+|.  Where long double is no wider than double the refinement is
# skipped.
REFINE_RCOND = 0.05
_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps

# Rows are solved in closed form from the first block row i* on whose trailing
# data block F_i* = F[i*:, i*:] has |F_i*|_inf <= TAIL_BOUND (|.|_inf the
# largest row sum).  There T_i*^-1 = I - F_i* + R with
# |R|_inf <= |F_i*|_inf^2 / (1 - |F_i*|_inf), so K+[i, i:] = -F[i, i:] for
# every i >= i* up to terms below eps^2 in absolute size, far under the
# rounding of T_i^-1, whose diagonal is 1.  The row operators I - F Fhat and
# I - Fhat F there differ from I by as little.  Block (wi, wj) of F holds fhat
# or f at storage index wi + wj, so
# |F_i|_inf <= max(sum_{m >= 2i} |fhat(m)|_inf, sum_{m >= 2i} |f(m)|_inf).
TAIL_BOUND = np.finfo(float).eps

# Bordering works on the active window [i, E) of row i, where E is the first
# Hankel index sum (storage) with sum_{m >= E} max(|fhat(m)|_inf, |f(m)|_inf)
# at most WINDOW_BOUND.  Every block F[l, j] with l >= E or j >= E has index
# sum >= E, so with A = [i, E) and D = [E, 2N + 1) the Schur complement on A
# gives T_i^-1 = [[T_A^-1, -T_A^-1 F_AD], [-F_DA T_A^-1, I - F_DD]] up to
# terms below eps^2 in absolute size, and the columns of K+[i] from E on are
# -F[i, E:] - K+[i, i:E] F[i:E, E:].  This drops columns where TAIL_BOUND
# drops rows, so the two bounds are kept apart: with TAIL_BOUND = 0 every row
# above E is still bordered on its window and the rows from E on, whose
# window is empty, are their closed form.
WINDOW_BOUND = np.finfo(float).eps


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

    def linear_residual(self) -> float:
        """Residual of the scheme's lattice equation at 12 random sums m.

        Each part's stencil is declared once as (offset, coefficient) pairs,
        and the mode terms are evaluated straight from the modes, so the
        shifted values are exact even when they leave the storage window.
        """
        a, w = self.alpha, self.weight_w
        if self.scheme == FORWARD_BACKWARD:
            # fhat: forward binomial difference of flow alpha; f: backward, times w^alpha
            hat = [(k, (-1) ** (a - k) * math.comb(a, k)) for k in range(a + 1)]
            unhat = [(-k, w**a * c) for k, c in hat]
        else:
            hat = [(1, 1), (0, -2), (-1, 1)]
            unhat = [(k, w * c) for k, c in hat]
        ms = np.random.default_rng(0).integers(-2 * self.window_n, 2 * self.window_n + 1, 12)
        # terms at m + offset for offsets -a..a, so offset k sits at column a + k
        # (the symmetric scheme has a = 1)
        points = ms[:, None] + np.arange(-a, a + 1)
        fh_res = f_res = 0
        for mode in self.modes:
            lam_hat, lam, fh, f = _mode_terms(mode, self.scheme, w, a, points, self.time)
            fh_res = fh_res + lam_hat * fh[:, a] - sum(c * fh[:, a + k] for k, c in hat)
            f_res = f_res + lam * f[:, a] - sum(c * f[:, a + k] for k, c in unhat)
        return sup_norm(fh_res, f_res)


def _mode_terms(mode: GlmMode, scheme: str, weight_w: complex, alpha: int, ms, time: float):
    """One mode's dispersions and its fhat and f terms at the sums ``ms``.

    The terms have shape ``ms.shape + amp_hat.shape`` and ``ms.shape +
    amp.shape``; summed over modes they are the Hankel data.
    """
    lam_hat, lam = scheme_dispersions(mode, scheme, weight_w, alpha)
    eh = np.exp(-mode.lam_hat * ms + lam_hat * time)
    e = np.exp(-mode.lam * ms + lam * time)
    return lam_hat, lam, eh[..., None, None] * mode.amp_hat, e[..., None, None] * mode.amp


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
    ms = np.arange(-2 * window_n, 2 * window_n + 1)
    # data out of range fail below as ModeOverflow, without numpy warnings
    with np.errstate(all="ignore"):
        terms = [_mode_terms(mode, scheme, weight_w, alpha, ms, time)[2:] for mode in modes]
        fhat, f = (sum(part) for part in zip(*terms))
    peak = sup_norm(fhat, f)
    if not peak <= OVERFLOW_LIMIT:
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

    a, b, c, d are indexed [i+N, j+N] and populated for j >= i; ``system``
    holds the data they were solved from.  factorization_residual is the
    largest entry of the upper part of (I + K+)(I + F) - I: formed on every
    bordered or densely solved row, and the bound beta^2 (see solve_glm) on
    the closed-form tail rows.  min_rcond is the smallest reciprocal 1-norm
    condition number over the row systems; a bordered row's is taken over
    its active window (see WINDOW_BOUND), a closed-form tail row's is 1, and
    a densely solved row's is taken over the whole row.
    """

    window_n: int
    n_dim: int
    m_dim: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    system: GlmSystem = field(repr=False)
    factorization_residual: float = 0.0
    min_rcond: float = 1.0

    @cached_property
    def kminus_big(self) -> np.ndarray:
        """K-, the strictly-lower block part of (I + K+)(I + F) - I, formed on first read.

        One O(W^3) product and one more full-width array, which the solve
        itself does not need.
        """
        nd, size = self.n_dim, 2 * self.window_n + 1
        dim = nd + self.m_dim
        kplus = np.zeros((size, dim, size, dim), dtype=complex)
        grid = kplus.transpose(0, 2, 1, 3)
        grid[..., :nd, :nd], grid[..., :nd, nd:] = self.a, self.b
        grid[..., nd:, :nd], grid[..., nd:, nd:] = self.c, self.d
        kplus = kplus.reshape(size * dim, size * dim)
        big_f = _hankel_matrix(self.system)
        prod = (kplus + big_f + kplus @ big_f).reshape(size, dim, size, dim)
        return np.where(_on_or_above(size), 0, prod).reshape(size * dim, size * dim)


def _on_or_above(size: int) -> np.ndarray:
    """Mask of the blocks (wi, wj) with wj >= wi, broadcast over a (size, dim, size, dim) grid."""
    idx = np.arange(size)
    return (idx[None, :] >= idx[:, None])[:, None, :, None]


def _hankel_matrix(system: GlmSystem) -> np.ndarray:
    """F as one (size*dim)^2 matrix, site-major: block [wi, wj] holds fhat and f at storage sum wi + wj.

    fhat sits in the top-right n_dim x m_dim corner of each block and f in
    the bottom-left one; the diagonal corners are zero.
    """
    nd, md = system.n_dim, system.m_dim
    size, dim = 2 * system.window_n + 1, nd + md
    idx = np.arange(size)
    hankel = idx[:, None] + idx[None, :]
    big_f = np.zeros((size * dim, size * dim), dtype=complex)
    blocks = big_f.reshape(size, dim, size, dim)
    blocks[:, :nd, :, nd:] = system.fhat[hankel].transpose(0, 2, 1, 3)
    blocks[:, nd:, :, :nd] = system.f[hankel].transpose(0, 2, 1, 3)
    return big_f


def _row_solve(gram: np.ndarray, rhs: np.ndarray, i: int):
    """Solve x (I - gram) = -rhs for one block row; SingularGlm if it cannot."""
    try:
        x, rcond = dense_solve(np.eye(gram.shape[0], dtype=complex) - gram.T, -rhs.T)
    except SingularMatrix as exc:
        raise SingularGlm(f"row {i}: {exc}") from exc
    return x.T, rcond


def _tail_sums(system: GlmSystem) -> np.ndarray:
    """sum_{m' >= m} max(|fhat(m')|_inf, |f(m')|_inf) for every storage index sum m.

    One reverse cumulative sum over the Hankel storage; it only falls as m
    grows.  It bounds every block of F whose index sum is m or more.
    """
    norms = np.maximum(
        np.abs(system.fhat).sum(axis=2).max(axis=1), np.abs(system.f).sum(axis=2).max(axis=1)
    )
    return np.cumsum(norms[::-1])[::-1]


def _data_edges(system: GlmSystem) -> tuple[int, int]:
    """(i*, E): the first block row of the closed-form tail and the active window's end.

    i* follows TAIL_BOUND and is 2N + 1 when the tail is empty; E follows
    WINDOW_BOUND as a block column, capped at 2N + 1.  Both are read off
    ``_tail_sums``.
    """
    bound = _tail_sums(system)
    tail = int(np.count_nonzero(~(bound[::2] <= TAIL_BOUND)))
    end = int(np.count_nonzero(~(bound <= WINDOW_BOUND)))
    return tail, min(end, 2 * system.window_n + 1)


def _border_rows(big_f, f_flat, fh_flat, nd, md, kplus, tail, end) -> tuple[int, np.ndarray]:
    """Rows of K+ from the bottom up by bordering the trailing inverse.

    Rows from block ``tail`` (at most ``end``) down are the closed-form tail
    (see TAIL_BOUND): K+[i, i:] = -F[i, i:] on the upper part, the trailing
    inverse starts there as I - F and the row operators as I, whose rcond
    is 1.  Bordering starts above them and works on each row's active
    window [i, ``end``) only (see WINDOW_BOUND): the trailing inverse and
    the row operators are held on blocks below ``end``, a row costs
    O(end^2), and a row's rcond is that of its row operators on the window.
    It writes each row, site-major, into ``kplus`` until a Schur block is
    singular or a row's condition number falls below RCOND_MIN; a row below
    REFINE_RCOND is refined once on its window.  Then one matmul fills the
    columns from ``end`` on of every bordered row.  Returns the number of
    rows left above, counted from the top (0 when every row was bordered),
    and each row's reciprocal condition number (NaN where unset).
    """
    dim = nd + md
    size = big_f.shape[0] // dim
    e = end * dim
    # views on the active window; the whole arrays when end is 2N + 1
    win = big_f[:e, :e]
    f_win, fh_win = f_flat[: end * md, : end * nd], fh_flat[: end * nd, : end * md]
    eye = np.eye(dim)
    inv = np.zeros((e, e), dtype=complex)  # T_i^-1 on the window at [wi*dim:, wi*dim:]
    inv_blocks = inv.reshape(end, dim, end, dim)
    op_b = np.eye(end * md, dtype=complex)  # I - F Fhat at [wi*md:, wi*md:]
    op_c = np.eye(end * nd, dtype=complex)  # I - Fhat F at [wi*nd:, wi*nd:]
    rconds = np.full(size, np.nan)
    if tail < size:
        s = tail * dim
        # F is zero on its diagonal, so I - F_tail is -F_tail with ones there
        np.negative(win[s:, s:], out=inv[s:, s:])
        np.fill_diagonal(inv[s:, s:], 1.0)
        upper = np.triu(np.ones((size - tail,) * 2, dtype=bool))[:, None, :, None]
        blocks = (size, dim, size, dim)
        np.negative(
            big_f.reshape(blocks)[tail:, :, tail:],
            out=kplus.reshape(blocks)[tail:, :, tail:],
            where=upper,
        )
        rconds[tail:] = 1.0
    rows_left = 0
    for wi in range(tail - 1, -1, -1):
        s, t = wi * dim, (wi + 1) * dim
        # T_i = [[A, B], [C, T_{i+1}]]: invert through the d x d Schur block
        tinv = inv[t:, t:]
        u = tinv @ win[t:, s:t]
        try:
            sinv = np.linalg.inv(eye + win[s:t, s:t] - win[s:t, t:] @ u)
        except np.linalg.LinAlgError:
            rows_left = wi + 1
            break
        w = sinv @ (win[s:t, t:] @ tinv)
        inv[s:t, s:t] = sinv
        inv[s:t, t:] = -w
        inv[t:, s:t] = -u @ sinv
        tinv += u @ w
        # each operator I - G grows by one block row and column and a
        # rank-n_dim (rank-m_dim) term; its inverse is a block of T_i^-1
        ft, fht = f_win[wi * md :, wi * nd :], fh_win[wi * nd :, wi * md :]
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
        rconds[wi] = 1.0 / sup_norm(*conds)
        if not rconds[wi] >= RCOND_MIN:
            rows_left = wi + 1
            break
        kplus[s:t, s:e] = inv[s:t, s:]
        kplus[s:t, s:t] -= eye
        if _EXTENDED and rconds[wi] < REFINE_RCOND:
            # residual K+[i, i:E] T_i + F[i, i:E] on the window; inv[s:, s:] is T_i^-1 there
            row = kplus[s:t, s:e].astype(np.clongdouble)
            res = row + win[s:t, s:] + row @ win[s:, s:].astype(np.clongdouble)
            kplus[s:t, s:e] -= res.astype(complex) @ inv[s:, s:]
    if end < size:
        # K+[r, E:] = -F[r, E:] - K+[r, :E] F[:E, E:] on the bordered rows
        r, b = rows_left * dim, tail * dim
        np.negative(big_f[r:b, e:], out=kplus[r:b, e:])
        kplus[r:b, e:] -= kplus[r:b, r:e] @ big_f[r:e, e:]
    return rows_left, rconds


def solve_glm(system: GlmSystem) -> GlmSolution:
    """Row-window solve of the factorization equations, bottom row first.

    Row i of K+ satisfies K+[i, i:] T_i = -F[i, i:] with T_i = (I + F)[i:, i:],
    so it is the first block row of T_i^-1 minus the identity.  These blocks
    are nested: T_i borders T_{i+1} with one site, so T_i^-1 follows from
    T_{i+1}^-1 through a d x d Schur complement (d = n_dim + m_dim) at
    O(W^2) a row.  The row operators I - F Fhat and I - Fhat F, whose
    condition numbers min_rcond reports, are bordered alongside.  Rows whose
    trailing data fall below TAIL_BOUND are not bordered: there K+[i, i:] is
    -F[i, i:] in closed form, and bordering starts at the row above them.
    A bordered row works on its active window [i, E) only, where E is the
    block column past which the data are below WINDOW_BOUND: the trailing
    inverse and the row operators are held on the window, so a row's rcond
    is taken over it, and one matmul then fills every bordered row's columns
    from E on in closed form.  With data decaying towards the lower window
    edge, bordering thus costs O(E^2) times the rows that carry data.

    Row i of the upper part of (I + K+)(I + F) - I is that row's residual
    K+[i, i:] T_i + F[i, i:].  It is formed on the R rows above the tail
    only, at O(R W^2).  A tail row's residual is -F[i, i:] F[i:, i:], so
    each tail row is given the bound beta^2 with
    beta = sum_{m >= 2 i*} max(|fhat(m)|_inf, |f(m)|_inf) <= TAIL_BOUND
    (i* the first tail row): it passes the guard below unless the guard's
    bound is zero and beta is not, and all-zero data read exactly 0.  From
    the lowest row whose residual misses the guard (see
    BORDER_RESIDUAL_ULPS), or whose Schur block is singular or condition
    number below RCOND_MIN, up to the top, rows fall back to one dense
    solve per row, which decides whether a row is singular; the residual is
    then formed again over every row that is not closed form.  Each
    abstract row i then yields one linear system for the off-diagonal block
    row (the sums truncate at the upper window edge, which assumes decaying
    data there); the diagonal-block rows follow by substitution.  The f and
    fhat blocks F[wi, wj] = f(i + j) are flattened once; row i works on the
    trailing views from block wi = i + N on, where its Gram matrix is one
    matmul of the flattened f and fhat blocks.  K- is left to
    ``GlmSolution.kminus_big``, which forms it on first read.
    """
    n = system.window_n
    nd, md = system.n_dim, system.m_dim
    size, dim = 2 * n + 1, nd + md
    big_f = _hankel_matrix(system)
    f_blocks = big_f.reshape(size, dim, size, dim)
    # contiguous copies: at width 1 the reshape alone would be a strided view
    f_flat = np.ascontiguousarray(f_blocks[:, nd:, :, :nd].reshape(size * md, size * nd))
    fh_flat = np.ascontiguousarray(f_blocks[:, :nd, :, nd:].reshape(size * nd, size * md))
    kplus = np.zeros_like(big_f)
    k_blocks = kplus.reshape(size, dim, size, dim)
    on_or_above = _on_or_above(size)
    tail, end = _data_edges(system)
    # rows from here down are closed form, with residuals at most beta^2
    tail = min(tail, end)
    beta = _tail_sums(system)[2 * tail] if tail < size else 0.0

    def row_residuals(rows):
        e = rows * dim
        prod = (kplus[:e] + big_f[:e] + kplus[:e] @ big_f).reshape(rows, dim, size, dim)
        residual = np.full(size, beta * beta)
        residual[:rows] = np.abs(np.where(on_or_above[:rows], prod, 0)).max(axis=(1, 2, 3))
        return residual

    rows_left, rconds = _border_rows(big_f, f_flat, fh_flat, nd, md, kplus, tail, end)
    row_residual = row_residuals(tail)
    # max|F| read off the storage: every index sum occurs in F
    tol = BORDER_RESIDUAL_ULPS * np.finfo(float).eps * (1.0 + sup_norm(system.fhat, system.f))
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
        row_residual = row_residuals(max(rows_left, tail))
    grid = k_blocks.transpose(0, 2, 1, 3)
    hat, unhat = slice(nd), slice(nd, None)
    a, b, c, d = (
        np.ascontiguousarray(grid[..., rows, cols])
        for rows, cols in ((hat, hat), (hat, unhat), (unhat, hat), (unhat, unhat))
    )
    return GlmSolution(n, nd, md, a, b, c, d, system, float(row_residual.max()), min_rcond)


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
    kappa is the triple-closure constant of the amplitude pair.  Raises
    ModeOverflow when h_k or 1 - kappa h_k is not finite on the window.
    """
    lam_hat_d, lam_d = scheme_dispersions(mode, scheme, weight_w, alpha)
    s = mode.lam + mode.lam_hat
    if abs(np.exp(-s) - 1.0) < 1e-12:
        raise DegenerateMode("lam + lam_hat = 0 makes the geometric factor singular")
    ks = np.arange(-window_n, window_n + 1)
    # h_k out of float range fails below as ModeOverflow, without numpy warnings
    with np.errstate(all="ignore"):
        h = np.exp(-2 * s * ks + (lam_d + lam_hat_d) * time) / (np.exp(-s) - 1.0) ** 2
        damp = (1.0 - kappa * h)[:, None]
    if not np.isfinite(damp).all():
        raise ModeOverflow(f"closed form leaves float range: |h_k| peaks at {sup_norm(h):.3e}")
    kj = ks[:, None] + ks[None, :]
    b = -np.exp(-mode.lam_hat * kj + lam_hat_d * time) / damp
    c = -np.exp(-mode.lam * kj + lam_d * time) / damp
    return b[:, :, None, None] * mode.amp_hat, c[:, :, None, None] * mode.amp


def extract_local_fields(sol: GlmSolution):
    """Diagonal blocks as candidate lattice fields (x_n, y_n) = (B_nn, C_nn)."""
    n = sol.window_n
    idx = np.arange(2 * n + 1)
    return sol.b[idx, idx], sol.c[idx, idx]
