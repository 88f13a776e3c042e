"""Reference evaluators that the tests hold the library's kernels to."""

import numpy as np

from lattice_akns import glm
from lattice_akns.errors import DegenerateMode, ModeOverflow


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


def border_rows(big_f, f_flat, fh_flat, nd, md, kplus, tail, end):
    """``glm._border_rows`` with each row operator grown by a block row, a block column and a rank term.

    Same signature and outputs.  I - F Fhat and I - Fhat F are held from
    the window's first block on as identities; each bordered row i adds
    the operator's block row i (one product over l >= i), its block column
    below (one more) and the rank term of l = i on the trailing block, so
    the entries below the tail carry the terms of the bordered rows only.
    The bordering of T_i^-1, the thresholds and the refinement are those of
    the library, read from ``glm`` at call time.
    """
    dim = nd + md
    size = big_f.shape[0] // dim
    e = end * dim
    win = big_f[:e, :e]
    f_win, fh_win = f_flat[: end * md, : end * nd], fh_flat[: end * nd, : end * md]
    eye = np.eye(dim)
    inv = np.zeros((e, e), dtype=complex)
    inv_blocks = inv.reshape(end, dim, end, dim)
    op_b = np.eye(end * md, dtype=complex)
    op_c = np.eye(end * nd, dtype=complex)
    rconds = np.full(size, np.nan)
    if tail < size:
        s = tail * dim
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
            conds.append(
                np.abs(op[lo:, lo:]).sum(axis=1).max()
                * np.abs(op_inv).sum(axis=(2, 3)).max()
            )
        rconds[wi] = 1.0 / glm.sup_norm(*conds)
        if not rconds[wi] >= glm.RCOND_MIN:
            rows_left = wi + 1
            break
        kplus[s:t, s:e] = inv[s:t, s:]
        kplus[s:t, s:t] -= eye
        if glm._EXTENDED and rconds[wi] < glm.REFINE_RCOND:
            row = kplus[s:t, s:e].astype(np.clongdouble)
            res = row + win[s:t, s:] + row @ win[s:, s:].astype(np.clongdouble)
            kplus[s:t, s:e] -= res.astype(complex) @ inv[s:, s:]
    if end < size:
        r, b = rows_left * dim, tail * dim
        np.negative(big_f[r:b, e:], out=kplus[r:b, e:])
        kplus[r:b, e:] -= kplus[r:b, r:e] @ big_f[r:e, e:]
    return rows_left, rconds


def one_soliton_closed_form(mode, kappa, window_n, time, scheme=glm.FORWARD_BACKWARD, weight_w=1.0, alpha=1):
    """``glm.one_soliton_closed_form`` with both exponentials evaluated at every (k, j) of the grid.

    The library evaluates them once per index sum k + j; the values, the
    checks and the errors are the same.
    """
    lam_hat_d, lam_d = glm.scheme_dispersions(mode, scheme, weight_w, alpha)
    s = mode.lam + mode.lam_hat
    if abs(np.exp(-s) - 1.0) < 1e-12:
        raise DegenerateMode("lam + lam_hat = 0 makes the geometric factor singular")
    ks = np.arange(-window_n, window_n + 1)
    with np.errstate(all="ignore"):
        h = np.exp(-2 * s * ks + (lam_d + lam_hat_d) * time) / (np.exp(-s) - 1.0) ** 2
        damp = (1.0 - kappa * h)[:, None]
    if not np.isfinite(damp).all():
        raise ModeOverflow(f"closed form leaves float range: |h_k| peaks at {glm.sup_norm(h):.3e}")
    kj = ks[:, None] + ks[None, :]
    b = -np.exp(-mode.lam_hat * kj + lam_hat_d * time) / damp
    c = -np.exp(-mode.lam * kj + lam_d * time) / damp
    return b[:, :, None, None] * mode.amp_hat, c[:, :, None, None] * mode.amp
