"""Transfer matrix, local charges, and conservation diagnostics.

The ordered product T(lam) = L_N ... L_1 of site Lax matrices generates the
integrals of motion: every coefficient of tr T is conserved under periodic
dynamics, and for width-1 states the logarithm of the normalized trace
lam^{-N} tr T(lam) expands into the local charges H_k.

The first four charges also have closed forms as traces of local field
products; both routes are implemented, and the conservation suite
cross-checks them.
"""

from __future__ import annotations

import numpy as np

from .dnls import DnlsState
from .errors import NotNormalized, UnvalidatedOrder
from .lattice import block_product, bmm, lax_stacks, shape_groups

VALIDATED_CHARGE_ORDER = 4

# Site matrices per chunk of the batched trace tree: 256 KiB of 2x2 blocks.
# (state, lam) rows beyond it wait for the next chunk, so the tree's working
# memory does not grow with the number of states.  On 51 states x 3 samples,
# 2**10 to 2**12 time best from N = 12 to 768; 2**14 and more are slower at
# N = 768.
TREE_CHUNK_MATRICES = 2**12


def _balanced(mats: np.ndarray, n_dim: int) -> np.ndarray:
    """Apply the gauge diag(2^k I_n, I_m) L diag(2^-k I_n, I_m) to each Lax matrix, in place.

    k balances the largest float64 component of the upper-right blocks
    against that of the lower-left ones, as powers of two from ``frexp``, and
    ``ldexp`` scales them exactly unless an entry leaves the normal range.
    The gauge cancels in the ordered product, so it leaves tr T unchanged.
    ``mats`` is one state's Lax stack, (..., N, d, d): the off-diagonal blocks
    do not depend on the spectral parameter, so one k serves all its samples.
    """
    flat = mats.view(np.float64)  # (..., d, 2d): real and imaginary parts side by side
    upper, lower = flat[..., :n_dim, 2 * n_dim :], flat[..., n_dim:, : 2 * n_dim]
    k = (np.frexp(np.abs(lower).max())[1] - np.frexp(np.abs(upper).max())[1]) // 2
    if k:
        np.ldexp(upper, k, out=upper)
        np.ldexp(lower, -k, out=lower)
    return mats


def _balanced_batch(mats: np.ndarray, n_dim: int) -> None:
    """:func:`_balanced` of each state of Lax stacks (L, N, S, d, d), in place.

    The off-diagonal blocks are equal at every sample: each state's k comes
    from the first sample's, which are scaled there and copied to the others.
    """
    flat = mats.view(np.float64)
    upper, lower = flat[..., :n_dim, 2 * n_dim :], flat[..., n_dim:, : 2 * n_dim]
    up, lo = upper[0], lower[0]
    # each state's largest component, its blocks gathered on one contiguous row
    peak_lo, peak_up = (np.abs(b.transpose(1, 0, 2, 3).reshape(mats.shape[2], -1)).max(axis=1) for b in (lo, up))
    k = ((np.frexp(peak_lo)[1] - np.frexp(peak_up)[1]) // 2)[:, None, None]
    if k.any():
        np.ldexp(up, k, out=up)
        np.ldexp(lo, -k, out=lo)
        upper[1:] = up
        lower[1:] = lo


def _tree(mats: np.ndarray):
    """The program that reduces a (N, ..., d, d) stack to the ordered products along its site axis.

    Returns ``(program, top, exponent)``: running the ``(callable, args)``
    steps of ``program`` leaves in ``top`` (shape (..., d, d)) each row's
    product mantissa and in ``exponent`` its base-2 exponent.  Each level
    multiplies adjacent pairs of sites over all rows at once, the higher
    site on the left, and carries an odd last matrix up.  Before each level
    every matrix is divided by the power of two that ``frexp`` gives for its
    largest component, and each row sums its own exponents: powers of two
    are exact, so no product in the tree can overflow or underflow.  Level
    0 is ``mats`` itself, rescaled in place; the levels above it and the
    scratch arrays are allocated here, once, so the program can run again
    on new contents of ``mats``.
    """
    n, inner, rows = len(mats), mats.shape[1:], mats.shape[1:-2]
    sizes = [n]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    # every level's matrices (level 0 is mats) and every rescaled level's exponents, (m, ..., 1, 1)
    store = np.empty((sum(sizes) - n,) + inner, dtype=np.complex128)
    levels, start = [mats], 0
    for m in sizes[1:]:
        levels.append(store[start : start + m])
        start += m
    exponents = np.empty((sum(sizes) - sizes[-1],) + rows + (1, 1), dtype=np.intc)
    shifts = np.empty((n,) + rows + (1, 1), dtype=np.intc)
    flat_shape = mats.shape[:-1] + (2 * mats.shape[-1],)
    mantissas, components = np.empty(flat_shape), np.empty(flat_shape, dtype=np.intc)
    scratch = np.empty((n // 2,) + inner, dtype=np.complex128)  # the block products' second terms
    program, start = [], 0
    for m, cur, nxt in zip(sizes, levels, levels[1:]):
        flat, half, comps = cur.view(np.float64), m // 2, components[:m]
        level_exps, start = exponents[start : start + m], start + m
        program += [
            (np.frexp, (flat, mantissas[:m], comps)),
            (np.maximum.reduce, (comps, (-2, -1), None, level_exps, True)),
            (np.negative, (level_exps, shifts[:m])),
            (np.ldexp, (flat, shifts[:m], flat)),
            *block_product(cur[1 : 2 * half : 2], cur[0 : 2 * half : 2], nxt[:half], scratch[:half]),
        ]
        if m % 2:
            program.append((np.copyto, (nxt[half:], cur[m - 1 :])))
    # each row's exponent: the sum of its matrices' exponents over all levels
    exponent = np.zeros(rows + (1, 1), dtype=np.int64)
    program.append((np.add.reduce, (exponents, 0, np.int64, exponent)))
    return program, levels[-1][0], exponent[..., 0, 0]


def _run_tree(program, top: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Run a :func:`_tree` program and return the traces of its products: shape (...).

    The trace mantissas are put back to scale per component with
    ``np.ldexp``, so a trace beyond float64 range comes back as +-inf
    components, and NaN only comes from NaN fields.
    """
    for fn, args in program:
        fn(*args)
    tr = np.trace(top, axis1=-2, axis2=-1)
    # set per component: ldexp(re) + 1j * ldexp(im) would turn an inf part into NaN
    out = np.empty(tr.shape, dtype=np.complex128)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(tr.real, exponent)
        out.imag = np.ldexp(tr.imag, exponent)
    return out


def transfer_traces(states, lams) -> np.ndarray:
    """tr T(lam), T = L_N ... L_1, of every state at every sample, shape (S, L).

    States of one model and shape share one pairwise product tree
    (:func:`_tree`), their (state, lam) rows on its second axis, in chunks
    of at most :data:`TREE_CHUNK_MATRICES` site matrices (and at least one
    state), so that the tree's working memory stays bounded however many
    states come in; the tree's buffers and program are built for the first
    chunk and run on every chunk of its size, and one smaller last chunk
    gets its own, built after the first is freed.  Each state's Lax stack is
    written straight into the tree's first level, one
    :func:`~lattice_akns.lattice.lax_stacks` call per chunk, then balanced by :func:`_balanced_batch`, one
    exponent per state for all its samples, so that no entry lies so far
    below the largest one of its matrix that the rescaling flushes it to
    zero.  Every trace is bit-identical to :func:`transfer_trace` of that
    state and sample; that of a state with no sites is tr I = d.
    """
    states, lams = list(states), [complex(lam) for lam in lams]
    out = np.empty((len(states), len(lams)), dtype=np.complex128)
    if not lams:
        return out
    for idx in shape_groups(states):
        first = states[idx[0]]
        n_lams, d = len(lams), first.dim
        if not first.n_sites:
            out[idx] = d
            continue
        per_chunk = max(1, TREE_CHUNK_MATRICES // (first.n_sites * n_lams))
        level0 = None
        for start in range(0, len(idx), per_chunk):
            part = idx[start : start + per_chunk]
            if level0 is None or level0.shape[2] != len(part):
                # only the last chunk can be smaller: the full chunks' tree is freed before it is built
                mats = level0 = tree = None
                mats = np.empty((first.n_sites, n_lams * len(part), d, d), dtype=np.complex128)
                # the tree's rows sample by sample, each over the chunk's states: (L, N, states, d, d)
                level0 = mats.reshape(first.n_sites, n_lams, len(part), d, d).transpose(1, 0, 2, 3, 4)
                tree = _tree(mats)
            lax_stacks([states[i] for i in part], lams, out=level0)
            _balanced_batch(level0, first.n_dim)
            out[part] = _run_tree(*tree).reshape(n_lams, len(part)).T
    return out


def transfer_trace(state, lam: complex) -> complex:
    """tr T(lam) of one state: the tree of :func:`transfer_traces` with no row axis at all."""
    if not state.n_sites:
        return complex(state.dim)
    mats = _balanced(lax_stacks(state, (lam,))[0], state.n_dim)
    return complex(_run_tree(*_tree(mats)))


def closed_form_charges(state: DnlsState) -> tuple[complex, complex, complex, complex]:
    """The four local charges as traces of field products (indices mod N).

    H1 = tr sum nmat_n
    H2 = tr sum (x_n y_{n-1} - nmat_n^2 / 2)
    H3 = tr sum (x_n y_{n-2} - (nmat_n + nmat_{n-1}) x_n y_{n-1} + nmat_n^3 / 3)
    H4 = tr sum (x_n y_{n-3} - (nmat_{n-2}+nmat_{n-1}+nmat_n) x_n y_{n-2}
                 + nmat_{n-1} nmat_n x_n y_{n-1}
                 + (nmat_{n-1}^2 + nmat_n^2) x_n y_{n-1}
                 - (x_n y_{n-1})^2 / 2 - x_n y_{n-1} x_{n-1} y_{n-2}
                 - nmat_n^4 / 4)
    The quartic term is the alternating product (x_n y_{n-1})^2, the only
    reading that is well-typed for rectangular blocks (and the one the
    transfer-matrix expansion produces).  The batch of one of
    :func:`closed_form_charges_batch`.
    """
    return tuple(closed_form_charges_batch([state])[0].tolist())


def closed_form_charges_batch(states) -> np.ndarray:
    """:func:`closed_form_charges` of every state, one row (H1, H2, H3, H4) each: shape (S, 4).

    States of one shape are stacked on a leading axis, in chunks of at most
    :data:`TREE_CHUNK_MATRICES` sites, with their sites after it, wrapped
    three sites back so that each shift is a view.  Every product is per
    site block and each state's site sum runs over its own contiguous row,
    so no charge depends on the batch it is in.
    """
    states = list(states)
    out = np.empty((len(states), 4), dtype=np.complex128)
    for idx in shape_groups(states):
        n, n_dim = states[idx[0]].n_sites, states[idx[0]].n_dim
        # padded site j holds site j - 3 (mod N); back[k] selects the sites n - k
        wrap = np.arange(-3, n) % n if n else np.arange(0)
        back = [slice(3 - k, 3 - k + n) for k in range(4)]
        per_chunk = max(1, TREE_CHUNK_MATRICES // max(n, 1))
        for start in range(0, len(idx), per_chunk):
            part = idx[start : start + per_chunk]
            x = np.array([states[i].x for i in part])[:, wrap]
            y = np.array([states[i].y for i in part])[:, wrap]
            theta = np.array([states[i].theta for i in part])[:, None, None, None]
            # each state's nmat, as DnlsState.nmat forms it, and its square
            nn = theta * np.eye(n_dim) + bmm(x, y)
            nn_sq = nn @ nn
            x0, x1 = x[:, back[0]], x[:, back[1]]
            y1, y2, y3 = y[:, back[1]], y[:, back[2]], y[:, back[3]]
            nn0, nn1, nn2 = nn[:, back[0]], nn[:, back[1]], nn[:, back[2]]
            xy1 = x0 @ y1
            densities = (
                nn0,
                xy1 - 0.5 * nn0 @ nn0,
                x0 @ y2 - (nn0 + nn1) @ xy1 + nn_sq[:, back[0]] @ nn0 / 3.0,
                x0 @ y3
                - (nn2 + nn1 + nn0) @ x0 @ y2
                + nn1 @ nn0 @ xy1
                + (nn_sq[:, back[1]] + nn_sq[:, back[0]]) @ xy1
                - 0.5 * xy1 @ xy1
                - xy1 @ x1 @ y2
                - 0.25 * nn0 @ nn0 @ nn0 @ nn0,
            )
            # each state's sites on the last axis: summed in a lone state's pairwise order
            out[part] = np.stack([np.add.reduce(h.trace(axis1=-2, axis2=-1), axis=-1) for h in densities], axis=1)
    return out


def tau_series(states, up_to: int = 4) -> np.ndarray:
    """Coefficients tau_k of lam^{-k} in lam^{-N} tr T(lam), k <= up_to: shape (S, up_to + 1).

    Width-1 states only: for block width > 1 the leading trace is not 1 and
    the logarithmic expansion has no canonical normalization, so
    NotNormalized is raised.  tau_k needs only the top k + 1 coefficients of
    the running product R_n = L_n ... L_1 = sum_k lam^{n-k} R_n[k].  With
    L_n = lam P + C_0[n] (+ lam^-1 C_-1[n] on the AL lattice) and
    P = diag(I_n, 0), they follow site by site from

        R_n[k] = P R_{n-1}[k] + C_0[n] R_{n-1}[k-1] (+ C_-1[n] R_{n-1}[k-2]),

    with every state of one shape on a leading axis.  The blocks R[0..up_to]
    sit side by side in one (d, (up_to + 1) d) row per state, so that each
    lower coefficient multiplies all of them in one block product
    (:func:`~lattice_akns.lattice.block_product`): O(N up_to) work per
    state.  One site's step is built once per shape, over fixed buffers,
    and run at every site.
    """
    states = list(states)
    if any(st.n_dim != 1 for st in states):
        raise NotNormalized("tau extraction requires width-1 upper blocks")
    out = np.empty((len(states), up_to + 1), dtype=np.complex128)
    for idx in shape_groups(states):
        first = states[idx[0]]
        d = first.dim
        # the coefficients below the leading lam P, highest degree first: (K - 1, S, N, d, d)
        lower = np.stack([states[i].lax_coeffs()[-2::-1] for i in idx], axis=1)
        r = np.zeros((len(idx), d, (up_to + 1) * d), dtype=np.complex128)
        r[:, :, :d] = np.eye(d)
        # one site's step as a program over fixed buffers; site n's coefficients are copied into ``site``
        site, program, terms = np.empty(lower.shape[:2] + (d, d), dtype=np.complex128), [], []
        for j, c in enumerate(site):
            src = r[:, :, : (up_to - j) * d]
            terms.append(np.empty(src.shape, dtype=np.complex128))
            program += block_product(c, src, terms[-1])
        program.append((np.copyto, (r[:, first.n_dim :], 0)))
        for j, term in enumerate(terms):
            dst = r[:, :, (j + 1) * d :]
            program.append((np.add, (dst, term, dst)))
        for n in range(first.n_sites):
            np.copyto(site, lower[:, :, n])
            for fn, args in program:
                fn(*args)
        out[idx] = np.trace(r.reshape(len(idx), d, up_to + 1, d), axis1=1, axis2=3)
    return out


def charge_recursion(tau, up_to: int = 4):
    """Local charges from trace coefficients.

    The validated relations (orders 2..4):
        H2 = tau2 - H1^2/2
        H3 = tau3 - H1 H2 - H1^3/6
        H4 = tau4 - H1 H3 - H2^2/2 - H1^2 H2 / 2 - H1^4/24
    with H1 = tau1.  Higher orders are not validated and raise
    :class:`UnvalidatedOrder`.
    """
    tau = list(tau)
    if up_to > VALIDATED_CHARGE_ORDER:
        raise UnvalidatedOrder(f"order {up_to} is beyond the validated order {VALIDATED_CHARGE_ORDER}")
    if len(tau) <= up_to:
        raise ValueError("need tau_0..tau_k inclusive")
    h1 = tau[1]
    out = [h1]
    if up_to >= 2:
        out.append(tau[2] - 0.5 * h1**2)
    if up_to >= 3:
        out.append(tau[3] - h1 * out[1] - h1**3 / 6.0)
    if up_to >= 4:
        out.append(
            tau[4]
            - h1 * out[2]
            - 0.5 * out[1] ** 2
            - 0.5 * h1**2 * out[1]
            - h1**4 / 24.0
        )
    return tuple(out[:up_to])
