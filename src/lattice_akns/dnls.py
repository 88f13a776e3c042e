"""Additive-spectral-parameter lattice hierarchy (discrete NLS type).

State: per-site rectangular blocks ``x[n]`` (N-dim x M-dim) and ``y[n]``
(M-dim x N-dim) on a periodic lattice, with the composite block
``nmat = theta*I + x@y`` entering the Lax matrix

    L_n(lam) = [[lam*I + nmat_n, x_n], [y_n, I]].

The first two time flows have explicit equations of motion; the third flow
exposes only its Lax-pair time component.  The zero-curvature identity

    d/dt L_n = V_{n+1} L_n - L_n V_n

holds exactly (to round-off) for any state once the equation-of-motion
right-hand sides are substituted for the field time derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import sup_norm
from .errors import FlowUnsupported, InconsistentDressing
from .lattice import (
    FieldPair,
    _halo,
    batch_residuals,
    block_product,
    block_stack,
    bmm,
    padded_rhs,
    random_fields,
    rk4,
    shift,
    zero_fields,
)

SUPPORTED_FLOWS = (1, 2)  # flows with printed equations of motion
# periodic ghost sites on each side that a flow's right-hand side reads
_GHOSTS = {1: 1, 2: 2}
V_OPERATOR_FLOWS = (1, 2, 3)
# the offsets k of x_{n+k}, y_{n+k} and nmat_{n+k} that each flow's V reads
_V_OFFSETS = {1: ((0,), (-1,), ()), 2: ((0, 1), (-2, -1), (-1, 0)), 3: (range(-1, 3), range(-3, 1), range(-2, 2))}


@dataclass(frozen=True)
class DnlsState(FieldPair):
    """Immutable periodic lattice state; arrays are write-protected."""

    FIELDS = ("x", "y")
    MODEL = "dnls"

    x: np.ndarray = field(repr=False)  # (n_sites, n_dim, m_dim)
    y: np.ndarray = field(repr=False)  # (n_sites, m_dim, n_dim)
    theta: complex = 1.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "theta", complex(self.theta))

    def nmat(self) -> np.ndarray:
        """Composite blocks theta*I + x_n y_n, shape (n_sites, n_dim, n_dim)."""
        # the same product as evolve's right-hand side, so the two agree exactly
        return self.theta * np.eye(self.n_dim)[None, :, :] + bmm(self.x, self.y)

    def with_fields(self, x: np.ndarray, y: np.ndarray) -> "DnlsState":
        return DnlsState(self.n_sites, self.n_dim, self.m_dim, x, y, self.theta)


def zero_state(n_sites: int, n_dim: int = 1, m_dim: int = 1, theta: complex = 1.0) -> DnlsState:
    return DnlsState(n_sites, n_dim, m_dim, *zero_fields(n_sites, n_dim, m_dim), theta)


def random_state(
    rng: np.random.Generator,
    n_sites: int,
    n_dim: int = 1,
    m_dim: int = 1,
    scale: float = 0.5,
    theta: complex = 1.0,
) -> DnlsState:
    """Random complex fields, uniform in a centered box of half-width scale."""
    return DnlsState(n_sites, n_dim, m_dim, *random_fields(rng, n_sites, n_dim, m_dim, scale), theta)


def lax_coeffs(state: DnlsState) -> np.ndarray:
    """Lax matrices of all sites, L_n(lam) = C_0[n] + lam C_1[n].

    Shape (2, n_sites, d, d): the coefficients of lam^0 and lam^1.
    """
    nd, md = state.n_dim, state.m_dim
    return block_stack(state.n_sites, nd, md, (state.nmat(), state.x, state.y, 1.0), (1.0, 0, 0, 0))


def lax_stacks(state: DnlsState, lams) -> np.ndarray:
    """Numeric Lax matrices L_n(lam) of all sites at each sample: shape (len(lams), n_sites, d, d).

    Built from the entries directly; equal to evaluating :func:`lax_coeffs`.
    """
    return block_stack(state.n_sites, state.n_dim, state.m_dim, *_lax_blocks(state.x, state.y, state.nmat(), lams))


def lax_stacks_into(states, lams, out: np.ndarray) -> None:
    """:func:`lax_stacks` of states of one shape, written into ``out``, (len(lams), n_sites, S, d, d)."""
    first = states[0]
    x = np.stack([st.x for st in states], axis=1)
    y = np.stack([st.y for st in states], axis=1)
    # each state's nmat, as DnlsState.nmat forms it
    theta = np.array([st.theta for st in states])[:, None, None]
    nn = theta * np.eye(first.n_dim) + bmm(x, y)
    block_stack(x.shape[:2], first.n_dim, first.m_dim, *_lax_blocks(x, y, nn, lams), out=out)


def _lax_blocks(x, y, nn, lams) -> list:
    """The block tuples of L_n at each sample; a sample is a scalar or one per site, (n_sites, 1, 1)."""
    eye = np.eye(nn.shape[-1])
    return [(nn + lam * eye, x, y, 1.0) for lam in lams]


def sigma(n_dim: int, m_dim: int) -> np.ndarray:
    """diag(I_n, -I_m), the grading matrix of the hierarchy."""
    return np.diag(np.concatenate([np.ones(n_dim), -np.ones(m_dim)])).astype(np.complex128)


def v_coeffs(state: DnlsState, alpha: int) -> np.ndarray:
    """Time component of the Lax pair for flow alpha at all sites, as printed.

    Shape (alpha + 1, n_sites, d, d): the coefficients of lam^0 .. lam^alpha.
    Flows 1 and 2 are the transport-like and heat-like members; flow 3 is
    the next member, whose lambda^0 block carries the four long product
    entries.
    """
    if alpha not in V_OPERATOR_FLOWS:
        raise FlowUnsupported(f"no V operator for flow {alpha}")
    nn = state.nmat() if alpha > 1 else None
    views = (_views(a, offs) for a, offs in zip((state.x, state.y, nn), _V_OFFSETS[alpha]))
    return block_stack(state.n_sites, state.n_dim, state.m_dim, *_v_blocks(*views, alpha))


def _v_blocks(X: dict, Y: dict, NN: dict, alpha: int) -> list:
    """The block tuples of the flow-alpha V coefficients, lam^0 first.

    ``X[k]`` is the stack of x_{n+k} over the sites n, and likewise ``Y``
    for y and ``NN`` for nmat (read from flow 2 on), at the offsets k of
    ``_V_OFFSETS``.
    """
    w_top = (0, X[0], Y[-1], 0)
    half_sigma = (0.5, 0, 0, -0.5)
    coeffs = [w_top, half_sigma]
    if alpha >= 2:
        w_mid = (
            -X[0] @ Y[-1],
            X[1] - NN[0] @ X[0],
            Y[-2] - Y[-1] @ NN[-1],
            Y[-1] @ X[0],
        )
        coeffs.insert(0, w_mid)
    if alpha == 3:
        w0_11 = X[0] @ Y[-1] @ NN[-1] + NN[0] @ X[0] @ Y[-1] - X[0] @ Y[-2] - X[1] @ Y[-1]
        w0_12 = (
            X[2]
            - X[0] @ Y[-1] @ X[0]
            - NN[1] @ X[1]
            - X[1] @ Y[0] @ X[0]
            - NN[0] @ X[1]
            + NN[0] @ NN[0] @ X[0]
        )
        w0_21 = (
            Y[-3]
            - Y[-2] @ NN[-2]
            - Y[-2] @ NN[-1]
            - Y[-1] @ X[-1] @ Y[-2]
            + Y[-1] @ NN[-1] @ NN[-1]
            - Y[-1] @ X[0] @ Y[-1]
        )
        w0_22 = Y[-2] @ X[0] - Y[-1] @ NN[-1] @ X[0] + Y[-1] @ X[1] - Y[-1] @ NN[0] @ X[0]
        coeffs.insert(0, (w0_11, w0_12, w0_21, w0_22))
    return coeffs


def _views(a: np.ndarray, offsets) -> dict:
    """{k: a_{n+k} at all sites n} for the ascending offsets k, views of one periodic padded copy of ``a``."""
    if not offsets:
        return {}
    lo, hi, n = max(0, -offsets[0]), max(0, offsets[-1]), len(a)
    pad = _halo(a, lo, hi, True)
    return {k: pad[lo + k : lo + k + n] for k in offsets}


def eom_rhs(state: DnlsState, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the flow equations at every site.

    Flow 1:  dx_n = x_{n+1} - nmat_n x_n
             dy_n = y_n nmat_n - y_{n-1}
    Flow 2:  dx_n = x_{n+2} - (nmat_n + nmat_{n+1}) x_{n+1} + nmat_n^2 x_n
                    - x_{n+1} y_n x_n - x_n y_{n-1} x_n
             dy_n = y_n x_n y_{n-1} + y_{n-1}(nmat_n + nmat_{n-1})
                    - y_n nmat_n^2 + y_n x_{n+1} y_n - y_{n-2}
    At theta = 1 these are exactly the printed lattice equations; the
    nmat-based form keeps the zero-curvature identity exact for any theta.
    Evaluated by the right-hand side that :func:`evolve` steps, run once.
    """
    if alpha not in SUPPORTED_FLOWS:
        raise FlowUnsupported(f"no equations of motion for flow {alpha}")
    build = _flow_rhs(_theta_eye(state), alpha)
    return padded_rhs(build, state.x, state.y, _GHOSTS[alpha], True)


def _theta_eye(state: DnlsState) -> np.ndarray:
    return state.theta * np.eye(state.n_dim)[None, :, :]


def _flow_rhs(theta_eye: np.ndarray, alpha: int):
    """Builder of the flow-alpha right-hand side program for :func:`~lattice_akns.lattice.rk4`.

    ``theta_eye`` is theta*I, shape (1, n, n), one per member, (B, n, n),
    for a batch on axis 1, or one per source site, (sites, n, n); a build
    broadcasts it once to the source sites, so that each step adds operands
    of one shape.  nmat is formed on the sites the flow reads.
    Flow 2 shares its cubic terms through m_n = nmat_n^2 - x_{n+1} y_n
    - x_n y_{n-1}: dx_n = x_{n+2} - (nmat_n + nmat_{n+1}) x_{n+1} + m_n x_n
    and dy_n = y_{n-1}(nmat_n + nmat_{n-1}) - y_n m_n - y_{n-2}; the
    products x_{k+1} y_k and the sums nmat_k + nmat_{k+1} are formed once,
    on sites -1..n-1, and each is read at n and at n-1.
    """
    g = _GHOSTS[alpha]

    def build(src, dst):
        (xp, yp), (dx, dy) = src, dst
        n = len(dx)
        theta = np.empty(xp.shape[:-1] + xp.shape[-2:-1], dtype=np.complex128)
        theta[...] = theta_eye
        # site n of a stack is row n + g of its padded copy
        x, x1, y, y1m = xp[g : g + n], xp[g + 1 : g + n + 1], yp[g : g + n], yp[g - 1 : g + n - 1]
        if alpha == 1:
            nn = np.empty(x.shape[:-1] + x.shape[-2:-1], dtype=np.complex128)
            return [
                *block_product(x, y, nn),
                (np.add, (theta[g : g + n], nn, nn)),
                *block_product(nn, x, dx),
                (np.subtract, (x1, dx, dx)),
                *block_product(y, nn, dy),
                (np.subtract, (dy, y1m, dy)),
            ]

        x2, y2m = xp[g + 2 : g + n + 2], yp[g - 2 : g + n - 2]
        xw, yw = xp[g - 1 : g + n + 1], yp[g - 1 : g + n + 1]
        # nmat on sites -1..n: nn_{n-1}, nn_n and nn_{n+1} are views of it
        nnw = np.empty(xw.shape[:-1] + xw.shape[-2:-1], dtype=np.complex128)
        nn = nnw[1 : n + 1]
        # x_{k+1} y_k and nn_k + nn_{k+1} on sites -1..n-1, each read at n and at n-1
        p, a = np.empty_like(nnw[:-1]), np.empty_like(nnw[:-1])
        m = np.empty_like(nn)
        t, u = np.empty_like(dx), np.empty_like(dy)
        return [
            *block_product(xw, yw, nnw),
            (np.add, (theta[g - 1 : g + n + 1], nnw, nnw)),
            *block_product(xp[g : g + n + 1], yw[:-1], p),
            (np.add, (nnw[:-1], nnw[1:], a)),
            *block_product(nn, nn, m),
            (np.subtract, (m, p[1:], m)),
            (np.subtract, (m, p[:-1], m)),
            *block_product(a[1:], x1, t),
            (np.subtract, (x2, t, dx)),
            *block_product(m, x, t),
            (np.add, (dx, t, dx)),
            *block_product(y1m, a[:-1], dy),
            *block_product(y, m, u),
            (np.subtract, (dy, u, dy)),
            (np.subtract, (dy, y2m, dy)),
        ]

    return build


def zero_curvature_residual(
    state: DnlsState, alpha: int, lambda_samples
) -> list[float]:
    """Max-norm residual of the compatibility identity per spectral sample.

    The one-row case of :func:`zero_curvature_residuals`.
    """
    return zero_curvature_residuals([state], alpha, [list(lambda_samples)])[0].tolist()


def zero_curvature_residuals(states, alpha: int, samples) -> np.ndarray:
    """:func:`zero_curvature_residual` of every state at its own row of samples, shape (S, L).

    ``samples`` holds one row of L spectral samples per state.  States of
    one block shape run as one batch, whatever their sizes, laid end to end
    on one site axis by :func:`~lattice_akns.lattice.batch_residuals` (each
    keeps its own theta): one right-hand side build, one
    :func:`~lattice_akns.lattice.block_stack` each for d/dt L with the Lax
    stacks and for V, and one :func:`~lattice_akns.lattice.curvature_residual`
    call.  The field time derivatives come from the right-hand side that
    :func:`evolve` steps and are pushed through the Lax matrix analytically
    (product rule on nmat), so for a consistent flow the residual is pure
    round-off.  Every row equals the state's own
    :func:`zero_curvature_residual`.
    """
    if alpha not in SUPPORTED_FLOWS:
        raise FlowUnsupported(f"no equations of motion for flow {alpha}")
    g = _GHOSTS[alpha]

    def group_blocks(members, seg, xp, yp, rows):
        nd, md = members[0].n_dim, members[0].m_dim
        theta = seg.on_rows(np.array([st.theta for st in members]))[:, None, None] * np.eye(nd)
        dxp, dyp = (np.empty((len(a) - 2 * g, *a.shape[1:]), dtype=np.complex128) for a in (xp, yp))
        for fn, args in _flow_rhs(theta, alpha)((xp, yp), (dxp, dyp)):
            fn(*args)
        nnp = theta + bmm(xp, yp)  # as nmat() forms it, on every padded row
        # the products run on contiguous gathers of the sites (and of V's rows)
        x, y, nn = (seg.take(a, seg.sites) for a in (xp, yp, nnp))
        dx, dy = (seg.take(a, seg.sites, -g) for a in (dxp, dyp))
        dnn = dx @ y + x @ dy
        lams = np.array(rows, dtype=np.complex128).T.take(seg.v_owner[: len(x)], axis=1)[..., None, None]
        stack = block_stack(len(x), nd, md, (dnn, dx, dy, 0), *_lax_blocks(x, y, nn, lams))
        # V_{n+k} reads padded row r + k for each of V's rows r
        views = ({k: seg.take(a, seg.v_rows, k) for k in offs} for a, offs in zip((xp, yp, nnp), _V_OFFSETS[alpha]))
        return stack[0], stack[1:], block_stack(seg.v_count, nd, md, *_v_blocks(*views, alpha))

    return batch_residuals(states, samples, g, group_blocks, 0)


def evolve(
    state: DnlsState,
    alpha: int,
    dt: float,
    steps: int,
    save_every: int | None = None,
) -> list[tuple[float, DnlsState]]:
    """Classic fixed-step RK4 on the flow vector field.

    Returns (time, state) samples including the initial and final states.
    Raises :class:`BlowUp` with the step index if values go non-finite.
    """
    if alpha not in SUPPORTED_FLOWS:
        raise FlowUnsupported(f"cannot integrate flow {alpha}")

    build = _flow_rhs(_theta_eye(state), alpha)
    saved = rk4(build, state.x, state.y, _GHOSTS[alpha], True, dt, steps, save_every)
    return [(0.0, state)] + [(t, state.with_fields(x, y)) for t, x, y in saved]


def evolve_batch(
    states,
    alpha: int,
    dt: float,
    steps: int,
    save_every: int | None = None,
) -> list[list[tuple[float, DnlsState]]]:
    """:func:`evolve` of several states of one shape in a single integration.

    The members share ``(n_sites, n_dim, m_dim)``; each keeps its own theta.
    Their fields are stacked on a member axis after the site axis, so one
    RK4 loop steps them all.  Returns one trajectory per member, each equal
    to what :func:`evolve` returns for it.  A :class:`BlowUp` also names the
    non-finite members in ``members``.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    shape = (states[0].n_sites, states[0].n_dim, states[0].m_dim)
    if any((st.n_sites, st.n_dim, st.m_dim) != shape for st in states):
        raise ValueError("batched states must share (n_sites, n_dim, m_dim)")
    if alpha not in SUPPORTED_FLOWS:
        raise FlowUnsupported(f"cannot integrate flow {alpha}")

    # member axis at 1: the site slices (axis 0) and the block products run as is
    theta_eye = np.concatenate([_theta_eye(st) for st in states])
    x0 = np.stack([st.x for st in states], axis=1)
    y0 = np.stack([st.y for st in states], axis=1)
    build = _flow_rhs(theta_eye, alpha)
    saved = rk4(build, x0, y0, _GHOSTS[alpha], True, dt, steps, save_every)
    return [
        [(0.0, st)] + [(t, st.with_fields(x[:, b], y[:, b])) for t, x, y in saved]
        for b, st in enumerate(states)
    ]


def dressing_constraint_residual(state: DnlsState, kmats: np.ndarray) -> float:
    """Deviation of per-site dressing blocks from the vacuum-seed relations.

    kmats[n] = [[A_n, B_n], [C_n, D_n]] must satisfy, with all indices
    periodic:  B_n = -x_n,  C_{n+1} = y_n,  A_{n+1}-A_n = x_n y_n,
    D_{n+1}-D_n = -y_n x_n,  B_{n+1}-B_n = x_n y_n B_n + x_n D_n,
    C_{n+1}-C_n = y_n A_n.
    """
    nd = state.n_dim
    a = kmats[:, :nd, :nd]
    b = kmats[:, :nd, nd:]
    c = kmats[:, nd:, :nd]
    d = kmats[:, nd:, nd:]
    x, y = state.x, state.y
    a1, b1, c1, d1 = (shift(m, 1) for m in (a, b, c, d))
    return sup_norm(
        b + x,
        c1 - y,
        a1 - a - x @ y,
        d1 - d + y @ x,
        b1 - b - x @ y @ b - x @ d,
        c1 - c - y @ a,
    )


def dressed_v_from_recursion(state: DnlsState, kmats: np.ndarray, alpha: int) -> np.ndarray:
    """Generate the flow-alpha Lax time component by the dressing recursion.

    Starting from w_{alpha-1} = [K, Sigma]/2 the chain w_{k-1} = -w_k K
    and the top grading term assemble V = (lam^alpha/2) Sigma + sum lam^k w_k
    at all sites at once.  Returns the coefficient stack of shape
    (alpha + 1, n_sites, d, d), lam^0 first, as :func:`v_coeffs` does; on
    states whose dressing blocks satisfy the constraint relations the two
    agree coefficientwise.
    """
    if alpha not in V_OPERATOR_FLOWS:
        raise FlowUnsupported(f"no dressing recursion for flow {alpha}")
    kmats = np.asarray(kmats, dtype=np.complex128)
    resid = dressing_constraint_residual(state, kmats)
    if not resid <= 1e-8:
        raise InconsistentDressing(f"constraint residual {resid:.3e}")
    sig = sigma(state.n_dim, state.m_dim)
    out = np.empty((alpha + 1,) + kmats.shape, dtype=np.complex128)
    out[alpha] = 0.5 * sig
    out[alpha - 1] = 0.5 * (kmats @ sig - sig @ kmats)
    for k in range(alpha - 1, 0, -1):
        out[k - 1] = -out[k] @ kmats
    return out
