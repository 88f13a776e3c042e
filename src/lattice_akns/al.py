"""Multiplicative-spectral-parameter lattice (matrix Ablowitz-Ladik type).

State: per-site blocks ``bhat[n]`` (N-dim x M-dim) and ``b[n]`` (M-dim x
N-dim), Lax matrix

    L_n(z) = [[z*I, bhat_n], [b_n, (1/z)*I]].

Two flow variants are implemented, each a
:class:`~lattice_akns.lattice.Flow` record in :data:`FLOWS` that the drivers
of :mod:`~lattice_akns.lattice` run: the standard one whose time component
is the degree-2 Laurent matrix minus the grading (giving the
saturable-coupling lattice with -2*bhat damping terms), and the network
variant with plain-sum off-diagonal entries, which admits the symmetric
reduction bhat = b.

Soliton factories: the fundamental Darboux recursion (static construction,
checked through the gauge-intertwining identity) and the oscillator-type
construction driven by a solution of the symmetric discrete heat equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import lattice
from .algebra import RankOnePair, make_rank_one_pair, sup_norm
from .darboux import SYMMETRIC, LinearSolution, build_linear_solution
from .errors import (
    DegenerateMode,
    InconsistentDressing,
    ModeOverflow,
    SingularDressing,
    SpectralPole,
)
from .lattice import FieldPair, Flow, block_product, block_stack, random_fields, shift, zero_fields

PERIODIC = "periodic"
VANISHING = "vanishing"
VARIANT_AL = "al"
VARIANT_NETWORK = "network"
VARIANTS = (VARIANT_AL, VARIANT_NETWORK)


@dataclass(frozen=True)
class AlState(FieldPair):
    """Immutable lattice state; ``boundary`` selects shift semantics."""

    FIELDS = ("bhat", "b")
    MODEL = "al"

    bhat: np.ndarray = field(repr=False)  # (n_sites, n_dim, m_dim)
    b: np.ndarray = field(repr=False)  # (n_sites, m_dim, n_dim)
    boundary: str = PERIODIC

    def __post_init__(self):
        super().__post_init__()
        if self.boundary not in (PERIODIC, VANISHING):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    def with_fields(self, bhat: np.ndarray, b: np.ndarray) -> "AlState":
        return AlState(self.n_sites, self.n_dim, self.m_dim, bhat, b, self.boundary)

    @staticmethod
    def constants(members, on) -> None:
        """The right-hand sides have no constants."""
        return None

    @staticmethod
    def lax_blocks(bhat, b, constants, zs) -> list:
        """The block tuples of L_n(z) at each sample; raises SpectralPole at z = 0."""
        _check_poles(zs)
        return [(z, bhat, b, 1.0 / z) for z in zs]

    def lax_coeffs(self) -> np.ndarray:
        """Lax matrices of all sites as Laurent polynomials of degrees -1..1.

        Shape (3, n_sites, d, d): the coefficients of z^-1, z^0 and z^1.
        """
        nd, md = self.n_dim, self.m_dim
        return block_stack(self.n_sites, nd, md, (0, 0, 0, 1.0), (0, self.bhat, self.b, 0), (1.0, 0, 0, 0))


def _check_poles(zs) -> None:
    if any(z == 0 for z in zs):
        raise SpectralPole("Lax matrix has a pole at z = 0")


def zero_state(n_sites: int, n_dim: int = 1, m_dim: int = 1, boundary: str = PERIODIC) -> AlState:
    return AlState(n_sites, n_dim, m_dim, *zero_fields(n_sites, n_dim, m_dim), boundary)


def random_state(
    rng: np.random.Generator,
    n_sites: int,
    n_dim: int = 1,
    m_dim: int = 1,
    scale: float = 0.4,
    boundary: str = PERIODIC,
) -> AlState:
    return AlState(n_sites, n_dim, m_dim, *random_fields(rng, n_sites, n_dim, m_dim, scale), boundary)


def al_v_coeffs(state: AlState, variant: str) -> np.ndarray:
    """Degree-2 Laurent time component of all sites for the requested variant.

    Shape (5, n_sites, d, d): the coefficients of z^-2 .. z^2.
    "al": the degree-2 matrix minus the grading diag(I, -I); its zero
    curvature gives the saturable lattice with the -2*bhat_n terms.
    "network": the plain-sum matrix; the constant part is the identity and
    drops out of the curvature, so it is returned as printed.
    """
    bh_m, b_m = shift(state.bhat, -1, state.periodic), shift(state.b, -1, state.periodic)
    blocks = _al_v_blocks(state.bhat, state.b, bh_m, b_m, variant)
    return block_stack(state.n_sites, state.n_dim, state.m_dim, *blocks)


def _al_v_blocks(bh: np.ndarray, b: np.ndarray, bh_m: np.ndarray, b_m: np.ndarray, variant: str) -> list:
    """The block tuples of the variant's V coefficients, z^-2 first.

    ``bh`` and ``b`` are per-site stacks, and ``bh_m`` and ``b_m`` the
    stacks of their values one site before.
    """
    if variant == VARIANT_AL:
        sign = -1.0
    elif variant == VARIANT_NETWORK:
        sign = 1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    nd, md = bh.shape[-2:]
    c0_top, c0_bot = -bh @ b_m, sign * (-(b @ bh_m))
    if variant == VARIANT_AL:
        # subtract the grading diag(I, -I)
        c0_top, c0_bot = c0_top - np.eye(nd), c0_bot + np.eye(md)
    return [
        (0, 0, 0, sign),  # z^-2
        (0, sign * bh_m, sign * b, 0),
        (c0_top, 0, 0, c0_bot),
        (0, bh, b_m, 0),
        (1.0, 0, 0, 0),  # z^2
    ]


def _variant_rhs(variant: str):
    """Builder of a variant's right-hand side program for :func:`~lattice_akns.lattice.rk4`.

    The right-hand sides of the two variants at every site:

    "al":      dbhat_n = bhat_{n+1} + bhat_{n-1} - 2 bhat_n
                         - bhat_n b_n bhat_{n-1} - bhat_{n+1} b_n bhat_n
               db_n    = -b_{n+1} - b_{n-1} + 2 b_n
                         + b_{n+1} bhat_n b_n + b_n bhat_n b_{n-1}
    "network": dbhat_n = bhat_{n+1} - bhat_{n-1}
                         + bhat_n b_n bhat_{n-1} - bhat_{n+1} b_n bhat_n
               db_n    = b_{n+1} - b_{n-1}
                         - b_{n+1} bhat_n b_n + b_n bhat_n b_{n-1}

    It reads one ghost site on each side, wrapped or zero.  The four cubic
    terms share p_n = bhat_n b_n and q_n = b_n bhat_n.
    """

    def build(src, dst):
        (bhp, bp), (dbh, db) = src, dst
        n = len(dbh)
        bh, bh_p, bh_m = bhp[1 : n + 1], bhp[2 : n + 2], bhp[:n]
        b, b_p, b_m = bp[1 : n + 1], bp[2 : n + 2], bp[:n]
        p = np.empty(bh.shape[:-1] + bh.shape[-2:-1], dtype=np.complex128)
        q = np.empty(b.shape[:-1] + b.shape[-2:-1], dtype=np.complex128)
        t, u = np.empty_like(dbh), np.empty_like(db)
        # a 0-d array, which a ufunc takes without converting a scalar each call
        two = np.array(2, dtype=np.complex128)
        products = [*block_product(bh, b, p), *block_product(b, bh, q)]
        if variant == VARIANT_AL:
            return [
                *products,
                (np.add, (bh_p, bh_m, dbh)),
                (np.multiply, (two, bh, t)),
                (np.subtract, (dbh, t, dbh)),
                *block_product(p, bh_m, t),
                (np.subtract, (dbh, t, dbh)),
                *block_product(bh_p, q, t),
                (np.subtract, (dbh, t, dbh)),
                (np.negative, (b_p, db)),
                (np.subtract, (db, b_m, db)),
                (np.multiply, (two, b, u)),
                (np.add, (db, u, db)),
                *block_product(b_p, p, u),
                (np.add, (db, u, db)),
                *block_product(q, b_m, u),
                (np.add, (db, u, db)),
            ]
        return [
            *products,
            (np.subtract, (bh_p, bh_m, dbh)),
            *block_product(p, bh_m, t),
            (np.add, (dbh, t, dbh)),
            *block_product(bh_p, q, t),
            (np.subtract, (dbh, t, dbh)),
            (np.subtract, (b_p, b_m, db)),
            *block_product(b_p, p, u),
            (np.subtract, (db, u, db)),
            *block_product(q, b_m, u),
            (np.add, (db, u, db)),
        ]

    return build


def _curvature_blocks(variant: str, seg, fields, derivs, constants, rows):
    """The variant's blocks of d/dt L, of L and of V of :class:`~lattice_akns.lattice.Flow`."""
    for row in rows:
        _check_poles(row)
    (bhp, bp), (dbhp, dbp) = fields, derivs
    nd, md = bhp.shape[-2:]
    # the products run on contiguous gathers of the sites (and of V's rows)
    bh, b = (seg.take(a, seg.sites) for a in (bhp, bp))
    dbh, db = (seg.take(a, seg.sites, -1) for a in (dbhp, dbp))
    # z and 1/z per state, each taken on the sample as given, as AlState.lax_blocks does
    zs, inv = (
        np.array(r, dtype=np.complex128).T.take(seg.v_owner[: len(bh)], axis=1)
        for r in (rows, [[1.0 / z for z in row] for row in rows])
    )
    stack = block_stack(len(bh), nd, md, (0, dbh, db, 0), *((z, bh, b, zi) for z, zi in zip(zs, inv)))
    v = _al_v_blocks(*(seg.take(a, seg.v_rows, k) for k in (0, -1) for a in (bhp, bp)), variant)
    return stack[0], stack[1:], block_stack(seg.v_count, nd, md, *v)


# each variant reads one ghost site on either side, and its V starts at z^-2
FLOWS = {v: Flow(AlState.MODEL, 1, -2, lambda _, v=v: _variant_rhs(v), partial(_curvature_blocks, v)) for v in VARIANTS}


def _flow(variant: str) -> Flow:
    if variant not in FLOWS:
        raise ValueError(f"unknown variant {variant!r}")
    return FLOWS[variant]


def al_zero_curvature_residual(state: AlState, variant: str, z_samples) -> list[float]:
    """Residual of d/dt L_n - (V_{n+1} L_n - L_n V_n) per spectral sample.

    The one-state case of :func:`~lattice_akns.lattice.zero_curvature_residuals`.
    """
    return lattice.zero_curvature_residuals([state], _flow(variant), [list(z_samples)])[0].tolist()


def al_evolve(state: AlState, variant: str, dt: float, steps: int, save_every: int | None = None) -> list:
    """Fixed-step RK4 on the selected flow variant: :func:`~lattice_akns.lattice.evolve`."""
    return lattice.evolve(state, _flow(variant), dt, steps, save_every)


# --------------------------------------------------------------------------
# Soliton constructions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlDarbouxParams:
    """Parameters of the gauge (Darboux) soliton factories.

    big_q is the free gauge constant; kappa and zeta enter the oscillator
    closure constraint A_n = kappa * h_n * b_{n-1} + zeta.  The seeds feed
    the fundamental recursion; the rank-one pair carries the matrix shape.
    """

    big_q: complex
    pair: RankOnePair
    kappa: complex = 1.0
    zeta: complex = 0.0
    a1: complex = 0.0
    d1: complex = 0.0
    bhat1: complex = 0.0
    b1: complex = 0.0

    def __post_init__(self):
        if self.big_q == 0:
            raise ValueError("big_q must be nonzero")


def al_fundamental_scalars(params: AlDarbouxParams, n_lo: int, n_hi: int):
    """Scalar sequences (a, d, bhat, b) on sites n_lo..n_hi inclusive.

    Forward recursion from the site-1 seeds:
        a_{n+1} = a_n - bhat_n b_n (1 + kappa a_n)
        d_{n+1} = d_n - b_n bhat_n (1 + kappa d_n)
        bhat_{n+1} = bhat_n / (Q^2 (1 + kappa d_{n+1}))
        b_{n+1}    = Q^2 b_n / (1 + kappa a_{n+1})
    and the same relations inverted for sites left of 1.
    """
    q2 = params.big_q**2
    kap = params.pair.kappa
    span = n_hi - n_lo + 1
    if span <= 0:
        raise ValueError("empty site range")
    a = {1: complex(params.a1)}
    d = {1: complex(params.d1)}
    bh = {1: complex(params.bhat1)}
    b = {1: complex(params.b1)}

    def checked(value, site):
        if abs(value) < 1e-14:
            raise SingularDressing(site)
        return value

    for n in range(1, n_hi):
        a[n + 1] = a[n] - bh[n] * b[n] * (1 + kap * a[n])
        d[n + 1] = d[n] - b[n] * bh[n] * (1 + kap * d[n])
        bh[n + 1] = bh[n] / (q2 * checked(1 + kap * d[n + 1], n + 1))
        b[n + 1] = q2 * b[n] / checked(1 + kap * a[n + 1], n + 1)
    for n in range(1, n_lo, -1):
        # invert one step: the forward a-relation is linear in a_{n-1}
        bh[n - 1] = q2 * (1 + kap * d[n]) * bh[n]
        b[n - 1] = (1 + kap * a[n]) * b[n] / q2
        a[n - 1] = (a[n] + bh[n - 1] * b[n - 1]) / checked(
            1 - kap * bh[n - 1] * b[n - 1], n - 1
        )
        d[n - 1] = (d[n] + b[n - 1] * bh[n - 1]) / checked(
            1 - kap * b[n - 1] * bh[n - 1], n - 1
        )
    ns = range(n_lo, n_hi + 1)
    arr = lambda seq: np.array([seq[n] for n in ns], dtype=complex)  # noqa: E731
    return arr(a), arr(d), arr(bh), arr(b)


def al_soliton_fundamental(params: AlDarbouxParams, n_sites: int) -> AlState:
    """State on a vanishing window built from the fundamental Darboux recursion seeds."""
    _, _, bh, b = al_fundamental_scalars(params, 1, n_sites)
    pair = params.pair
    bhat_blocks, b_blocks = bh[:, None, None] * pair.bhat[None], b[:, None, None] * pair.b[None]
    return AlState(n_sites, pair.n_dim, pair.m_dim, bhat_blocks, b_blocks, VANISHING)


def al_darboux_identity_residual(
    params: AlDarbouxParams, n_sites: int, z_samples
) -> float:
    """Max residual of M_{n+1}(z) L0_n(z) - L_n(z) M_n(z) over sites/samples.

    L0 is the zero-field Lax matrix diag(z I, I/z); M carries the recursion
    data with off-diagonal blocks B_n = -bhat_{n-1}/Q and C_n = Q b_{n-1}.
    """
    a, d, bh, b = al_fundamental_scalars(params, 0, n_sites + 1)
    pair = params.pair
    q = params.big_q
    nd, md = pair.n_dim, pair.m_dim
    eye_n, eye_m = np.eye(nd), np.eye(md)
    state = al_soliton_fundamental(params, n_sites)
    # M_n for sites 1..n_sites+1; the scalar arrays start at site 0
    sites = np.arange(1, n_sites + 2)[:, None, None]
    amat = eye_n + a[sites] * (pair.bhat @ pair.b)
    dmat = eye_m + d[sites] * (pair.b @ pair.bhat)
    bmat = -(1 / q) * bh[sites - 1] * pair.bhat
    cmat = q * b[sites - 1] * pair.b

    zs = list(z_samples)
    mmats = block_stack(
        n_sites + 1, nd, md,
        *((qz * eye_n - (1 / qz) * amat, bmat, cmat, qz * dmat - (1 / qz) * eye_m) for qz in (q * z for z in zs)),
    )
    l0 = block_stack(1, nd, md, *((z * eye_n, 0, 0, eye_m / z) for z in zs))
    # M_{n+1} L0_n against L_n M_n for n = 1..n_sites (site n is index n-1); L0 broadcasts over the sites
    return sup_norm(mmats[:, 1:] @ l0 - lattice.lax_stacks(state, zs) @ mmats[:, :-1])


@dataclass(frozen=True)
class OscillatorSoliton:
    """Oscillator-construction data: evaluate fields and exact derivatives.

    The driving data h_n(t) is a solution of the symmetric discrete heat
    equation; the auxiliary sequence u_n = 1/b_n solves the one-term linear
    recursion u_n = mu u_{n-1} + (kappa_eff/Q^2) h_n with mu = zeta/Q^2 and
    is itself a heat solution (the resummed particular part plus one free
    mu-geometric mode).  The closure constraint is solvable for generic heat
    data only when zeta = kappa_eff / Q^2; this is validated on entry.
    """

    params: AlDarbouxParams
    heat: LinearSolution
    u: LinearSolution
    kappa_eff: complex

    def scalars(self, n, t):
        """(bhat, b) scalar field values at sites n, time t."""
        return self.scalars_with_derivative(n, t)[:2]

    def scalars_with_derivative(self, n, t):
        """Fields and their exact time derivatives (mode-by-mode rule).

        Values out of float64 range come out inf or NaN, without warnings.
        """
        q2 = self.params.big_q**2
        n = np.asarray(n)
        with np.errstate(all="ignore"):
            u, du = self.u.evaluate(n, t), self.u.derivative(n, t)
            up, dup = self.u.evaluate(n + 1, t), self.u.derivative(n + 1, t)
            h, dh = self.heat.evaluate(n, t), self.heat.derivative(n, t)
            hp, dhp = self.heat.evaluate(n + 1, t), self.heat.derivative(n + 1, t)
            b = 1.0 / u
            db = -du / u**2
            num = up * h - u * hp
            dnum = dup * h + up * dh - du * hp - u * dhp
            bhat = q2 * num / u
            dbhat = q2 * (dnum * u - num * du) / u**2
        return bhat, b, dbhat, db

    def state(self, n_sites: int, t: float = 0.0) -> AlState:
        """The periodic state of sites 1..n_sites at time t."""
        pair = self.params.pair
        bhat, b = self.scalars(np.arange(1, n_sites + 1), t)
        bhat_blocks, b_blocks = bhat[:, None, None] * pair.bhat[None], b[:, None, None] * pair.b[None]
        return AlState(n_sites, pair.n_dim, pair.m_dim, bhat_blocks, b_blocks, PERIODIC)


def al_soliton_oscillator(
    params: AlDarbouxParams,
    heat_modes,
    u_seed: complex = 0.0,
) -> OscillatorSoliton:
    """Build the oscillator-type soliton from symmetric heat-equation data.

    heat_modes: iterable of (amplitude, base) pairs; each base xi carries the
    dispersion (sqrt(xi) - 1/sqrt(xi))^2.  u_seed is the amplitude of the
    free geometric mode with base mu = zeta/Q^2.  Raises InconsistentDressing
    unless zeta = kappa_eff/Q^2 (with kappa_eff = kappa * pair-kappa), the
    condition under which the closure constraint is solvable for generic
    heat data, and DegenerateMode when a heat base is zero or collides with mu.
    """
    heat = build_linear_solution(heat_modes, 1, SYMMETRIC)
    kappa_eff = params.kappa * params.pair.kappa
    q2 = params.big_q**2
    mu = params.zeta / q2
    if not abs(params.zeta - kappa_eff / q2) <= 1e-10 * max(1.0, abs(kappa_eff)):
        raise InconsistentDressing(
            "closure constraint needs zeta = kappa*pair_kappa/Q^2 "
            f"(got zeta={params.zeta}, required {kappa_eff / q2})"
        )
    u_modes = []
    for mode in heat.modes:
        if abs(mode.base - mu) < 1e-12:
            raise DegenerateMode("heat base resonates with the geometric base")
        u_modes.append(((kappa_eff / q2) * mode.amplitude / (1 - mu / mode.base), mode.base))
    if u_seed != 0:
        if mu == 0:
            raise DegenerateMode("geometric mode needs nonzero zeta")
        # u_seed * mu^n = (u_seed * mu) * mu^(n-1), the modes' power convention
        u_modes.append((complex(u_seed) * mu, mu))
    return OscillatorSoliton(params, heat, build_linear_solution(u_modes, 1, SYMMETRIC), kappa_eff)


def localized_oscillator(core: int = 8, xi: float = 2.2, mu: float = 0.4, peak: float = 1.0) -> OscillatorSoliton:
    """Window-localized oscillator soliton (crossover of the auxiliary
    sequence placed at the ``core`` site so both fields decay to the edges).

    Q = 1 and kappa = zeta = mu over the unit triple pair, so the closure
    constraint holds and the geometric base is mu.  Raises ModeOverflow when
    mu**-core leaves float64 range.
    """
    c1 = (peak / 2) * xi ** (1 - core) * (1 - mu / xi) / mu
    try:
        u_seed = (peak / 2) * mu ** (-core)
    except OverflowError as exc:
        raise ModeOverflow(f"core = {core}: mu**-core overflows") from exc
    params = AlDarbouxParams(big_q=1.0, pair=make_rank_one_pair(1, 1, 1.0, "triple"), kappa=mu, zeta=mu)
    return al_soliton_oscillator(params, [(c1, xi)], u_seed=u_seed)
