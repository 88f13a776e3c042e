"""Soliton factories for the additive-parameter lattice.

Closed-form one-soliton families, general solutions driven by discrete
linear data, and the algebraic two-soliton superposition.  All constructors
return states that satisfy the flow equations exactly; each family also
exposes scalar evaluators with exact time derivatives so tests can measure
the equation-of-motion residual against an analytic oracle.

Parametrization notes (scalar reductions over a rank-one pair with closure
constant kappa):

* family 1 ("type1"): base xi, seeds (d1, x1) free.  The dressing
  constraints force a_n + d_n = (1 - xi)/kappa and fix the product
  x_n y_n, so a1 and y1 are derived, not free.  Time enters through
  xi^n -> xi^n exp(Lam t) with Lam = (xi - 1)^alpha.
* family 2 ("type2"): shift constant c with eta = 1 + c, eps = 1 - c,
  barred base eta^{-1} eps.  Seeds (dhat1, x1) free; ahat1 and the y scale
  are derived.  Time factors exp(c^alpha t) and exp((-c)^alpha t) ride on
  the eta- and eps-geometric parts respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import RankOnePair, make_rank_one_pair, sup_norm
from .dnls import DnlsState, lax_stack, zero_state
from .errors import (
    DegenerateBianchi,
    DegenerateMode,
    InconsistentBoundaryTerm,
    InconsistentDressing,
    ModeOverflow,
    PeriodicityViolation,
    SingularSoliton,
)

FORWARD = "forward"
SYMMETRIC = "symmetric"

_SINGULAR_TOL = 1e-12


# --------------------------------------------------------------------------
# Linear lattice data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearMode:
    amplitude: complex
    base: complex
    dispersion: complex


@dataclass(frozen=True)
class LinearSolution:
    """Finite mode sum solving a discrete linear lattice equation.

    Forward scheme, flow alpha:  d/dt f_n = sum_k (-1)^(alpha-k) C(alpha,k) f_{n+k},
    giving dispersion (base-1)^alpha per mode.  Symmetric scheme:
    d/dt f_n = f_{n+1} - 2 f_n + f_{n-1}, dispersion (sqrt(base)-1/sqrt(base))^2.
    """

    modes: tuple[LinearMode, ...]
    scheme: str
    alpha: int

    def evaluate(self, n, t: complex):
        n = np.asarray(n)
        acc = np.zeros(n.shape, dtype=complex)
        for m in self.modes:
            acc = acc + m.amplitude * m.base ** (n - 1) * np.exp(m.dispersion * t)
        return acc

    def derivative(self, n, t: complex):
        n = np.asarray(n)
        acc = np.zeros(n.shape, dtype=complex)
        for m in self.modes:
            acc = acc + (
                m.dispersion * m.amplitude * m.base ** (n - 1) * np.exp(m.dispersion * t)
            )
        return acc


def dispersion(base: complex, alpha: int, scheme: str) -> complex:
    if scheme == FORWARD:
        return (base - 1.0) ** alpha
    if scheme == SYMMETRIC:
        root = np.sqrt(complex(base))
        return complex((root - 1.0 / root) ** 2)
    raise ValueError(f"unknown scheme {scheme!r}")


def build_linear_solution(modes, flow_alpha: int, scheme: str = FORWARD) -> LinearSolution:
    """Attach dispersions to (amplitude, base) pairs for the given flow."""
    out = []
    for c, base in modes:
        if base == 0:
            raise DegenerateMode("zero mode base")
        out.append(LinearMode(complex(c), complex(base), dispersion(base, flow_alpha, scheme)))
    return LinearSolution(tuple(out), scheme, flow_alpha)


# --------------------------------------------------------------------------
# Soliton parameters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SolitonParams:
    """One-soliton parameter set over a shared rank-one pair.

    For family "type1" the base is ``xi`` and the seeds are (x1, y1, a1, d1)
    as used by the closed forms.  For family "type2" the ``c`` field is the
    shift constant and the a1/d1 slots hold the shifted seeds (ahat1, dhat1)
    that drive the barred recursions; y1 is the printed-formula seed.
    """

    family: str
    pair: RankOnePair
    alpha: int = 1
    xi: complex | None = None
    c: complex | None = None
    x1: complex = 0.0
    y1: complex = 0.0
    a1: complex = 0.0
    d1: complex = 0.0

    @property
    def kappa(self) -> complex:
        return self.pair.kappa

    @property
    def xi_hat(self) -> complex:
        return 1.0 - self.xi

    @property
    def eta(self) -> complex:
        return 1.0 + self.c

    @property
    def epsilon(self) -> complex:
        return 1.0 - self.c

    @property
    def zeta(self) -> complex:
        return self.c**2


def type1_params(
    xi: complex,
    kappa: complex,
    d1: complex,
    x1: complex,
    alpha: int = 1,
    pair: RankOnePair | None = None,
) -> SolitonParams:
    """Complete a consistent family-1 seed set from the free data (d1, x1).

    The quadratic dressing constraints pin a1 = (1-xi)/kappa - d1 and the
    site-1 field product x1*y1 = d1*(kappa*d1 - (1-xi))/(xi + kappa*d1).
    """
    if pair is None:
        pair = make_rank_one_pair(1, 1, kappa, "triple")
    if abs(pair.kappa - kappa) > 1e-12:
        raise InconsistentDressing("kappa must match the pair closure constant")
    xi = complex(xi)
    if xi in (0.0, 1.0):
        raise DegenerateMode("xi must differ from 0 and 1")
    d1, x1 = complex(d1), complex(x1)
    xihat = 1.0 - xi
    if d1 == 0 and x1 == 0:
        a1, y1 = 0.0, 0.0
    else:
        a1 = xihat / kappa - d1
        if x1 == 0:
            raise DegenerateMode("x1 must be nonzero for a nontrivial soliton")
        if xi + kappa * d1 == 0:
            raise SingularSoliton(1, "site-1 dressing constraint is singular: xi + kappa*d1 = 0")
        p1 = d1 * (kappa * d1 - xihat) / (xi + kappa * d1)
        y1 = p1 / x1
    return SolitonParams("type1", pair, alpha, xi=xi, x1=x1, y1=y1, a1=a1, d1=d1)


def zero_seed_params(xi: complex, kappa: complex, alpha: int = 1,
                     pair: RankOnePair | None = None, family: str = "type1") -> SolitonParams:
    """All-zero seeds: the vacuum member of either family."""
    if pair is None:
        pair = make_rank_one_pair(1, 1, kappa, "triple")
    if family == "type1":
        return SolitonParams("type1", pair, alpha, xi=complex(xi))
    return SolitonParams("type2", pair, alpha, c=complex(xi))


def type2_params(
    c: complex,
    kappa: complex,
    dhat1: complex,
    x1: complex,
    alpha: int = 1,
    pair: RankOnePair | None = None,
) -> SolitonParams:
    """Complete a consistent family-2 seed set from the free data (dhat1, x1).

    Constraints force ahat1 = 2c/kappa - dhat1 (so the unshifted blocks sum
    to zero) and fix the y scale through the site-1 product
    kappa * x1 * y1 = a2 - a1.
    """
    c = complex(c)
    if c == 0:
        raise DegenerateMode("c = 0 collapses the two geometric bases")
    with np.errstate(all="ignore"):
        eta, eps = np.complex128(1.0 + c), np.complex128(1.0 - c)
        bases = np.array([eta, eps, eps / eta, eta / eps])
    if not (np.isfinite(bases).all() and bases.all()):
        raise DegenerateMode(
            f"c = {c} leaves a geometric base (1 + c, 1 - c, their ratio or its inverse)"
            " zero or non-finite"
        )
    try:
        c ** max(2, alpha)  # the largest power of c the closed forms take
    except OverflowError as exc:
        raise ModeOverflow(f"c = {c}: c**{max(2, alpha)} overflows") from exc
    if pair is None:
        pair = make_rank_one_pair(1, 1, kappa, "identity")
    if pair.identity_residual() > 1e-10:
        raise InconsistentDressing("family 2 requires an identity-closure pair")
    if abs(pair.kappa - kappa) > 1e-12:
        raise InconsistentDressing("kappa must match the pair closure constant")
    dhat1, x1 = complex(dhat1), complex(x1)
    if dhat1 == 0 and x1 == 0:
        return SolitonParams("type2", pair, alpha, c=c)
    if x1 == 0:
        raise DegenerateMode("x1 must be nonzero for a nontrivial soliton")
    ahat1 = 2 * c / kappa - dhat1
    params = SolitonParams("type2", pair, alpha, c=c, x1=x1, y1=1.0, a1=ahat1, d1=dhat1)
    # fix the y seed from the site-1 product relation kappa*x1*y1 = a2 - a1
    eta, eps = params.eta, params.epsilon
    xibar, kbar = eps / eta, kappa / eta
    a_seq, _ = _asol_closed(xibar, kbar, ahat1, np.array([1.0, 2.0]), 0.0, 0.0)
    a_unshift = kappa * a_seq - c
    x_at_1 = _type2_x(params, np.array([1.0]), 0.0)[0][0]
    y_shape_at_1 = _type2_y(params, np.array([1.0]), 0.0)[0][0]  # with y1 = 1
    scale = (a_unshift[1] - a_unshift[0]) / (kappa * x_at_1 * y_shape_at_1)
    return SolitonParams("type2", pair, alpha, c=c, x1=x1, y1=scale, a1=ahat1, d1=dhat1)


# --------------------------------------------------------------------------
# Closed-form scalar evaluators (values and exact time derivatives)
# --------------------------------------------------------------------------


def _moebius(e, de, a, b, c, d):
    """(a e + b)/(c e + d) and its derivative through e(t)."""
    den = c * e + d
    val = (a * e + b) / den
    der = (a * d - b * c) / den**2 * de
    return val, der


def _dd_closed(xi, kappa, d1, n, t, lam):
    """Family-1 d sequence: (xi-1) d1 / (E (xi-1+kappa d1) - kappa d1)."""
    e = xi ** (np.asarray(n) - 1) * np.exp(lam * t)
    return _moebius(e, lam * e, 0.0, (xi - 1) * d1, xi - 1 + kappa * d1, -kappa * d1)


def _x_closed(xi, kappa, d1, x1, n, t, lam):
    e = xi ** (np.asarray(n) - 1) * np.exp(lam * t)
    return _moebius(e, lam * e, (xi - 1) * x1, 0.0, xi - 1 + kappa * d1, -kappa * d1)


def _asol_closed(xi, kappa, a1, n, t, lam):
    """Family-1 a sequence on the reversed geometric factor."""
    f = xi ** (-np.asarray(n) + 1) * np.exp(-lam * t)
    return _moebius(f, -lam * f, 0.0, (xi - 1) * a1, xi - 1 + kappa * a1, -kappa * a1)


def _y_closed(xi, kappa, a1, y1, n, t, lam):
    g = xi ** (-np.asarray(n)) * np.exp(-lam * t)
    num = (xi - 1) * (1 - kappa * a1) * y1
    return _moebius(g, -lam * g, num, 0.0, xi - 1 + kappa * a1, -kappa * a1)


def type1_scalars(params: SolitonParams, n, t: float):
    """(x, y, a, d) and derivatives (dx, dy, da, dd) at sites n, time t."""
    xi, kappa = params.xi, params.kappa
    lam = (xi - 1.0) ** params.alpha
    d, dd = _dd_closed(xi, kappa, params.d1, n, t, lam)
    x, dx = _x_closed(xi, kappa, params.d1, params.x1, n, t, lam)
    a, da = _asol_closed(xi, kappa, params.a1, n, t, lam)
    y, dy = _y_closed(xi, kappa, params.a1, params.y1, n, t, lam)
    return (x, y, a, d), (dx, dy, da, dd)


def _type2_x(params: SolitonParams, n, t):
    eta, eps, kappa = params.eta, params.epsilon, params.kappa
    xibar, kbar = eps / eta, kappa / eta
    lam = params.c**params.alpha
    lamhat = (-params.c) ** params.alpha
    n = np.asarray(n)
    h = eta ** (-n + 1) * np.exp(-lam * t)
    k = eps ** (-n + 1) * np.exp(-lamhat * t)
    p = xibar - 1 + kbar * params.d1
    r = kbar * params.d1
    den = p * h - r * k
    num = (xibar - 1) * params.x1
    val = num / den
    der = -num * (p * (-lam * h) - r * (-lamhat * k)) / den**2
    return val, der


def _type2_y(params: SolitonParams, n, t):
    eta, eps, kappa = params.eta, params.epsilon, params.kappa
    xibar, kbar = eps / eta, kappa / eta
    xitil, ktil = 1.0 / xibar, -kbar / xibar
    lam = params.c**params.alpha
    lamhat = (-params.c) ** params.alpha
    n = np.asarray(n)
    hp = eta**n * np.exp(lam * t)
    kp = eps**n * np.exp(lamhat * t)
    p = xibar - 1 + kbar * params.a1
    r = kbar * params.a1
    den = p * hp - r * kp
    num = eta * (xitil - 1) * (1 - ktil * params.a1) * params.y1
    val = num / den
    der = -num * (p * lam * hp - r * lamhat * kp) / den**2
    return val, der


def type2_scalars(params: SolitonParams, n, t: float):
    """(x, y, a, d) with the unshifted a, d blocks, plus derivatives."""
    eta, eps, kappa, c = params.eta, params.epsilon, params.kappa, params.c
    xibar, kbar = eps / eta, kappa / eta
    lam = c**params.alpha
    lamhat = (-c) ** params.alpha
    if params.x1 == 0 and params.d1 == 0:
        z = np.zeros(np.asarray(n).shape, dtype=complex)
        return (z, z, z, z), (z, z, z, z)
    x, dx = _type2_x(params, n, t)
    y, dy = _type2_y(params, n, t)
    # barred sequences ride on xibar^{n-1} with time factor exp((lamhat-lam) t)
    dlam = lamhat - lam
    dhat, ddhat = _barred(xibar, kbar, params.d1, n, t, dlam, kind="d")
    ahat, dahat = _barred(xibar, kbar, params.a1, n, t, dlam, kind="a")
    a, da = kappa * ahat - c, kappa * dahat
    d, dd = kappa * dhat - c, kappa * ddhat
    return (x, y, a, d), (dx, dy, da, dd)


def _barred(xibar, kbar, seed, n, t, dlam, kind):
    n = np.asarray(n)
    if kind == "d":
        e = xibar ** (n - 1) * np.exp(dlam * t)
        return _moebius(e, dlam * e, 0.0, (xibar - 1) * seed, xibar - 1 + kbar * seed, -kbar * seed)
    f = xibar ** (-n + 1) * np.exp(-dlam * t)
    return _moebius(f, -dlam * f, 0.0, (xibar - 1) * seed, xibar - 1 + kbar * seed, -kbar * seed)


def family_scalars(params: SolitonParams, n, t: float):
    if params.family == "type1":
        return type1_scalars(params, n, t)
    if params.family == "type2":
        return type2_scalars(params, n, t)
    raise ValueError(f"unknown family {params.family!r}")


# --------------------------------------------------------------------------
# State assembly
# --------------------------------------------------------------------------


def state_from_scalars(pair: RankOnePair, xs: np.ndarray, ys: np.ndarray, theta: complex = 1.0) -> DnlsState:
    x_blocks = np.asarray(xs, dtype=complex)[:, None, None] * pair.bhat[None]
    y_blocks = np.asarray(ys, dtype=complex)[:, None, None] * pair.b[None]
    return DnlsState(len(xs), pair.n_dim, pair.m_dim, x_blocks, y_blocks, theta)


def _scan_singularities(values_by_site: np.ndarray, what: str):
    mags = np.abs(values_by_site)
    scale = max(float(np.max(mags)), 1.0)
    bad = np.nonzero(mags < _SINGULAR_TOL * scale)[0]
    if bad.size:
        raise SingularSoliton(int(bad[0]) + 1, f"{what} vanishes at site {int(bad[0]) + 1}")


def _constraint_check(params: SolitonParams, t: float, tol: float = 1e-8):
    """Sampled validation of the quadratic dressing constraints."""
    n = np.arange(1, 6)
    (x, y, a, d), _ = family_scalars(params, n, t)
    (xm, ym, am, dm), _ = family_scalars(params, n - 1, t)
    kappa = params.kappa
    if params.family == "type1":
        xihat = params.xi_hat
        res = max(
            sup_norm((a[1:] - a[:-1]) - (x * y)[:-1]),
            sup_norm(kappa * a * a - x * ym - xihat * a),
        )
    else:
        zeta = params.zeta
        res = max(
            sup_norm((a[1:] - a[:-1]) - kappa * (x * y)[:-1]),
            sup_norm(a * a - kappa * x * ym - zeta),
        )
    if res > tol:
        raise InconsistentDressing(f"seed constraint residual {res:.3e}")


def soliton_type1(
    params: SolitonParams,
    n_sites: int,
    t: float = 0.0,
    require_periodic: bool = False,
    validate: bool = True,
) -> DnlsState:
    """Family-1 closed-form state at time t.

    With ``require_periodic`` the base must satisfy |xi^N - 1| < 1e-10 so the
    closed forms wrap consistently; otherwise the lattice is treated as a
    window of the infinite closed form.
    """
    if params.family != "type1":
        raise ValueError("params are not family type1")
    if require_periodic and abs(params.xi**n_sites - 1.0) > 1e-10:
        raise PeriodicityViolation(
            f"|xi^{n_sites} - 1| = {abs(params.xi ** n_sites - 1.0):.3e}"
        )
    if validate and (params.x1 != 0 or params.d1 != 0):
        _constraint_check(params, t)
    n = np.arange(1, n_sites + 1)
    (x, y, _, _), _ = type1_scalars(params, n, t)
    xi, kappa, d1, a1 = params.xi, params.kappa, params.d1, params.a1
    e = xi ** (n - 1) * np.exp((xi - 1) ** params.alpha * t)
    g = xi ** (-n.astype(float)) * np.exp(-((xi - 1) ** params.alpha) * t)
    _scan_singularities(e * (xi - 1 + kappa * d1) - kappa * d1, "x denominator")
    _scan_singularities(g * (xi - 1 + kappa * a1) - kappa * a1, "y denominator")
    return state_from_scalars(params.pair, x, y)


def soliton_type2(params: SolitonParams, n_sites: int, t: float = 0.0, validate: bool = True) -> DnlsState:
    """Family-2 closed-form state at time t (window semantics)."""
    if params.family != "type2":
        raise ValueError("params are not family type2")
    if params.c == 0:
        raise DegenerateMode("c = 0: the two geometric bases coincide")
    if validate and (params.x1 != 0 or params.d1 != 0):
        _constraint_check(params, t)
    n = np.arange(1, n_sites + 1)
    (x, y, _, _), _ = type2_scalars(params, n, t)
    eta, eps, kappa = params.eta, params.epsilon, params.kappa
    xibar, kbar = eps / eta, kappa / eta
    lam, lamhat = params.c**params.alpha, (-params.c) ** params.alpha
    den_x = (xibar - 1 + kbar * params.d1) * eta ** (-n + 1) * np.exp(-lam * t) - kbar * params.d1 * eps ** (
        -n + 1
    ) * np.exp(-lamhat * t)
    den_y = (xibar - 1 + kbar * params.a1) * eta**n * np.exp(lam * t) - kbar * params.a1 * eps**n * np.exp(
        lamhat * t
    )
    _scan_singularities(den_x, "x denominator")
    _scan_singularities(den_y, "y denominator")
    return state_from_scalars(params.pair, x, y)


# --------------------------------------------------------------------------
# General solutions from linear data
# --------------------------------------------------------------------------


def toda_scalars(
    linear: LinearSolution,
    kappa: complex,
    y1: complex,
    n,
    t: float,
    x2_const: complex | None = None,
):
    """Fields from linear data: y_n = x2 y1 / xhat_{n+1} and the second
    logarithmic difference for x_n; exact derivatives included.

    The boundary factor x2 is a constant: by default the value of the
    linear solution at site 2, time 0.
    """
    n = np.asarray(n)
    x2c = linear.evaluate(2, 0.0) if x2_const is None else complex(x2_const)
    xh = {k: linear.evaluate(n + k, t) for k in (0, 1, 2)}
    dxh = {k: linear.derivative(n + k, t) for k in (0, 1, 2)}
    y = x2c * y1 / xh[1]
    dy = -x2c * y1 * dxh[1] / xh[1] ** 2
    pref = -1.0 / (kappa * x2c * y1)
    num = xh[2] * xh[0] - xh[1] ** 2
    dnum = dxh[2] * xh[0] + xh[2] * dxh[0] - 2 * xh[1] * dxh[1]
    x = pref * num / xh[0]
    dx = pref * (dnum * xh[0] - num * dxh[0]) / xh[0] ** 2
    return (x, y), (dx, dy)


def toda_general_solution(
    linear: LinearSolution,
    kappa: complex,
    y1: complex,
    n_sites: int,
    t: float = 0.0,
    pair: RankOnePair | None = None,
    x2_const: complex | None = None,
    strict_boundary: bool = False,
) -> DnlsState:
    """Assemble the linear-data solution on a lattice window.

    ``strict_boundary`` additionally demands that the site-2 value of the
    linear solution is genuinely time-independent (its exact derivative
    below 1e-10); the default instead freezes that value at t = 0, which is
    what the closed formulas require of it.
    """
    if y1 == 0:
        raise DegenerateMode("y1 must be nonzero")
    if pair is None:
        pair = make_rank_one_pair(1, 1, kappa, "triple")
    if strict_boundary and abs(linear.derivative(2, t)) > 1e-10:
        raise InconsistentBoundaryTerm("site-2 linear value varies in time")
    ns = np.arange(1, n_sites + 1)
    probe = linear.evaluate(np.arange(0, n_sites + 3), t)
    _scan_singularities(probe, "linear solution")
    x2c = linear.evaluate(2, 0.0) if x2_const is None else complex(x2_const)
    if abs(x2c) < _SINGULAR_TOL:
        raise SingularSoliton(2, "boundary factor x2 vanishes")
    (x, y), _ = toda_scalars(linear, kappa, y1, ns, t, x2c)
    return state_from_scalars(pair, x, y)


# --------------------------------------------------------------------------
# Two-soliton superposition (permutability)
# --------------------------------------------------------------------------


def _same_parameters(p1: SolitonParams, p2: SolitonParams) -> bool:
    if p1.family != p2.family:
        return False
    if p1.family == "type1":
        return abs(p1.xi - p2.xi) < 1e-12
    return abs(p1.c - p2.c) < 1e-12


def bianchi_scalars(p1: SolitonParams, p2: SolitonParams, n, t: float):
    """(x_n, y_n) of the superposed solution with exact derivatives.

    The superposition is the rational combination of the two one-soliton
    scalar sets; the y formula naturally produces y_{n-1}, so it is
    evaluated one site up.
    """
    kappa = p1.kappa
    n = np.asarray(n)

    def fam(p, nn):
        (x, y, a, d), (dx, dy, da, dd) = family_scalars(p, nn, t)
        return {"x": (x, dx), "y": (y, dy), "a": (a, da), "d": (d, dd)}

    def mul(u, v):
        return u[0] * v[0], u[0] * v[1] + u[1] * v[0]

    def sub(u, v):
        return u[0] - v[0], u[1] - v[1]

    def add(u, v):
        return u[0] + v[0], u[1] + v[1]

    def scal(s, u):
        return s * u[0], s * u[1]

    def div(u, v):
        return u[0] / v[0], (u[1] * v[0] - u[0] * v[1]) / v[0] ** 2

    s1n, s2n = fam(p1, n), fam(p2, n)
    s1m, s2m = fam(p1, n - 1), fam(p2, n - 1)  # for y_{n-1}
    dx_ = sub(s1n["x"], s2n["x"])
    dy_ = sub(s1m["y"], s2m["y"])
    da_ = sub(s1n["a"], s2n["a"])
    dd_ = sub(s1n["d"], s2n["d"])
    w = add(mul(dx_, dy_), scal(kappa, mul(da_, dd_)))
    ad2 = sub(s2n["a"], s2n["d"])
    num_x = sub(
        add(scal(kappa, mul(s2n["x"], mul(da_, da_))), mul(s2m["y"], mul(dx_, dx_))),
        scal(kappa, mul(ad2, mul(da_, dx_))),
    )
    num_y = add(
        add(scal(kappa, mul(s2m["y"], mul(dd_, dd_))), mul(s2n["x"], mul(dy_, dy_))),
        scal(kappa, mul(ad2, mul(dd_, dy_))),
    )
    x_out = add(s1n["x"], div(num_x, w))
    ym_out = add(s1m["y"], div(num_y, w))  # this is y at site n-1
    return x_out, ym_out, w


def _is_zero_datum(p: SolitonParams) -> bool:
    return p.x1 == 0 and p.y1 == 0 and p.a1 == 0 and p.d1 == 0


def bianchi_two_soliton(
    p1: SolitonParams, p2: SolitonParams, n_sites: int, t: float = 0.0
) -> DnlsState:
    """Algebraic two-soliton state from two one-soliton parameter sets.

    When one input carries all-zero seeds the rational combination is an
    exact 0/0: the numerator vanishes with the zero fields while the
    denominator x1 y1_{n-1} + kappa a1 d1 vanishes identically by the
    surviving soliton's own quadratic constraint.  The algebraic limit is
    the surviving soliton, which is returned directly.
    """
    if p1.pair is not p2.pair and (
        sup_norm(p1.pair.bhat - p2.pair.bhat) > 0 or sup_norm(p1.pair.b - p2.pair.b) > 0
    ):
        raise DegenerateBianchi("both solitons must share the rank-one pair")
    if _is_zero_datum(p2) or _is_zero_datum(p1):
        survivor = p1 if _is_zero_datum(p2) else p2
        ns = np.arange(1, n_sites + 1)
        (x, y, _, _), _ = family_scalars(survivor, ns, t)
        return state_from_scalars(survivor.pair, x, y)
    if _same_parameters(p1, p2):
        raise DegenerateBianchi("soliton parameters coincide")
    ns = np.arange(1, n_sites + 1)
    x_out, _, w = bianchi_scalars(p1, p2, ns, t)
    _, ym_next, _ = bianchi_scalars(p1, p2, ns + 1, t)  # y_{(n+1)-1} = y_n
    _scan_singularities(w[0], "superposition denominator")
    return state_from_scalars(p1.pair, x_out[0], ym_next[0])


# --------------------------------------------------------------------------
# Dressing blocks and the gauge identity
# --------------------------------------------------------------------------


def darboux_blocks(params: SolitonParams, n_sites: int, t: float = 0.0) -> np.ndarray:
    """Per-site dressing blocks [[A, B], [C, D]] carried by a soliton state.

    A and D sit on the rank-one directions for family 1 (A = a bhat b,
    D = d b bhat) and on the identity for family 2; B = -x bhat, C carries
    the y value of the previous site.
    """
    pair = params.pair
    n = np.arange(1, n_sites + 1)
    (x, y, a, d), _ = family_scalars(params, n, t)
    (_, ym, _, _), _ = family_scalars(params, n - 1, t)
    nd, md = pair.n_dim, pair.m_dim
    kmats = np.zeros((n_sites, nd + md, nd + md), dtype=complex)
    if params.family == "type1":
        a_dir = pair.bhat @ pair.b
        d_dir = pair.b @ pair.bhat
    else:
        a_dir = np.eye(nd)
        d_dir = np.eye(md)
    kmats[:, :nd, :nd] = a[:, None, None] * a_dir[None]
    kmats[:, nd:, nd:] = d[:, None, None] * d_dir[None]
    kmats[:, :nd, nd:] = -x[:, None, None] * pair.bhat[None]
    kmats[:, nd:, :nd] = ym[:, None, None] * pair.b[None]
    return kmats


def darboux_identity_residual(
    params: SolitonParams, n_sites: int, t: float, lambda_samples
) -> float:
    """Residual of M_{n+1}(lam) L0_n(lam) - L_n(lam) M_n(lam) over sites.

    M = lam I + K with the soliton dressing blocks of sites 1..n_sites+1; L0
    is the zero-field Lax matrix.  The identity characterizes the state as a
    gauge transform of the vacuum.
    """
    kmats = darboux_blocks(params, n_sites + 1, t)
    (x, y, _, _), _ = family_scalars(params, np.arange(1, n_sites + 1), t)
    state = state_from_scalars(params.pair, x, y)
    vacuum = zero_state(1, state.n_dim, state.m_dim)
    eye = np.eye(kmats.shape[-1])
    worst = 0.0
    for lam in lambda_samples:
        m = lam * eye + kmats
        worst = max(worst, sup_norm(m[1:] @ lax_stack(vacuum, lam)[0] - lax_stack(state, lam) @ m[:-1]))
    return worst


# --------------------------------------------------------------------------
# Equation-of-motion oracle for scalar families
# --------------------------------------------------------------------------


def scalar_eom_residual(fields_fn, kappa: complex, alpha: int, sites, t: float) -> float:
    """Flow residual of scalar fields with exact derivatives.

    fields_fn(n_array, t) must return ((x, y), (dx, dy)).  The scalar flow
    equations are the rank-one reductions of the matrix ones, with the
    composite factor nn = 1 + kappa x y.
    """
    n = np.asarray(sites)

    def at(k):
        (x, y), (dx, dy) = fields_fn(n + k, t)
        return x, y, dx, dy

    x0, y0, dx0, dy0 = at(0)
    x1, y1_, _, _ = at(1)
    x2, _, _, _ = at(2)
    xm, ym, _, _ = at(-1)
    _, ymm, _, _ = at(-2)
    if alpha == 1:
        rx = dx0 - (x1 - x0 - kappa * x0 * y0 * x0)
        ry = dy0 - (y0 - ym + kappa * y0 * x0 * y0)
        return max(sup_norm(rx), sup_norm(ry))
    if alpha == 2:
        nn0 = 1 + kappa * x0 * y0
        nn1 = 1 + kappa * x1 * y1_
        nnm = 1 + kappa * xm * ym
        rx = dx0 - (
            x2 - (nn0 + nn1) * x1 + nn0**2 * x0 - kappa * x1 * y0 * x0 - kappa * x0 * ym * x0
        )
        ry = dy0 - (
            kappa * y0 * x0 * ym + ym * (nn0 + nnm) - y0 * nn0**2 + kappa * y0 * x1 * y0 - ymm
        )
        return max(sup_norm(rx), sup_norm(ry))
    raise ValueError("scalar residual implemented for flows 1 and 2")
