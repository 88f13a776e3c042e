"""Logarithmic map from the forward discrete heat equation to a discrete
Burgers equation, plus the continuum check of the heat-kernel solution pair.

The map: for positive heat data xhat_n(t), the potential y_n = ln xhat_n
satisfies

    dy_n/dt = exp(Dy_n) (exp(Dy_{n+1}) - 1) - (exp(Dy_n) - 1),

(D the forward difference), and u_n = Dy_n satisfies

    du_n/dt = exp(u_{n+1}) (exp(u_{n+2}) - exp(u_n)) - 2 (exp(u_{n+1}) - exp(u_n)).

Both identities are exact; the residual functions here evaluate them with
analytic time derivatives from the mode data, so they measure only
floating-point error.  The truncation report quantifies the small-amplitude
expansion of the u equation: the second-order model with the squared
difference (Du_n)^2 has a third-order remainder on smooth scaled data
(halving ratio ~8); the difference-of-squares variant D(u_n^2) cancels to
fourth order (ratio ~16) and is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import sup_norm
from .darboux import FORWARD, LinearSolution, build_linear_solution
from .errors import LogBranch, ModeOverflow, SingularTime, ToleranceFailure

HEAT_FLOW_ALPHA = 2  # the forward heat equation is the second flow's linearization


def heat_trajectory(modes) -> LinearSolution:
    """Forward-heat mode data: amplitudes and bases with (base-1)^2 rates."""
    return build_linear_solution(modes, HEAT_FLOW_ALPHA, FORWARD)


def heat_residual(heat: LinearSolution, sites, t: float) -> float:
    """Forward heat-equation residual of the mode data (round-off only)."""
    n = np.asarray(sites)
    lhs = heat.derivative(n, t)
    rhs = heat.evaluate(n + 2, t) - 2 * heat.evaluate(n + 1, t) + heat.evaluate(n, t)
    return sup_norm(lhs - rhs)


@dataclass(frozen=True)
class ColeHopfMap:
    y: np.ndarray  # potential over sites 1..N
    u: np.ndarray  # slope over sites 1..N
    potential_residuals: np.ndarray  # per-site y-equation identity
    burgers_residuals: np.ndarray  # per-site u-equation identity

    @property
    def potential_residual(self) -> float:
        return sup_norm(self.potential_residuals)

    @property
    def burgers_residual(self) -> float:
        return sup_norm(self.burgers_residuals)


def _tracked_log(values: np.ndarray) -> np.ndarray:
    """Cumulative principal logarithm along the lattice.

    The branch is carried from site to site through the ratio logs, so the
    potential is continuous; a near-cut ratio or a (near-)zero value aborts.
    """
    mags = np.abs(values)
    if np.any(mags < 1e-300):
        raise LogBranch(int(np.argmin(mags)) + 1, "zero crossing in heat data")
    out = np.empty(len(values), dtype=complex)
    out[0] = np.log(values[0])
    ratios = values[1:] / values[:-1]
    args = np.angle(ratios)
    near_cut = np.abs(np.abs(args) - np.pi) < 1e-9
    if np.any(near_cut):
        raise LogBranch(int(np.argmax(near_cut)) + 2, "branch jump between sites")
    out[1:] = out[0] + np.cumsum(np.log(np.abs(ratios)) + 1j * args)
    return out


def cole_hopf_forward(heat: LinearSolution, n_sites: int, t: float = 0.0) -> ColeHopfMap:
    """Map heat-equation mode data to the potential and Burgers lattices.

    Returns the potential y (length n_sites), the slope field u = Dy
    (length n_sites), and the exact-identity residuals evaluated with
    analytic time derivatives (interior sites).
    """
    ns = np.arange(1, n_sites + 3)  # two extra sites for the residuals
    with np.errstate(all="ignore"):
        xh, dxh = heat.evaluate(ns, t), heat.derivative(ns, t)
        hres = heat_residual(heat, ns[:-2], t)
    if not (np.isfinite(xh).all() and np.isfinite(dxh).all()):
        raise ModeOverflow(f"t = {t}: the heat data leave float64 range")
    if not hres <= 1e-10:  # the bound is absolute, so large data fail it too
        raise ToleranceFailure(
            f"heat-equation residual {hres:.3e} above the absolute bound 1e-10"
            f" on heat data up to {np.abs(xh).max():.3e}"
        )
    y = _tracked_log(xh)
    dy = dxh / xh
    du = dy[1:] - dy[:-1]
    u = y[1:] - y[:-1]
    # potential identity over sites with two forward neighbors
    a = u[:-1]  # Dy_n
    b = u[1:]  # Dy_{n+1}
    pot = dy[:-2] - (np.exp(a) * (np.exp(b) - 1.0) - (np.exp(a) - 1.0))
    # slope identity over sites with u_{n+1}, u_{n+2}
    burg = du[:-2] - (
        np.exp(u[1:-1]) * (np.exp(u[2:]) - np.exp(u[:-2]))
        - 2.0 * (np.exp(u[1:-1]) - np.exp(u[:-2]))
    )
    return ColeHopfMap(
        y[:n_sites],
        u[:n_sites],
        np.abs(pot[:n_sites]),
        np.abs(burg[: n_sites - 1] if n_sites > 1 else burg),
    )


def _ratio(num: float, den: float) -> float:
    """num / den, NaN for 0 / 0 and inf for a nonzero over 0 (plain division raises there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(num) / den)


@dataclass(frozen=True)
class TruncationReport:
    """Remainders of the small-amplitude truncations at delta and delta/2."""

    delta: float
    residual_sq: tuple[float, float]  # model with (Du_n)^2
    residual_diffsq: tuple[float, float]  # model with D(u_n^2)
    residual_potential: tuple[float, float]  # y-equation model with (Dy_n)^2

    @property
    def ratio_sq(self) -> float:
        return _ratio(*self.residual_sq)

    @property
    def ratio_diffsq(self) -> float:
        return _ratio(*self.residual_diffsq)

    @property
    def ratio_potential(self) -> float:
        return _ratio(*self.residual_potential)


def _truncation_residuals(delta: float, n_sites: int, t: float):
    ns = np.arange(1, n_sites + 4)
    with np.errstate(all="ignore"):
        bases = (np.exp(delta), np.exp(delta * -0.7))
        in_range = all(0 < b < np.inf for b in bases)
        if in_range:
            heat = heat_trajectory([(1.0, bases[0]), (0.6, bases[1])])
            xh, dxh = heat.evaluate(ns, t), heat.derivative(ns, t)
            in_range = np.isfinite(xh).all() and np.isfinite(dxh).all()
    if not in_range:
        raise ModeOverflow(f"delta = {delta}: the delta-scaled heat data leave float64 range")
    dy = dxh / xh
    y = _tracked_log(xh)
    u = y[1:] - y[:-1]
    du = dy[1:] - dy[:-1]
    n_u = len(u) - 2
    d2u = u[2 : n_u + 2] - 2 * u[1 : n_u + 1] + u[:n_u]
    model_sq = d2u + (u[1 : n_u + 1] - u[:n_u]) ** 2
    model_diffsq = d2u + (u[1 : n_u + 1] ** 2 - u[:n_u] ** 2)
    r_sq = sup_norm(du[:n_u] - model_sq)
    r_diff = sup_norm(du[:n_u] - model_diffsq)
    n_y = len(y) - 2
    d2y = y[2 : n_y + 2] - 2 * y[1 : n_y + 1] + y[:n_y]
    r_pot = sup_norm(dy[:n_y] - d2y - (y[1 : n_y + 1] - y[:n_y]) ** 2)
    return r_sq, r_diff, r_pot


def burgers_truncation_order(delta: float, n_sites: int = 40, t: float = 0.1) -> TruncationReport:
    """Measure truncation remainders on smooth delta-scaled heat data.

    The heat data are 1.0 exp(delta)^(n-1) + 0.6 exp(-0.7 delta)^(n-1) (with
    their heat-flow time factors), so slopes scale like delta and vary
    smoothly across the lattice; delta = 0 gives constant data and zero
    remainders.  Raises ModeOverflow when a mode base, or the data on the
    lattice, leave float64 range.
    """
    if delta == 0:
        zeros = (0.0, 0.0)
        return TruncationReport(0.0, zeros, zeros, zeros)
    r1 = _truncation_residuals(delta, n_sites, t)
    r2 = _truncation_residuals(delta / 2, n_sites, t)
    return TruncationReport(
        delta, (r1[0], r2[0]), (r1[1], r2[1]), (r1[2], r2[2])
    )


# --------------------------------------------------------------------------
# Continuum verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuumGrid:
    """Rectangular space-time grid avoiding the singular time t = 0."""

    x_min: float
    x_max: float
    hx: float
    t_min: float
    t_max: float
    ht: float

    def __post_init__(self):
        if not np.isfinite([self.x_min, self.x_max, self.hx, self.t_min, self.t_max, self.ht]).all():
            raise ValueError("grid bounds and spacings must be finite")
        if self.hx <= 0 or self.ht <= 0:
            raise ValueError("grid spacings must be positive")
        if self.t_min <= 0 or self.t_max <= 0:
            raise SingularTime("grid must stay at positive times")
        if self.t_min - self.ht <= 0:
            raise SingularTime("time stencil reaches t <= 0; shrink ht or raise t_min")
        # the first stencil point of _fd_residuals at the coarse spacing, on each axis
        x_inside = self.x_min + self.hx < self.x_max - self.hx / 2
        t_inside = self.t_min + self.ht < self.t_max - self.ht / 2
        if not (x_inside and t_inside):
            raise ValueError("grid has no interior point; widen it or shrink its spacings")


def heat_kernel_pair():
    """The point-source solution pair of the coupled continuum system."""

    def u(x, t):
        return np.sqrt(t) * np.exp(x**2 / (4 * t))

    def uhat(x, t):
        return np.exp(-(x**2) / (4 * t)) / (2 * t**1.5)

    return u, uhat


def two_mode_pair():
    """General pair built from the two-term heat solution c1 + c2 exp(-kx + k^2 t)."""
    c1, c2, k = 1.0, 0.6, 1.0

    def u0(x, t):
        return c1 + c2 * np.exp(-k * x + k**2 * t)

    def u(x, t):
        return 1.0 / u0(x, t)

    def uhat(x, t):
        e = c2 * np.exp(-k * x + k**2 * t)
        return -(k**2) * c1 * e / u0(x, t)

    return u, uhat


@dataclass(frozen=True)
class ContinuumReport:
    residual_u: tuple[float, float]  # at (hx, ht) and (hx/2, ht/2)
    residual_uhat: tuple[float, float]

    @property
    def ratio_u(self) -> float:
        return _ratio(*self.residual_u)

    @property
    def ratio_uhat(self) -> float:
        return _ratio(*self.residual_uhat)


def _fd_residuals(u, uhat, grid: ContinuumGrid, hx: float, ht: float):
    xs = np.arange(grid.x_min + hx, grid.x_max - hx / 2, hx)
    ts = np.arange(grid.t_min + ht, grid.t_max - ht / 2, ht)
    xg, tg = np.meshgrid(xs, ts, indexing="ij")

    def dt(f):
        return (f(xg, tg + ht) - f(xg, tg - ht)) / (2 * ht)

    def dxx(f):
        return (f(xg + hx, tg) - 2 * f(xg, tg) + f(xg - hx, tg)) / hx**2

    uu, uh = u(xg, tg), uhat(xg, tg)
    r1 = dt(u) + dxx(u) - 2 * uh * uu**2
    r2 = dt(uhat) - dxx(uhat) + 2 * uu * uh**2
    return sup_norm(r1), sup_norm(r2)


def verify_continuum_nls(grid: ContinuumGrid, pair: str = "heat-kernel") -> ContinuumReport:
    """Centered-difference residuals of the coupled continuum system
    u_t + u_xx = 2 uhat u^2, uhat_t - uhat_xx = -2 u uhat^2.

    Both equations of the pair are checked at the grid spacing and at half
    spacing; exact solutions give ratios near 4 (second-order stencils).
    """
    if pair == "heat-kernel":
        u, uhat = heat_kernel_pair()
    elif pair == "two-mode":
        u, uhat = two_mode_pair()
    else:
        raise ValueError(f"unknown pair {pair!r}")
    coarse = _fd_residuals(u, uhat, grid, grid.hx, grid.ht)
    fine = _fd_residuals(u, uhat, grid, grid.hx / 2, grid.ht / 2)
    return ContinuumReport((coarse[0], fine[0]), (coarse[1], fine[1]))
