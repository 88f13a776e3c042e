"""Shared core of the additive (``dnls``) and multiplicative (``al``) lattices.

Both models carry two field stacks on ``n_sites`` sites, an upper one of
shape (n_sites, n_dim, m_dim) and a lower one of shape (n_sites, m_dim,
n_dim); both build their Lax and time matrices from 2x2 block matrices, and
both satisfy the zero-curvature identity

    d/dt L_n = V_{n+1} L_n - L_n V_n.

They differ only in their Lax matrices and in their shifts (periodic for
``dnls``; periodic or zero-padded on a vanishing window for ``al``).  This
module holds everything else once: the state base class, zero and random
fields, the site shift, the stacked block assembler, the zero-curvature
residual over stacked matrices and the RK4 integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _frozen, sup_norm
from .errors import BlowUp


@dataclass(frozen=True)
class FieldPair:
    """Base of the immutable lattice states; field arrays are write-protected.

    A subclass adds its two field stacks as dataclass fields and names them,
    upper then lower, in the class attribute ``FIELDS``; ``MODEL`` names its
    lattice.
    """

    n_sites: int
    n_dim: int
    m_dim: int

    def __post_init__(self):
        shapes = _field_shapes(self.n_sites, self.n_dim, self.m_dim)
        for name, shape in zip(self.FIELDS, shapes):
            a = np.asarray(getattr(self, name), dtype=np.complex128)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}")
            object.__setattr__(self, name, _frozen(a))

    @property
    def dim(self) -> int:
        return self.n_dim + self.m_dim


def _field_shapes(n_sites: int, n_dim: int, m_dim: int):
    return (n_sites, n_dim, m_dim), (n_sites, m_dim, n_dim)


def zero_fields(n_sites: int, n_dim: int, m_dim: int) -> tuple[np.ndarray, ...]:
    return tuple(np.zeros(s, dtype=np.complex128) for s in _field_shapes(n_sites, n_dim, m_dim))


def random_fields(rng: np.random.Generator, n_sites: int, n_dim: int, m_dim: int, scale: float):
    """Random complex fields, uniform in a centered box of half-width scale.

    The upper stack is drawn first, each stack real part before imaginary.
    """
    return tuple(
        scale * (rng.uniform(-1, 1, s) + 1j * rng.uniform(-1, 1, s))
        for s in _field_shapes(n_sites, n_dim, m_dim)
    )


def shift(a: np.ndarray, k: int, periodic: bool = True) -> np.ndarray:
    """Site shift result[n] = a[n + k]: wrapped, or zero past the window ends."""
    n = a.shape[0]
    if periodic:
        k = k % n if n else 0
        return np.concatenate((a[k:], a[:k]))
    out = np.zeros_like(a)
    if abs(k) < n:
        out[max(-k, 0) : n - max(k, 0)] = a[max(k, 0) : n - max(-k, 0)]
    return out


def block_stack(n_sites: int, n_dim: int, m_dim: int, *coeffs) -> np.ndarray:
    """Stack of 2x2 block matrices [[a, b], [c, d]], shape (K, n_sites, d, d).

    Each of the K ``(a, b, c, d)`` tuples fills one leading index.  A block is
    a per-site stack, one matrix shared by every site, or a scalar: that
    multiple of the identity on the diagonal, a zero block off it.
    """
    out = np.zeros((len(coeffs), n_sites, n_dim + m_dim, n_dim + m_dim), dtype=np.complex128)
    top, bot = slice(0, n_dim), slice(n_dim, None)
    quadrants = ((top, top), (top, bot), (bot, top), (bot, bot))
    for k, blocks in enumerate(coeffs):
        for (rows, cols), blk in zip(quadrants, blocks):
            view = out[k, :, rows, cols]
            if np.ndim(blk):
                view[...] = blk
            elif rows == cols:
                diag = np.arange(view.shape[-1])
                view[:, diag, diag] = blk
    return out


def curvature_residual(
    dl: np.ndarray, lax: np.ndarray, v: np.ndarray, periodic: bool = True
) -> float:
    """Sup-norm of d/dt L_n - (V_{n+1} L_n - L_n V_n) over stacked sites.

    On a vanishing window the two edge sites see truncated neighbors and are
    left out.
    """
    resid = dl - (shift(v, 1, periodic) @ lax - lax @ v)
    return sup_norm(resid if periodic else resid[1:-1])


def rk4(
    rhs,
    upper: np.ndarray,
    lower: np.ndarray,
    dt: float,
    steps: int,
    save_every=None,
    member_axis=None,
):
    """Classic fixed-step RK4 on a field pair.

    ``rhs(upper, lower)`` returns the two time derivatives.  Returns the
    ``(t, upper, lower)`` samples after every ``save_every`` steps and after
    the last step; the initial sample is the caller's.  Raises
    :class:`BlowUp` with the step index if values go non-finite; when the
    stacks carry a batch of states along ``member_axis``, it also names the
    non-finite members.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if save_every is not None and save_every < 1:
        raise ValueError(f"save_every must be at least 1, got {save_every}")
    stride = save_every or steps or 1
    samples = []
    # overflow is detected and reported via BlowUp, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            k1u, k1l = rhs(upper, lower)
            k2u, k2l = rhs(upper + 0.5 * dt * k1u, lower + 0.5 * dt * k1l)
            k3u, k3l = rhs(upper + 0.5 * dt * k2u, lower + 0.5 * dt * k2l)
            k4u, k4l = rhs(upper + dt * k3u, lower + dt * k3l)
            upper = upper + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
            lower = lower + (dt / 6.0) * (k1l + 2 * k2l + 2 * k3l + k4l)
            if not (
                np.all(np.isfinite(upper.view(np.float64)))
                and np.all(np.isfinite(lower.view(np.float64)))
            ):
                raise BlowUp(step + 1, members=_nonfinite_members(member_axis, upper, lower))
            if (step + 1) % stride == 0 or step == steps - 1:
                samples.append(((step + 1) * dt, upper, lower))
    return samples


def _nonfinite_members(axis, upper: np.ndarray, lower: np.ndarray):
    """Indices along ``axis`` at which either stack is non-finite; ``None`` for no axis."""
    if axis is None:
        return None
    others = tuple(i for i in range(upper.ndim) if i != axis)
    ok = np.isfinite(upper).all(axis=others) & np.isfinite(lower).all(axis=others)
    return tuple(int(i) for i in np.flatnonzero(~ok))
