"""Shared core of the additive (``dnls``) and multiplicative (``al``) lattices.

Both models carry two field stacks on ``n_sites`` sites, an upper one of
shape (n_sites, n_dim, m_dim) and a lower one of shape (n_sites, m_dim,
n_dim); both build their Lax and time matrices from 2x2 block matrices, and
both satisfy the zero-curvature identity

    d/dt L_n = V_{n+1} L_n - L_n V_n.

They differ only in their Lax matrices and in their shifts (periodic for
``dnls``; periodic or zero-padded on a vanishing window for ``al``).  This
module holds everything else once: the state base class, zero and random
fields, the site shifts, the stacked block assembler and block product, the
zero-curvature residual over stacked matrices and the RK4 integrator.
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


def _halo(a: np.ndarray, lo: int, hi: int, periodic: bool) -> np.ndarray:
    """Copy of ``a`` with ``lo`` sites before it and ``hi`` after: wrapped or zero."""
    n = len(a)
    if not (periodic and n):
        pad = np.zeros((lo + n + hi,) + a.shape[1:], dtype=a.dtype)
        pad[lo : lo + n] = a
        return pad
    if lo > n or hi > n:
        return np.take(a, np.arange(-lo, n + hi), axis=0, mode="wrap")
    # an empty piece costs concatenate about as much as a full one
    if not lo:
        return np.concatenate((a, a[:hi]))
    if not hi:
        return np.concatenate((a[n - lo :], a))
    return np.concatenate((a[n - lo :], a, a[:hi]))


def halo_shifts(a: np.ndarray, offsets, periodic: bool = True) -> list[np.ndarray]:
    """Site shifts result[i][n] = a[n + offsets[i]], wrapped or zero past the ends.

    The stack is padded once with its neighbours, and each shift is a view
    of that one padded copy, never of ``a`` itself.  Any offset is valid,
    also one of magnitude ``n_sites`` or more.
    """
    lo, hi = max(0, -min(offsets)), max(0, max(offsets))
    pad, n = _halo(a, lo, hi, periodic), len(a)
    return [pad[lo + k : lo + k + n] for k in offsets]


def shift(a: np.ndarray, k: int, periodic: bool = True) -> np.ndarray:
    """Site shift result[n] = a[n + k]: wrapped, or zero past the window ends.

    The one-offset case of :func:`halo_shifts`, without its list.
    """
    lo, hi = (-k, 0) if k < 0 else (0, k)
    return _halo(a, lo, hi, periodic)[lo + k : lo + k + len(a)]


def bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked block product a @ b as a sum of broadcast outer products.

    One elementwise product per contracted index replaces the per-site
    matrix calls of ``@``, which dominate for the narrow blocks (field
    widths of at most 2) of the equations of motion.
    """
    width = a.shape[-1]
    if b.shape[-2] != width:
        raise ValueError(f"bmm: inner dimensions differ, {a.shape} and {b.shape}")
    if width == 1:
        return a * b  # (..., n, 1) * (..., 1, m) is the one outer product
    out = a[..., :, 0:1] * b[..., 0:1, :]
    for j in range(1, width):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def block_stack(n_sites: int, n_dim: int, m_dim: int, *coeffs) -> np.ndarray:
    """Stack of 2x2 block matrices [[a, b], [c, d]], shape (K, n_sites, d, d).

    Each of the K ``(a, b, c, d)`` tuples fills one leading index.  A block is
    a per-site stack, one matrix shared by every site, or a scalar: that
    multiple of the identity on the diagonal, a zero block off it.
    """
    d = n_dim + m_dim
    out = np.zeros((len(coeffs), n_sites, d, d), dtype=np.complex128)
    # the diagonals of all sites' matrices as one strided view, shape (K, n_sites, d)
    diagonals = out.reshape(len(coeffs), n_sites, d * d)[..., :: d + 1]
    top, bot = slice(0, n_dim), slice(n_dim, None)
    quadrants = ((top, top), (top, bot), (bot, top), (bot, bot))
    for k, blocks in enumerate(coeffs):
        for (rows, cols), blk in zip(quadrants, blocks):
            if np.ndim(blk):
                out[k, :, rows, cols] = blk
            elif rows == cols:
                diagonals[k, :, rows] = blk
    return out


def curvature_residual(
    dl: np.ndarray, lax: np.ndarray, v: np.ndarray, periodic: bool = True
) -> float:
    """Sup-norm of d/dt L_n - (V_{n+1} L_n - L_n V_n) over stacked sites.

    On a vanishing window the two edge sites see truncated neighbors and are
    left out.  The products stay on ``@``: the zero-curvature suites call
    this on a dozen sites of (d, d) blocks with d up to 3, where per-site
    ``@`` beats :func:`bmm`.
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

    ``rhs(upper, lower)`` returns the two time derivatives.  Both stacks are
    stepped as one flat buffer, and a sample's two stacks are views of it.
    Returns the ``(t, upper, lower)`` samples after every ``save_every``
    steps and after the last step; the initial sample is the caller's.  Raises
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
    # both stacks live in one flat buffer, so each update is one array operation
    split = upper.size

    def unpack(z):
        return z[:split].reshape(upper.shape), z[split:].reshape(lower.shape)

    def f(z):
        return np.concatenate(rhs(*unpack(z)), axis=None)

    z = np.concatenate((upper, lower), axis=None)
    samples = []
    # overflow is detected and reported via BlowUp, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            k1 = f(z)
            k2 = f(z + 0.5 * dt * k1)
            k3 = f(z + 0.5 * dt * k2)
            k4 = f(z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(z.view(np.float64)).all():
                raise BlowUp(step + 1, members=_nonfinite_members(member_axis, *unpack(z)))
            if (step + 1) % stride == 0 or step == steps - 1:
                samples.append(((step + 1) * dt, *unpack(z)))
    return samples


def _nonfinite_members(axis, upper: np.ndarray, lower: np.ndarray):
    """Indices along ``axis`` at which either stack is non-finite; ``None`` for no axis."""
    if axis is None:
        return None
    others = tuple(i for i in range(upper.ndim) if i != axis)
    ok = np.isfinite(upper).all(axis=others) & np.isfinite(lower).all(axis=others)
    return tuple(int(i) for i in np.flatnonzero(~ok))
