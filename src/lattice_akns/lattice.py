"""Shared core of the additive (``dnls``) and multiplicative (``al``) lattices.

Both models carry two field stacks on ``n_sites`` sites, an upper one of
shape (n_sites, n_dim, m_dim) and a lower one of shape (n_sites, m_dim,
n_dim); both build their Lax and time matrices from 2x2 block matrices, and
both satisfy the zero-curvature identity

    d/dt L_n = V_{n+1} L_n - L_n V_n.

They differ only in their Lax matrices and in their shifts (periodic for
``dnls``; periodic or zero-padded on a vanishing window for ``al``).  This
module holds everything else once: the state base class, zero and random
fields, the grouping of states by shape, the site shift, the stacked block
assembler and block product, the zero-curvature residual at all spectral
samples of a batch of states and the RK4 integrator.  The integrator steps
a right-hand side that each model builds once over halo-padded buffers as
a program, a list of ``(ufunc, args)`` steps whose block products
:func:`block_product` expands; one RK4 step is one such list run by one
loop (``padded_rhs`` runs a right-hand side on a single state or batch).
On a periodic lattice the halo is four stages wide, so it is refreshed
once per step; finiteness is tested at the saved samples only, with a
step-by-step replay that finds the first non-finite step (exact for
right-hand sides of +, - and x alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _frozen
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

    # a subclass with a boundary choice overrides it
    periodic = True

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


def shape_groups(states) -> list[list[int]]:
    """Indices of ``states`` grouped by model, shape and boundary, in order of first appearance.

    The members of one group share ``(n_sites, n_dim, m_dim)`` and shift
    semantics, so their fields stack on a member axis.
    """
    groups: dict = {}
    for i, st in enumerate(states):
        groups.setdefault((type(st), st.n_sites, st.n_dim, st.m_dim, st.periodic), []).append(i)
    return list(groups.values())


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


def shift(a: np.ndarray, k: int, periodic: bool = True) -> np.ndarray:
    """Site shift result[n] = a[n + k]: wrapped, or zero past the window ends.

    The result is a view of a padded copy, never of ``a`` itself.  Any
    offset is valid, also one of magnitude ``n_sites`` or more.
    """
    lo, hi = (-k, 0) if k < 0 else (0, k)
    return _halo(a, lo, hi, periodic)[lo + k : lo + k + len(a)]


def block_product(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> list:
    """The steps that write the stacked block product a @ b into ``out``.

    Each step is a ``(ufunc, args)`` pair, its operands positional: one
    elementwise product per contracted index, which replaces the per-site
    matrix calls of ``@`` that dominate for the narrow blocks (field widths
    of at most 2) of the equations of motion.  The inner widths are checked
    here, once.  From width 2 on, the terms after the first go through
    ``scratch``, an array of ``out``'s shape (allocated here if not given),
    and are added to ``out`` in index order.
    """
    width = a.shape[-1]
    if b.shape[-2] != width:
        raise ValueError(f"block product: inner dimensions differ, {a.shape} and {b.shape}")
    if width == 1:
        return [(np.multiply, (a, b, out))]  # (..., n, 1) * (..., 1, m) is the one outer product
    steps = [(np.multiply, (a[..., :, 0:1], b[..., 0:1, :], out))]
    scratch = np.empty_like(out) if scratch is None else scratch
    for j in range(1, width):
        term = (np.multiply, (a[..., :, j : j + 1], b[..., j : j + 1, :], scratch))
        steps += [term, (np.add, (out, scratch, out))]
    return steps


def bmm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stacked block product a @ b, by running the steps of :func:`block_product`.

    With ``out`` the product is written there, its terms summed in the
    same order.
    """
    if out is None:
        # equal leading axes, as every caller has, skip the slower broadcast_shapes
        lead = a.shape[:-2] if a.shape[:-2] == b.shape[:-2] else np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(lead + (a.shape[-2], b.shape[-1]), dtype=np.promote_types(a.dtype, b.dtype))
    for fn, args in block_product(a, b, out):
        fn(*args)
    return out


def block_stack(shape, n_dim: int, m_dim: int, *coeffs) -> np.ndarray:
    """Stack of 2x2 block matrices [[a, b], [c, d]], shape (K, *shape, d, d).

    ``shape`` is ``n_sites``, or ``(n_sites, members)`` for a batch of
    states on axis 1.  Each of the K ``(a, b, c, d)`` tuples fills one
    leading index.  A block is a per-site stack, one matrix shared by every
    site (and member), a scalar, or one scalar per member (a 1-d array):
    that multiple of the identity on the diagonal, a zero block off it.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    d = n_dim + m_dim
    out = np.zeros((len(coeffs), *shape, d, d), dtype=np.complex128)
    # the diagonals of all matrices as one strided view, shape (K, *shape, d)
    diagonals = out.reshape(len(coeffs), *shape, d * d)[..., :: d + 1]
    top, bot = slice(0, n_dim), slice(n_dim, None)
    quadrants = ((top, top), (top, bot), (bot, top), (bot, bot))
    for k, blocks in enumerate(coeffs):
        for (rows, cols), blk in zip(quadrants, blocks):
            ndim = getattr(blk, "ndim", 0)  # a Python scalar has none
            if ndim > 1:
                out[k, ..., rows, cols] = blk
            elif rows == cols:
                diagonals[k, ..., rows] = blk[:, None] if ndim else blk
    return out


def curvature_residual(
    dl: np.ndarray, laxes: np.ndarray, v: np.ndarray, min_degree: int, samples, periodic: bool = True
) -> np.ndarray:
    """Sup-norm of d/dt L_n - (V_{n+1} L_n - L_n V_n) over the sites, per member and sample.

    The stacks carry a batch of states on axis 1: ``dl`` has shape
    (n_sites, members, d, d), ``laxes`` the Lax stacks at the sample slots,
    (L, n_sites, members, d, d), and ``v`` the Laurent coefficients of V,
    lowest degree ``min_degree`` first.  ``samples`` holds each member's row
    of L spectral samples.  Slot k evaluates V by Horner with each member's
    own sample as a (members, 1, 1) array; the tail power is taken on each
    sample as given, so a one-member batch rounds as a lone state would.
    On a vanishing window the two edge sites see truncated neighbors and
    are left out.  The products stay on ``@``: the zero-curvature suites
    call this on a dozen sites of (d, d) blocks with d up to 3, where
    per-site ``@`` beats :func:`bmm`.  Returns the residuals, shape
    (members, L).
    """
    n, members, d = dl.shape[:3]
    # each member's sample at each slot, and its tail power, as (L, members, 1, 1)
    lams = np.array(samples, dtype=np.complex128).T.reshape(-1, members, 1, 1)
    tails = np.array([[s**min_degree for s in row] for row in samples], dtype=np.complex128)
    tails = tails.T.reshape(-1, members, 1, 1)
    # the products run on (n_sites * members, d, d) views: @ pays per call of its
    # inner loop, which a member axis would make one call per site
    flat, laxes = dl.reshape(-1, d, d), laxes.reshape(len(laxes), -1, d, d)
    out = np.empty((len(laxes), members))
    for lam, tail, lax, res in zip(lams, tails, laxes, out):
        vs = np.zeros(v.shape[1:], dtype=np.complex128)
        for c in v[::-1]:
            vs *= lam
            vs += c
        vs *= tail
        resid = flat - (shift(vs, 1, periodic).reshape(-1, d, d) @ lax - lax @ vs.reshape(-1, d, d))
        resid = resid.reshape(n, members, d * d)
        # an empty window (no interior sites) has residual 0; a NaN entry makes its member's NaN
        np.abs(resid if periodic else resid[1:-1]).max(axis=(0, 2), initial=0.0, out=res)
    return out.T


def batch_residuals(states, samples, group_residuals) -> np.ndarray:
    """Zero-curvature residuals of every state at its row of samples, shape (S, L).

    ``samples`` holds one row of L spectral samples per state.  The states
    run in :func:`shape_groups`, each group's fields stacked on a member
    axis after the site axis; ``group_residuals(members, upper, lower,
    rows)`` returns the group's (members, L) residuals.
    """
    states, rows = list(states), [list(row) for row in samples]
    if not states:
        raise ValueError("need at least one state")
    if len(rows) != len(states):
        raise ValueError(f"{len(states)} states but {len(rows)} rows of samples")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("every state needs the same number of spectral samples")
    if not width:
        raise ValueError("need at least one spectral sample")
    out = np.empty((len(states), width))
    for idx in shape_groups(states):
        members = [states[i] for i in idx]
        upper, lower = (np.stack([getattr(st, name) for st in members], axis=1) for name in members[0].FIELDS)
        out[idx] = group_residuals(members, upper, lower, [rows[i] for i in idx])
    return out


def _padded(upper: np.ndarray, lower: np.ndarray, ghosts: int) -> np.ndarray:
    """Both stacks in one zeroed (2, ghosts + n_sites + ghosts, entries) buffer.

    Stack i fills row i, sites ``ghosts`` to ``ghosts + n_sites``; the
    ghost sites around them stay zero.
    """
    n, width = len(upper), math.prod(upper.shape[1:])
    if math.prod(lower.shape[1:]) != width or len(lower) != n:
        raise ValueError(f"stacks of shapes {upper.shape} and {lower.shape} do not pair")
    buf = np.zeros((2, n + 2 * ghosts, width), dtype=np.complex128)
    buf[0, ghosts : ghosts + n] = upper.reshape(n, width)
    buf[1, ghosts : ghosts + n] = lower.reshape(n, width)
    return buf


def _pair(buf: np.ndarray, shapes, lo: int, hi: int):
    """The two stacks of a padded buffer on its sites lo..hi-1, as views."""
    (_, *upper), (_, *lower) = shapes
    return buf[0, lo:hi].reshape(hi - lo, *upper), buf[1, lo:hi].reshape(hi - lo, *lower)


def _ghost_fill(buf: np.ndarray, ghosts: int, periodic: bool) -> list:
    """The ``np.copyto`` steps that wrap the ghosts of ``buf``.

    Each side's ghosts are slabs of at most ``n_sites`` sites, each one copy
    of the interior: one slab per side with at least ``ghosts`` sites,
    ceil(ghosts / n_sites) with fewer.  Off a periodic lattice the list is
    empty and the ghosts stay zero.
    """
    n = buf.shape[1] - 2 * ghosts
    if not (periodic and n and ghosts):
        return []
    steps = []
    for lo in range(0, ghosts, n):
        m = min(n, ghosts - lo)
        # sites -lo-m .. -lo-1 wrap to n-m .. n-1, sites n+lo .. n+lo+m-1 to 0 .. m-1
        steps.append((np.copyto, (buf[:, ghosts - lo - m : ghosts - lo], buf[:, ghosts + n - m : ghosts + n])))
        steps.append((np.copyto, (buf[:, ghosts + n + lo : ghosts + n + lo + m], buf[:, ghosts : ghosts + m])))
    return steps


def padded_rhs(build_rhs, upper: np.ndarray, lower: np.ndarray, ghosts: int, periodic: bool):
    """The time derivatives of one field pair, from the right-hand side :func:`rk4` runs.

    ``build_rhs`` is built and its program run once on padded copies of
    the two stacks, whose ghosts hold what :func:`rk4`'s do.
    """
    src = _halo(upper, ghosts, ghosts, periodic), _halo(lower, ghosts, ghosts, periodic)
    dst = np.empty_like(upper), np.empty_like(lower)
    for fn, args in build_rhs(src, dst):
        fn(*args)
    return dst


def rk4(
    build_rhs,
    upper: np.ndarray,
    lower: np.ndarray,
    ghosts: int,
    periodic: bool,
    dt: float,
    steps: int,
    save_every=None,
):
    """Classic fixed-step RK4 on a field pair, over buffers allocated once.

    ``build_rhs(src, dst)`` gets a padded pair of stacks and a pair of
    derivative views; ``src`` holds ``ghosts`` more sites than ``dst`` on
    each side, the sites a right-hand side reads.  It returns a program
    that writes the time derivatives of ``src`` into ``dst``: a list of
    ``(callable, args)`` steps, each run as ``callable(*args)``; it is
    built once per stage.

    The state, one stage buffer and the four stage derivatives each hold
    both stacks as one (2, halo + n_sites + halo, entries) array.  On a
    periodic lattice the halo is four stages wide, 4 * ``ghosts`` sites:
    stage s computes its derivative on the sites that stage s + 1 reads,
    ``(4 - s) * ghosts`` past each end of the lattice, so stage 4's is
    exactly the interior, and the halo of the state is refreshed
    (``np.copyto`` of wrapped sites) once per step, after the final
    combination.  Off a periodic lattice the halo is ``ghosts`` zero sites
    that are never refreshed, and every stage computes on the interior.
    One integrator step is one list of steps run by a single loop: the
    four right-hand sides with each stage combination, the final
    combination and the halo refresh.  The combinations run over whole
    buffers in the order of ``z + (0.5*dt)*k`` and
    ``z + (dt/6)*(((k1 + 2k2) + 2k3) + k4)``; a derivative stays zero
    outside its stage's sites.

    Returns the ``(t, upper, lower)`` samples after every ``save_every``
    steps and after the last step, each a copy; the initial sample is the
    caller's.  Raises :class:`BlowUp` with the step index if values go
    non-finite; when the stacks carry a batch of states on axis 1
    (four axes: sites, members and the two block axes), it also names the
    non-finite members.  Finiteness is tested only on the samples; a
    non-finite sample restores the last finite one and replays its steps
    one at a time, testing each, to find the first non-finite step.  That
    step is the one a test after every step finds as long as the
    right-hand sides use only +, - and x, under which a non-finite entry
    stays non-finite.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if save_every is not None and save_every < 1:
        raise ValueError(f"save_every must be at least 1, got {save_every}")
    stride = save_every or steps or 1
    shapes, n = (upper.shape, lower.shape), len(upper)
    # how far past the lattice ends each stage computes its derivative
    reach = [3 * ghosts, 2 * ghosts, ghosts, 0] if periodic else [0] * 4
    halo = reach[0] + ghosts
    z = _padded(upper, lower, halo)
    stage, k1, k2, k3, k4 = (np.zeros_like(z) for _ in range(5))
    rhs1, rhs2, rhs3, rhs4 = (
        build_rhs(
            _pair(src, shapes, halo - r - ghosts, halo + n + r + ghosts), _pair(k, shapes, halo - r, halo + n + r)
        )
        for r, src, k in zip(reach, (z, stage, stage, stage), (k1, k2, k3, k4))
    )
    fill = _ghost_fill(z, halo, periodic)
    zf, sf, f1, f2, f3, f4 = (a.reshape(-1) for a in (z, stage, k1, k2, k3, k4))
    # the scalars as complex128, the type numpy gives them against complex arrays,
    # held in 0-d arrays, which a ufunc takes without converting a scalar each call
    half, full, two, sixth = (np.array(c, dtype=np.complex128) for c in (0.5 * dt, dt, 2, dt / 6.0))
    program = [*rhs1]
    # stage k + 1 reads z + c * (stage k's derivative)
    for c, f, rhs in ((half, f1, rhs2), (half, f2, rhs3), (full, f3, rhs4)):
        program += [(np.multiply, (c, f, sf)), (np.add, (zf, sf, sf)), *rhs]
    # z + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), summed in the stage buffer: k2's
    # sites outside its stage stay zero; 2 * k3 leaves k3's zero there
    program += [
        (np.multiply, (two, f2, sf)),
        (np.add, (f1, sf, sf)),
        (np.multiply, (two, f3, f3)),
        (np.add, (sf, f3, sf)),
        (np.add, (sf, f4, sf)),
        (np.multiply, (sixth, sf, sf)),
        (np.add, (zf, sf, zf)),
        *fill,
    ]

    def run(steps):
        for fn, args in steps:
            fn(*args)

    def interior():
        return z[:, halo : halo + n].copy()

    run(fill)
    samples, tested = [], (0, interior())
    # overflow is detected and reported via BlowUp, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            run(program)
            if (step + 1) % stride and step < steps - 1:
                continue
            snapshot = interior()
            if not np.isfinite(snapshot).all():
                # replay from the last finite sample, testing every step; the
                # first non-finite step is at step + 1 at the latest
                done, last = tested
                z[:, halo : halo + n] = last
                run(fill)
                for replayed in range(done, step + 1):
                    run(program)
                    snapshot = interior()
                    if not np.isfinite(snapshot).all():
                        raise BlowUp(replayed + 1, members=_nonfinite_members(*_pair(snapshot, shapes, 0, n)))
            samples.append(((step + 1) * dt, *_pair(snapshot, shapes, 0, n)))
            tested = (step + 1, snapshot)
    return samples


def _nonfinite_members(upper: np.ndarray, lower: np.ndarray):
    """Members (axis 1 of four-axis stacks) at which either stack is non-finite; ``None`` unbatched."""
    if upper.ndim != 4:
        return None
    ok = np.isfinite(upper).all(axis=(0, 2, 3)) & np.isfinite(lower).all(axis=(0, 2, 3))
    return tuple(int(i) for i in np.flatnonzero(~ok))
