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
samples of a batch of states (of any sizes and boundaries, laid end to end
by :class:`Segments` on one site axis) and the RK4 integrator.  The
integrator steps a right-hand side that each model builds once over
halo-padded buffers as a program, a list of ``(ufunc, args)`` steps whose
block products :func:`block_product` expands; one RK4 step is one such list
run by one loop (``padded_rhs`` runs a right-hand side on a single state or batch).
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


def shape_groups(states, key=lambda st: (st.n_sites, st.n_dim, st.m_dim, st.periodic)) -> list[list[int]]:
    """Indices of ``states`` grouped by model and ``key``, in order of first appearance.

    By default the members of one group share ``(n_sites, n_dim, m_dim)``
    and shift semantics, so their fields stack on a member axis.
    """
    groups: dict = {}
    for i, st in enumerate(states):
        groups.setdefault((type(st), *key(st)), []).append(i)
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


def block_stack(shape, n_dim: int, m_dim: int, *coeffs, out: np.ndarray | None = None) -> np.ndarray:
    """Stack of 2x2 block matrices [[a, b], [c, d]], shape (K, *shape, d, d).

    ``shape`` is ``n_sites``, or ``(n_sites, members)`` for a batch of
    states on axis 1.  Each of the K ``(a, b, c, d)`` tuples fills one
    leading index.  A block is a per-site stack, one matrix shared by every
    site (and member), a scalar, or one scalar per member (a 1-d array):
    that multiple of the identity on the diagonal, a zero block off it.
    With ``out``, an array or view of that shape whose two matrix axes are
    contiguous, the stack is written there and returned.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    d = n_dim + m_dim
    if out is None:
        out = np.zeros((len(coeffs), *shape, d, d), dtype=np.complex128)
    else:
        out[...] = 0
    # the diagonals of all matrices as one strided view, shape (K, *shape, d): merging the
    # contiguous matrix axes makes no copy
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


class Segments:
    """States laid end to end on one site axis, each with ``ghosts`` ghost sites on either side.

    State s takes ``n_s + 2 * ghosts`` consecutive rows of the padded axis.
    A ghost row holds the wrapped site of a periodic lattice, and zero on a
    vanishing window or around an empty lattice, so that a stencil that
    reads at most ``ghosts`` sites away from a state's sites (and from the
    site after its last) reads only that state.  ``sites`` lists the padded
    rows of all states' sites, state by state: the order of the site axis
    on which the residuals are formed.  ``v_rows`` lists those rows and
    then, one per state, the row of the site after its last: the rows on
    which V is evaluated, so that V_n is its first ``len(sites)`` rows and
    V_{n+1} its rows ``after``; ``v_owner`` holds the state of each (one
    entry, which broadcasts, for one state).  For one state each list of
    rows is a slice, which :meth:`take` reads as a view, and :meth:`pad` is
    the halo copy of :func:`shift`: the layout, gathers and padding of
    several states made a lone state's ``zero_curvature_residual`` and
    ``al_zero_curvature_residual`` 1.34-1.43x slower at N = 12, 1.19-1.23x
    at N = 96 and 1.12-1.15x at N = 768, and the general padding alone
    1.01-1.07x (medians of 30 interleaved pairs, 2 shared vCPUs, one BLAS
    thread).
    """

    def __init__(self, sizes, periodic, ghosts: int):
        count, n = len(sizes), int(sum(sizes))
        self.sizes, self.periodic, self.ghosts = np.asarray(sizes, dtype=np.intp), np.asarray(periodic), ghosts
        self.v_count, self.span = n + count, self.sizes + 2 * ghosts
        if count == 1:
            self.sites, self.v_rows = slice(ghosts, ghosts + n), slice(ghosts, ghosts + n + 1)
            self.after, self.v_owner = slice(1, n + 1), np.zeros(1, dtype=np.intp)
            # maxima's runs (each non-empty state's first site) and vanishing-window edges
            self._runs = np.zeros(int(n > 0), dtype=np.intp)
            self._edges = np.array([0, n - 1] if n and not periodic[0] else [], dtype=np.intp)
            return
        first = np.cumsum(self.span) - self.span + ghosts  # the padded row of each state's site 0
        # each padded row's site in its own state, -ghosts .. n_s + ghosts - 1
        site, size = np.arange(self.span.sum()) - self.on_rows(first), self.on_rows(self.sizes)
        self.sites = np.flatnonzero((site >= 0) & (site < size))
        self.v_rows = np.concatenate((self.sites, first + self.sizes))
        states = np.arange(count)
        self.v_owner = np.concatenate((np.repeat(states, self.sizes), states))
        # V_{n+1} of a state's last site is its row after the sites
        filled, ends = self.sizes > 0, np.cumsum(self.sizes)
        self.after = np.arange(1, n + 1)
        self.after[ends[filled] - 1] = n + states[filled]
        starts, vanishing = ends - self.sizes, filled & ~self.periodic
        self._runs, self._edges = starts[filled], np.concatenate((starts[vanishing], (ends - 1)[vanishing]))
        # a ghost row reads the wrapped site, or the zero row after every state's sites
        site = np.where(self.on_rows(self.periodic & filled), site % np.maximum(size, 1), site)
        self._source = np.where((site >= 0) & (site < size), self.on_rows(starts) + site, n)

    def on_rows(self, values) -> np.ndarray:
        """One value per state (on axis 0), repeated on each of its padded rows."""
        return np.repeat(values, self.span, axis=0)

    def take(self, a: np.ndarray, rows, k: int = 0) -> np.ndarray:
        """Rows ``rows + k`` of ``a``, for ``rows`` one of the lists here: a view for one state, else a copy."""
        if isinstance(rows, slice):
            return a[rows.start + k : rows.stop + k]
        return a.take(rows + k, axis=0)

    def pad(self, stacks) -> np.ndarray:
        """The per-site stacks of the states, one per state, padded and laid end to end."""
        stacks = list(stacks)
        if len(stacks) == 1:
            return _halo(stacks[0], self.ghosts, self.ghosts, bool(self.periodic[0]))
        zero = np.zeros((1,) + stacks[0].shape[1:], dtype=np.complex128)
        return np.concatenate([*stacks, zero]).take(self._source, axis=0)

    def maxima(self, values: np.ndarray) -> np.ndarray:
        """Each state's largest entry of ``values`` over its sites, per slot: shape (S, slots).

        ``values`` has shape (slots, n, entries) for the n sites and is
        overwritten.  A vanishing window leaves out its two edge sites, and a
        state with no site left reads 0; a NaN makes its own state's entry
        NaN.
        """
        slots, _, entries = values.shape
        values[:, self._edges] = 0.0
        # each state's sites and entries are one run of a slot's row
        runs = np.maximum.reduceat(values.reshape(slots, -1), self._runs * entries, axis=1).T
        if len(runs) == len(self.sizes):
            return runs
        out = np.zeros((len(self.sizes), slots))
        out[self.sizes > 0] = runs
        return out


def curvature_residual(dl: np.ndarray, laxes: np.ndarray, v: np.ndarray, min_degree: int, samples, seg: Segments):
    """Sup-norm of d/dt L_n - (V_{n+1} L_n - L_n V_n) over each state's sites, per state and sample.

    The stacks lie on the site axis of ``seg``: ``dl`` has shape (n, d, d)
    for its n sites, ``laxes`` the Lax stacks at the L sample slots, (L, n,
    d, d), and ``v`` the Laurent coefficients of V, lowest degree
    ``min_degree`` first, on ``seg.v_rows``, (K, n + S, d, d).  ``samples``
    holds each state's row of L spectral samples.  Slot k evaluates V by
    Horner with each state's own sample on its rows; the tail power is
    taken on each sample as given, so a state in a batch rounds as a lone
    state would.  The products stay on ``@`` because the exact reference
    tests use it: the outer-product expansion of :func:`bmm` measured
    1.6-2.8x faster on 250 stacked 2x2 and 3x3 blocks but differs at
    round-off.  Returns :meth:`Segments.maxima` of the per-site residuals,
    shape (S, L).
    """
    n, d = dl.shape[0], dl.shape[-1]
    # each state's sample and tail power at each slot on V's rows
    lams, tails = (
        np.array(r, dtype=np.complex128).T.take(seg.v_owner, axis=1)[..., None, None]
        for r in (samples, [[s**min_degree for s in row] for row in samples])
    )
    magnitudes = np.empty((len(laxes), n, d * d))
    for lax, lam, tail, out in zip(laxes, lams, tails, magnitudes):
        vs = np.zeros(v.shape[1:], dtype=np.complex128)
        for c in v[::-1]:
            vs *= lam
            vs += c
        vs *= tail
        resid = dl - (seg.take(vs, seg.after) @ lax - lax @ vs[:n])
        np.abs(resid.reshape(n, d * d), out=out)
    return seg.maxima(magnitudes)


def batch_residuals(states, samples, ghosts: int, group_blocks, min_degree: int) -> np.ndarray:
    """Zero-curvature residuals of every state at its row of samples, shape (S, L).

    ``samples`` holds one row of L spectral samples per state.  States of
    one model and block shape run as one batch, whatever their sizes and
    boundaries: :class:`Segments` lays them end to end, each with
    ``ghosts`` ghost sites, the most any site's right-hand side and
    V_{n+1} read.  ``group_blocks(members, seg, upper, lower, rows)`` gets
    the padded field stacks and the members' rows of samples and returns
    d/dt L, the Lax stacks at the sample slots and V's Laurent
    coefficients, lowest degree ``min_degree`` first, on the site axis and
    the rows that :func:`curvature_residual` takes.
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
    for idx in shape_groups(states, key=lambda st: (st.n_dim, st.m_dim)):
        members, member_rows = [states[i] for i in idx], [rows[i] for i in idx]
        seg = Segments([st.n_sites for st in members], [st.periodic for st in members], ghosts)
        upper, lower = (seg.pad(getattr(st, name) for st in members) for name in members[0].FIELDS)
        dl, laxes, v = group_blocks(members, seg, upper, lower, member_rows)
        out[idx] = curvature_residual(dl, laxes, v, min_degree, member_rows, seg)
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
