"""Transfer matrix, local charges, and conservation diagnostics.

The ordered product T(lam) = L_N ... L_1 of site Lax matrices generates the
integrals of motion: every coefficient of tr T is conserved under periodic
dynamics, and for width-1 states the logarithm of the normalized trace
lam^{-N} tr T(lam) expands into the local charges H_k.

The first four charges also have closed forms as traces of local field
products; both routes are implemented and cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import al as _al
from . import dnls as _dnls
from .algebra import SpectralMatrixPoly
from .errors import NotNormalized, UnvalidatedOrder
from .lattice import bmm, shift

VALIDATED_CHARGE_ORDER = 4


def _lax_builders(state):
    """The state's model: Laurent min degree, coefficient- and numeric-stack builders."""
    if isinstance(state, _al.AlState):
        return -1, _al.al_lax_coeffs, _al.al_lax_stack
    return 0, _dnls.lax_coeffs, _dnls.lax_stack


def transfer_poly(state) -> SpectralMatrixPoly:
    """Ordered product of site Lax polynomials, site N down to site 1.

    The running product is one (K*d, d) array, its coefficient blocks stacked
    lowest degree first.  Each site right-multiplies it by its K Lax blocks,
    one GEMM per block, and the products are summed in the order
    :func:`~lattice_akns.algebra.poly_mul` uses.
    """
    min_degree, lax_coeffs, _ = _lax_builders(state)
    coeffs = lax_coeffs(state)
    k, n_sites, d = coeffs.shape[:3]
    t = coeffs[:, -1].reshape(k * d, d)
    for n in range(n_sites - 2, -1, -1):
        out = np.zeros((len(t) + (k - 1) * d, d), dtype=np.complex128)
        for j in range(k - 1, -1, -1):
            out[j * d : j * d + len(t)] += t @ coeffs[j, n]
        t = out
    return SpectralMatrixPoly(min_degree * n_sites, t.reshape(-1, d, d)).normalized()


def _balanced(mats: np.ndarray, n_dim: int) -> np.ndarray:
    """Apply the gauge diag(2^k I_n, I_m) L diag(2^-k I_n, I_m) to each Lax matrix, in place.

    k balances the largest float64 component of the upper-right blocks
    against that of the lower-left ones, as powers of two from ``frexp``, and
    ``ldexp`` scales them exactly unless an entry leaves the normal range.
    The gauge cancels in the ordered product, so it leaves tr T unchanged.
    """
    flat = mats.view(np.float64)  # (N, d, 2d): real and imaginary parts side by side
    upper, lower = flat[:, :n_dim, 2 * n_dim :], flat[:, n_dim:, : 2 * n_dim]
    k = (np.frexp(np.abs(lower).max())[1] - np.frexp(np.abs(upper).max())[1]) // 2
    if k:
        np.ldexp(upper, k, out=upper)
        np.ldexp(lower, -k, out=lower)
    return mats


def transfer_trace(state, lam: complex) -> complex:
    """tr T(lam), T = L_N ... L_1, from a rescaled pairwise product tree.

    Each level multiplies adjacent pairs of the site-ordered stack in one
    :func:`~lattice_akns.lattice.bmm`, the higher site on the left, and
    carries an odd last matrix up.  Before each level every matrix is divided
    by the power of two that ``frexp`` gives for its largest component, and
    the exponents are summed: powers of two are exact, so no product in the
    tree can overflow or underflow.  The trace mantissa is put back to scale
    per component with ``np.ldexp``, so a trace beyond float64 range comes
    back as +-inf components, and NaN only comes from NaN fields.  The stack
    is first balanced by :func:`_balanced`, so that no entry lies so far below
    the largest one of its matrix that the rescaling flushes it to zero.
    """
    mats = _balanced(_lax_builders(state)[2](state, lam), state.n_dim)
    exponent = 0
    while len(mats) > 1:
        flat = mats.view(np.float64)
        exps = np.frexp(flat)[1].max(axis=(1, 2))
        mats = np.ldexp(flat, -exps[:, None, None]).view(np.complex128)
        exponent += int(exps.sum())
        half = len(mats) // 2
        pairs = bmm(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
        mats = np.concatenate((pairs, mats[-1:])) if len(mats) % 2 else pairs
    tr = np.trace(mats[0])
    with np.errstate(over="ignore"):
        return complex(np.ldexp(tr.real, exponent), np.ldexp(tr.imag, exponent))


def closed_form_charges(state: _dnls.DnlsState) -> tuple[complex, complex, complex, complex]:
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
    transfer-matrix expansion produces).
    """
    x, y = state.x, state.y
    nn = state.nmat()
    xy1 = x @ shift(y, -1)

    def trsum(blocks):
        return complex(np.trace(blocks, axis1=1, axis2=2).sum())

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


def tau_coefficients(state: _dnls.DnlsState, up_to: int = 4) -> tuple[complex, ...]:
    """Coefficients tau_k of lam^{-k} in lam^{-N} tr T(lam), width-1 only.

    For block width > 1 the leading trace is not 1 and the logarithmic
    expansion has no canonical normalization; NotNormalized is raised.
    """
    if state.n_dim != 1:
        raise NotNormalized("tau extraction requires width-1 upper blocks")
    t = transfer_poly(state)
    n = state.n_sites
    return tuple(complex(np.trace(t.coeff(n - k))) for k in range(up_to + 1))


@dataclass(frozen=True)
class ChargeReport:
    """Charges, trace coefficients, and sampled transfer traces of a state."""

    h: tuple[complex, ...]
    tau: tuple[complex, ...]  # empty when width > 1
    trace_samples: dict[complex, complex] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict = {}
        for k, v in enumerate(self.h, start=1):
            out[f"h{k}"] = [v.real, v.imag]
        for k, v in enumerate(self.tau):
            out[f"tau{k}"] = [v.real, v.imag]
        out["trace_samples"] = [
            {"lambda": [lam.real, lam.imag], "trace": [tr.real, tr.imag]}
            for lam, tr in self.trace_samples.items()
        ]
        return out


def local_charges(
    state: _dnls.DnlsState, lambda_samples=()
) -> ChargeReport:
    """Closed-form charges plus, for width-1 states, the trace coefficients."""
    h = closed_form_charges(state)
    tau = tau_coefficients(state) if state.n_dim == 1 else ()
    samples = {complex(lam): transfer_trace(state, lam) for lam in lambda_samples}
    return ChargeReport(h, tau, samples)


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
