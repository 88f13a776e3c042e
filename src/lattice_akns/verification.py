"""Machine-verification suites.

Each suite exercises one family of identities at fixed tolerances and
returns a :class:`SuiteResult`; :func:`run_all` executes every suite in
order.  The acceptance tests and the command-line ``verify-all`` command
both run these functions, so the two surfaces cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import al, colehopf, conserved, darboux, dnls, glm, lattice
from .algebra import make_rank_one_pair, sup_norm

DEFAULT_SEED = 42


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    measured: float
    requirement: str
    details: tuple[str, ...] = field(default_factory=tuple)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.3e} (require {self.requirement})"


def _result(name, measured, tol, details=()):
    return SuiteResult(name, measured < tol, float(measured), f"< {tol:.1e}", tuple(details))


# --------------------------------------------------------------------------
# 1. zero curvature
# --------------------------------------------------------------------------


def zero_curvature_dnls_suite(seed=DEFAULT_SEED, tolerance_scale=1.0, n_states=50):
    rng = np.random.default_rng(seed)
    states, samples = [], []
    for k in range(n_states):
        nd, md = (1, 1) if k % 2 == 0 else (1, 2)
        states.append(dnls.random_state(rng, int(rng.integers(6, 14)), nd, md, scale=0.6))
        samples.append(rng.uniform(-1.5, 1.5, 5) + 1j * rng.uniform(-1.5, 1.5, 5))
    # one batched call per flow: one segmented batch per block shape
    worst = sup_norm(*(lattice.zero_curvature_residuals(states, dnls.FLOWS[a], samples) for a in (1, 2)))
    return _result("zero-curvature-dnls", worst, 1e-11 * tolerance_scale)


def zero_curvature_al_suite(seed=DEFAULT_SEED, tolerance_scale=1.0, n_states=50):
    rng = np.random.default_rng(seed + 1)
    states, samples = [], []
    for k in range(n_states):
        nd, md = (1, 1) if k % 2 == 0 else (1, 2)
        states.append(al.random_state(rng, int(rng.integers(6, 14)), nd, md, scale=0.4))
        samples.append(rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5)))
    worst = sup_norm(*(lattice.zero_curvature_residuals(states, flow, samples) for flow in al.FLOWS.values()))
    return _result("zero-curvature-al", worst, 1e-10 * tolerance_scale)


# --------------------------------------------------------------------------
# 2. conservation under evolution
# --------------------------------------------------------------------------


def _initial_states():
    n_sites = 12
    xi1 = np.exp(2j * np.pi / n_sites)
    xi2 = np.exp(4j * np.pi / n_sites)
    p1 = darboux.type1_params(xi1, 1.0, 0.1, 0.7)
    p2 = darboux.type1_params(xi2, 1.0, 0.15 + 0.05j, 0.9)
    type1 = darboux.soliton_type1(p1, n_sites, require_periodic=True)
    ptype2 = darboux.type2_params(0.4, 1.0, 0.15 + 0.1j, 0.9)
    type2 = darboux.soliton_type2(ptype2, n_sites)
    lin = darboux.build_linear_solution([(2.0, 1.0), (0.5, 1.3)], 1, darboux.FORWARD)
    toda = darboux.toda_general_solution(lin, 0.9, 1.1, n_sites)
    bianchi = darboux.bianchi_two_soliton(p1, p2, n_sites)
    return {"type1": type1, "type2": type2, "toda": toda, "bianchi": bianchi}


def conservation_suite(seed=DEFAULT_SEED, tolerance_scale=1.0, dt=1e-3, steps=1000):
    lam_samples = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
    initial = _initial_states()
    states = list(initial.values())
    # one batched integration per flow; the final sample of each member
    finals = {
        alpha: [traj[-1][1] for traj in lattice.evolve(states, dnls.FLOWS[alpha], dt, steps)]
        for alpha in (1, 2)
    }
    everything = states + finals[1] + finals[2]
    # one trace tree, one closed-form pass and one tau series for all initial and final states
    traces = conserved.transfer_traces(everything, lam_samples).tolist()
    charges = conserved.closed_form_charges_batch(everything).tolist()
    taus = conserved.tau_series(everything).tolist()
    worst_trace, worst_charge = 0.0, 0.0
    details = []
    for k, name in enumerate(initial):
        tr0, h0 = traces[k], charges[k]
        for alpha in (1, 2):
            final = alpha * len(states) + k
            tr_drift = sup_norm([abs(t1 - t0) / abs(t0) for t0, t1 in zip(tr0, traces[final])])
            h_drift = sup_norm([abs(a - b) for a, b in zip(h0, charges[final])])
            worst_trace = sup_norm(worst_trace, tr_drift)
            worst_charge = sup_norm(worst_charge, h_drift)
            details.append(
                f"{name} flow {alpha}: trace drift {tr_drift:.2e}, charge drift {h_drift:.2e}"
            )
    # the charges from the trace coefficients against the closed forms, on every state
    worst_cross = sup_norm(
        [abs(a - b) for tau, h in zip(taus, charges) for a, b in zip(conserved.charge_recursion(tau), h)]
    )
    trace_tol, charge_tol, cross_tol = (tol * tolerance_scale for tol in (1e-6, 1e-7, 1e-9))
    details.append(
        f"charge recursion vs closed form, {len(everything)} states: {worst_cross:.2e}"
        f" (require < {cross_tol:.1e})"
    )
    return SuiteResult(
        "conservation",
        worst_trace < trace_tol and worst_charge < charge_tol and worst_cross < cross_tol,
        sup_norm(worst_trace, worst_charge),
        f"trace < {trace_tol:.1e} rel, charges < {charge_tol:.1e} abs",
        tuple(details),
    )


def al_conservation_suite(seed=DEFAULT_SEED, tolerance_scale=1.0, dt=1e-3, steps=1000):
    st = al.localized_oscillator().state(16, 0.0)
    z_samples = (0.8, 1.5, 0.6 + 0.6j)
    final = al.al_evolve(st, al.VARIANT_AL, dt, steps)[-1][1]
    tr0, tr1 = conserved.transfer_traces([st, final], z_samples).tolist()
    drift = sup_norm([abs(t1 - t0) / abs(t0) for t0, t1 in zip(tr0, tr1)])
    return _result("conservation-al", drift, 1e-6 * tolerance_scale)


# --------------------------------------------------------------------------
# 3. closed forms vs recursions
# --------------------------------------------------------------------------


def recursion_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    n_max = 32
    for _ in range(20):
        xi = rng.uniform(0.8, 1.6) * np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3))
        kappa = rng.uniform(0.5, 1.5) + 1j * rng.uniform(-0.3, 0.3)
        d1 = 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        a1 = 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        ns = np.arange(1, n_max + 1)
        d_closed, _, _ = darboux._dd_closed(xi, kappa, d1, ns, 0.0, 0.0)
        a_closed, _, _ = darboux._asol_closed(xi, kappa, a1, ns, 0.0, 0.0)
        d_iter, a_iter = [d1], [a1]
        xitil, kaptil = 1.0 / xi, -kappa / xi
        for _ in range(n_max - 1):
            d_iter.append(d_iter[-1] / (xi + kappa * d_iter[-1]))
            a_iter.append(a_iter[-1] / (kaptil * a_iter[-1] + xitil))
        worst = sup_norm(worst, np.array(d_iter) - d_closed, np.array(a_iter) - a_closed)
    return _result("closed-form-vs-recursion", worst, 1e-12 * tolerance_scale)


# --------------------------------------------------------------------------
# 4. dressing recursion vs printed operators
# --------------------------------------------------------------------------


def dressing_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    n_sites, t = 12, 0.15
    worst = 0.0
    details = []
    xi = np.exp(2j * np.pi / n_sites)
    cases = [
        ("scalar", darboux.type1_params(xi, 1.0, 0.1, 0.7)),
        (
            "block-1x2",
            darboux.type1_params(
                xi, 0.8, 0.1 + 0.05j, 0.6, pair=make_rank_one_pair(1, 2, 0.8, "triple")
            ),
        ),
    ]
    for label, params in cases:
        st = darboux.soliton_type1(params, n_sites, t, require_periodic=True)
        kmats = darboux.darboux_blocks(params, n_sites, t)
        for alpha in (1, 2, 3):
            dressed = dnls.dressed_v_from_recursion(st, kmats, alpha)
            diff = sup_norm(dressed - dnls.v_coeffs(st, alpha))
            worst = sup_norm(worst, diff)
            details.append(f"{label} flow {alpha}: coefficient diff {diff:.2e}")
    return _result("dressing-recursion", worst, 1e-9 * tolerance_scale, details)


# --------------------------------------------------------------------------
# 5. linear-data solutions
# --------------------------------------------------------------------------


def _fit_ratio_error(u, v):
    """Pointwise error of u against the best single-constant multiple of v."""
    scale = (np.conj(v) @ u) / (np.conj(v) @ v)
    denom = sup_norm(scale * v, 1e-300)
    return sup_norm(u - scale * v) / denom, scale


def toda_reduction_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    worst_match, worst_eom = 0.0, 0.0
    details = []
    ns = np.arange(1, 11)
    for alpha in (1, 2):
        # one mode over a constant: reduces to family 1
        xi, kappa, d1, x1 = 1.3 + 0.25j, 0.9, 0.12 + 0.05j, 0.8
        p1 = darboux.type1_params(xi, kappa, d1, x1, alpha=alpha)
        modes = [(-kappa * d1, 1.0), (xi - 1 + kappa * d1, xi)]
        lin = darboux.build_linear_solution(modes, alpha, darboux.FORWARD)
        (xt, yt), _ = darboux.toda_scalars(lin, kappa, 1.0, ns, 0.27)
        (x_cf, y_cf, _, _), _ = darboux.type1_scalars(p1, ns, 0.27)
        ex, _ = _fit_ratio_error(xt, x_cf)
        ey, _ = _fit_ratio_error(yt, y_cf)
        worst_match = sup_norm(worst_match, ex, ey)
        details.append(f"one-mode flow {alpha}: field match {sup_norm(ex, ey):.2e}")
        # two geometric modes: reduces to family 2
        p2 = darboux.type2_params(0.4, 1.0, 0.15 + 0.1j, 0.9, alpha=alpha)
        eta, eps = p2.eta, p2.epsilon
        kbar = p2.kappa / eta
        modes2 = [(-kbar * p2.d1, eta), ((eps / eta) - 1 + kbar * p2.d1, eps)]
        lin2 = darboux.build_linear_solution(modes2, alpha, darboux.FORWARD)
        (xt2, yt2), _ = darboux.toda_scalars(lin2, p2.kappa, 1.0, ns, 0.2)
        (x2_cf, y2_cf, _, _), _ = darboux.type2_scalars(p2, ns, 0.2)
        ex2, _ = _fit_ratio_error(xt2, x2_cf)
        ey2, _ = _fit_ratio_error(yt2, y2_cf)
        worst_match = sup_norm(worst_match, ex2, ey2)
        details.append(f"two-mode flow {alpha}: field match {sup_norm(ex2, ey2):.2e}")
        # generic three-mode data satisfies the flow equations
        lin3 = darboux.build_linear_solution(
            [(1.5, 1.0), (0.4, 1.2), (0.2, 0.7 + 0.1j)], alpha, darboux.FORWARD
        )
        resid = darboux.scalar_eom_residual(
            lambda n, t: darboux.toda_scalars(lin3, 1.0, 0.8, n, t), 1.0, alpha, ns, 0.2
        )
        worst_eom = sup_norm(worst_eom, resid)
        details.append(f"three-mode flow {alpha}: eom residual {resid:.2e}")
    measured = sup_norm(worst_match, worst_eom)
    match_tol, eom_tol = 1e-9 * tolerance_scale, 1e-8 * tolerance_scale
    return SuiteResult(
        "linear-data-reduction",
        worst_match < match_tol and worst_eom < eom_tol,
        measured,
        f"match < {match_tol:.1e}, eom < {eom_tol:.1e}",
        tuple(details),
    )


# --------------------------------------------------------------------------
# 6. two-soliton superposition
# --------------------------------------------------------------------------


def bianchi_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    n_sites, t = 12, 0.2
    xi1 = np.exp(2j * np.pi / n_sites)
    xi2 = np.exp(4j * np.pi / n_sites)
    p1 = darboux.type1_params(xi1, 1.0, 0.1, 0.7)
    p2 = darboux.type1_params(xi2, 1.0, 0.15 + 0.05j, 0.9)
    st12 = darboux.bianchi_two_soliton(p1, p2, n_sites, t)
    st21 = darboux.bianchi_two_soliton(p2, p1, n_sites, t)
    sym = sup_norm(st12.x - st21.x, st12.y - st21.y)
    pz = darboux.zero_seed_params(xi2, 1.0)
    st_collapse = darboux.bianchi_two_soliton(p1, pz, n_sites, t)
    st_single = darboux.soliton_type1(p1, n_sites, t, require_periodic=True)
    collapse = sup_norm(st_collapse.x - st_single.x, st_collapse.y - st_single.y)

    def fields(n, tt):
        x_here, _, _ = darboux.bianchi_scalars(p1, p2, np.asarray(n), tt)
        _, ym_up, _ = darboux.bianchi_scalars(p1, p2, np.asarray(n) + 1, tt)
        return (x_here[0], ym_up[0]), (x_here[1], ym_up[1])

    eom = darboux.scalar_eom_residual(fields, 1.0, 1, np.arange(1, n_sites + 1), t)
    tol, eom_tol = 1e-10 * tolerance_scale, 1e-8 * tolerance_scale
    return SuiteResult(
        "two-soliton-superposition",
        sym < tol and collapse < tol and eom < eom_tol,
        sup_norm(sym, collapse, eom),
        f"symmetry/collapse < {tol:.1e}, eom < {eom_tol:.1e}",
        (
            f"argument-order invariance {sym:.2e}",
            f"zero-seed collapse {collapse:.2e}",
            f"first-flow eom residual {eom:.2e}",
        ),
    )


# --------------------------------------------------------------------------
# 7. factorization machinery
# --------------------------------------------------------------------------


def glm_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    window = 14
    pair = make_rank_one_pair(1, 1, 1.0, "triple")
    lam_hat, lam = 0.65, 0.55
    scale_h, scale = np.exp(-2 * window * lam_hat), np.exp(-2 * window * lam)
    mode = glm.GlmMode(scale_h * pair.bhat, lam_hat, scale * pair.b, lam)
    mode2 = glm.GlmMode(
        0.4 * np.exp(-2 * window * 0.8) * pair.bhat, 0.8, 0.7 * np.exp(-2 * window * 0.6) * pair.b, 0.6
    )
    worst_fact, worst_lin = 0.0, 0.0
    details = []
    for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
        for modes in ([mode], [mode, mode2]):
            system = glm.build_hankel_data(modes, scheme, 1.0, window, alpha=1, time=0.2)
            worst_lin = sup_norm(worst_lin, system.linear_residual())
            sol = glm.solve_glm(system)
            worst_fact = sup_norm(worst_fact, sol.factorization_residual)
            details.append(
                f"{scheme} {len(modes)}-mode: factorization {sol.factorization_residual:.2e}"
            )
    # closed-form comparison on the supported region
    system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, window, 1, 0.3)
    sol = glm.solve_glm(system)
    kappa_eff = scale_h * scale * pair.kappa
    bcf, ccf = glm.one_soliton_closed_form(mode, kappa_eff, window, 0.3)
    size = 2 * window + 1
    mask = np.triu(np.ones((size, size), dtype=bool))
    cf_match = sup_norm((sol.b - bcf)[:, :, 0, 0][mask], (sol.c - ccf)[:, :, 0, 0][mask])
    details.append(f"single-mode closed-form match {cf_match:.2e}")
    # local fields against the shifted-seed soliton family
    fit_err = _glm_local_field_match()
    details.append(f"local-field family match {fit_err:.2e}")
    tol, fit_tol = 1e-10 * tolerance_scale, 1e-8 * tolerance_scale
    return SuiteResult(
        "factorization",
        worst_fact < tol and cf_match < tol and worst_lin < tol and fit_err < fit_tol,
        sup_norm(worst_fact, cf_match, fit_err),
        f"factorization/closed-form/linear residual < {tol:.1e}, field match < {fit_tol:.1e}",
        tuple(details),
    )


def _glm_local_field_match():
    """Fit the factorization diagonals to the family-2 closed form on a window of 20.

    Amplitudes are scaled by exp(-lam*N) (half the window) so the soliton
    core sits inside the window while the matching constants stay far from
    the cancellation-prone near-zero regime.  The window must be wide
    enough that the finite-sum truncation, relative order
    exp(-(lam+lam_hat)(N-k+1)) at row k and amplified near the core, stays
    below the comparison tolerance.
    """
    pair = make_rank_one_pair(1, 1, 1.0, "triple")
    window, lam, t = 20, 0.25, 0.0
    eps = np.exp(2 * lam)
    lam_hat = -0.5 * np.log(2 - eps)
    eta = np.exp(-2 * lam_hat)
    c = eta - 1.0
    kappa = 1.0
    s = lam + lam_hat
    amp_h, amp = np.exp(-window * lam_hat), np.exp(-window * lam)
    mode = glm.GlmMode(amp_h * pair.bhat, lam_hat, amp * pair.b, lam)
    system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, window, 1, t)
    sol = glm.solve_glm(system)
    xs, ys = glm.extract_local_fields(sol)
    g0 = amp_h * amp * kappa / (np.exp(-s) - 1.0) ** 2
    xibar, kbar = eps / eta, kappa / eta
    rho = g0 * eta / eps
    dhat1 = rho * (xibar - 1) / (kbar * (1 - rho))
    ahat1 = (xibar - 1) / (kbar * (g0 - 1))
    p2 = darboux.SolitonParams(
        "type2",
        make_rank_one_pair(1, 1, kappa, "identity"),
        1,
        c=c,
        x1=1.0,
        y1=1.0,
        a1=ahat1,
        d1=dhat1,
    )
    ns = np.arange(-window, window + 1)
    (x2, y2, _, _), _ = darboux.type2_scalars(p2, ns, t)
    # the last window rows truncate the geometric tails at relative order
    # exp(-2 s (N - k)); drop them so the comparison sees only solve error
    keep = slice(0, 2 * window + 1 - 8)
    ex, _ = _fit_ratio_error(xs[keep, 0, 0], x2[keep])
    ey, _ = _fit_ratio_error(ys[keep, 0, 0], y2[keep])
    return sup_norm(ex, ey)


# --------------------------------------------------------------------------
# 8/9. logarithmic map and continuum checks
# --------------------------------------------------------------------------


def colehopf_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    heat = colehopf.heat_trajectory([(2.0, 1.2), (0.5, 0.8)])
    mapped = colehopf.cole_hopf_forward(heat, 24, 0.3)
    exact = sup_norm(mapped.potential_residual, mapped.burgers_residual)
    report = colehopf.burgers_truncation_order(0.05)
    ratio = report.ratio_sq
    tol = 1e-10 * tolerance_scale
    return SuiteResult(
        "logarithmic-map",
        exact < tol and 6.0 <= ratio <= 10.0,
        sup_norm(exact, ratio - 8.0),
        f"exact residual < {tol:.1e}, halving ratio in [6, 10]",
        (
            f"exact identity residual {exact:.2e}",
            f"truncation halving ratio {ratio:.3f} (squared-difference model)",
            f"difference-of-squares variant ratio {report.ratio_diffsq:.3f}",
        ),
    )


def continuum_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    grid = colehopf.ContinuumGrid(-1.0, 1.0, 0.02, 0.5, 1.0, 0.01)
    rep = colehopf.verify_continuum_nls(grid)
    rep2 = colehopf.verify_continuum_nls(grid, "two-mode")
    ratios = (rep.ratio_u, rep.ratio_uhat, rep2.ratio_u, rep2.ratio_uhat)
    passed = all(3.5 <= r <= 4.5 for r in ratios)
    return SuiteResult(
        "continuum-limit",
        passed,
        sup_norm([r - 4.0 for r in ratios]),
        "all halving ratios in [3.5, 4.5]",
        tuple(f"ratio {r:.3f}" for r in ratios),
    )


# --------------------------------------------------------------------------
# 10. integrator order
# --------------------------------------------------------------------------


def integrator_suite(seed=DEFAULT_SEED, tolerance_scale=1.0):
    n_sites = 12
    p1 = darboux.type1_params(np.exp(2j * np.pi / n_sites), 1.0, 0.1, 0.7)
    st = darboux.soliton_type1(p1, n_sites, require_periodic=True)
    ratios = [_richardson_ratio(lambda dt, steps: dnls.evolve(st, 1, dt, steps)[-1][1].x)]
    st_al = al.localized_oscillator().state(16, 0.0)
    ratios.append(
        _richardson_ratio(lambda dt, steps: al.al_evolve(st_al, al.VARIANT_AL, dt, steps)[-1][1].bhat)
    )
    passed = all(16 * 0.8 <= r <= 16 * 1.2 for r in ratios)
    # the ratio farthest from 16; argmax stops at a NaN, so a NaN ratio is reported
    worst = ratios[int(np.argmax([abs(r - 16) for r in ratios]))]
    return SuiteResult(
        "integrator-order",
        passed,
        worst,
        "step-halving ratio 16 +- 20%",
        tuple(f"ratio {r:.3f}" for r in ratios),
    )


def _richardson_ratio(run):
    """Step-halving error ratio of ``run(dt, steps)`` over t = 0.2 at dt = 0.02, 0.01, 0.005."""
    coarse = run(0.02, 10)
    mid = run(0.01, 20)
    fine = run(0.005, 40)
    return float(sup_norm(coarse - mid) / sup_norm(mid - fine))


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

ALL_SUITES = (
    zero_curvature_dnls_suite,
    zero_curvature_al_suite,
    conservation_suite,
    al_conservation_suite,
    recursion_suite,
    dressing_suite,
    toda_reduction_suite,
    bianchi_suite,
    glm_suite,
    colehopf_suite,
    continuum_suite,
    integrator_suite,
)


def run_all(seed: int = DEFAULT_SEED, tolerance_scale: float = 1.0):
    """Run every suite in order."""
    return [s(seed=seed, tolerance_scale=tolerance_scale) for s in ALL_SUITES]
