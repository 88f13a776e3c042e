import math

import numpy as np
import pytest

from lattice_akns import al, colehopf, conserved, darboux, dnls, lattice, verification
from lattice_akns.algebra import sup_norm


def _nan_at(sample):
    """transfer_traces that returns NaN, for every state, at one spectral sample."""
    traces = conserved.transfer_traces

    def patched(states, lams):
        out = traces(states, lams)
        out[:, [complex(lam) == sample for lam in lams]] = complex("nan")
        return out

    return patched


def test_conservation_suite_fails_on_nan_trace_drift(monkeypatch):
    # the last sample: builtin max() would keep the earlier finite drifts
    monkeypatch.setattr(conserved, "transfer_traces", _nan_at(-0.7 + 0.3j))
    result = verification.conservation_suite(steps=5)
    assert not result.passed
    assert math.isnan(result.measured)


def test_al_conservation_suite_fails_on_nan_trace_drift(monkeypatch):
    monkeypatch.setattr(conserved, "transfer_traces", _nan_at(0.6 + 0.6j))
    result = verification.al_conservation_suite(steps=5)
    assert not result.passed
    assert math.isnan(result.measured)


def _nan_appended(residuals):
    """Batched residual function whose rows end in a NaN after the real samples."""

    def patched(*args):
        out = residuals(*args)
        return np.concatenate((out, np.full((len(out), 1), np.nan)), axis=1)

    return patched


def test_zero_curvature_dnls_suite_fails_on_nan_residual(monkeypatch):
    # builtin max() over the residuals would drop the NaN
    patched = _nan_appended(lattice.zero_curvature_residuals)
    monkeypatch.setattr(lattice, "zero_curvature_residuals", patched)
    result = verification.zero_curvature_dnls_suite(n_states=2)
    assert not result.passed
    assert math.isnan(result.measured)


def test_zero_curvature_al_suite_fails_on_nan_residual(monkeypatch):
    patched = _nan_appended(lattice.zero_curvature_residuals)
    monkeypatch.setattr(lattice, "zero_curvature_residuals", patched)
    result = verification.zero_curvature_al_suite(n_states=2)
    assert not result.passed
    assert math.isnan(result.measured)


def _dnls_suite_per_state(seed, n_states=50):
    """The dnls zero-curvature suite's worst residual, one state and flow at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_states):
        nd, md = (1, 1) if k % 2 == 0 else (1, 2)
        st = dnls.random_state(rng, int(rng.integers(6, 14)), nd, md, scale=0.6)
        lams = rng.uniform(-1.5, 1.5, 5) + 1j * rng.uniform(-1.5, 1.5, 5)
        for alpha in (1, 2):
            worst = sup_norm(worst, dnls.zero_curvature_residual(st, alpha, lams))
    return worst


def _al_suite_per_state(seed, n_states=50):
    """The AL zero-curvature suite's worst residual, one state and variant at a time."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for k in range(n_states):
        nd, md = (1, 1) if k % 2 == 0 else (1, 2)
        st = al.random_state(rng, int(rng.integers(6, 14)), nd, md, scale=0.4)
        zs = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        for variant in (al.VARIANT_AL, al.VARIANT_NETWORK):
            worst = sup_norm(worst, al.al_zero_curvature_residual(st, variant, zs))
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_zero_curvature_suites_match_per_state_loop(seed):
    dnls_result = verification.zero_curvature_dnls_suite(seed=seed)
    al_result = verification.zero_curvature_al_suite(seed=seed)
    assert dnls_result.measured == _dnls_suite_per_state(seed)
    assert al_result.measured == _al_suite_per_state(seed)
    assert dnls_result.passed and al_result.passed


def test_conservation_suite_matches_per_state_loop():
    # reference: one evolve() per state and flow, traces taken afresh each time
    dt, steps = 1e-3, 50
    lam_samples = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
    worst_trace = worst_charge = worst_cross = 0.0
    details = []

    def cross(state):
        from_tau = conserved.charge_recursion(conserved.tau_series([state])[0].tolist())
        return max(abs(a - b) for a, b in zip(from_tau, conserved.closed_form_charges(state)))

    initial = verification._initial_states()
    for name, st in initial.items():
        worst_cross = max(worst_cross, cross(st))
        for alpha in (1, 2):
            final = dnls.evolve(st, alpha, dt, steps)[-1][1]
            worst_cross = max(worst_cross, cross(final))
            tr_drift = float(
                np.max(
                    [
                        abs(
                            conserved.transfer_trace(final, lam)
                            - conserved.transfer_trace(st, lam)
                        )
                        / abs(conserved.transfer_trace(st, lam))
                        for lam in lam_samples
                    ]
                )
            )
            h0, h1 = conserved.closed_form_charges(st), conserved.closed_form_charges(final)
            h_drift = float(np.max([abs(a - b) for a, b in zip(h0, h1)]))
            worst_trace, worst_charge = max(worst_trace, tr_drift), max(worst_charge, h_drift)
            details.append(
                f"{name} flow {alpha}: trace drift {tr_drift:.2e}, charge drift {h_drift:.2e}"
            )
    details.append(
        f"charge recursion vs closed form, {3 * len(initial)} states: {worst_cross:.2e} (require < 1.0e-09)"
    )
    result = verification.conservation_suite(dt=dt, steps=steps)
    assert result.measured == max(worst_trace, worst_charge)
    assert result.details == tuple(details)
    assert result.passed


def test_colehopf_suite_fails_on_nan_residual(monkeypatch):
    # builtin max(potential, nan) keeps the finite potential residual
    monkeypatch.setattr(colehopf.ColeHopfMap, "burgers_residual", property(lambda self: float("nan")))
    result = verification.colehopf_suite()
    assert not result.passed
    assert math.isnan(result.measured)


def test_bianchi_suite_reports_nan_eom_residual(monkeypatch):
    monkeypatch.setattr(darboux, "scalar_eom_residual", lambda *args: float("nan"))
    result = verification.bianchi_suite()
    assert not result.passed
    assert math.isnan(result.measured)


def test_continuum_suite_reports_nan_ratio(monkeypatch):
    # the second ratio: builtin max() drops a NaN after a finite first value
    monkeypatch.setattr(colehopf.ContinuumReport, "ratio_uhat", property(lambda self: float("nan")))
    result = verification.continuum_suite()
    assert not result.passed
    assert math.isnan(result.measured)


def test_integrator_suite_reports_nan_ratio(monkeypatch):
    ratio = verification._richardson_ratio
    calls = []

    def patched(run, **kwargs):
        calls.append(1)
        return ratio(run, **kwargs) if len(calls) == 1 else float("nan")

    monkeypatch.setattr(verification, "_richardson_ratio", patched)
    result = verification.integrator_suite()
    assert len(calls) == 2
    assert not result.passed
    assert math.isnan(result.measured)


def test_dressing_suite_reports_differences_below_the_trim_tolerance(monkeypatch):
    # a difference below 1e-13, where coefficients used to be trimmed as
    # noise, must still show in the measured value
    v_coeffs = dnls.v_coeffs

    def patched(state, alpha):
        out = v_coeffs(state, alpha).copy()
        out[0, 0, 0, 0] += 1e-14
        return out

    monkeypatch.setattr(dnls, "v_coeffs", patched)
    result = verification.dressing_suite()
    assert result.passed
    assert result.measured >= 1e-14


def test_requirement_text_shows_the_scaled_bounds():
    # every tolerance bound scales; the ratio windows do not
    expected = {
        "conservation": "trace < 1.0e-09 rel, charges < 1.0e-10 abs",
        "linear-data-reduction": "match < 1.0e-12, eom < 1.0e-11",
        "two-soliton-superposition": "symmetry/collapse < 1.0e-13, eom < 1.0e-11",
        "factorization": "factorization/closed-form/linear residual < 1.0e-13, field match < 1.0e-11",
        "logarithmic-map": "exact residual < 1.0e-13, halving ratio in [6, 10]",
    }
    suites = [
        lambda: verification.conservation_suite(tolerance_scale=1e-3, steps=5),
        lambda: verification.toda_reduction_suite(tolerance_scale=1e-3),
        lambda: verification.bianchi_suite(tolerance_scale=1e-3),
        lambda: verification.glm_suite(tolerance_scale=1e-3),
        lambda: verification.colehopf_suite(tolerance_scale=1e-3),
    ]
    assert {r.name: r.requirement for r in (suite() for suite in suites)} == expected
