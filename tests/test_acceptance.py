"""Acceptance gate: the ten headline criteria at their stated tolerances.

Each test runs one machine-verification suite (the same code the
``lattice-akns verify-all`` command executes), prints its one-line summary,
and asserts the pass flag.  Tolerances are fixed inside the suites:

 1. exact zero-curvature identity on random states (both lattices)
 2. conservation of transfer traces and the four local charges under RK4
 3. closed-form seed sequences against their one-step recursions
 4. dressing recursion against the printed flow operators (all three flows)
 5. linear-data solutions: reductions to both soliton families + flow residual
 6. two-soliton superposition: symmetry, collapse, flow residual
 7. factorization: residuals, closed form, local-field family match
 8. logarithmic lattice map: exact identities + third-order truncation
 9. continuum pair: second-order residual convergence
10. integrator order: step-halving ratio 16 on smooth soliton data
"""

from lattice_akns import verification as ver


def _run(suite, **kwargs):
    result = suite(**kwargs)
    print()
    print(result.line())
    for detail in result.details:
        print("   ", detail)
    assert result.passed, result.line()
    return result


class TestCriterion1ZeroCurvature:
    def test_dnls_flows(self):
        _run(ver.zero_curvature_dnls_suite)

    def test_al_variants(self):
        _run(ver.zero_curvature_al_suite)


class TestCriterion2Conservation:
    def test_dnls_soliton_data(self):
        _run(ver.conservation_suite)

    def test_al_soliton_data(self):
        _run(ver.al_conservation_suite)


def test_criterion_3_closed_form_vs_recursion():
    _run(ver.recursion_suite)


def test_criterion_4_dressing_consistency():
    _run(ver.dressing_suite)


def test_criterion_5_linear_data_reduction():
    _run(ver.toda_reduction_suite)


def test_criterion_6_two_soliton_permutability():
    _run(ver.bianchi_suite)


def test_criterion_7_factorization():
    _run(ver.glm_suite)


def test_criterion_8_logarithmic_map():
    _run(ver.colehopf_suite)


def test_criterion_9_continuum_limit():
    _run(ver.continuum_suite)


def test_criterion_10_integrator_order():
    _run(ver.integrator_suite)


def test_full_run_all_passes():
    results = ver.run_all()
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing suites: {failed}"
