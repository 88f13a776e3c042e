import numpy as np
import pytest

from lattice_akns import al, conserved, darboux, dnls, verification
from lattice_akns.algebra import SpectralMatrixPoly, poly_mul
from lattice_akns.darboux import soliton_type1, type1_params
from lattice_akns.errors import NotNormalized, UnvalidatedOrder


def test_transfer_single_site_is_the_lax_poly():
    rng = np.random.default_rng(0)
    st = dnls.random_state(rng, 1, scale=0.5)
    t = conserved.transfer_poly(st)
    assert t.distance(SpectralMatrixPoly(0, dnls.lax_coeffs(st)[:, 0])) == 0


def test_transfer_two_site_zero_fields():
    st = dnls.zero_state(2)
    t = conserved.transfer_poly(st)
    # (lam Sigma+ + I)^2 = [[ (lam+1)^2, 0], [0, 1]]
    lax = dnls.lax_coeffs(st)
    oracle = poly_mul(SpectralMatrixPoly(0, lax[:, 1]), SpectralMatrixPoly(0, lax[:, 0]))
    assert t.distance(oracle) == 0
    assert np.allclose(t.coeff(0), np.diag([1.0, 1.0]))
    assert np.allclose(t.coeff(1), np.diag([2.0, 0.0]))
    assert np.allclose(t.coeff(2), np.diag([1.0, 0.0]))


def test_transfer_eval_matches_numeric_product():
    rng = np.random.default_rng(1)
    st = dnls.random_state(rng, 6, n_dim=1, m_dim=2, scale=0.6)
    t = conserved.transfer_poly(st)
    for lam in (0.4, -1.2 + 0.7j, 2.0j):
        direct = conserved.transfer_trace(st, lam)
        assert abs(np.trace(t.eval(lam)) - direct) < 1e-11 * max(1.0, abs(direct))


def _poly_mul_chain(state):
    """Reference transfer polynomial: N - 1 chained poly_mul products."""
    if isinstance(state, al.AlState):
        min_degree, coeffs = -1, al.al_lax_coeffs(state)
    else:
        min_degree, coeffs = 0, dnls.lax_coeffs(state)
    t = SpectralMatrixPoly(min_degree, coeffs[:, -1])
    for n in range(state.n_sites - 2, -1, -1):
        t = poly_mul(t, SpectralMatrixPoly(min_degree, coeffs[:, n]))
    return t.normalized()


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12, 96])
@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("model", ["dnls", "al-periodic", "al-vanishing"])
def test_transfer_poly_matches_poly_mul_chain(model, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(n_sites)
    if model == "dnls":
        st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6)
    else:
        st = al.random_state(rng, n_sites, n_dim, m_dim, boundary=model.split("-")[1])
    t, ref = conserved.transfer_poly(st), _poly_mul_chain(st)
    assert t.min_degree == ref.min_degree
    assert t.coeffs.shape == ref.coeffs.shape
    # equal in practice; the bound allows a BLAS that orders its sums differently
    scale = np.max(np.abs(ref.coeffs), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(t.coeffs - ref.coeffs) <= 1e-14 * scale)


def _random_state(model, n_sites, n_dim, m_dim, rng):
    if model == "dnls":
        return dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6)
    return al.random_state(rng, n_sites, n_dim, m_dim, boundary=model.split("-")[1])


def _lax(state, lam):
    if isinstance(state, al.AlState):
        return al.al_lax_stack(state, lam)
    return dnls.lax_stack(state, lam)


def _sequential_product(state, lam):
    """Reference T(lam) = L_N ... L_1: one 2-d product per site, no rescaling."""
    lax = _lax(state, lam)
    mat = lax[-1]
    for site_matrix in lax[-2::-1]:
        mat = mat @ site_matrix
    return mat


@pytest.mark.parametrize("n_sites", [1, 2, 3, 5, 12, 96, 768])
@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("model", ["dnls", "al-periodic", "al-vanishing"])
def test_transfer_trace_matches_sequential_product(model, n_dim, m_dim, n_sites):
    st = _random_state(model, n_sites, n_dim, m_dim, np.random.default_rng(n_sites))
    # moduli near 1, so that the product stays in range at N = 768
    samples = (-0.7 + 0.3j, 0.4j) if model == "dnls" else (0.6 + 0.8j, -0.8 + 0.6j)
    for lam in samples:
        ref = _sequential_product(st, lam)
        tree = conserved.transfer_trace(st, lam)
        assert abs(tree - np.trace(ref)) <= 1e-12 * np.max(np.abs(ref))


def _rescaled_sequential_trace(state, lam):
    """Reference (mantissa, exponent) of tr T(lam), rescaled by a power of two at every site."""
    lax = _lax(state, lam)
    mat, exponent = np.eye(lax.shape[1], dtype=np.complex128), 0
    for site_matrix in lax:
        mat = site_matrix @ mat
        k = int(np.frexp(np.max(np.abs(mat)))[1])
        mat = np.ldexp(mat.real, -k) + 1j * np.ldexp(mat.imag, -k)
        exponent += k
    return np.trace(mat), exponent


# log|tr T| at these points is about 718, 1065 and 1620: beyond float64 range
_OVERFLOWING = [(768, 1.5 + 0.5j), (768, 3.0), (4000, 0.5)]


@pytest.mark.parametrize("n_sites,lam", _OVERFLOWING)
def test_transfer_trace_beyond_range_is_inf_not_nan(n_sites, lam):
    st = dnls.random_state(np.random.default_rng(0), n_sites)
    tr = conserved.transfer_trace(st, lam)
    parts = np.array([tr.real, tr.imag])
    assert not np.isnan(parts).any()
    assert np.isinf(parts).any()


@pytest.mark.parametrize("n_sites,lam", _OVERFLOWING + [(768, 0.5), (768, -0.7 + 0.3j), (96, 3.0)])
def test_transfer_trace_magnitude_matches_rescaled_reference(n_sites, lam):
    st = dnls.random_state(np.random.default_rng(0), n_sites)
    tr = conserved.transfer_trace(st, lam)
    mantissa, exponent = _rescaled_sequential_trace(st, lam)
    for got, m in ((tr.real, mantissa.real), (tr.imag, mantissa.imag)):
        # log2 of the reference component, a finite number whatever its size
        log2_ref = np.log2(abs(m)) + exponent
        if log2_ref < 1024:
            assert abs(got - np.ldexp(m, exponent)) <= 1e-12 * np.ldexp(abs(mantissa), exponent)
        else:
            assert got == np.copysign(np.inf, m)


def test_transfer_trace_is_nan_only_for_nan_fields():
    st = dnls.random_state(np.random.default_rng(0), 12)
    x = st.x.copy()
    x[5] = np.nan
    tr = conserved.transfer_trace(st.with_fields(x, st.y), 0.5)
    assert np.isnan(tr.real) and np.isnan(tr.imag)


def test_transfer_trace_of_a_badly_unbalanced_state():
    # x ~ 2.5e306 against y ~ 2e-308: without the balancing gauge the tree
    # flushed the y entries to 0 and returned 0j
    lin = darboux.build_linear_solution([(2.0, 1.0), (0.5, 1.3)], 1, darboux.FORWARD)
    st = darboux.toda_general_solution(lin, 2.2250738585072014e-308, 1.0, 12)
    assert np.abs(st.x).max() > 1e306 and np.abs(st.y).max() < 1e-307
    # a 50-digit product of the Lax matrices gives 80.2672490266
    assert abs(conserved.transfer_trace(st, 0.5) - 80.2672490266) <= 1e-12 * 80.2672490266


def test_balancing_gauge_leaves_suite_traces_bit_identical(monkeypatch):
    states = list(verification._initial_states().values())
    states.append(verification._al_oscillator().state(16, 0.0, boundary=al.PERIODIC))
    samples = (0.5, 1.5 + 0.5j, -0.7 + 0.3j, 0.8, 0.6 + 0.6j)
    gauged = [conserved.transfer_trace(st, lam) for st in states for lam in samples]
    monkeypatch.setattr(conserved, "_balanced", lambda mats, n_dim: mats)
    plain = [conserved.transfer_trace(st, lam) for st in states for lam in samples]
    assert gauged == plain


def test_zero_field_charges():
    for n_dim in (1, 2):
        st = dnls.zero_state(5, n_dim=n_dim, m_dim=n_dim)
        h1, h2, h3, h4 = conserved.closed_form_charges(st)
        n, w = 5, n_dim
        assert abs(h1 - n * w) < 1e-14
        assert abs(h2 + n * w / 2) < 1e-14
        assert abs(h3 - n * w / 3) < 1e-14
        assert abs(h4 + n * w / 4) < 1e-14


def test_h2_against_trace_coefficients_three_sites():
    rng = np.random.default_rng(2)
    st = dnls.random_state(rng, 3, scale=0.8)
    tau = conserved.tau_coefficients(st, up_to=2)
    h = conserved.closed_form_charges(st)
    assert abs(h[1] - (tau[2] - 0.5 * h[0] ** 2)) < 1e-9


@pytest.mark.parametrize("dims", [(1, 1), (1, 2)])
def test_log_expansion_identities(dims):
    rng = np.random.default_rng(3)
    st = dnls.random_state(rng, 8, n_dim=dims[0], m_dim=dims[1], scale=0.6)
    tau = conserved.tau_coefficients(st)
    h1, h2, h3, h4 = conserved.closed_form_charges(st)
    assert abs(tau[0] - 1.0) < 1e-12
    assert abs(h1 - tau[1]) < 1e-9
    assert abs(h2 - (tau[2] - 0.5 * h1**2)) < 1e-9
    assert abs(h3 - (tau[3] - h1 * h2 - h1**3 / 6)) < 1e-9
    assert abs(h4 - (tau[4] - h1 * h3 - 0.5 * h2**2 - 0.5 * h1**2 * h2 - h1**4 / 24)) < 1e-9


def test_tau_requires_width_one():
    st = dnls.zero_state(4, n_dim=2, m_dim=2)
    with pytest.raises(NotNormalized):
        conserved.tau_coefficients(st)


def test_charge_recursion_trivial_case():
    h = conserved.charge_recursion([1.0, 0.0, 3.5 + 1j, 0.0, 0.0], up_to=2)
    assert h[0] == 0.0
    assert h[1] == 3.5 + 1j


def test_charge_recursion_order_four_formula():
    rng = np.random.default_rng(4)
    tau = [1.0] + list(rng.normal(size=4) + 1j * rng.normal(size=4))
    h = conserved.charge_recursion(tau, up_to=4)
    h1 = tau[1]
    h2 = tau[2] - 0.5 * h1**2
    h3 = tau[3] - h1 * h2 - h1**3 / 6
    h4 = tau[4] - h1 * h3 - 0.5 * h2**2 - 0.5 * h1**2 * h2 - h1**4 / 24
    assert np.allclose(h, (h1, h2, h3, h4))


def test_charge_recursion_cross_method():
    rng = np.random.default_rng(5)
    st = dnls.random_state(rng, 9, scale=0.6)
    tau = conserved.tau_coefficients(st)
    from_tau = conserved.charge_recursion(tau, up_to=4)
    closed = conserved.closed_form_charges(st)
    assert max(abs(a - b) for a, b in zip(from_tau, closed)) < 1e-9


def test_charge_recursion_unvalidated_order():
    with pytest.raises(UnvalidatedOrder):
        conserved.charge_recursion([0.0] * 7, up_to=5)


def test_charges_conserved_under_flow():
    n_sites = 12
    params = type1_params(np.exp(2j * np.pi / n_sites), 1.0, 0.1, 0.7)
    st = soliton_type1(params, n_sites, require_periodic=True)
    final = dnls.evolve(st, 1, 1e-3, 300)[-1][1]
    h0 = conserved.closed_form_charges(st)
    h1 = conserved.closed_form_charges(final)
    assert max(abs(a - b) for a, b in zip(h0, h1)) < 1e-8


def test_charge_report_serialization():
    rng = np.random.default_rng(7)
    st = dnls.random_state(rng, 5, scale=0.5)
    rep = conserved.local_charges(st, lambda_samples=[0.5, 1.0 + 0.3j])
    d = rep.to_json_dict()
    assert set(d).issuperset({"h1", "h2", "h3", "h4", "tau0", "tau4", "trace_samples"})
    assert len(d["trace_samples"]) == 2
    h2 = complex(*d["h2"])
    assert h2 == rep.h[1]
