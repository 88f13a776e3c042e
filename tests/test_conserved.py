import functools

import numpy as np
import pytest

from lattice_akns import al, conserved, darboux, dnls, lattice, verification
from lattice_akns.darboux import soliton_type1, type1_params
from lattice_akns.errors import NotNormalized, SpectralPole, UnvalidatedOrder
from reference import closed_form_charges as reference_charges
from reference import laurent_eval


def _lax_poly(state):
    """The state's Laurent min degree and per-site Lax coefficient stack."""
    return (-1 if isinstance(state, al.AlState) else 0), state.lax_coeffs()


def _transfer_poly(state) -> tuple[int, np.ndarray]:
    """Reference transfer polynomial: the site Lax polynomials multiplied, site N down to 1.

    Returns ``(min_degree, coeffs)``, ``coeffs[k]`` the (d, d) coefficient of
    degree ``min_degree + k``.  The running product is one (K*d, d) array,
    its coefficient blocks stacked lowest degree first.  Each site
    right-multiplies it by its K Lax blocks, one GEMM per block, summed from
    the top block down.  O(N^2) work and memory.
    """
    min_degree, coeffs = _lax_poly(state)
    k, n_sites, d = coeffs.shape[:3]
    t = coeffs[:, -1].reshape(k * d, d)
    for n in range(n_sites - 2, -1, -1):
        out = np.zeros((len(t) + (k - 1) * d, d), dtype=np.complex128)
        for j in range(k - 1, -1, -1):
            out[j * d : j * d + len(t)] += t @ coeffs[j, n]
        t = out
    return min_degree * n_sites, t.reshape(-1, d, d)


def _coeff(poly, degree):
    """The coefficient of lam^degree of a ``(min_degree, coeffs)`` polynomial, 0 outside its range."""
    min_degree, coeffs = poly
    k = degree - min_degree
    return coeffs[k] if 0 <= k < len(coeffs) else np.zeros(coeffs.shape[1:], dtype=np.complex128)


def test_transfer_single_site_is_the_lax_poly():
    rng = np.random.default_rng(0)
    st = dnls.random_state(rng, 1, scale=0.5)
    min_degree, coeffs = _transfer_poly(st)
    assert min_degree == 0
    assert np.array_equal(coeffs, st.lax_coeffs()[:, 0])


def test_transfer_two_site_zero_fields():
    st = dnls.zero_state(2)
    min_degree, coeffs = _transfer_poly(st)
    # (lam Sigma+ + I)^2 = [[ (lam+1)^2, 0], [0, 1]]
    assert min_degree == 0
    assert np.array_equal(coeffs, [np.diag([1.0, 1.0]), np.diag([2.0, 0.0]), np.diag([1.0, 0.0])])


def test_transfer_eval_matches_numeric_product():
    rng = np.random.default_rng(1)
    st = dnls.random_state(rng, 6, n_dim=1, m_dim=2, scale=0.6)
    min_degree, coeffs = _transfer_poly(st)
    for lam in (0.4, -1.2 + 0.7j, 2.0j):
        direct = conserved.transfer_trace(st, lam)
        value = laurent_eval(coeffs, min_degree, lam)
        assert abs(np.trace(value) - direct) < 1e-11 * max(1.0, abs(direct))


def _poly_mul_chain(state):
    """Reference transfer polynomial: N - 1 chained Cauchy products of coefficient stacks."""
    min_degree, coeffs = _lax_poly(state)
    t = coeffs[:, -1]
    for n in range(state.n_sites - 2, -1, -1):
        q = coeffs[:, n]
        prod = np.zeros((len(t) + len(q) - 1, *t.shape[1:]), dtype=np.complex128)
        for i, block in enumerate(t):
            prod[i : i + len(q)] += block @ q
        t = prod
    return min_degree * state.n_sites, t


@pytest.mark.parametrize("n_sites", [1, 2, 3, 12, 96])
@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("model", ["dnls", "al-periodic", "al-vanishing"])
def test_transfer_poly_matches_poly_mul_chain(model, n_dim, m_dim, n_sites):
    rng = np.random.default_rng(n_sites)
    if model == "dnls":
        st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6)
    else:
        st = al.random_state(rng, n_sites, n_dim, m_dim, boundary=model.split("-")[1])
    (min_degree, coeffs), (ref_min_degree, ref) = _transfer_poly(st), _poly_mul_chain(st)
    assert min_degree == ref_min_degree
    assert coeffs.shape == ref.shape
    # equal in practice; the bound allows a BLAS that orders its sums differently
    scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(coeffs - ref) <= 1e-14 * scale)


def _random_state(model, n_sites, n_dim, m_dim, rng):
    if model == "dnls":
        return dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.6)
    return al.random_state(rng, n_sites, n_dim, m_dim, boundary=model.split("-")[1])


def _lax(state, lam):
    return lattice.lax_stacks(state, [lam])[0]


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
    states.append(al.localized_oscillator().state(16, 0.0))
    samples = (0.5, 1.5 + 0.5j, -0.7 + 0.3j, 0.8, 0.6 + 0.6j)
    gauged = [conserved.transfer_trace(st, lam) for st in states for lam in samples]
    monkeypatch.setattr(conserved, "_balanced", lambda mats, n_dim: mats)
    plain = [conserved.transfer_trace(st, lam) for st in states for lam in samples]
    assert gauged == plain


def _toda_unbalanced():
    lin = darboux.build_linear_solution([(2.0, 1.0), (0.5, 1.3)], 1, darboux.FORWARD)
    return darboux.toda_general_solution(lin, 2.2250738585072014e-308, 1.0, 12)


@functools.lru_cache(maxsize=1)
def _batch_cases():
    rng = np.random.default_rng(11)
    lams = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
    zs = (0.8, 1.5, 0.6 + 0.6j)
    many_sites = 768
    # more (state, lam) rows than one chunk of the tree holds
    n_chunked = conserved.TREE_CHUNK_MATRICES // (many_sites * len(lams)) + 2
    return {
        "dnls-1x1": ([dnls.random_state(rng, n, scale=0.6) for n in (1, 2, 5, 12, 12, 96)], lams),
        "dnls-1x2": ([dnls.random_state(rng, n, 1, 2, scale=0.6) for n in (3, 12, 12, 96)], lams),
        "al": (
            [al.random_state(rng, n, *w, boundary=b) for n in (4, 16) for w in ((1, 1), (1, 2))
             for b in ("periodic", "vanishing")],
            zs,
        ),
        "mixed-models-and-shapes": (
            [dnls.random_state(rng, 12), al.random_state(rng, 12), dnls.random_state(rng, 7, 2, 1)],
            (0.8, 1.5 + 0.5j),
        ),
        "inf-N768": ([dnls.random_state(np.random.default_rng(0), 768)], (1.5 + 0.5j, 0.5, 3.0)),
        # tr T(lam) = (1 + lam)^3 + 1 on the 3-site vacuum: exactly 0 at lam = -2
        "zero-trace-vacuum": ([dnls.zero_state(3)], (-2.0, 0.5)),
        "toda-kappa-2.2e-308": ([_toda_unbalanced()], (0.5, 1.5 + 0.5j)),
        "beyond-one-chunk": ([dnls.random_state(rng, many_sites, scale=0.4) for _ in range(n_chunked)], lams),
    }


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of complex values: equal when the values are bit-identical."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("case", list(_batch_cases()))
def test_batched_traces_are_bit_identical_to_single_calls(case):
    states, lams = _batch_cases()[case]
    batched = conserved.transfer_traces(states, lams)
    assert batched.shape == (len(states), len(lams))
    single = [[conserved.transfer_trace(st, lam) for lam in lams] for st in states]
    assert np.array_equal(_bits(batched), _bits(single))


def test_batched_trace_cases_reach_their_edge_values():
    cases = _batch_cases()
    states, lams = cases["beyond-one-chunk"]
    assert len(states) * states[0].n_sites * len(lams) > conserved.TREE_CHUNK_MATRICES
    assert np.isinf(conserved.transfer_traces(*cases["inf-N768"])[0, 0].real)
    assert conserved.transfer_traces(*cases["zero-trace-vacuum"])[0, 0] == 0
    toda = conserved.transfer_traces(*cases["toda-kappa-2.2e-308"])[0, 0]
    assert abs(toda - 80.26724902655829) <= 1e-12 * 80.3


def test_batched_traces_of_empty_batches():
    st = dnls.random_state(np.random.default_rng(0), 5)
    assert conserved.transfer_traces([], (0.5, 1.0)).shape == (0, 2)
    assert conserved.transfer_traces([st, st], ()).shape == (2, 0)


@pytest.mark.parametrize("n_dim,m_dim", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("model", [dnls, al], ids=["dnls", "al"])
def test_traces_of_a_state_with_no_sites_are_the_trace_of_the_identity(model, n_dim, m_dim):
    # tr T of the empty product is tr I = d, the tau_0 that tau_series gives
    empty, d = model.zero_state(0, n_dim, m_dim), n_dim + m_dim
    assert conserved.transfer_trace(empty, 0.5) == d
    full = model.random_state(np.random.default_rng(3), 4, n_dim, m_dim)
    lams = (0.5, 1.5 + 0.5j)
    got = conserved.transfer_traces([full, empty, full], lams)
    assert got[1].tolist() == [d, d]
    assert got[0].tolist() == got[2].tolist() == [conserved.transfer_trace(full, lam) for lam in lams]
    if n_dim == 1:
        assert conserved.tau_series([empty])[0, 0] == d


def _reference_tau(state, up_to):
    t = _transfer_poly(state)
    return np.array([np.trace(_coeff(t, state.n_sites - k)) for k in range(up_to + 1)])


@pytest.mark.parametrize("n_sites", [1, 2, 3, 8, 96])
@pytest.mark.parametrize("m_dim", [1, 2])
@pytest.mark.parametrize("model", ["dnls", "al-periodic"])
def test_tau_series_matches_transfer_poly(model, m_dim, n_sites):
    rng = np.random.default_rng(n_sites + 10 * m_dim)
    states = [_random_state(model, n_sites, 1, m_dim, rng) for _ in range(3)]
    # up_to > N for the short lattices: the coefficients past lam^0 are 0
    for up_to in sorted({4, min(n_sites + 2, 10)}):
        series = conserved.tau_series(states, up_to)
        assert series.shape == (len(states), up_to + 1)
        for st, row in zip(states, series):
            ref = _reference_tau(st, up_to)
            assert np.all(np.abs(row - ref) <= 1e-14 * np.abs(ref))
            # the batch of one gives the same bits as the batch
            assert np.array_equal(_bits(conserved.tau_series([st], up_to)[0]), _bits(row))


def test_tau_series_requires_width_one():
    rng = np.random.default_rng(0)
    with pytest.raises(NotNormalized):
        conserved.tau_series([dnls.random_state(rng, 4), dnls.random_state(rng, 4, 2, 1)])


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
    tau = conserved.tau_series([st], up_to=2)[0]
    h = conserved.closed_form_charges(st)
    assert abs(h[1] - (tau[2] - 0.5 * h[0] ** 2)) < 1e-9


@pytest.mark.parametrize("dims", [(1, 1), (1, 2)])
def test_log_expansion_identities(dims):
    rng = np.random.default_rng(3)
    st = dnls.random_state(rng, 8, n_dim=dims[0], m_dim=dims[1], scale=0.6)
    tau = conserved.tau_series([st])[0]
    h1, h2, h3, h4 = conserved.closed_form_charges(st)
    assert abs(tau[0] - 1.0) < 1e-12
    assert abs(h1 - tau[1]) < 1e-9
    assert abs(h2 - (tau[2] - 0.5 * h1**2)) < 1e-9
    assert abs(h3 - (tau[3] - h1 * h2 - h1**3 / 6)) < 1e-9
    assert abs(h4 - (tau[4] - h1 * h3 - 0.5 * h2**2 - 0.5 * h1**2 * h2 - h1**4 / 24)) < 1e-9


def test_tau_requires_width_one():
    st = dnls.zero_state(4, n_dim=2, m_dim=2)
    with pytest.raises(NotNormalized):
        conserved.tau_series([st])


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
    tau = conserved.tau_series([st])[0]
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


def _mixed_charge_states():
    """dnls states of several shapes and sizes, theta != 1, one with a NaN field entry."""
    rng = np.random.default_rng(34)
    states = [
        dnls.random_state(rng, n, *w, scale=0.7, theta=complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)))
        for n in range(1, 14)
        for w in ((1, 1), (1, 2), (2, 1))
    ]
    x = states[20].x.copy()
    x[4, 0, 0] = np.nan
    states[20] = states[20].with_fields(x, states[20].y)
    # interleave the shapes, so that no group is contiguous in the list
    return states[::2] + states[1::2]


def test_batched_closed_forms_are_bit_identical_to_single_calls(monkeypatch):
    states = _mixed_charge_states()
    with np.errstate(invalid="ignore"):
        batched = conserved.closed_form_charges_batch(states)
        single = [conserved.closed_form_charges(st) for st in states]
        reference_rows = [reference_charges(st) for st in states]
        # chunks of two states give the same bits
        monkeypatch.setattr(conserved, "TREE_CHUNK_MATRICES", 2 * 13)
        chunked = conserved.closed_form_charges_batch(states)
    assert batched.shape == (len(states), 4)
    assert np.array_equal(_bits(batched), _bits(single))
    assert np.array_equal(_bits(batched), _bits(reference_rows))
    assert np.array_equal(_bits(chunked), _bits(batched))
    # the NaN stays in its own row
    nan_rows = np.isnan(batched).any(axis=1)
    assert nan_rows.sum() == 1 and np.isnan(batched[nan_rows]).all()
    assert conserved.closed_form_charges_batch([]).shape == (0, 4)


def _counting(monkeypatch):
    """Count the batched Lax builds of ``conserved``; returns the list of their (model, number of states)."""
    calls, fn = [], conserved.lax_stacks

    def counted(states, lams, out=None):
        if out is not None:
            calls.append((states[0].MODEL, len(states)))
        return fn(states, lams, out)

    monkeypatch.setattr(conserved, "lax_stacks", counted)
    return calls


def test_batched_traces_build_the_lax_entries_once_per_chunk(monkeypatch):
    rng = np.random.default_rng(35)
    lams = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
    zs = (0.8, 1.5, 0.6 + 0.6j)
    dnls_states = [dnls.random_state(rng, 12, scale=0.6) for _ in range(7)] + [_toda_unbalanced()]
    al_states = [al.random_state(rng, 12, 1, 2, boundary=b) for b in ("periodic", "vanishing") * 3]
    inf_state = dnls.random_state(np.random.default_rng(0), 768)
    # three states of 12 sites per chunk at three samples: chunks of 3, 3 and 2
    monkeypatch.setattr(conserved, "TREE_CHUNK_MATRICES", 3 * 12 * 3)
    calls = _counting(monkeypatch)
    cases = ((al_states, zs, "al", [3, 3]), (dnls_states, lams, "dnls", [3, 3, 2]))
    for states, samples, model, sizes in cases:
        batched = conserved.transfer_traces(states, samples)
        assert [n for m, n in calls if m == model] == sizes
        single = [[conserved.transfer_trace(st, lam) for lam in samples] for st in states]
        assert np.array_equal(_bits(batched), _bits(single))
    # the balancing gauge recovers the trace of the x ~ 1e306, y ~ 1e-308 state, the last one
    assert abs(batched[-1, 0] - 80.26724902655829) <= 1e-12 * 80.3
    # one 768-site state fills more than a chunk: its own chunk, a +-inf trace and no NaN
    inf_traces = conserved.transfer_traces([inf_state], (1.5 + 0.5j,))
    assert calls[-1] == ("dnls", 1)
    assert np.isinf(inf_traces[0, 0].real) and not np.isnan(inf_traces).any()
    assert np.array_equal(_bits(inf_traces[0]), _bits([conserved.transfer_trace(inf_state, 1.5 + 0.5j)]))
    with pytest.raises(SpectralPole):
        conserved.transfer_traces(al_states, (0.8, 0.0))
