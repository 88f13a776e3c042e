import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns import glm, verification
from lattice_akns.algebra import make_rank_one_pair
from lattice_akns.errors import DegenerateMode, ModeOverflow, SingularGlm

PAIR = make_rank_one_pair(1, 1, 1.0, "triple")


def glm_system_from_json(d: dict) -> glm.GlmSystem:
    """Rebuild a system from ``GlmSystem.to_json_dict`` output."""

    def cplx(v):
        return complex(v[0], v[1])

    def mat(rows):
        return np.array([[cplx(v) for v in row] for row in rows], dtype=complex)

    modes = [
        glm.GlmMode(mat(m["amp_hat"]), cplx(m["lam_hat"]), mat(m["amp"]), cplx(m["lam"]))
        for m in d["modes"]
    ]
    return glm.build_hankel_data(
        modes,
        d["scheme"],
        cplx(d["weight_w"]),
        int(d["window_n"]),
        int(d["alpha"]),
        float(d["time"]),
    )


def scaled_mode(lam_hat, lam, window, amp_hat=1.0, amp=1.0, full=True):
    """Mode with amplitudes normalized so data peaks near O(1) on the window."""
    factor = 2 * window if full else window
    return glm.GlmMode(
        amp_hat * np.exp(-factor * lam_hat) * PAIR.bhat,
        lam_hat,
        amp * np.exp(-factor * lam) * PAIR.b,
        lam,
    )


class TestDispersions:
    def test_zero_exponent(self):
        mode = glm.GlmMode(PAIR.bhat, 0.0, PAIR.b, 0.5)
        lam_hat, _ = glm.scheme_dispersions(mode, glm.FORWARD_BACKWARD, 1.0, 2)
        assert lam_hat == 0

    def test_forward_first_flow(self):
        mode = glm.GlmMode(PAIR.bhat, 0.3, PAIR.b, np.log(2.0))
        _, lam = glm.scheme_dispersions(mode, glm.FORWARD_BACKWARD, 1.0, 1)
        assert abs(lam - 1.0) < 1e-15

    def test_symmetric(self):
        mode = glm.GlmMode(PAIR.bhat, np.log(2.0), PAIR.b, 0.3)
        lam_hat, _ = glm.scheme_dispersions(mode, glm.SYMMETRIC, 1.0, 1)
        assert abs(lam_hat - 0.5) < 1e-14


class TestHankelData:
    def test_linear_residual_both_schemes(self):
        window = 8
        modes = [scaled_mode(0.65, 0.55, window), scaled_mode(0.8, 0.6, window, 0.4, 0.7)]
        for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
            system = glm.build_hankel_data(modes, scheme, 1.0, window, alpha=1, time=0.4)
            assert system.linear_residual() < 1e-12

    def test_forward_higher_flow_residual(self):
        window = 6
        system = glm.build_hankel_data(
            [scaled_mode(0.5, 0.45, window)], glm.FORWARD_BACKWARD, 1.0, window, alpha=3, time=0.2
        )
        assert system.linear_residual() < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(ModeOverflow):
            glm.build_hankel_data(
                [glm.GlmMode(PAIR.bhat, 1.5, PAIR.b, 1.5)], glm.FORWARD_BACKWARD, 1.0, 14
            )

    def test_needs_modes(self):
        with pytest.raises(DegenerateMode):
            glm.build_hankel_data([], glm.FORWARD_BACKWARD, 1.0, 4)

    def test_json_round_trip(self):
        window = 6
        system = glm.build_hankel_data(
            [scaled_mode(0.6, 0.5, window)], glm.SYMMETRIC, 0.8 + 0.1j, window, 1, 0.3
        )
        rebuilt = glm_system_from_json(system.to_json_dict())
        assert np.abs(rebuilt.fhat - system.fhat).max() == 0
        assert np.abs(rebuilt.f - system.f).max() == 0


class TestSolve:
    def test_zero_data(self):
        system = glm.build_hankel_data(
            [glm.GlmMode(0 * PAIR.bhat, 0.6, 0 * PAIR.b, 0.5)], glm.FORWARD_BACKWARD, 1.0, 4
        )
        sol = glm.solve_glm(system)
        assert max(np.abs(sol.a).max(), np.abs(sol.b).max(), np.abs(sol.c).max(), np.abs(sol.d).max()) == 0
        assert sol.factorization_residual == 0

    def test_single_mode_matches_closed_form(self):
        window = 14
        mode = scaled_mode(0.65, 0.55, window)
        system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, window, 1, 0.3)
        sol = glm.solve_glm(system)
        kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
        bcf, ccf = glm.one_soliton_closed_form(mode, kappa, window, 0.3)
        size = 2 * window + 1
        mask = np.triu(np.ones((size, size), dtype=bool))
        assert np.abs((sol.b - bcf)[:, :, 0, 0])[mask].max() < 1e-10
        assert np.abs((sol.c - ccf)[:, :, 0, 0])[mask].max() < 1e-10

    def test_two_mode_factorization_and_support(self):
        window = 10
        modes = [scaled_mode(0.65, 0.55, window), scaled_mode(0.8, 0.6, window, 0.4, 0.7)]
        for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
            sol = glm.solve_glm(glm.build_hankel_data(modes, scheme, 1.0, window, 1, 0.2))
            assert sol.factorization_residual < 1e-10
            # upper-block support is exact by construction
            size = 2 * window + 1
            for wi in range(size):
                for wj in range(wi):
                    assert np.abs(sol.b[wi, wj]).max() == 0
            # the remainder is strictly below the block diagonal
            dim = sol.n_dim + sol.m_dim
            for wi in range(size):
                blk = sol.kminus_big[wi * dim : (wi + 1) * dim, wi * dim :]
                assert np.abs(blk).max() == 0

    def test_singular_window_detected(self):
        # constant antidiagonal data with amplitude product 1/4 makes the
        # width-2 row operator [[1/2, -1/2], [-1/2, 1/2]] exactly singular
        mode = glm.GlmMode(0.5 * PAIR.bhat, 0.0, 0.5 * PAIR.b, 0.0)
        system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, 4)
        with pytest.raises(SingularGlm):
            glm.solve_glm(system)


    def test_near_singular_row_detected(self):
        # amplitude product (1 - 4e-15)/4 leaves the width-2 row operator
        # invertible, with reciprocal condition number 4e-15
        mode = glm.GlmMode(0.5 * PAIR.bhat, 0.0, 0.5 * (1 - 4e-15) * PAIR.b, 0.0)
        system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, 4)
        p = system.f[0, 0, 0] * system.fhat[0, 0, 0]
        assert np.linalg.det(np.eye(2) - 2 * p * np.ones((2, 2))) != 0
        with pytest.raises(SingularGlm, match="row 3: reciprocal condition"):
            glm.solve_glm(system)

    def test_min_rcond_on_suite_systems(self, monkeypatch):
        solutions = []
        solve = glm.solve_glm

        def recording_solve(system):
            solutions.append(solve(system))
            return solutions[-1]

        monkeypatch.setattr(glm, "solve_glm", recording_solve)
        assert verification.glm_suite().passed
        assert len(solutions) == 6
        for sol in solutions:
            assert np.isfinite(sol.min_rcond) and 0 < sol.min_rcond <= 1

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([3, 6]),
        st.sampled_from([glm.FORWARD_BACKWARD, glm.SYMMETRIC]),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_row_reference(self, window, scheme, nd, md, seed):
        rng = np.random.default_rng(seed)
        modes = []
        for _ in range(2):
            lam_hat, lam = rng.uniform(0.4, 1.0, size=2)
            amp_hat = 0.5 * np.exp(-2 * window * lam_hat) * rng.uniform(-1, 1, (nd, md, 2)) @ [1, 1j]
            amp = 0.5 * np.exp(-2 * window * lam) * rng.uniform(-1, 1, (md, nd, 2)) @ [1, 1j]
            modes.append(glm.GlmMode(amp_hat, lam_hat, amp, lam))
        system = glm.build_hankel_data(modes, scheme, 1.0, window, 1, rng.uniform(0, 0.3))
        sol = glm.solve_glm(system)
        ref = reference_solve(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            assert np.abs(getattr(sol, name) - ref[name]).max() < 1e-13, name
        assert abs(sol.min_rcond - ref["min_rcond"]) <= 1e-9 * ref["min_rcond"]

    @pytest.mark.parametrize("window", [14, 28])
    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("scheme", [glm.FORWARD_BACKWARD, glm.SYMMETRIC])
    def test_bordered_matches_per_row(self, monkeypatch, window, nd, md, scheme):
        rng = np.random.default_rng(window + 10 * nd + 100 * md)
        modes = []
        for lam_hat, lam in ((0.65, 0.55), (0.8, 0.6)):
            amp_hat = np.exp(-2 * window * lam_hat) * rng.uniform(-1, 1, (nd, md, 2)) @ [1, 1j]
            amp = np.exp(-2 * window * lam) * rng.uniform(-1, 1, (md, nd, 2)) @ [1, 1j]
            modes.append(glm.GlmMode(amp_hat, lam_hat, amp, lam))
        system = glm.build_hankel_data(modes, scheme, 1.0, window, 1, 0.2)
        bordered = glm.solve_glm(system)
        # with a zero residual bound every row goes through the dense solve
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        per_row = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            assert np.abs(getattr(bordered, name) - getattr(per_row, name)).max() < 1e-12, name
        assert abs(bordered.min_rcond - per_row.min_rcond) <= 1e-9 * per_row.min_rcond
        assert bordered.factorization_residual < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-11])
    def test_guard_keeps_per_row_accuracy_near_singular(self, monkeypatch, eps):
        # constant data with amplitude product (1 - eps)/4: every trailing
        # block beyond the bottom one is within eps of singular, and
        # bordering through them alone leaves residuals up to 0.5
        mode = glm.GlmMode(0.5 * PAIR.bhat, 0.0, 0.5 * (1 - eps) * PAIR.b, 0.0)
        system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, 4)
        guarded = glm.solve_glm(system).factorization_residual
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        per_row = glm.solve_glm(system).factorization_residual
        assert guarded <= per_row + 1e-15


def reference_solve(system):
    """The factorization equations solved block by block, one row at a time.

    Also returns, as ``min_rcond``, the smallest reciprocal condition number
    1 / (|op|_inf |op^-1|_inf) over the row operators.
    """
    n, nd, md = system.window_n, system.n_dim, system.m_dim

    def f(m):
        return system.f[m + 2 * n]

    def fh(m):
        return system.fhat[m + 2 * n]

    size, dim = 2 * n + 1, nd + md
    out = {
        "a": np.zeros((size, size, nd, nd), dtype=complex),
        "b": np.zeros((size, size, nd, md), dtype=complex),
        "c": np.zeros((size, size, md, nd), dtype=complex),
        "d": np.zeros((size, size, md, md), dtype=complex),
        "min_rcond": 1.0,
    }
    for i in range(-n, n + 1):
        ls = range(i, n + 1)
        for x, y, ox, oy, off, diag in (
            ("b", "a", md, nd, fh, f),
            ("c", "d", nd, md, f, fh),
        ):
            # x(i, j) - sum_{l', l} x(i, l') diag(l' + l) off(l + j) = -off(i + j)
            w = len(ls)
            op = np.eye(w * ox, dtype=complex)
            for p, lp in enumerate(ls):
                for q, j in enumerate(ls):
                    gram = sum(diag(lp + l) @ off(l + j) for l in ls)
                    op[p * ox : (p + 1) * ox, q * ox : (q + 1) * ox] -= gram
            rhs = np.hstack([off(i + j) for j in ls])
            row = np.linalg.solve(op.T, -rhs.T).T
            rcond = 1 / (np.linalg.norm(op, np.inf) * np.linalg.norm(np.linalg.inv(op), np.inf))
            out["min_rcond"] = min(out["min_rcond"], rcond)
            for q, j in enumerate(ls):
                out[x][i + n, j + n] = row[:, q * ox : (q + 1) * ox]
            # y(i, j) = -sum_l x(i, l) diag(l + j)
            for j in ls:
                out[y][i + n, j + n] = -sum(out[x][i + n, l + n] @ diag(l + j) for l in ls)
    kplus = np.zeros((size * dim, size * dim), dtype=complex)
    big_f = np.zeros_like(kplus)
    for wi in range(size):
        for wj in range(size):
            rows, cols = slice(wi * dim, (wi + 1) * dim), slice(wj * dim, (wj + 1) * dim)
            kplus[rows, cols] = np.block(
                [[out["a"][wi, wj], out["b"][wi, wj]], [out["c"][wi, wj], out["d"][wi, wj]]]
            )
            m = wi + wj - 2 * n
            big_f[rows, cols] = np.block(
                [[np.zeros((nd, nd)), fh(m)], [f(m), np.zeros((md, md))]]
            )
    prod = kplus + big_f + kplus @ big_f
    out["kminus_big"] = np.zeros_like(prod)
    for wi in range(size):
        for wj in range(wi):
            rows, cols = slice(wi * dim, (wi + 1) * dim), slice(wj * dim, (wj + 1) * dim)
            out["kminus_big"][rows, cols] = prod[rows, cols]
    return out


class TestClosedForm:
    def test_geometric_factor_arithmetic(self):
        # lam = lam_hat = ln 2, kappa = 1, k = j = 1, t = 0
        mode = glm.GlmMode(PAIR.bhat, np.log(2.0), PAIR.b, np.log(2.0))
        b, _ = glm.one_soliton_closed_form(mode, 1.0, 2, 0.0)
        # h_1 = (1/16)/(1/4 - 1)^2 = 1/9, so B_11 = -(1/4)/(1 - 1/9) = -9/32
        assert abs(b[3, 3, 0, 0] - (-9.0 / 32.0)) < 1e-14

    def test_decay_limit(self):
        window = 12
        mode = scaled_mode(0.7, 0.6, window)
        b, _ = glm.one_soliton_closed_form(
            mode, complex(mode.amp_hat[0, 0] * mode.amp[0, 0]), window, 0.0
        )
        k = window  # far from the core: geometric factor negligible
        j = window
        expected = -np.exp(-0.7 * (k + j)) * mode.amp_hat[0, 0]
        assert abs(b[k + window, j + window, 0, 0] - expected) < 1e-12 * abs(expected)

    def test_degenerate_exponents_rejected(self):
        mode = glm.GlmMode(PAIR.bhat, -0.5, PAIR.b, 0.5)
        with pytest.raises(DegenerateMode):
            glm.one_soliton_closed_form(mode, 1.0, 4, 0.0)


class TestLocalFields:
    def test_zero_data(self):
        system = glm.build_hankel_data(
            [glm.GlmMode(0 * PAIR.bhat, 0.6, 0 * PAIR.b, 0.5)], glm.FORWARD_BACKWARD, 1.0, 4
        )
        xs, ys = glm.extract_local_fields(glm.solve_glm(system))
        assert np.abs(xs).max() == 0 and np.abs(ys).max() == 0

    def test_matches_shifted_seed_family(self):
        from lattice_akns.verification import _glm_local_field_match

        assert _glm_local_field_match(window=20) < 1e-8

    def test_scaling_limit_tracks_continuum_profile(self):
        # with lam -> delta*lam and window -> 1/delta, the diagonal elements
        # over delta^2 approach (lam+lam_hat)^2 exp(2 lam x) / kappa at fixed x
        lam, lam_hat, x_probe = 0.8, 1.0, 0.75
        values = []
        for delta in (0.25, 0.125, 0.0625):
            window = int(round(3.0 / delta))
            mode = glm.GlmMode(PAIR.bhat, delta * lam_hat, PAIR.b, delta * lam)
            system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, window, 1, 0.0)
            sol = glm.solve_glm(system)
            site = int(round(x_probe / delta))
            values.append(sol.b[site + window, site + window, 0, 0] / delta**2)
        target = (lam + lam_hat) ** 2 * np.exp(2 * lam * x_probe)
        errs = [abs(v - target) for v in values]
        assert errs[1] < errs[0] and errs[2] < errs[1]
