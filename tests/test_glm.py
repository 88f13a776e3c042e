import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lattice_akns import cli, glm, verification
from lattice_akns.algebra import make_rank_one_pair
from lattice_akns.errors import DegenerateMode, ModeOverflow, SingularGlm

PAIR = make_rank_one_pair(1, 1, 1.0, "triple")


def glm_system_from_json(d: dict) -> glm.GlmSystem:
    """Rebuild a system from the ``system`` object of a ``glm`` run's report.json."""

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


@pytest.fixture
def dense_rows(monkeypatch):
    """The abstract rows that ``glm._row_solve`` solves densely, in call order."""
    rows, row_solve = [], glm._row_solve

    def recording_row_solve(gram, rhs, i):
        rows.append(i)
        return row_solve(gram, rhs, i)

    monkeypatch.setattr(glm, "_row_solve", recording_row_solve)
    return rows


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

    @pytest.mark.parametrize("shift", [(0.1, 0.0), (0.0, 0.1)], ids=["lam_hat", "lam"])
    def test_linear_residual_detects_a_wrong_dispersion(self, monkeypatch, shift):
        window = 8
        modes = [scaled_mode(0.65, 0.55, window), scaled_mode(0.8, 0.6, window, 0.4, 0.7)]
        systems = [
            glm.build_hankel_data(modes, scheme, 1.0, window, alpha=1, time=0.4)
            for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC)
        ]
        true_dispersions = glm.scheme_dispersions

        def shifted(*args):
            lam_hat, lam = true_dispersions(*args)
            return lam_hat + shift[0], lam + shift[1]

        # a residual that compared a term with itself would read 0 here
        monkeypatch.setattr(glm, "scheme_dispersions", shifted)
        for system in systems:
            assert system.linear_residual() > 1e-6

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

    def test_json_round_trip(self, tmp_path):
        window, bhat, b = 6, float(np.exp(-7.2)), float(np.exp(-6.0))
        params = {
            "scheme": "symmetric",
            "weight_w": [0.8, 0.1],
            "window": window,
            "time": 0.3,
            "modes": [{"bhat": bhat, "lam_hat": 0.6, "b": b, "lam": 0.5}],
            # the closed form misses by about 1e-6 on so short a window
            "compare_closed_form": False,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params}))
        assert cli.main(["glm", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rebuilt = glm_system_from_json(json.loads((tmp_path / "report.json").read_text())["system"])
        modes = [glm.GlmMode(np.array([[bhat + 0j]]), 0.6 + 0j, np.array([[b + 0j]]), 0.5 + 0j)]
        system = glm.build_hankel_data(modes, glm.SYMMETRIC, 0.8 + 0.1j, window, 1, 0.3)
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
    # draws with row rcond 0.016 and 0.017: a float64 per-row solve misses the
    # exact c rows of the first by 1.2e-13, unrefined bordering those of the
    # second by 1.46e-13
    @example(6, glm.FORWARD_BACKWARD, 1, 1, 29700)
    @example(6, glm.SYMMETRIC, 1, 1, 29700)
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

    @staticmethod
    def tail_system(window, nd, md):
        """Two-mode data whose lower rows fall below TAIL_BOUND: a non-empty tail."""
        rng = np.random.default_rng(window + 10 * nd + 100 * md)
        modes = []
        for lam_hat, lam in ((0.65, 0.55), (0.8, 0.6)):
            amp_hat = np.exp(-2 * window * lam_hat) * rng.uniform(-1, 1, (nd, md, 2)) @ [1, 1j]
            amp = np.exp(-2 * window * lam) * rng.uniform(-1, 1, (md, nd, 2)) @ [1, 1j]
            modes.append(glm.GlmMode(amp_hat, lam_hat, amp, lam))
        system = glm.build_hankel_data(modes, glm.FORWARD_BACKWARD, 1.0, window, 1, 0.2)
        tail = glm._data_edges(system)[0]
        assert 0 < tail < 2 * window + 1
        return system, tail

    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2)])
    def test_tail_matches_per_row(self, monkeypatch, nd, md):
        system, _ = self.tail_system(80, nd, md)
        with_tail = glm.solve_glm(system)
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        per_row = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            assert np.abs(getattr(with_tail, name) - getattr(per_row, name)).max() < 1e-12, name
        assert abs(with_tail.min_rcond - per_row.min_rcond) <= 1e-9 * per_row.min_rcond

    def test_tail_matches_bordering_every_row(self, monkeypatch):
        system, _ = self.tail_system(40, 1, 2)
        with_tail = glm.solve_glm(system)
        monkeypatch.setattr(glm, "TAIL_BOUND", 0.0)
        assert glm._data_edges(system)[0] == 2 * 40 + 1
        bordered = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            # only the dropped terms differ, each below eps^2 in absolute size
            diff = np.abs(getattr(with_tail, name) - getattr(bordered, name)).max()
            assert diff < 1e-13 and diff <= np.finfo(float).eps ** 2, name
        assert abs(with_tail.min_rcond - bordered.min_rcond) <= 1e-13
        assert abs(with_tail.factorization_residual - bordered.factorization_residual) < 1e-13

    def test_tail_rows_pass_the_residual_guard(self, dense_rows):
        system, tail = self.tail_system(40, 1, 2)
        sol = glm.solve_glm(system)
        assert not dense_rows
        residual, upper = assembled_residual(system, sol)
        # rows at and below the tail: the upper part of (I + K+)(I + F) - I
        s = tail * (sol.n_dim + sol.m_dim)
        residual, upper = residual[s:, s:], upper[s:, s:]
        peak = max(np.abs(system.fhat).max(), np.abs(system.f).max())
        tol = glm.BORDER_RESIDUAL_ULPS * np.finfo(float).eps * (1 + peak)
        assert np.abs(residual[upper]).max() <= tol
        # the tail rows are -F on the upper part, so their residual is -F^2 there
        assert np.abs(residual[upper]).max() <= glm.TAIL_BOUND**2

    def test_guard_sees_every_row(self, monkeypatch, dense_rows):
        system, _ = self.tail_system(40, 1, 2)
        sol = glm.solve_glm(system)
        residual, upper = assembled_residual(system, sol)
        # the closed-form rows enter the reported residual through their bound
        assert abs(sol.factorization_residual - np.abs(residual[upper]).max()) <= 1e-15
        # a zero residual bound still catches the tail rows, whose residual
        # is not formed: every row of the window is solved densely
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        sol = glm.solve_glm(system)
        assert sorted(set(dense_rows)) == list(range(-40, 41))
        residual, upper = assembled_residual(system, sol)
        assert abs(sol.factorization_residual - np.abs(residual[upper]).max()) <= 1e-15

    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2), (2, 1)])
    def test_windowed_guard_matches_full_width_product(self, dense_rows, nd, md):
        system, tail = self.tail_system(40, nd, md)
        end = glm._data_edges(system)[1]
        assert end < 2 * 40 + 1
        sol = glm.solve_glm(system)
        assert not dense_rows
        residual, upper = assembled_residual(system, sol)
        dim = nd + md
        s, e = tail * dim, end * dim
        # the bordered rows of the full-width product
        bordered = np.abs(np.where(upper, residual, 0))[:s]
        assert np.isclose(sol.factorization_residual, bordered.max(), rtol=1e-12, atol=0)
        # the guard forms the columns before E only and bounds the rest by
        # the K+ row sums before and from E and the data tails t_E and t_2E
        kplus = np.abs(assembled_kplus(sol)[:s])
        s1, s2 = kplus[:, :e].sum(axis=1), kplus[:, e:].sum(axis=1)
        t = glm._tail_sums(system)
        bound = (e + 4) * np.finfo(float).eps * (1 + s1) * t[end] + s2 * t[2 * end]
        assert (bordered[:, e:].max(axis=1) <= bound).all()
        assert bound.max() < 1e-9 * bordered[:, :e].max()

    @pytest.mark.parametrize("fallback", [False, True], ids=["bordered", "dense-fallback"])
    def test_kminus_formed_on_first_read(self, monkeypatch, dense_rows, fallback):
        system, _ = self.tail_system(40, 1, 2)
        if fallback:
            # rows near the data's peak have rcond below 0.9, so bordering
            # stops a few rows down and the rows above it are solved densely
            monkeypatch.setattr(glm, "RCOND_MIN", 0.9)
        sol = glm.solve_glm(system)
        assert bool(dense_rows) == fallback
        assert "kminus_big" not in vars(sol)
        residual, upper = assembled_residual(system, sol)
        kminus = sol.kminus_big
        assert np.abs(kminus - np.where(upper, 0, residual)).max() <= 1e-15
        assert np.abs(kminus[upper]).max() == 0
        assert sol.kminus_big is kminus

    def test_solve_memory(self):
        window = 60
        (params,) = cli._default_glm_modes(1, window)
        mode = glm.GlmMode(
            np.array([[complex(*params["bhat"])]]),
            complex(*params["lam_hat"]),
            np.array([[complex(*params["b"])]]),
            complex(*params["lam"]),
        )
        system = glm.build_hankel_data([mode], glm.FORWARD_BACKWARD, 1.0, window)
        glm.solve_glm(system)
        # one full-width array: a (2 (2W + 1))^2 complex matrix such as F or K+
        full = (2 * (2 * window + 1)) ** 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            sol = glm.solve_glm(system)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a, b, c, d make one full-width array; K- is not formed
        assert kept <= 1.05 * full
        assert peak < 4.5 * full
        assert sol.factorization_residual < 1e-12

    def test_zero_data_is_all_tail(self):
        system = glm.build_hankel_data(
            [glm.GlmMode(np.zeros((1, 2)), 0.6, np.zeros((2, 1)), 0.5)], glm.FORWARD_BACKWARD, 1.0, 20
        )
        assert glm._data_edges(system)[0] == 0
        sol = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            assert np.abs(getattr(sol, name)).max() == 0, name
        assert sol.factorization_residual == 0 and sol.min_rcond == 1

    @pytest.mark.parametrize("window, nd, md", [(40, 1, 1), (40, 1, 2), (80, 2, 1)])
    def test_tail_starts_at_half_the_window_end(self, window, nd, md):
        # with TAIL_BOUND = WINDOW_BOUND, row i is in the tail once index sum 2i is past E
        system, tail = self.tail_system(window, nd, md)
        end = glm._data_edges(system)[1]
        assert end < 2 * window + 1
        assert tail == -(-end // 2)

    def test_window_edges_of_zero_and_undamped_data(self):
        zero = glm.build_hankel_data(
            [glm.GlmMode(np.zeros((1, 2)), 0.6, np.zeros((2, 1)), 0.5)], glm.FORWARD_BACKWARD, 1.0, 20
        )
        assert glm._data_edges(zero) == (0, 0)
        # constant data: no index sum has a tail below eps
        undamped = glm.build_hankel_data(
            [glm.GlmMode(0.1 * PAIR.bhat, 0.0, 0.1 * PAIR.b, 0.0)], glm.FORWARD_BACKWARD, 1.0, 6
        )
        assert glm._data_edges(undamped) == (13, 13)

    @pytest.mark.parametrize("nd, md", [(1, 1), (2, 1)])
    def test_windowed_matches_per_row(self, monkeypatch, nd, md):
        system, _ = self.tail_system(40, nd, md)
        assert glm._data_edges(system)[1] < 2 * 40 + 1
        windowed = glm.solve_glm(system)
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        per_row = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            assert np.abs(getattr(windowed, name) - getattr(per_row, name)).max() < 1e-12, name
        assert abs(windowed.min_rcond - per_row.min_rcond) <= 1e-9 * per_row.min_rcond

    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2)])
    def test_windowed_matches_full_width_bordering(self, monkeypatch, nd, md):
        system, _ = self.tail_system(40, nd, md)
        windowed = glm.solve_glm(system)
        edges = glm._data_edges
        # a window end at the lower edge borders every row over the whole width
        monkeypatch.setattr(glm, "_data_edges", lambda s, t: (edges(s, t)[0], 2 * s.window_n + 1))
        full = glm.solve_glm(system)
        for name in ("a", "b", "c", "d", "kminus_big"):
            x, y = getattr(windowed, name), getattr(full, name)
            # only the dropped terms and round-off differ
            assert (np.abs(x - y) <= 1e-14 * np.abs(y) + np.finfo(float).eps ** 2).all(), name
        assert abs(windowed.min_rcond - full.min_rcond) <= 1e-13 * full.min_rcond
        assert abs(windowed.factorization_residual - full.factorization_residual) <= 1e-15

    def test_short_windows_are_not_windowed(self, monkeypatch):
        # data whose tail sums stay above eps out to the lower edge border over
        # the whole trailing block, exactly as without a window
        systems = []
        for window in (7, 14):
            modes = [scaled_mode(1.0, 0.9, window), scaled_mode(1.15, 0.95, window, 0.4, 0.7)]
            for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
                systems.append(glm.build_hankel_data(modes, scheme, 1.0, window, 1, 0.3))
        solve = glm.solve_glm

        def recording_solve(system):
            systems.append(system)
            return solve(system)

        monkeypatch.setattr(glm, "solve_glm", recording_solve)
        assert verification.glm_suite().passed
        assert len(systems) == 4 + 6
        for system in systems:
            assert glm._data_edges(system)[1] == 2 * system.window_n + 1

    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2), (2, 1)])
    def test_bordering_stop_fills_columns_past_the_window(self, monkeypatch, nd, md):
        system, tail = self.tail_system(40, nd, md)
        end = glm._data_edges(system)[1]
        assert end < 2 * 40 + 1
        stops, border_rows = [], glm._border_rows

        def recording_border_rows(*args):
            out = border_rows(*args)
            stops.append(out[0])
            return out

        # rows near the data's peak have rcond below 0.9, so bordering stops
        # a few rows down and the rows above it are solved densely
        monkeypatch.setattr(glm, "RCOND_MIN", 0.9)
        monkeypatch.setattr(glm, "_border_rows", recording_border_rows)
        stopped = glm.solve_glm(system)
        rows_left = stops[0]
        assert 0 < rows_left < tail
        monkeypatch.setattr(glm, "BORDER_RESIDUAL_ULPS", 0.0)
        per_row = glm.solve_glm(system)
        # the bordered rows past E hold entries below eps, which the residual
        # guard cannot see, so they are compared against their own size
        for name in "abcd":
            ref = getattr(per_row, name)[rows_left:tail, end:]
            got = getattr(stopped, name)[rows_left:tail, end:]
            assert np.abs(ref).max() > 0, name
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def window_systems(seed):
    """The data of the glm-window benchmark at W = 7, 14, 28 and 40: both schemes, one and two modes.

    Seeded decay rates summing to at least 1.9, amplitudes scaled by
    exp(-2 W lam) so the core sits at the window centre.
    """
    rng = np.random.default_rng(seed)
    lam_hat, lam = rng.uniform(1.0, 1.1), rng.uniform(0.9, 1.0)
    time = rng.uniform(0.0, 0.3)
    systems = []
    for window in (7, 14, 28, 40):
        mode = glm.GlmMode(np.exp(-2 * window * lam_hat) * PAIR.bhat, lam_hat, np.exp(-2 * window * lam) * PAIR.b, lam)
        mode2 = glm.GlmMode(
            0.4 * np.exp(-2 * window * (lam_hat + 0.15)) * PAIR.bhat,
            lam_hat + 0.15,
            0.7 * np.exp(-2 * window * (lam + 0.05)) * PAIR.b,
            lam + 0.05,
        )
        for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
            for modes in ((mode,), (mode, mode2)):
                systems.append(glm.build_hankel_data(modes, scheme, 1.0, window, 1, time))
    return systems


def glm_suite_systems(monkeypatch):
    """The six systems that ``verification.glm_suite`` solves."""
    systems, solve = [], glm.solve_glm

    def recording_solve(system):
        systems.append(system)
        return solve(system)

    with monkeypatch.context() as m:
        m.setattr(glm, "solve_glm", recording_solve)
        assert verification.glm_suite().passed
    assert len(systems) == 6
    return systems


def bordering_stops(monkeypatch, system, border_rows):
    """``solve_glm(system)`` with ``border_rows`` as its bordering, and the rows each call left above."""
    stops = []

    def recording(*args):
        out = border_rows(*args)
        stops.append(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(glm, "_border_rows", recording)
        return glm.solve_glm(system), stops


class TestRankTermOperators:
    """The solve against row operators grown by a block row, a block column and a rank term per row.

    ``reference.border_rows`` grows I - F Fhat and I - Fhat F by three
    products per bordered row, and they start as I below the tail.  The
    library subtracts one rank term per row and folds the tail's terms in
    before the loop; K+ is bordered alike, so every output but min_rcond
    (the operators' norms) is bit-identical.
    """

    @staticmethod
    def assert_same_solve(monkeypatch, system):
        sol, stops = bordering_stops(monkeypatch, system, glm._border_rows)
        ref, ref_stops = bordering_stops(monkeypatch, system, reference.border_rows)
        assert stops == ref_stops
        for name in "abcd":
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
        assert sol.factorization_residual == ref.factorization_residual
        assert abs(sol.min_rcond - ref.min_rcond) <= 1e-14 * ref.min_rcond
        return stops

    @pytest.mark.parametrize("seed", [41, 42])
    def test_window_benchmark_data(self, monkeypatch, seed):
        for system in window_systems(seed):
            self.assert_same_solve(monkeypatch, system)

    def test_glm_suite_systems(self, monkeypatch):
        for system in glm_suite_systems(monkeypatch):
            self.assert_same_solve(monkeypatch, system)

    @pytest.mark.parametrize("window, nd, md", [(40, 1, 2), (40, 2, 1), (80, 2, 1)])
    def test_rectangular_blocks(self, monkeypatch, window, nd, md):
        system, _ = TestSolve.tail_system(window, nd, md)
        self.assert_same_solve(monkeypatch, system)

    @pytest.mark.parametrize("nd, md", [(1, 1), (1, 2), (2, 1)])
    def test_bordering_stop(self, monkeypatch, nd, md):
        system, tail = TestSolve.tail_system(40, nd, md)
        # rows near the data's peak have rcond below 0.9: bordering stops a few rows down
        monkeypatch.setattr(glm, "RCOND_MIN", 0.9)
        (rows_left,) = self.assert_same_solve(monkeypatch, system)
        assert 0 < rows_left < tail


class TestClosedFormPerIndexSum:
    """``one_soliton_closed_form`` against its elementwise form (``reference.one_soliton_closed_form``)."""

    @pytest.mark.parametrize("window", [7, 40, 200])
    @pytest.mark.parametrize("scheme", [glm.FORWARD_BACKWARD, glm.SYMMETRIC])
    def test_bit_identical(self, window, scheme):
        mode = scaled_mode(0.65, 0.55, window)
        kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
        got = glm.one_soliton_closed_form(mode, kappa, window, 0.3, scheme)
        ref = reference.one_soliton_closed_form(mode, kappa, window, 0.3, scheme)
        for x, y in zip(got, ref):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("fn", [glm.one_soliton_closed_form, reference.one_soliton_closed_form])
    def test_errors(self, fn):
        with pytest.raises(DegenerateMode):
            fn(glm.GlmMode(PAIR.bhat, -0.5, PAIR.b, 0.5), 1.0, 4, 0.0)
        # the default mode at W = 300: h_k overflows at k = -W while kappa is subnormal
        (params,) = cli._default_glm_modes(1, 300)
        mode = glm.GlmMode(
            np.array([[complex(*params["bhat"])]]),
            complex(*params["lam_hat"]),
            np.array([[complex(*params["b"])]]),
            complex(*params["lam"]),
        )
        with pytest.raises(ModeOverflow, match="closed form leaves float range"):
            fn(mode, complex(mode.amp_hat[0, 0] * mode.amp[0, 0]), 300, 0.0)


def assembled_kplus(sol):
    """K+ assembled from the solution's blocks, site-major."""
    size, nd, md = 2 * sol.window_n + 1, sol.n_dim, sol.m_dim
    dim = nd + md
    grid = np.zeros((size, size, dim, dim), dtype=complex)
    grid[..., :nd, :nd], grid[..., :nd, nd:] = sol.a, sol.b
    grid[..., nd:, :nd], grid[..., nd:, nd:] = sol.c, sol.d
    return grid.transpose(0, 2, 1, 3).reshape(size * dim, size * dim)


def assembled_residual(system, sol):
    """(I + K+)(I + F) - I assembled from the solution's blocks, and the mask of its upper block part."""
    size, nd, md = 2 * sol.window_n + 1, sol.n_dim, sol.m_dim
    dim = nd + md
    kplus = assembled_kplus(sol)
    hankel = np.add.outer(np.arange(size), np.arange(size))
    big_f = np.zeros((size, size, dim, dim), dtype=complex)
    big_f[..., :nd, nd:], big_f[..., nd:, :nd] = system.fhat[hankel], system.f[hankel]
    big_f = big_f.transpose(0, 2, 1, 3).reshape(kplus.shape)
    upper = np.kron(np.triu(np.ones((size, size))), np.ones((dim, dim))) > 0
    return kplus + big_f + kplus @ big_f, upper


def refined_row_solve(op, rhs, steps=2):
    """Solve row @ op = rhs near the float64 rounding of the exact solution.

    op and rhs are extended precision; the float64 solve is refined with
    residuals formed in extended precision, so the reference's own round-off
    stays well below the bound it holds ``solve_glm`` to.
    """
    op64 = op.astype(complex)
    row = np.linalg.solve(op64.T, rhs.astype(complex).T).T
    for _ in range(steps):
        res = rhs - row @ op
        row = row + np.linalg.solve(op64.T, res.astype(complex).T).T
    return row


def reference_solve(system):
    """The factorization equations solved block by block, one row at a time.

    Sums and products run in extended precision (``np.clongdouble``) and each
    row solve is refined (see ``refined_row_solve``).  Also returns, as
    ``min_rcond``, the smallest reciprocal condition number
    1 / (|op|_inf |op^-1|_inf) over the row operators.
    """
    n, nd, md = system.window_n, system.n_dim, system.m_dim
    f_ext, fh_ext = system.f.astype(np.clongdouble), system.fhat.astype(np.clongdouble)

    def f(m):
        return f_ext[m + 2 * n]

    def fh(m):
        return fh_ext[m + 2 * n]

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
            op = np.eye(w * ox, dtype=np.clongdouble)
            for p, lp in enumerate(ls):
                for q, j in enumerate(ls):
                    gram = sum(diag(lp + l) @ off(l + j) for l in ls)
                    op[p * ox : (p + 1) * ox, q * ox : (q + 1) * ox] -= gram
            rhs = np.hstack([off(i + j) for j in ls])
            row = refined_row_solve(op, -rhs)
            op64 = op.astype(complex)
            rcond = 1 / (np.linalg.norm(op64, np.inf) * np.linalg.norm(np.linalg.inv(op64), np.inf))
            out["min_rcond"] = min(out["min_rcond"], rcond)
            for q, j in enumerate(ls):
                out[x][i + n, j + n] = row[:, q * ox : (q + 1) * ox]
            # y(i, j) = -sum_l x(i, l) diag(l + j)
            for j in ls:
                out[y][i + n, j + n] = -sum(out[x][i + n, l + n] @ diag(l + j) for l in ls)
    kplus = np.zeros((size * dim, size * dim), dtype=np.clongdouble)
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
    out["kminus_big"] = np.zeros(prod.shape, dtype=complex)
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

        assert _glm_local_field_match() < 1e-8

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
