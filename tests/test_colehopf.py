import numpy as np
import pytest

from lattice_akns import colehopf as ch
from lattice_akns.errors import LogBranch, SingularTime


class TestMap:
    def test_constant_data(self):
        mapped = ch.cole_hopf_forward(ch.heat_trajectory([(3.0, 1.0)]), 10, 0.5)
        assert np.abs(mapped.u).max() == 0
        assert mapped.potential_residual == 0
        assert mapped.burgers_residual == 0

    def test_single_geometric_mode(self):
        # base 2 gives the constant slope ln 2 and rate (2-1)^2 = 1
        mapped = ch.cole_hopf_forward(ch.heat_trajectory([(1.0, 2.0)]), 10, 0.2)
        assert np.abs(mapped.u - np.log(2.0)).max() < 1e-14
        assert mapped.burgers_residual < 1e-12

    def test_two_mode_exact_identities(self):
        heat = ch.heat_trajectory([(2.0, 1.2), (0.5, 0.8)])
        mapped = ch.cole_hopf_forward(heat, 24, 0.3)
        assert mapped.potential_residual < 1e-10
        assert mapped.burgers_residual < 1e-10

    def test_complex_modes_with_branch_tracking(self):
        heat = ch.heat_trajectory([(2.0, 1.1 + 0.1j), (0.4, 0.9)])
        mapped = ch.cole_hopf_forward(heat, 16, 0.2)
        assert mapped.burgers_residual < 1e-10
        # the potential reconstructs the data without branch jumps
        ns = np.arange(1, 17)
        assert np.abs(np.exp(mapped.y) - heat.evaluate(ns, 0.2)).max() < 1e-12

    def test_sign_change_rejected(self):
        # data flips sign between sites 2 and 3, so the ratio log hits the cut
        heat = ch.heat_trajectory([(1.0, 1.0), (-0.5, 1.5)])
        with pytest.raises(LogBranch):
            ch.cole_hopf_forward(heat, 12, 0.0)


class TestTruncation:
    def test_zero_amplitude(self):
        report = ch.burgers_truncation_order(0.0)
        assert report.residual_sq == (0.0, 0.0)

    @pytest.mark.parametrize("delta", [0.1, 0.05])
    def test_halving_ratio_third_order(self, delta):
        report = ch.burgers_truncation_order(delta)
        assert 6.0 <= report.ratio_sq <= 10.0
        assert 6.0 <= report.ratio_potential <= 10.0

    def test_difference_of_squares_variant_is_fourth_order(self):
        report = ch.burgers_truncation_order(0.05)
        assert 12.0 <= report.ratio_diffsq <= 20.0

    def test_fitted_constant_stable(self):
        r1 = ch.burgers_truncation_order(0.1)
        r2 = ch.burgers_truncation_order(0.05)
        # C in r ~ C delta^3 at both refinement levels of both reports
        values = [r.residual_sq[k] / (r.delta / 2**k) ** 3 for r in (r1, r2) for k in (0, 1)]
        assert max(values) / min(values) < 1.2


class TestContinuum:
    def test_grid_validation(self):
        with pytest.raises(SingularTime):
            ch.ContinuumGrid(-1, 1, 0.02, 0.0, 1.0, 0.01)
        with pytest.raises(SingularTime):
            ch.ContinuumGrid(-1, 1, 0.02, 0.005, 1.0, 0.01)  # stencil hits t <= 0
        with pytest.raises(ValueError):
            ch.ContinuumGrid(-1, 1, -0.02, 0.5, 1.0, 0.01)

    def test_point_values(self):
        u, uhat = ch.heat_kernel_pair()
        assert u(0.0, 1.0) == 1.0
        assert uhat(0.0, 1.0) == 0.5

    def test_heat_kernel_pair_second_order(self):
        grid = ch.ContinuumGrid(-1.0, 1.0, 0.02, 0.5, 1.0, 0.01)
        rep = ch.verify_continuum_nls(grid)
        assert 3.5 <= rep.ratio_u <= 4.5
        assert 3.5 <= rep.ratio_uhat <= 4.5

    def test_two_mode_pair_second_order(self):
        grid = ch.ContinuumGrid(-1.0, 1.0, 0.02, 0.5, 1.0, 0.01)
        rep = ch.verify_continuum_nls(grid, "two-mode")
        assert 3.5 <= rep.ratio_u <= 4.5
        assert 3.5 <= rep.ratio_uhat <= 4.5

    def test_two_mode_pair_solves_exactly(self):
        # residual should shrink with the grid, confirming the pair is exact
        grid_f = ch.ContinuumGrid(-1.0, 1.0, 0.005, 0.5, 1.0, 0.0025)
        rep = ch.verify_continuum_nls(grid_f, "two-mode")
        assert rep.residual_u[1] < 2e-5
