import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import spectral as sp
from fkpeaks.errors import EigensolverError, ParameterError
from tests_support import integrate


@pytest.fixture(scope="module")
def ground(frac_params):
    # default resolution for the translation-kernel invariant
    grid = sp.GridSpec(1, 30.0, 1024)
    base = gs.solve_Q(grid, 0.4, 2.0, tol=1e-11)
    return gs.kirchhoff_scale(base, frac_params, c=1.0)


@pytest.fixture(scope="module")
def operator(ground):
    return kn.LinearizedOperator.from_kirchhoff(ground)


class TestApplyLplus:
    def test_translation_mode_annihilated(self, operator):
        for j in range(operator.grid.dim):
            mode = sp.derivative(operator.profile, j)
            out = operator.apply_values(mode.values)
            rel = np.sqrt((out**2).sum() / (mode.values**2).sum())
            assert rel < 1e-5

    def test_degenerate_profile_reduces_to_shifted_laplacian(self):
        grid = sp.GridSpec(1, 10.0, 128)
        op = kn.LinearizedOperator(
            profile=sp.Field(grid, np.zeros(grid.shape)), s=0.6, p=2.0,
            coefficient=1.7, b=0.0, c=1.0,
        )
        xi0 = grid.wavenumbers_axis[4]
        f = sp.Field(grid, np.cos(xi0 * grid.axis))
        out = op.apply_values(f.values)
        expected = (1.7 * abs(xi0) ** 1.2 + 1.0) * f.values
        assert np.abs(out - expected).max() < 1e-12 * np.abs(
            expected).max()

    def test_profile_itself_not_in_kernel(self, operator, ground):
        out = operator.apply_values(ground.profile.values)
        rel = np.sqrt(
            (out**2).sum() / (ground.profile.values**2).sum()
        )
        assert rel > 0.1

    def test_symmetric(self, operator):
        f = sp.random_band_limited(operator.grid, 2.0, seed=21)
        g = sp.random_band_limited(operator.grid, 2.0, seed=22)
        grid = operator.grid
        lhs = integrate(grid, operator.apply_values(f.values) * g.values)
        rhs = integrate(grid, operator.apply_values(g.values) * f.values)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_s_outside_range_rejected(self):
        grid = sp.GridSpec(1, 10.0, 64)
        with pytest.raises(ParameterError, match="s must lie in"):
            kn.LinearizedOperator(
                profile=sp.Field(grid, np.zeros(grid.shape)), s=1.5, p=2.0,
                coefficient=1.0, b=0.0, c=1.0,
            )


@pytest.fixture(scope="module")
def small_operator(frac_params):
    grid = sp.GridSpec(1, 15.0, 512)
    base = gs.solve_Q(grid, 0.4, 2.0, tol=1e-11)
    ground = gs.kirchhoff_scale(base, frac_params, c=1.0)
    return kn.LinearizedOperator.from_kirchhoff(ground)


@pytest.fixture(scope="module")
def operator_2d():
    # two-dimensional kernel: small enough for the dense oracle
    grid = sp.GridSpec(2, 6.0, 32)
    base = gs.solve_Q(grid, 0.75, 2.0, tol=1e-11)
    params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
    ground = gs.kirchhoff_scale(base, params, c=1.0)
    return kn.LinearizedOperator.from_kirchhoff(ground)


class TestKernelSpectrum:
    def test_kernel_dimension_and_alignment(self, small_operator):
        report = kn.kernel_report(small_operator, n=6)
        assert report["kernel_dim"] == 1
        assert all(c > 0.99 for c in report["kernel_cosines"])
        assert report["gap_ratio"] > 10.0

    def test_one_negative_direction(self, small_operator):
        # Morse-index diagnostic, not a quantitative claim
        report = kn.kernel_report(small_operator, n=6)
        assert report["negative_count"] == 1

    @pytest.mark.parametrize("name", ["small_operator", "operator_2d"])
    def test_dense_agrees_with_iterative(self, name, request):
        op = request.getfixturevalue(name)
        it_pairs = kn.kernel_spectrum(op, 4, method="iterative")
        de_pairs = kn.kernel_spectrum(op, 4, method="dense")
        for (li, _), (ld, _) in zip(it_pairs, de_pairs):
            assert li == pytest.approx(ld, abs=1e-8)
        assert max(kn.kernel_report(op, n=4)["pair_residuals"]) <= 1e-8

    def test_largest_n_on_smallest_grid(self):
        # n = 2N + 4 on 16 points: the Lanczos subspace is capped below the
        # grid size; an off-centre profile keeps the eigenvalues simple
        grid = sp.GridSpec(1, 4.0, 16)
        profile = sp.Field(grid, 1.5 * np.exp(-(grid.axis - 0.3) ** 2))
        op = kn.LinearizedOperator(profile=profile, s=0.4, p=2.0,
                                   coefficient=1.2, b=0.1, c=1.0)
        n = 2 * grid.dim + 4
        it_pairs = kn.kernel_spectrum(op, n, method="iterative")
        de_pairs = kn.kernel_spectrum(op, n, method="dense")
        for (li, _), (ld, _) in zip(it_pairs, de_pairs):
            assert li == pytest.approx(ld, abs=1e-8)
        assert max(kn.kernel_report(op, n=n)["pair_residuals"]) <= 1e-8

    def test_uncertified_magnitudes_raise(self):
        # every low eigenvalue of |xi|^2s - 5 sits near -5, far from the
        # smallest magnitudes near |xi|^2s = 5
        grid = sp.GridSpec(1, 10.0, 128)
        op = kn.LinearizedOperator(
            profile=sp.Field(grid, np.zeros(grid.shape)), s=0.6, p=2.0,
            coefficient=1.0, b=0.0, c=-5.0,
        )
        with pytest.raises(EigensolverError):
            kn.kernel_spectrum(op, 3)

    def test_gap_quantitative(self, small_operator):
        pairs = kn.kernel_spectrum(small_operator, 3, method="iterative")
        absvals = sorted(abs(lam) for lam, _ in pairs)
        assert absvals[0] < 1e-4
        assert absvals[1] >= 10.0 * max(absvals[0], 1e-5)

    def test_n_bound(self, small_operator):
        with pytest.raises(ParameterError):
            kn.kernel_spectrum(small_operator, 2 * 1 + 5)

    def test_report_needs_more_pairs_than_the_kernel(self, small_operator):
        # at n <= N the kernel eigenvalue may be the largest computed, and
        # a roundoff sign then refuses the pick: the report asks for N + 1
        with pytest.raises(ParameterError, match=r"n >= N \+ 1 = 2, got 1"):
            kn.kernel_report(small_operator, n=1)

    def test_report_is_json_serializable(self, small_operator):
        import json
        report = kn.kernel_report(small_operator, n=4)
        text = json.dumps(report)
        assert "kernel_dim" in text

    def test_pair_residuals_reported(self, small_operator):
        report = kn.kernel_report(small_operator, n=4)
        res = report["pair_residuals"]
        assert len(res) == len(report["eigenvalues"])
        # pairs come sorted by |lambda|: the first is the translation mode
        assert report["kernel_dim"] == 1
        assert res[0] < 1e-6

    def test_eigenfields_l2_normalized(self, small_operator):
        pairs = kn.kernel_spectrum(small_operator, 3)
        for _, f in pairs:
            assert integrate(f.grid, f.values**2) == pytest.approx(
                1.0, rel=1e-10)


class TestSystemPeakOperator:
    def test_translation_mode_for_system_peak(self, frac_q, frac_params):
        system = gs.solve_system(frac_q, frac_params, [1.0, 1.5])
        op = kn.LinearizedOperator(
            profile=system.profiles[1], s=frac_params.s, p=frac_params.p,
            coefficient=system.kirchhoff_coefficient,
            b=frac_params.b, c=system.peak_values[1],
        )
        mode = sp.derivative(op.profile, 0)
        out = op.apply_values(mode.values)
        rel = np.sqrt((out**2).sum() / (mode.values**2).sum())
        assert rel < 1e-4
