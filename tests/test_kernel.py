import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import spectral as sp
from fkpeaks.errors import (EigensolverError, GridMismatchError,
                             ParameterError)


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
        for mode in kn.translation_modes(operator):
            out = kn.apply_Lplus(operator, mode)
            rel = np.sqrt((out.values**2).sum() / (mode.values**2).sum())
            assert rel < 1e-5

    def test_degenerate_profile_reduces_to_shifted_laplacian(self):
        grid = sp.GridSpec(1, 10.0, 128)
        op = kn.LinearizedOperator(
            profile=sp.Field.zeros(grid), s=0.6, p=2.0,
            coefficient=1.7, b=0.0, c=1.0,
        )
        xi0 = grid.wavenumbers_axis[4]
        f = sp.Field.from_function(grid, lambda x: np.cos(xi0 * x))
        out = kn.apply_Lplus(op, f)
        expected = (1.7 * abs(xi0) ** 1.2 + 1.0) * f.values
        assert np.abs(out.values - expected).max() < 1e-12 * np.abs(
            expected).max()

    def test_profile_itself_not_in_kernel(self, operator, ground):
        out = kn.apply_Lplus(operator, ground.profile)
        rel = np.sqrt(
            (out.values**2).sum() / (ground.profile.values**2).sum()
        )
        assert rel > 0.1

    def test_symmetric(self, operator):
        f = sp.random_band_limited(operator.grid, 2.0, seed=21)
        g = sp.random_band_limited(operator.grid, 2.0, seed=22)
        lhs = sp.inner(kn.apply_Lplus(operator, f), g)
        rhs = sp.inner(kn.apply_Lplus(operator, g), f)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_grid_mismatch(self, operator):
        other = sp.GridSpec(1, 5.0, 64)
        with pytest.raises(GridMismatchError):
            kn.apply_Lplus(operator, sp.Field.zeros(other))


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
        profile = sp.Field.from_function(
            grid, lambda x: 1.5 * np.exp(-(x - 0.3) ** 2))
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
            profile=sp.Field.zeros(grid), s=0.6, p=2.0,
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
            assert sp.integrate(sp.Field(f.grid, f.values**2)) == \
                pytest.approx(1.0, rel=1e-10)


class TestSystemPeakOperator:
    def test_translation_mode_for_system_peak(self, frac_q, frac_params):
        system = gs.solve_system(frac_q, frac_params, [1.0, 1.5])
        op = kn.LinearizedOperator.from_system_peak(system, 1)
        mode = kn.translation_modes(op)[0]
        out = kn.apply_Lplus(op, mode)
        rel = np.sqrt((out.values**2).sum() / (mode.values**2).sum())
        assert rel < 1e-4
