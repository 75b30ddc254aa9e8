import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import spectral as sp
from fkpeaks.errors import EigensolverError, ParameterError
from tests_support import NEEDS_SCHEDSTAT, integrate, other_threads_ns


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


class TestLanczos:
    def test_repeated_eigenvalues_through_breakdowns(self):
        # three distinct eigenvalues: every Krylov space turns invariant
        # after three steps, so each copy of 0.5 past the first comes from
        # a vector the loop starts again from
        d = np.repeat([0.5, 1.0, 3.0], [4, 20, 40])
        vals, vecs = kn.lanczos_smallest(lambda v: d * v, d.size, 5)
        assert vals == pytest.approx([0.5, 0.5, 0.5, 0.5, 1.0], abs=1e-14)
        assert np.abs(d[:, None] * vecs - vecs * vals).max() < 1e-13
        assert np.abs(vecs.T @ vecs - np.eye(5)).max() < 1e-13

    def test_budget_stops_a_loop_that_never_converges(self):
        # eigenvalues (i/500)^4 cluster at 0, where the Ritz estimates must
        # fall below 1e-10 of eps^(2/3): Lanczos runs to its budget, which
        # it checks once per fill of the 20-vector basis, and the residuals
        # take n more applies
        d = (np.arange(1, 501) / 500) ** 4
        applies = []

        def matvec(v):
            applies.append(1)
            return d * v

        with pytest.raises(EigensolverError, match="budget") as info:
            kn.lanczos_smallest(matvec, d.size, 2)
        assert kn.LANCZOS_BUDGET <= len(applies) - 2 < kn.LANCZOS_BUDGET + 20
        assert len(info.value.ritz_residuals) == 2
        assert all(r > 0.0 for r in info.value.ritz_residuals)

    def test_reorthogonalises_only_where_orthogonality_is_lost(
            self, monkeypatch):
        # a low cluster under a spectrum reaching 1e3: the top Ritz values
        # converge within a few dozen steps, and the basis loses its
        # orthogonality along them, so the full pass must run, on few steps
        d = np.concatenate([[1e-3, 1.5e-3, 2e-3], np.linspace(1.0, 1e3, 1997)])
        passes, applies = [], []
        orthogonalise = kn._orthogonalise

        def counted(*args):
            passes.append(1)
            return orthogonalise(*args)

        def matvec(v):
            applies.append(1)
            return d * v

        monkeypatch.setattr(kn, "_orthogonalise", counted)
        vals, vecs = kn.lanczos_smallest(matvec, d.size, 3)
        top = np.abs(d).max()
        assert np.abs(vals - np.sort(d)[:3]).max() <= 1e-12 * top
        assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-12
        residuals = np.sqrt(((d[:, None] * vecs - vecs * vals) ** 2).sum(0))
        assert residuals.max() <= 1e-10 * top
        assert 0 < len(passes) < len(applies)


@NEEDS_SCHEDSTAT
def test_kernel_report_runs_on_the_calling_thread_only():
    # kernel2d's L+ on 112^2, the smallest grid on which ARPACK's
    # reorthogonalisation woke an OpenBLAS worker on every run (about
    # 0.4 s of its CPU): no library worker thread runs during the report
    grid = sp.GridSpec(2, 8.0, 112)
    base = gs.solve_Q(grid, 0.75, 2.0)
    params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
    op = kn.LinearizedOperator.from_kirchhoff(
        gs.kirchhoff_scale(base, params, c=1.0))
    report, added = other_threads_ns(lambda: kn.kernel_report(op, n=5))
    assert report["kernel_dim"] == 2
    assert all(ns == 0 for ns in added.values()), added


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
