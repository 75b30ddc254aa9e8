import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks.errors import (BoundaryMinimizerWarning, EigensolverError,
                            IterationError, ParameterError)
from tests_support import TRUNCATES_BY_DESIGN


@pytest.fixture(scope="module")
def params_1d():
    return sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)


@pytest.fixture(scope="module")
def grid_1d():
    return sp.GridSpec(1, 4.0, 1024)


@pytest.fixture(scope="module")
def well_1d():
    return rd.Potential.single_well([0.3], 1.0, [1.0], m=2.0, holder=1.0,
                                    asym=0.15, asym_power=3.0)


@pytest.fixture(scope="module")
def reducer_1d(grid_1d, params_1d, well_1d):
    return rd.Reducer(grid_1d, params_1d, well_1d)


class TestPotential:
    def test_single_well_expansion(self, well_1d):
        # (V3): remainder after removing the power expansion is O(|x-a|^(m+1))
        assert well_1d.expansion_remainder(0, [0.05, 0.1, 0.2]) < 1.0

    def test_peak_values(self, well_1d):
        assert well_1d(np.array([0.3])) == pytest.approx(1.0)
        assert well_1d.peak_values[0] == pytest.approx(1.0)

    def test_strict_local_minimum(self, well_1d):
        # (V2) on a sampled shell
        for r in (0.05, 0.2, 0.4):
            assert well_1d(np.array([0.3 + r])) > 1.0
            assert well_1d(np.array([0.3 - r])) > 1.0

    def test_gradient_analytic_vs_fd(self, well_1d):
        pts = np.array([[0.45], [0.1]])
        g = well_1d.gradient(pts, 0)
        h = 1e-6
        fd = (well_1d(pts + [h]) - well_1d(pts - [h])) / (2 * h)
        assert np.abs(g - fd).max() < 1e-6

    def test_multi_well_plateau_exact(self):
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.5],
            coeffs=[[1.0], [2.0]], m=2.0, far_value=2.5, plateau=0.6,
        )
        # exact expansion inside the plateau
        x = np.array([[-0.8], [-1.3], [1.2]])
        expected = np.array([1.0 + 0.04, 1.0 + 0.09, 1.5 + 2.0 * 0.04])
        assert np.abs(pot(x) - expected).max() < 1e-12
        assert pot.min_separation == pytest.approx(2.0)

    def test_overlapping_plateaus_rejected(self):
        with pytest.raises(ParameterError):
            rd.Potential.multi_well(
                centers=[[-0.3], [0.3]], values=[1.0, 1.0],
                coeffs=[[1.0], [1.0]], m=2.0, far_value=2.0, plateau=0.5,
            )

    def test_invalid_exponents(self):
        with pytest.raises(ParameterError):
            rd.Potential.single_well([0.0], 1.0, [1.0], m=1.0)
        with pytest.raises(ParameterError):
            rd.Potential.single_well([0.0], 1.0, [0.0], m=2.0)

    def test_nonpositive_rejected_on_grid(self):
        pot = rd.Potential.single_well([0.0], 1.0, [1.0], m=2.0,
                                       asym=-5.0, asym_power=3.0)
        grid = sp.GridSpec(1, 4.0, 64)
        with pytest.raises(ParameterError):
            pot.on_grid(grid)


class TestPeakConfig:
    def test_admissibility(self, well_1d):
        cfg = rd.PeakConfig(0.1, [[0.35]], delta=0.5, theta=0.8)
        ok, _ = cfg.admissibility(well_1d)
        assert ok
        far = rd.PeakConfig(0.1, [[0.95]], delta=0.5, theta=0.8)
        ok, why = far.admissibility(well_1d)
        assert not ok and "drift" in why

    def test_separation_constraint(self):
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.0],
            coeffs=[[1.0], [1.0]], m=2.0, far_value=2.0, plateau=0.6,
        )
        # |y1 - y2| = 0.1 < eps^theta = 0.2^0.8 = 0.276
        cfg = rd.PeakConfig(0.2, [[-0.05], [0.05]], delta=1.2, theta=0.8)
        ok, why = cfg.admissibility(pot)
        assert not ok and "separation" in why

    def test_theta_window(self):
        cfg = rd.PeakConfig(0.1, [[0.0]], delta=0.5, theta=0.8)
        lo, hi = cfg.theta_window(s=0.4, holder=1.0)
        assert lo == pytest.approx(1.8 / 2.8)
        assert lo < cfg.theta < hi

    def test_basic_validation(self):
        with pytest.raises(ParameterError):
            rd.PeakConfig(-0.1, [[0.0]], delta=0.5, theta=0.8)
        with pytest.raises(ParameterError):
            rd.PeakConfig(0.1, [[0.0]], delta=0.5, theta=1.2)

    def test_frame_rejects_configuration_outside_domain(self, reducer_1d):
        far = rd.PeakConfig(0.1, [[0.95]], delta=0.5, theta=0.8)
        with pytest.raises(ParameterError, match="outside D_eps_delta"):
            reducer_1d.frame(far)
        with pytest.raises(ParameterError, match="outside D_eps_delta"):
            rd.solve_correction(reducer_1d, far)


class TestEpsInner:
    def test_matches_hs_norm(self, params_1d):
        grid = sp.GridSpec(1, 10.0, 256)
        f = sp.random_band_limited(grid, 4.0, seed=31)
        # eps chosen so eps^2s a = 1
        eps = 1.0
        val = rd.eps_inner(f, f, eps, 1.0, params_1d)
        expected = (params_1d.a * sp.seminorm_sq(f, params_1d.s)
                    + sp.integrate(sp.Field(grid, f.values**2)))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_plane_waves(self, params_1d):
        grid = sp.GridSpec(1, 10.0, 256)
        x1 = grid.wavenumbers_axis[3]
        x2 = grid.wavenumbers_axis[7]
        f = sp.Field.from_function(grid, lambda x: np.cos(x1 * x))
        g = sp.Field.from_function(grid, lambda x: np.cos(x2 * x))
        assert abs(rd.eps_inner(f, g, 0.3, 1.0, params_1d)) < 1e-12

    def test_symmetric(self, params_1d):
        grid = sp.GridSpec(1, 10.0, 128)
        f = sp.random_band_limited(grid, 4.0, seed=41)
        g = sp.random_band_limited(grid, 4.0, seed=42)
        a = rd.eps_inner(f, g, 0.2, 1.3, params_1d)
        b = rd.eps_inner(g, f, 0.2, 1.3, params_1d)
        assert a == b

    def test_mass_lower_bound(self, params_1d, well_1d):
        grid = sp.GridSpec(1, 4.0, 256)
        f = sp.random_band_limited(grid, 6.0, seed=5)
        norm_sq = rd.eps_inner(f, f, 0.1, well_1d, params_1d)
        mass = sp.integrate(sp.Field(grid, f.values**2))
        inf_v = well_1d.on_grid(grid).min()
        assert norm_sq >= inf_v * mass - 1e-12


@TRUNCATES_BY_DESIGN
class TestBuildAnsatz:
    def test_exact_translate_single_peak(self, reducer_1d, grid_1d):
        # y on a grid point: the ansatz is the exact index roll of the
        # centered profile
        h = grid_1d.spacing
        shift = 64 * h
        pot = rd.Potential.single_well([shift], 1.0, [1.0], m=2.0)
        red = rd.Reducer(grid_1d, reducer_1d.params, pot)
        cfg = rd.PeakConfig(0.1, [[shift]], delta=0.5, theta=0.8)
        ansatz = red.frame(cfg).U
        centered = red.system(0.1).profiles[0].values
        rolled = np.roll(centered, 64)
        assert np.abs(ansatz.values - rolled).max() < 1e-11 * centered.max()

    def test_two_peak_cross_term(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)
        grid = sp.GridSpec(1, 8.0, 2048)
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.0],
            coeffs=[[1.0], [1.0]], m=2.0, far_value=2.0, plateau=0.6,
        )
        red = rd.Reducer(grid, params, pot)
        cfg = rd.PeakConfig(0.02, pot.peaks, delta=0.5, theta=0.8)
        fr = red.frame(cfg)
        total_sq = sp.integrate(sp.Field(grid, fr.U.values**2))
        parts_sq = sum(
            sp.integrate(sp.Field(grid, f.values**2)) for f in fr.peak_fields
        )
        cross = sp.integrate(sp.Field(
            grid, fr.peak_fields[0].values * fr.peak_fields[1].values))
        assert total_sq == pytest.approx(parts_sq + 2 * cross, rel=1e-12)
        assert abs(cross) < 0.01 * parts_sq

    def test_eps_norm_scaling(self, reducer_1d, params_1d, well_1d):
        # ||ansatz||_eps^2 = O(eps^N): ratio stable under halving within 5%
        ratios = []
        for eps in (0.06, 0.03):
            cfg = rd.PeakConfig(eps, [[0.3]], delta=0.5, theta=0.8)
            u = reducer_1d.frame(cfg).U
            nrm = rd.eps_inner(u, u, eps, well_1d, params_1d)
            ratios.append(nrm / eps)
        assert abs(ratios[1] - ratios[0]) < 0.05 * ratios[0]


@TRUNCATES_BY_DESIGN
class TestEll:
    def test_zero_phi(self, reducer_1d):
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        z = sp.Field.zeros(reducer_1d.grid)
        assert reducer_1d.frame(cfg).ell(z.values) == 0.0

    def test_frozen_potential_critical_point(self, params_1d, grid_1d):
        pot = rd.Potential.constant(1.0, dim=1)
        red = rd.Reducer(grid_1d, params_1d, pot, profile_tol=1e-12)
        cfg = rd.PeakConfig(0.05, [[0.0]], delta=0.5, theta=0.8)
        phi = sp.random_band_limited(grid_1d, 40.0, seed=3)
        val = red.frame(cfg).ell(phi.values)
        norm = rd.eps_norm(phi, 0.05, pot, params_1d)
        assert abs(val) / norm < 1e-11

    def test_smallness_exponent(self, grid_1d):
        # m smaller than (N+4s)/2 so the predicted exponent N/2 + m is clean
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)
        pot = rd.Potential.single_well([0.3], 1.0, [1.0], m=1.2, holder=1.0)
        red = rd.Reducer(grid_1d, params, pot)
        eps_list = (0.08, 0.04, 0.02, 0.01)
        norms = []
        for eps in eps_list:
            cfg = rd.PeakConfig(eps, [[0.3]], delta=0.5, theta=0.8)
            norms.append(red.frame(cfg).ell_norm())
        slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
        predicted = 0.5 + 1.2
        assert abs(slope - predicted) < 0.15 * predicted


@TRUNCATES_BY_DESIGN
class TestApplyLeps:
    def test_symmetric_form(self, reducer_1d):
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        f = sp.random_band_limited(reducer_1d.grid, 10.0, seed=51)
        g = sp.random_band_limited(reducer_1d.grid, 10.0, seed=52)
        fr = reducer_1d.frame(cfg)
        lf = sp.Field(reducer_1d.grid, fr.L.apply_values(f.values))
        lg = sp.Field(reducer_1d.grid, fr.L.apply_values(g.values))
        lhs = sp.inner(lf, g)
        rhs = sp.inner(lg, f)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_matches_kernel_operator_when_b_zero(self):
        # b=0, k=1, eps=1, V constant: L_eps action equals the kernel
        # module's L+ with the a-coefficient only
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        grid = sp.GridSpec(1, 30.0, 1024)
        pot = rd.Potential.constant(1.3, dim=1)
        red = rd.Reducer(grid, params, pot)
        cfg = rd.PeakConfig(1.0, [[0.0]], delta=0.5, theta=0.8)
        fr = red.frame(cfg)
        op = kn.LinearizedOperator(
            profile=fr.U, s=0.4, p=2.0, coefficient=1.0, b=0.0, c=1.3,
        )
        phi = sp.random_band_limited(grid, 3.0, seed=61)
        via_reduction = fr.L.apply_values(phi.values)
        via_kernel = kn.apply_Lplus(op, phi)
        diff = np.abs(via_reduction - via_kernel.values).max()
        assert diff < 1e-12 * np.abs(via_kernel.values).max()

    def test_conjugated_apply_matches_plain_apply(self):
        # the fused 4-transform m L m against m (L (m v)) on E_{eps,y}, 2D
        params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
        grid = sp.GridSpec(2, 2.5, 64)
        pot = rd.Potential.single_well([0.1, -0.1], 1.0, [1.0, 1.5], m=2.0)
        red = rd.Reducer(grid, params, pot)
        fr = red.frame(rd.PeakConfig(0.25, [[0.1, -0.1]], delta=0.4,
                                     theta=0.8))
        v = sp.random_band_limited(grid, 8.0, seed=5).values
        v = fr.project(v.ravel()).reshape(grid.shape)
        m = fr.p0_isqrt

        def mult(x):
            return sp._ifftn(m * sp._fftn(x))

        fused = fr.L.apply_conjugated(v, m)
        plain = mult(fr.L.apply_values(mult(v)))
        assert np.abs(fused - plain).max() < 1e-12 * np.abs(plain).max()

    def test_coercive_on_constraint_complement(self, reducer_1d):
        cfg = rd.PeakConfig(0.05, [[0.3]], delta=0.5, theta=0.8)
        rho = reducer_1d.frame(cfg).coercivity()
        assert rho > 0.0

    @pytest.mark.filterwarnings("ignore:Exited")
    def test_unconverged_coercivity_raises(self, reducer_1d):
        cfg = rd.PeakConfig(0.05, [[0.3]], delta=0.5, theta=0.8)
        with pytest.raises(EigensolverError):
            reducer_1d.frame(cfg).coercivity(maxiter=2)

    def test_quadratic_form_matches_energy_second_difference(self, reducer_1d):
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        fr = reducer_1d.frame(cfg)
        phi = sp.random_band_limited(reducer_1d.grid, 10.0, seed=7,
                                     amplitude=0.1)
        t = 1e-3
        up = fr.energy(fr.U.values + t * phi.values)
        u0 = fr.energy(fr.U.values)
        um = fr.energy(fr.U.values - t * phi.values)
        fd = (up - 2 * u0 + um) / t**2
        quad = fr.h * float(
            (fr.L.apply_values(phi.values) * phi.values).sum()
        )
        assert fd == pytest.approx(quad, rel=1e-4)

    def test_remainder_order(self, reducer_1d):
        # |R_eps(t phi)| / t^min(3, p+1) stays bounded as t -> 0
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        fr = reducer_1d.frame(cfg)
        phi = sp.random_band_limited(reducer_1d.grid, 10.0, seed=8)
        power = min(3.0, reducer_1d.params.p + 1.0)
        ratios = [
            abs(fr.remainder(t * phi.values)) / t**power
            for t in (1e-1, 1e-2, 1e-3)
        ]
        assert max(ratios) < 10.0 * min(r for r in ratios if r > 0) + 1e-8


@TRUNCATES_BY_DESIGN
class TestSolveCorrection:
    def test_frozen_potential_gives_zero(self, params_1d, grid_1d):
        pot = rd.Potential.constant(1.0, dim=1)
        red = rd.Reducer(grid_1d, params_1d, pot, profile_tol=1e-12)
        cfg = rd.PeakConfig(0.05, [[0.0]], delta=0.5, theta=0.8)
        sol = rd.solve_correction(red, cfg)
        assert sol.correction_norm < 1e-9 * 0.05**0.5

    def test_contraction_and_orthogonality(self, reducer_1d):
        for eps in (0.16, 0.04):
            cfg = rd.PeakConfig(eps, [[0.4]], delta=0.5, theta=0.8)
            sol = rd.solve_correction(reducer_1d, cfg)
            assert sol.contraction_ratios, "expected recorded ratios"
            assert all(r < 1.0 for r in sol.contraction_ratios)
            assert np.abs(sol.orthogonality).max() < 1e-8

    def test_correction_norm_scaling_m2(self, reducer_1d):
        # the spec's m=2 module bound: fitted exponent of the ratio
        # ||phi||/eps^(N/2) at least 1 - 0.2
        norms = {}
        for eps in (0.16, 0.08, 0.04, 0.02):
            cfg = rd.PeakConfig(eps, [[0.3]], delta=0.5, theta=0.8)
            sol = rd.solve_correction(reducer_1d, cfg)
            norms[eps] = sol.correction_norm / eps**0.5
        e = np.array(sorted(norms))
        v = np.array([norms[x] for x in e])
        slope = np.polyfit(np.log(e), np.log(v), 1)[0]
        assert slope >= 1.0 - 0.2

    def test_max_outer_below_one_rejected(self, reducer_1d):
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        with pytest.raises(ParameterError):
            rd.solve_correction(reducer_1d, cfg, max_outer=0)

    def test_warm_start_converges_to_same_fixed_point(self, reducer_1d):
        cfg = rd.PeakConfig(0.08, [[0.35]], delta=0.5, theta=0.8)
        cold = rd.solve_correction(reducer_1d, cfg, outer_tol_factor=1e-12)
        seed = sp.random_band_limited(reducer_1d.grid, 10.0, seed=9,
                                      amplitude=0.01)
        warm = rd.solve_correction(reducer_1d, cfg, phi0=seed,
                                   outer_tol_factor=1e-12)
        diff = np.abs(cold.correction.values - warm.correction.values).max()
        assert diff < 1e-9


@TRUNCATES_BY_DESIGN
class TestGradients:
    def test_total_gradient_matches_fd(self, reducer_1d):
        cfg = rd.PeakConfig(0.08, [[0.36]], delta=0.5, theta=0.8)
        sol = rd.solve_correction(reducer_1d, cfg, outer_tol_factor=1e-12)
        g = rd.reduced_gradient_total(reducer_1d, cfg, sol)
        h = 1e-5
        js = {}
        for dy in (h, -h):
            c2 = cfg.with_y([[0.36 + dy]])
            s2 = rd.solve_correction(reducer_1d, c2, outer_tol_factor=1e-12)
            js[dy] = s2.reduced_energy
        fd = (js[h] - js[-h]) / (2 * h)
        assert g[0] == pytest.approx(fd, rel=1e-6)
        # the search passes one frame to both calls: bitwise the same
        fr = reducer_1d.frame(cfg)
        sol_fr = rd.solve_correction(reducer_1d, cfg, outer_tol_factor=1e-12,
                                     frame=fr)
        assert np.array_equal(sol_fr.correction.values, sol.correction.values)
        assert sol_fr.reduced_energy == sol.reduced_energy
        assert np.array_equal(
            rd.reduced_gradient_total(reducer_1d, cfg, sol_fr, frame=fr), g)


@TRUNCATES_BY_DESIGN
class TestMinimizePeaks:
    def test_symmetric_double_well_symmetric_minimizer(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)
        grid = sp.GridSpec(1, 8.0, 1024)
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.0],
            coeffs=[[1.0], [1.0]], m=2.0, far_value=2.0, plateau=0.6,
        )
        red = rd.Reducer(grid, params, pot)
        eigs = []
        for start in ([[-1.03], [0.98]], [[-0.97], [1.04]]):
            y0 = rd.PeakConfig(0.05, start, delta=0.3, theta=0.8)
            best, sol, info = rd.minimize_peaks(red, y0)
            # the objective is symmetric under reflection: minimizer mirrors
            assert abs(best.y[0, 0] + best.y[1, 0]) < 1e-6
            assert np.abs(sol.orthogonality).max() < 1e-8
            assert info["termination"] == "converged"
            eigs.append(np.array(info["hessian_eigenvalues"]))
        assert np.all(eigs[0] > 0)
        assert np.abs(eigs[0] - eigs[1]).max() < 1e-8 * np.abs(eigs[0]).max()

    def test_certificate_agrees_across_starts(self, reducer_1d):
        runs = [rd.minimize_peaks(
                    reducer_1d, rd.PeakConfig(0.05, [[y]], delta=0.5,
                                              theta=0.8))
                for y in (0.36, 0.2)]
        (b1, _, i1), (b2, _, i2) = runs
        for info in (i1, i2):
            assert info["termination"] == "converged"
            assert isinstance(info["hessian_eigenvalues"], list)
            assert all(ev > 0 for ev in info["hessian_eigenvalues"])
            assert info["grad_norm"] < 1e-10
        assert np.abs(b1.y - b2.y).max() < 1e-10
        e1, e2 = i1["hessian_eigenvalues"][0], i2["hessian_eigenvalues"][0]
        assert abs(e1 - e2) < 1e-8 * abs(e1)

    def test_step_out_of_d_halved_to_boundary(self, reducer_1d):
        # the minimizer drifts about 2e-3 from the well, beyond this delta
        y0 = rd.PeakConfig(0.05, [[0.3]], delta=1e-3, theta=0.8)
        with pytest.warns(BoundaryMinimizerWarning):
            best, _, info = rd.minimize_peaks(reducer_1d, y0)
        assert info["rejected"] > 0
        assert info["termination"] == "boundary"
        assert info["evaluations"] <= 14
        ok, _ = best.admissibility(reducer_1d.potential)
        assert ok

    def test_evaluation_bound_raises(self, reducer_1d, monkeypatch):
        monkeypatch.setattr(rd, "MAX_SEARCH_EVALUATIONS", 3)
        y0 = rd.PeakConfig(0.05, [[0.36]], delta=0.5, theta=0.8)
        with pytest.raises(IterationError) as exc:
            rd.minimize_peaks(reducer_1d, y0)
        assert exc.value.iterations > 3
        assert exc.value.residual > 0

    def test_start_outside_d_raises(self, reducer_1d):
        with pytest.raises(ParameterError):
            bad = rd.PeakConfig(0.05, [[0.95]], delta=0.5, theta=0.8)
            rd.minimize_peaks(reducer_1d, bad)


class TestStrictMode:
    def test_tail_violation_warns_by_default(self, params_1d, grid_1d,
                                             well_1d):
        import warnings as w
        from fkpeaks.errors import TailTruncationWarning
        red = rd.Reducer(grid_1d, params_1d, well_1d)
        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            red.system(0.16)  # heavy fractional tails wrap at this eps
        assert any(issubclass(c.category, TailTruncationWarning)
                   for c in caught)

    def test_tail_violation_raises_in_strict_mode(self, params_1d, grid_1d,
                                                  well_1d):
        from fkpeaks.errors import TruncationError
        red = rd.Reducer(grid_1d, params_1d, well_1d, strict=True)
        with pytest.raises(TruncationError):
            red.system(0.16)


class TestEnergyConstants:
    def test_closed_form_classical(self, classical_q_p3):
        # b=0, k=1, s=1, p=3: A = (1/2 - 1/4) int Q^4 = 4/3 for sqrt(2) sech
        params = sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.0,
                                  validation_mode=True)
        system = gs.solve_system(classical_q_p3, params, [1.0])
        a_const, b_consts = rd.energy_constants(system)
        assert a_const == pytest.approx(4.0 / 3.0, rel=1e-6)
        # B = (1/2) int 2 sech^2 = 2
        assert b_consts[0] == pytest.approx(2.0, rel=1e-6)

    def test_b_weight_scales_quadratically(self, frac_q, frac_params):
        system = gs.solve_system(frac_q, frac_params, [1.0])
        _, b1 = rd.energy_constants(system)
        scaled = gs.SystemSolution(
            kirchhoff_coefficient=system.kirchhoff_coefficient,
            alphas=system.alphas, betas=system.betas,
            profiles=[sp.Field(u.grid, u.values / np.sqrt(2.0))
                      for u in system.profiles],
            peak_values=system.peak_values, params=system.params,
            base=system.base, residuals=system.residuals,
        )
        _, b2 = rd.energy_constants(scaled)
        assert b2[0] == pytest.approx(0.5 * b1[0], rel=1e-12)

    def test_equal_peaks_equal_weights(self, frac_q, frac_params):
        system = gs.solve_system(frac_q, frac_params, [1.0, 1.0])
        _, bs = rd.energy_constants(system)
        assert bs[0] == bs[1]

    def test_pairing_identity_fixes_the_quartic_sign(self, frac_q,
                                                     frac_params):
        # a sum S_i + sum V(a_i) int (U^i)^2 = sum int (U^i)^(p+1)
        #   - b (sum S_i)^2, machine-level on the discrete profiles;
        # this is the dual route certifying the -b/4 term in A
        system = gs.solve_system(frac_q, frac_params, [1.0, 1.4])
        s_tot = sum(system.seminorms)
        mass = sum(
            v * sp.integrate(sp.Field(u.grid, u.values**2))
            for v, u in zip(system.peak_values, system.profiles)
        )
        pots = sum(
            sp.integrate(sp.Field(u.grid, sp.pos_power(u.values, 3.0)))
            for u in system.profiles
        )
        lhs = frac_params.a * s_tot + mass
        rhs = pots - frac_params.b * s_tot**2
        assert lhs == pytest.approx(rhs, rel=1e-9)
