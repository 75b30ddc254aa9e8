import math

import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks.errors import (BoundaryMinimizerWarning, EigensolverError,
                            IterationError, LinearSolveError,
                            NoContractionError, ParameterError)
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
        a, c, m = 0.3, well_1d.coeffs[0, 0], well_1d.m
        for r in (0.05, 0.1, 0.2):
            for x in (a - r, a + r):
                rem = abs(well_1d(np.array([x])) - well_1d(np.array([a]))
                          - c * r**m)
                assert rem / r ** (m + 1.0) < 1.0

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

    def test_multi_well_gradient_by_central_differences(self):
        # multi_well has no analytic gradient; inside a plateau dV/dx_j is
        # c_ij m |t|^(m-1) sign t with t = x_j - a_ij
        pot = rd.Potential.multi_well(
            centers=[[-1.0, 0.0], [1.0, 0.2]], values=[1.0, 1.5],
            coeffs=[[1.0, 0.5], [2.0, 0.7]], m=2.5, far_value=2.5,
            plateau=0.6,
        )
        assert pot.grad_fn is None
        pts = np.array([[-0.8, 0.1], [-1.3, -0.2], [1.2, 0.05],
                        [0.9, 0.5]])
        well = np.array([0, 0, 1, 1])
        for axis in (0, 1):
            t = pts[:, axis] - pot.peaks[well, axis]
            c = pot.coeffs[well, axis]
            exact = c * pot.m * np.abs(t) ** (pot.m - 1.0) * np.sign(t)
            assert np.abs(pot.gradient(pts, axis) - exact).max() < 1e-9

    def test_multi_well_plateau_exact(self):
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.5],
            coeffs=[[1.0], [2.0]], m=2.0, far_value=2.5, plateau=0.6,
        )
        # exact expansion inside the plateau
        x = np.array([[-0.8], [-1.3], [1.2]])
        expected = np.array([1.0 + 0.04, 1.0 + 0.09, 1.5 + 2.0 * 0.04])
        assert np.abs(pot(x) - expected).max() < 1e-12

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


def eps_frame(grid, params, potential, eps):
    """The frame at the wells; its eps-norm depends only on eps and V."""
    red = rd.Reducer(grid, params, potential)
    return red.frame(rd.PeakConfig(eps, potential.peaks, delta=0.5,
                                   theta=0.8))


@TRUNCATES_BY_DESIGN
class TestEpsInner:
    def test_matches_hs_norm(self, params_1d):
        grid = sp.GridSpec(1, 10.0, 256)
        f = sp.random_band_limited(grid, 4.0, seed=31)
        # eps chosen so eps^2s a = 1
        fr = eps_frame(grid, params_1d, rd.Potential.constant(1.0), 1.0)
        val = fr.eps_norm(f.values) ** 2
        expected = (params_1d.a * sp.seminorm_sq(f, params_1d.s)
                    + sp.integrate(sp.Field(grid, f.values**2)))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_plane_waves(self, params_1d):
        grid = sp.GridSpec(1, 10.0, 256)
        x1 = grid.wavenumbers_axis[3]
        x2 = grid.wavenumbers_axis[7]
        f = sp.Field.from_function(grid, lambda x: np.cos(x1 * x))
        g = sp.Field.from_function(grid, lambda x: np.cos(x2 * x))
        fr = eps_frame(grid, params_1d, rd.Potential.constant(1.0), 0.3)
        # polarization: <f, g> = (||f + g||^2 - ||f - g||^2) / 4
        inner = 0.25 * (fr.eps_norm(f.values + g.values) ** 2
                        - fr.eps_norm(f.values - g.values) ** 2)
        assert abs(inner) < 1e-12

    def test_mass_lower_bound(self, params_1d, well_1d):
        grid = sp.GridSpec(1, 4.0, 256)
        f = sp.random_band_limited(grid, 6.0, seed=5)
        norm_sq = eps_frame(grid, params_1d, well_1d, 0.1).eps_norm(
            f.values) ** 2
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
        peaks, u = red.system(0.02).ansatz(pot.peaks)
        total_sq = sp.integrate(sp.Field(grid, u.values**2))
        parts_sq = sum(
            sp.integrate(sp.Field(grid, f.values**2)) for f in peaks
        )
        cross = sp.integrate(sp.Field(
            grid, peaks[0].values * peaks[1].values))
        assert total_sq == pytest.approx(parts_sq + 2 * cross, rel=1e-12)
        assert abs(cross) < 0.01 * parts_sq

    def test_eps_norm_scaling(self, reducer_1d):
        # ||ansatz||_eps^2 = O(eps^N): ratio stable under halving within 5%
        ratios = []
        for eps in (0.06, 0.03):
            cfg = rd.PeakConfig(eps, [[0.3]], delta=0.5, theta=0.8)
            fr = reducer_1d.frame(cfg)
            nrm = fr.eps_norm(fr.U.values) ** 2
            ratios.append(nrm / eps)
        assert abs(ratios[1] - ratios[0]) < 0.05 * ratios[0]


def ell(fr, vals):
    """l_eps(phi) = <I'_eps(U_{eps,y}), phi> on the frame `fr`."""
    return fr.h * float((fr.gradient_density(fr.U) * vals).sum())


@TRUNCATES_BY_DESIGN
class TestEll:
    def test_zero_phi(self, reducer_1d):
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        z = sp.Field.zeros(reducer_1d.grid)
        assert ell(reducer_1d.frame(cfg), z.values) == 0.0

    def test_frozen_potential_critical_point(self, params_1d, grid_1d):
        pot = rd.Potential.constant(1.0, dim=1)
        red = rd.Reducer(grid_1d, params_1d, pot)
        cfg = rd.PeakConfig(0.05, [[0.0]], delta=0.5, theta=0.8)
        phi = sp.random_band_limited(grid_1d, 40.0, seed=3)
        fr = red.frame(cfg)
        val = ell(fr, phi.values)
        norm = fr.eps_norm(phi.values)
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
            fr = red.frame(cfg)
            # dual norm of l_eps on E_{eps,y} (preconditioner estimate)
            b = fr.krylov_rhs(fr.gradient_density(fr.U))
            norms.append(np.linalg.norm(b) * math.sqrt(fr.h))
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
        l_eps = fr.second_variation(fr.U)
        lf = sp.Field(reducer_1d.grid, l_eps.apply_values(f.values))
        lg = sp.Field(reducer_1d.grid, l_eps.apply_values(g.values))
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
        via_reduction = fr.second_variation(fr.U).apply_values(phi.values)
        via_kernel = op.apply_values(phi.values)
        diff = np.abs(via_reduction - via_kernel).max()
        assert diff < 1e-12 * np.abs(via_kernel).max()

    @pytest.fixture(scope="class")
    def frame_2d(self):
        params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
        grid = sp.GridSpec(2, 2.5, 64)
        pot = rd.Potential.single_well([0.1, -0.1], 1.0, [1.0, 1.5], m=2.0)
        red = rd.Reducer(grid, params, pot)
        return red.frame(rd.PeakConfig(0.25, [[0.1, -0.1]], delta=0.4,
                                       theta=0.8))

    def test_packed_apply_matches_plain_apply(self, frame_2d):
        # the 2-transform apply on packed half spectra against m (L (m v))
        # on E_{eps,y}, composed through the packing, 2D
        fr = frame_2d
        grid = fr.red.grid
        v = sp.random_band_limited(grid, 8.0, seed=5).values
        z = fr.project(sp.pack(grid, sp._fftn(v)))
        v = sp._ifftn(sp.unpack(grid, z))
        m = fr.p0_isqrt
        l_eps = fr.second_variation(fr.U)

        def mult(x):
            return sp._ifftn(m * sp._fftn(x))

        packed = sp._ifftn(sp.unpack(grid, l_eps.apply_conjugated(z, m)))
        plain = mult(l_eps.apply_values(mult(v)))
        assert np.abs(packed - plain).max() < 1e-12 * np.abs(plain).max()

    def test_packed_apply_is_hermitian_consistent(self, frame_2d):
        # even from a packed vector off the real-field spectra, the apply
        # returns one on them exactly: each mode of the k = 0 and M/2
        # columns is the conjugate of its mirror across the leading axis
        fr = frame_2d
        grid = fr.red.grid
        z = np.random.default_rng(11).standard_normal(2 * fr.p0.size)
        out = fr.second_variation(fr.U).apply_conjugated(
            z, fr.p0_isqrt).view(complex)
        out = out.reshape(grid.shape[:-1] + (-1,))
        flip = (-np.arange(grid.points_per_dim)) % grid.points_per_dim
        for col in (0, grid.points_per_dim // 2):
            assert np.array_equal(out[:, col], out[flip, col].conj())

    def test_constraint_algebra_matches_loop_reference(self, frame_2d):
        # the stacked products against per-mode loops, with the mode
        # norms by Parseval (eps_norm) rather than through P
        fr = frame_2d
        v = sp.random_band_limited(fr.red.grid, 8.0, seed=3).values

        def close(new, ref):
            ref = np.asarray(ref)
            return np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()

        gram = [[fr.h * float((d * m).sum()) for d in fr.mode_densities]
                for m in fr.modes]
        assert close(fr.gram, gram)
        rhs = [-fr.h * float((v * m).sum()) for m in fr.modes]
        assert close(fr.multipliers(v), np.linalg.solve(gram, rhs))
        norm = fr.eps_norm(v)
        orth = [fr.h * float((d * v).sum()) / (fr.eps_norm(m) * norm)
                for m, d in zip(fr.modes, fr.mode_densities)]
        assert close(fr.orthogonality(v, norm), orth)
        assert not fr.orthogonality(v, 0.0).any()

    def test_coercive_on_constraint_complement(self, reducer_1d):
        # min |lambda| on E_{eps,y}; the form's packed null space would
        # read a spurious ~1e-15 here without the shift
        cfg = rd.PeakConfig(0.05, [[0.3]], delta=0.5, theta=0.8)
        rho = reducer_1d.frame(cfg).coercivity()
        assert rho == pytest.approx(0.44200529882960, rel=1e-6)

    def test_coercive_on_constraint_complement_2d(self, frame_2d):
        # the packed null space has 2M dimensions in 2D; the eigenvalues
        # next to the pick are 0.7870 and 0.8574
        assert frame_2d.coercivity() == pytest.approx(0.43318975727,
                                                      rel=1e-6)

    def test_shift_below_the_smallest_magnitude_raises(self, frame_2d,
                                                       monkeypatch):
        # the shifted null space is then the pick, 0.3, not 0.4332
        monkeypatch.setattr(rd, "COERCIVITY_SHIFT", 0.3)
        with pytest.raises(EigensolverError, match="not below the shift"):
            frame_2d.coercivity()

    def test_unconverged_lanczos_raises_with_ritz_residuals(
            self, reducer_1d, monkeypatch):
        # one Lanczos serves the kernel and the inversion constant: a
        # stagnation reaches both as EigensolverError with the residuals
        # of the partial pairs
        def stagnate(a_op, k, **kw):
            vec = np.ones(a_op.shape[0]) / math.sqrt(a_op.shape[0])
            raise kn.sla.ArpackNoConvergence("no convergence", np.ones(1),
                                             vec[:, None])

        monkeypatch.setattr(kn.sla, "eigsh", stagnate)
        cfg = rd.PeakConfig(0.05, [[0.3]], delta=0.5, theta=0.8)
        frame = reducer_1d.frame(cfg)
        for solve in (frame.coercivity,
                      lambda: kn.kernel_spectrum(
                          frame.second_variation(frame.U), 1)):
            with pytest.raises(EigensolverError) as info:
                solve()
            assert len(info.value.ritz_residuals) == 1
            assert info.value.ritz_residuals[0] > 0.0

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
            (fr.second_variation(fr.U).apply_values(phi.values)
             * phi.values).sum()
        )
        assert fd == pytest.approx(quad, rel=1e-4)

    def test_remainder_order(self, reducer_1d):
        # |R_eps(t phi)| / t^min(3, p+1) stays bounded as t -> 0, with
        # R_eps(v) = I_eps(U + v) - I_eps(U) - l_eps(v) - <L_eps v, v>/2
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        fr = reducer_1d.frame(cfg)
        phi = sp.random_band_limited(reducer_1d.grid, 10.0, seed=8)
        power = min(3.0, reducer_1d.params.p + 1.0)
        u = fr.U.values
        l_eps = fr.second_variation(fr.U)

        def remainder(v):
            quad = fr.h * float((l_eps.apply_values(v) * v).sum())
            return fr.energy(u + v) - fr.energy(u) - ell(fr, v) - 0.5 * quad

        ratios = [
            abs(remainder(t * phi.values)) / t**power
            for t in (1e-1, 1e-2, 1e-3)
        ]
        assert max(ratios) < 10.0 * min(r for r in ratios if r > 0) + 1e-8


# the criterion-11 limiting system: two peaks, N = 1, s = 0.4, b = 1
C11_PARAMS = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
C11_GRID = sp.GridSpec(1, 8.0, 2048)
C11_VALUES = [1.0, 1.5]


class TestGridSystem:
    EPS, TOL = 0.004, rd.PROFILE_TOL

    def solve(self, params=C11_PARAMS, values=C11_VALUES, **kwargs):
        return rd.solve_grid_system(C11_GRID, params, values, self.EPS,
                                    **kwargs)

    def test_shared_profiles_solve_at_returned_coefficient(self):
        s, p = C11_PARAMS.s, C11_PARAMS.p
        g = self.solve()
        c1 = self.EPS ** (2 * s) * g.coefficient
        for w, v in zip(g.profiles, C11_VALUES):
            res = gs.residual_density(w, s, p, c1, 0.0, v)
            assert np.abs(res).max() <= self.TOL
        semis = [sp.seminorm_sq(w, s) for w in g.profiles]
        want = (C11_PARAMS.a
                + C11_PARAMS.b * self.EPS ** (2 * s - 1) * sum(semis))
        # the returned A is read from the returned profiles
        assert g.coefficient == pytest.approx(want, rel=1e-13)

    def test_naive_profiles_solve_at_own_coefficient(self):
        # each naive profile stops at A_i = a + b eps^(2s-N) S_i of itself,
        # not at the multiplier its last iterate was built with
        s, p = C11_PARAMS.s, C11_PARAMS.p
        naive = self.solve(shared_coefficient=False)
        for w, v in zip(naive.profiles, C11_VALUES):
            a_i = (C11_PARAMS.a + C11_PARAMS.b * self.EPS ** (2 * s - 1)
                   * sp.seminorm_sq(w, s))
            res = gs.residual_density(w, s, p, self.EPS ** (2 * s) * a_i,
                                      0.0, v)
            assert np.abs(res).max() < self.TOL

    def test_naive_profiles_match_one_peak_systems(self):
        naive = self.solve(shared_coefficient=False)
        assert math.isnan(naive.coefficient)
        for w, v in zip(naive.profiles, C11_VALUES):
            ref = self.solve(values=[v]).profiles[0].values
            assert np.abs(w.values - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_b_zero_coefficient_is_a(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.3, 0.0)
        g = self.solve(params=params)
        assert g.coefficient == 1.3
        assert max(g.residuals) < self.TOL

    def test_coupled_loop_costs_at_most_twice_a_fixed_solve(self,
                                                            monkeypatch):
        iterations = []

        def counted(*args, **kwargs):
            out = gs.solve_profile(*args, **kwargs)
            iterations.append(out[3])
            return out

        monkeypatch.setattr(rd, "solve_profile", counted)
        g = self.solve()
        s = C11_PARAMS.s
        c1 = self.EPS ** (2 * s) * g.coefficient
        width = (c1 / np.array(C11_VALUES)) ** (1 / (2 * s))
        fixed = gs.solve_profile(C11_GRID, s, C11_PARAMS.p, c1=c1,
                                 c0=C11_VALUES, tol=self.TOL,
                                 init_width=width)
        assert sum(iterations) <= 2 * fixed[3]

    def test_unconverged_loop_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(gs, "MAX_ITER", 5)
        with pytest.raises(IterationError) as err:
            self.solve()
        assert err.value.iterations == 5
        assert err.value.residual > self.TOL
        assert err.value.gap is not None and err.value.gap > 0.0


@TRUNCATES_BY_DESIGN
class TestSolveConstrained:
    @pytest.fixture(scope="class")
    def reducer_2d(self):
        params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
        grid = sp.GridSpec(2, 2.5, 64)
        pot = rd.Potential.single_well([0.1, -0.1], 1.0, [1.0, 1.5], m=2.0,
                                       asym=0.2, asym_power=3.0)
        return rd.Reducer(grid, params, pot)

    CFG = rd.PeakConfig(0.25, [[0.16, -0.05]], delta=0.4, theta=0.8)

    def test_converged_minres_at_roundoff_floor_accepted(self, reducer_2d):
        # the tight outer tolerance asks for residuals below MINRES's
        # attainable floor, which scales with the solution norm
        sol = rd.solve_correction(reducer_2d, self.CFG,
                                  outer_tol_factor=1e-12)
        assert sol.correction_norm > 0.0
        assert np.all(np.abs(sol.orthogonality) < 1e-8)

    def test_zero_rhs_returns_zeros(self, reducer_2d):
        # MINRES returns x = 0 for b = 0, and the true residual accepts it
        fr = reducer_2d.frame(self.CFG)
        b = np.zeros_like(fr.krylov_rhs(fr.gradient_density(fr.U)))
        phi, _ = fr.solve_constrained(b, rtol=1e-11, atol=0.0, maxiter=10,
                                      lin=fr.second_variation(fr.U))
        assert phi.shape == fr.U.values.shape
        assert not np.any(phi)

    def test_real_stall_raises(self, reducer_2d):
        fr = reducer_2d.frame(self.CFG)
        with pytest.raises(LinearSolveError, match="stalled"):
            fr.solve_constrained(fr.krylov_rhs(fr.gradient_density(fr.U)),
                                 rtol=1e-12, atol=0.0, maxiter=2,
                                 lin=fr.second_variation(fr.U))


@TRUNCATES_BY_DESIGN
class TestSolveCorrection:
    def test_frozen_potential_gives_zero(self, params_1d, grid_1d):
        pot = rd.Potential.constant(1.0, dim=1)
        red = rd.Reducer(grid_1d, params_1d, pot)
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

    def test_max_outer_below_one_rejected(self, reducer_1d, monkeypatch):
        # one step cannot meet the increment tolerance: the cap is hit
        monkeypatch.setattr(rd, "MAX_CORRECTION_STEPS", 1)
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        with pytest.raises(NoContractionError, match="MAX_CORRECTION_STEPS=1"):
            rd.solve_correction(reducer_1d, cfg)

    @pytest.mark.parametrize("growth, fail_at, match, ratios", [
        (1.0, None, "three consecutive", [1.0, 1.0, 1.0]),
        (2.0, 3, "diverged before the linear solve", [2.0]),
        (1e12, None, "blew up", []),
    ])
    def test_non_contracting_increments_raise(self, reducer_1d, monkeypatch,
                                              growth, fail_at, match, ratios):
        # step n returns the first increment times growth^(n-1); step
        # fail_at breaks the linear solve
        orig = rd._Frame.solve_constrained
        steps = []

        def solve(self, *args, **kwargs):
            if len(steps) + 1 == fail_at:
                raise LinearSolveError("projected MINRES stalled")
            steps.append(steps[0] if steps
                         else orig(self, *args, **kwargs)[0])
            return growth ** (len(steps) - 1) * steps[0], 1

        monkeypatch.setattr(rd._Frame, "solve_constrained", solve)
        cfg = rd.PeakConfig(0.1, [[0.3]], delta=0.5, theta=0.8)
        with pytest.raises(NoContractionError, match=match) as err:
            rd.solve_correction(reducer_1d, cfg)
        assert err.value.ratios == pytest.approx(ratios, rel=1e-12)

    def test_newton_steps_meet_their_forcing_terms(self, reducer_1d,
                                                   monkeypatch):
        orig = rd._Frame.solve_constrained
        calls = []

        def solve(self, b, rtol, atol, maxiter, lin):
            delta, its = orig(self, b, rtol, atol, maxiter, lin)
            calls.append((self, b, rtol, atol, lin, delta, its))
            return delta, its

        monkeypatch.setattr(rd._Frame, "solve_constrained", solve)
        cfg = rd.PeakConfig(0.16, [[0.35]], delta=0.5, theta=0.8)
        sol = rd.solve_correction(reducer_1d, cfg)
        assert len(calls) == sol.iterations == len(sol.inner_iterations)
        assert [c[2] for c in calls] == sol.forcing
        assert [c[2] for c in calls[:3]] == [rd.CORRECTION_INNER_RTOL] * 3
        # the contraction steps share one L_eps, built at U
        l_eps = calls[0][4]
        assert l_eps.profile is calls[0][0].U
        assert all(c[4] is l_eps for c in calls[:3])
        newton = calls[3:]
        assert newton and all(c[4] is not l_eps for c in newton)
        assert max(c[2] for c in newton) > 1e3 * rd.CORRECTION_INNER_RTOL
        assert all(n > 0 for n in sol.inner_iterations)
        assert [c[6] for c in calls] == sol.inner_iterations
        for fr, b, eta, atol, lin, delta, _ in newton:
            # the Krylov coordinates xi = P0^(1/2) delta of the step; atol,
            # a hundredth of the outer tolerance, binds only once ||b||
            # is below a tenth of it
            xi = fr.project(sp.pack(fr.red.grid,
                                    np.sqrt(fr.p0) * sp._fftn(delta)))
            resid = np.linalg.norm(b - fr.apply_hat(xi, lin))
            assert resid <= max(eta * np.linalg.norm(b), atol)

    def test_minres_breakdown_names_forcing_and_true_residual(
            self, reducer_1d, monkeypatch):
        monkeypatch.setattr(rd.sla, "minres",
                            lambda A, b, **kw: (np.zeros_like(b), 0))
        cfg = rd.PeakConfig(0.16, [[0.35]], delta=0.5, theta=0.8)
        with pytest.raises(LinearSolveError,
                           match=r"true residual .* eta = 1\.000e-11"):
            rd.solve_correction(reducer_1d, cfg)

    def test_forcing_terms(self):
        # choice 2 inside the cap, the cap, the floor at half the outer
        # tolerance, and the least forcing term
        assert rd._forcing(1e-2, 1.0, 0.0) == pytest.approx(0.9e-4)
        assert rd._forcing(1.0, 1.0, 0.0) == rd.FORCING_MAX
        assert rd._forcing(1e-2, 1.0, 1e-4) == pytest.approx(5e-3)
        assert rd._forcing(1e-8, 1.0, 1e-4) == rd.FORCING_MAX
        assert rd._forcing(1e-8, 1.0, 0.0) == rd.CORRECTION_INNER_RTOL


def fd_gradient(red, cfg, h=1e-5, **kw):
    """Central differences of j_eps in each coordinate of y."""
    fd = np.empty(cfg.y.size)
    for idx in range(cfg.y.size):
        js = []
        for dy in (h, -h):
            y = cfg.y.copy()
            y.flat[idx] += dy
            js.append(rd.solve_correction(red, cfg.with_y(y), **kw)
                      .reduced_energy)
        fd[idx] = (js[0] - js[1]) / (2 * h)
    return fd


def fd_hessian(red, cfg, h=1e-4):
    """Central differences of reduced_gradient_total in each coordinate
    of y, from corrections at outer_tol_factor 1e-12."""
    cols = []
    for idx in range(cfg.y.size):
        grads = []
        for dy in (h, -h):
            y = cfg.y.copy()
            y.flat[idx] += dy
            grads.append(rd.reduced_gradient_total(rd.solve_correction(
                red, cfg.with_y(y), outer_tol_factor=1e-12)))
        cols.append((grads[0] - grads[1]) / (2 * h))
    return np.column_stack(cols)


def problem_2d():
    """A 64^2 single well and an off-centre configuration."""
    params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
    grid = sp.GridSpec(2, 2.5, 64)
    pot = rd.Potential.single_well([0.1, -0.1], 1.0, [1.0, 1.5], m=2.0,
                                   asym=0.2, asym_power=3.0)
    cfg = rd.PeakConfig(0.25, [[0.16, -0.05]], delta=0.4, theta=0.8)
    return rd.Reducer(grid, params, pot), cfg


def problem_two_peaks():
    """A 1D double well of unequal depths and a configuration near it."""
    params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)
    grid = sp.GridSpec(1, 8.0, 1024)
    pot = rd.Potential.multi_well(
        centers=[[-1.0], [1.0]], values=[1.0, 1.3],
        coeffs=[[1.0], [1.0]], m=2.0, far_value=2.0, plateau=0.6,
    )
    cfg = rd.PeakConfig(0.05, [[-1.03], [0.98]], delta=0.3, theta=0.8)
    return rd.Reducer(grid, params, pot), cfg


@TRUNCATES_BY_DESIGN
class TestGradients:
    def test_total_gradient_matches_fd(self, reducer_1d):
        cfg = rd.PeakConfig(0.08, [[0.36]], delta=0.5, theta=0.8)
        sol = rd.solve_correction(reducer_1d, cfg, outer_tol_factor=1e-12)
        g = rd.reduced_gradient_total(sol)
        fd = fd_gradient(reducer_1d, cfg, outer_tol_factor=1e-12)
        assert g[0] == pytest.approx(fd[0], rel=1e-6)

    def test_total_gradient_matches_fd_2d(self):
        # the constraint term pairs w_0j with d_b P phi for b != j here (a
        # third of the gradient); the 1D test sees only j = b = 0
        red, cfg = problem_2d()
        g = rd.reduced_gradient_total(rd.solve_correction(red, cfg))
        fd = fd_gradient(red, cfg)
        assert np.abs(g - fd).max() < 1e-8 * np.abs(fd).max()

    def test_total_gradient_matches_fd_two_peaks(self):
        # each peak's multipliers weigh its own modes; the constraint term
        # is 9% of the gradient here
        red, cfg = problem_two_peaks()
        g = rd.reduced_gradient_total(
            rd.solve_correction(red, cfg, outer_tol_factor=1e-12))
        fd = fd_gradient(red, cfg, outer_tol_factor=1e-12)
        assert np.abs(g - fd).max() < 1e-8 * np.abs(fd).max()

    @pytest.mark.parametrize("problem", ["1d", "two_peaks", "2d"])
    def test_certificate_matches_fd_of_the_gradient(self, reducer_1d,
                                                    problem):
        # the exact reduced Hessian at the found y against central
        # differences of the exact gradient: they agree to 2.0e-8, 1.2e-8
        # and 1.7e-8 of the largest entry
        red, cfg = {
            "1d": lambda: (reducer_1d, rd.PeakConfig(0.08, [[0.36]],
                                                     delta=0.5, theta=0.8)),
            "two_peaks": problem_two_peaks,
            "2d": problem_2d,
        }[problem]()
        best, sol, info = rd.minimize_peaks(red, cfg)
        assert info["termination"] == "converged"
        hess = rd.reduced_hessian(sol)
        assert np.linalg.eigvalsh(hess).tolist() == pytest.approx(
            info["hessian_eigenvalues"], rel=1e-12)
        fd = fd_hessian(red, best)
        assert np.abs(hess - fd).max() < 1e-5 * np.abs(fd).max()


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

    def test_clipped_steps_reach_the_unclipped_minimizer(self, reducer_1d,
                                                        monkeypatch):
        # from 0.6 the trust radius (0.05 delta = 0.025 at the start,
        # doubled after each clipped step) clips the first Newton steps;
        # from the well bottom 0.3 no step is clipped (the largest is
        # 0.0039)
        orig = rd.Reducer.frame
        visited = []

        def frame(self, cfg):
            visited.append(float(cfg.y[0, 0]))
            return orig(self, cfg)

        monkeypatch.setattr(rd.Reducer, "frame", frame)
        runs = []
        for y in (0.3, 0.6):
            visited.clear()
            best, _, info = rd.minimize_peaks(
                reducer_1d, rd.PeakConfig(0.05, [[y]], delta=0.5, theta=0.8))
            assert info["termination"] == "converged"
            runs.append((best, np.abs(np.diff(visited))))
        (near, near_steps), (far, far_steps) = runs
        assert near_steps.max() < 0.025
        assert far_steps[:2] == pytest.approx([0.025, 0.05], rel=1e-12)
        assert np.abs(far.y - near.y).max() < 1e-12

    def test_one_correction_at_the_returned_y(self, reducer_1d,
                                              monkeypatch):
        # the search starts at phi = 0; its work is kN + 1 constrained
        # solves per Newton system, kN for the certificate's tangents and
        # the record's correction steps
        orig, orig_solve = rd.solve_correction, rd._Frame.solve_constrained
        calls, solves = [], []

        def counted(red, cfg, **kwargs):
            calls.append(cfg.y.copy())
            return orig(red, cfg, **kwargs)

        def solve(self, *args, **kwargs):
            solves.append(1)
            return orig_solve(self, *args, **kwargs)

        monkeypatch.setattr(rd, "solve_correction", counted)
        monkeypatch.setattr(rd._Frame, "solve_constrained", solve)
        y0 = rd.PeakConfig(0.05, [[0.36]], delta=0.5, theta=0.8)
        best, sol, info = rd.minimize_peaks(reducer_1d, y0)
        assert info["newton_steps"] > 0
        assert len(calls) == 1
        assert np.array_equal(calls[0], best.y)
        modes = best.y.size     # kN
        assert len(solves) == ((modes + 1) * info["evaluations"] + modes
                               + sol.iterations)

    @pytest.mark.filterwarnings(
        "ignore::fkpeaks.errors.BoundaryMinimizerWarning")
    def test_start_out_of_regime_fails_typed(self, reducer_1d):
        # at eps 1.5 the correction does not contract: the search ends on
        # the boundary of D, and the record's correction raises
        y0 = rd.PeakConfig(1.5, [[0.4]], delta=0.5, theta=0.8)
        with pytest.raises(NoContractionError):
            rd.minimize_peaks(reducer_1d, y0)

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


@TRUNCATES_BY_DESIGN
class TestSweep:
    def test_fixed_y_records_are_reduce_records(self, reducer_1d):
        y = reducer_1d.potential.peaks + 0.05
        starts = [rd.PeakConfig(eps, y, delta=0.5, theta=0.8)
                  for eps in (0.16, 0.08)]
        records = rd.sweep_reduction(reducer_1d, starts, minimize=False)
        assert [r["eps"] for r in records] == [0.16, 0.08]
        for rec in records:
            cfg = rd.PeakConfig(rec["eps"], y, delta=0.5, theta=0.8)
            sol = rd.solve_correction(reducer_1d, cfg)
            assert rec["search"] == {}
            assert rec["y"] == y.tolist()
            assert rec["drift"] == pytest.approx([0.05], abs=1e-15)
            assert rec["correction_norm"] == sol.correction_norm
            assert rec["reduced_energy"] == sol.reduced_energy
            assert rec["contraction_ratios"] == sol.contraction_ratios
            assert rec["iterations"] == sol.iterations


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
