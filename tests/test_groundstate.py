from types import SimpleNamespace

import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks.errors import (
    AdmissibilityError,
    GeometryError,
    GridMismatchError,
    IterationError,
    ParameterError,
)
from tests_support import scaling_beta


def classical_soliton_p3(x):
    return np.sqrt(2.0) / np.cosh(x)


def classical_soliton_p2(x):
    return 1.5 / np.cosh(x / 2.0) ** 2


class TestSolveQClassical:
    def test_p3_matches_closed_form(self, classical_q_p3):
        state = classical_q_p3
        x = state.grid.axis
        exact = classical_soliton_p3(x)
        # oracle: the closed form satisfies the discrete equation itself
        f = sp.Field(state.grid, exact)
        resid = (sp.fractional_laplacian(f, 1.0).values + exact
                 - sp.pos_power(exact, 3.0))
        assert np.abs(resid).max() < 1e-6
        assert np.abs(state.profile.values - exact).max() < 1e-6

    def test_p2_matches_closed_form(self, classical_q_p2):
        state = classical_q_p2
        exact = classical_soliton_p2(state.grid.axis)
        assert np.abs(state.profile.values - exact).max() < 1e-6

    def test_gamma_converges_to_one(self, classical_q_p3):
        assert abs(classical_q_p3.gammas[-1] - 1.0) < 1e-10


class TestSolveQFractional:
    def test_positive_even_profile(self, frac_q):
        vals = frac_q.profile.values
        assert frac_q.residual < 1e-9
        assert vals.max() == vals[np.argmin(np.abs(frac_q.grid.axis))]
        # even symmetry
        reflected = np.roll(vals[::-1], 1)
        assert np.abs(vals - reflected).max() < 1e-12 * vals.max()
        # nonincreasing away from the origin along the axis
        center = np.argmax(vals)
        right = vals[center:center + 600]
        assert np.all(np.diff(right) <= 1e-14)

    def test_uniqueness_probe_two_initializations(self):
        grid = sp.GridSpec(1, 30.0, 1024)
        u1, u2 = (gs.solve_profile(grid, 0.4, 2.0, tol=1e-10,
                                   init_width=width)[0][0]
                  for width in (1.0, 3.0))
        assert np.abs(u1 - u2).max() < 1e-8

    def test_tolerance_window_enforced(self):
        grid = sp.GridSpec(1, 10.0, 64)
        with pytest.raises(ParameterError):
            gs.solve_Q(grid, 0.4, 2.0, tol=1e-3)

    def test_iteration_cap_reports_residual(self, monkeypatch):
        monkeypatch.setattr(gs, "MAX_ITER", 3)
        grid = sp.GridSpec(1, 20.0, 256)
        with pytest.raises(IterationError) as err:
            gs.solve_Q(grid, 0.4, 2.0, tol=1e-12)
        assert err.value.residual is not None
        assert err.value.iterations == 3


def _single_field_petviashvili(grid, s, p, tol):
    """The unstacked Petviashvili loop for one field at c1 = c0 = 1, the
    reference solve_Q's stacked loop must reproduce to the bit: the step
    fixes L u = gamma^(p/(p-1)) E(u^p), E the even part, and inverts the
    multiplier with one pair of transforms; the stop test on that
    identity's residual is confirmed by transforming u.  Returns the
    profile, its iteration, its seminorm and the confirmed residual."""
    mult = 1.0 * grid.symbol(s) + 1.0
    w_quad = grid.spacing**grid.dim
    u = np.exp(-sum(c**2 for c in grid.coords) / 1.0**2)
    lu = sp._ifftn(mult * sp._fftn(u))
    up = sp.pos_power(u, p)
    for it in range(1, gs.MAX_ITER + 1):
        # a one-entry array: numpy's array power may differ from the
        # scalar pow in the last bit, and the loop powers the gamma array
        gamma = np.array([(w_quad * float(np.vdot(lu, u).real))
                          / (w_quad * float(np.vdot(up, u).real))])
        even = up
        for axis in range(up.ndim):
            even = 0.5 * (even + np.roll(np.flip(even, axis=axis), 1,
                                         axis=axis))
        lu = (gamma ** (p / (p - 1.0)))[0] * even
        uhat = sp._fftn(lu) / mult
        u = sp._ifftn(uhat)
        up = sp.pos_power(u, p)
        if float(np.abs(lu - up).max()) < tol:
            residual = float(np.abs(sp._ifftn(mult * sp._fftn(u))
                                    - up).max())
            if residual < tol:
                return u, it, sp.seminorm_inner(grid, s, uhat), residual
    raise AssertionError("reference loop did not converge")


class TestStackedLoop:
    def test_symmetrize_reflects_grid_axes_only(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 16, 8))
        out = gs._symmetrize(stack)
        for i in range(3):
            # each slice is the even part of itself, never of another slice
            assert np.array_equal(out[i], gs._symmetrize(stack[i:i + 1])[0])
            reflected = np.roll(np.flip(out[i]), 1, axis=(0, 1))
            assert np.abs(out[i] - reflected).max() < 1e-15
        assert not np.allclose(out[0], out[2])

    @pytest.mark.parametrize("dim,half_width,points,s,p", [
        (1, 30.0, 1024, 0.4, 2.0), (1, 20.0, 512, 1.0, 3.0),
        (2, 8.0, 64, 0.75, 2.0)])
    def test_solve_q_matches_single_field_loop(self, dim, half_width,
                                               points, s, p):
        grid = sp.GridSpec(dim, half_width, points)
        state = gs.solve_Q(grid, s, p, tol=1e-10)
        ref, its, semi, res = _single_field_petviashvili(grid, s, p, 1e-10)
        assert state.iterations == its
        assert np.array_equal(state.profile.values, ref)
        assert state.residual == res
        assert state.seminorm_sq == semi
        assert semi == pytest.approx(sp.seminorm_sq(sp.Field(grid, ref), s),
                                     rel=1e-13)

    def test_stack_matches_separate_solves(self):
        grid = sp.GridSpec(1, 20.0, 512)
        values, res, _, _, semis = gs.solve_profile(
            grid, 0.5, 2.0, c1=[1.0, 0.5], c0=[1.0, 2.0], tol=1e-11)
        assert values.shape == (2, 512) and np.all(res < 1e-11)
        for i, (c1, c0) in enumerate(((1.0, 1.0), (0.5, 2.0))):
            one, _, _, _, semi = gs.solve_profile(grid, 0.5, 2.0, c1=c1,
                                                  c0=c0, tol=1e-11)
            assert np.abs(one[0] - values[i]).max() < 1e-10 * one.max()
            assert semi[0] == pytest.approx(semis[i], rel=1e-10)


# the criterion-11 limiting system: two peaks, N = 1, s = 0.4, b = 1
C11_GRID = sp.GridSpec(1, 8.0, 2048)
C11_PARAMS = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)


def _counted_solve(monkeypatch, case):
    """One 1D solve_profile call: solve_Q's fixed multiplier, or the
    coefficient-following loop of solve_grid_system ("shared" or
    "naive").  Returns its grid, s, p, profiles, residuals, tol and
    iterations, the multipliers c1, c0 re-read from the returned profiles,
    and the number of _fftn/_ifftn calls, transforms."""
    transforms = []
    for name in ("_fftn", "_ifftn"):
        def counted(*args, _inner=getattr(sp, name), **kwargs):
            transforms.append(name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(sp, name, counted)
    if case == "solve_Q":
        grid, s, p, tol = sp.GridSpec(1, 30.0, 1024), 0.4, 2.0, 1e-10
        state = gs.solve_Q(grid, s, p, tol=tol)
        return SimpleNamespace(
            grid=grid, s=s, p=p, profiles=state.profile.values[None],
            residuals=[state.residual], tol=tol,
            iterations=state.iterations, c1=[1.0], c0=[1.0],
            transforms=len(transforms))
    calls = []

    def recorded(grid, s, p, c1, c0, tol, init_width, coefficient):
        # the loop re-reads c1 = scale rule(S) at every iterate and stops
        # on the residual at the last one, read from the returned profiles
        scale, rule = coefficient
        c1s = [np.broadcast_to(c1, np.shape(c0))]

        def seen(semis):
            target = rule(semis)
            c1s.append(scale * np.broadcast_to(target, np.shape(c0)))
            return target

        out = gs.solve_profile(grid, s, p, c1=c1, c0=c0, tol=tol,
                               init_width=init_width,
                               coefficient=(scale, seen))
        calls.append((out, c1s[-1], c0, tol))
        return out

    monkeypatch.setattr(rd, "solve_profile", recorded)
    rd.solve_grid_system(C11_GRID, C11_PARAMS, [1.0, 1.5], 0.004,
                         shared_coefficient=case == "shared")
    (profiles, residuals, _, its, _), c1, c0, tol = calls[0]
    return SimpleNamespace(
        grid=C11_GRID, s=C11_PARAMS.s, p=C11_PARAMS.p, profiles=profiles,
        residuals=residuals, tol=tol, iterations=its, c1=c1, c0=c0,
        transforms=len(transforms))


class TestWorkAndResiduals:
    @pytest.mark.parametrize("case", ["solve_Q", "shared", "naive"])
    def test_two_transforms_per_iteration(self, monkeypatch, case):
        # two to set up, two per iteration and two to confirm the stop
        # test: a step that recomputes L u by transforms makes four
        run = _counted_solve(monkeypatch, case)
        assert run.iterations > 10
        assert run.transforms <= 2 * run.iterations + 4

    @pytest.mark.parametrize("case", ["solve_Q", "shared", "naive"])
    def test_returned_residuals_are_transform_computed(self, monkeypatch,
                                                       case):
        run = _counted_solve(monkeypatch, case)
        for u, res, a, b in zip(run.profiles, run.residuals, run.c1, run.c0):
            mult = a * run.grid.symbol(run.s) + b
            true = np.abs(sp._ifftn(mult * sp._fftn(u))
                          - sp.pos_power(u, run.p)).max()
            # the loop's own stop test, not the identity
            # L u = gamma^(p/(p-1)) E(u^p), which reads up to 5e-13 apart
            assert true == res
            assert true < run.tol


class TestDecayFit:
    def test_synthetic_power_law(self):
        grid = sp.GridSpec(1, 40.0, 2048)
        f = sp.Field.from_function(grid, lambda x: (1.0 + np.abs(x)) ** -3)
        slope = gs.decay_fit(f, (5.0, 15.0))
        # oracle: unweighted LS of log(1+x)^-3 against log x on [5, 15]
        # gives -2.6937 (the local slope is -3x/(1+x), between -2.5 and -2.81)
        assert slope == pytest.approx(-2.6937, abs=0.01)
        assert -3.3 <= slope <= -2.65

    def test_pure_power_law_exact(self):
        grid = sp.GridSpec(1, 40.0, 2048)
        f = sp.Field.from_function(
            grid, lambda x: np.where(np.abs(x) > 0.1, np.abs(x), 0.1) ** -3.0
        )
        slope = gs.decay_fit(f, (5.0, 15.0))
        assert slope == pytest.approx(-3.0, abs=1e-6)

    def test_gaussian_flagged_super_polynomial(self):
        grid = sp.GridSpec(1, 40.0, 2048)
        f = sp.Field.from_function(grid, lambda x: np.exp(-x**2))
        slope = gs.decay_fit(f, (5.0, 15.0))
        # far steeper than any -(N+2s): caller flags "faster than polynomial"
        assert slope < -1.8 * 1.5

    def test_ground_state_slope(self, frac_q):
        slope = gs.decay_fit(frac_q.profile, (6.0, 14.0))
        # moderate box: approaches -(N+2s) = -1.8 from above (the tight
        # 10% acceptance bound uses the large-box grid)
        assert -2.0 < slope < -1.2

    def test_window_validation(self, frac_q):
        with pytest.raises(GeometryError):
            gs.decay_fit(frac_q.profile, (5.0, 16.0))  # r2 >= L/2
        with pytest.raises(ParameterError):
            gs.decay_fit(frac_q.profile, (8.0, 5.0))

    def test_nonpositive_window_rejected(self):
        grid = sp.GridSpec(1, 40.0, 2048)
        f = sp.Field.from_function(grid, lambda x: np.cos(x))
        with pytest.raises(ParameterError):
            gs.decay_fit(f, (5.0, 15.0))


class TestKirchhoffScale:
    def test_b_zero_closed_form(self, frac_q):
        params = sp.ProblemParams(1, 0.4, 2.0, 2.0, 0.0)
        ground = gs.kirchhoff_scale(frac_q, params, c=1.3)
        assert ground.beta == pytest.approx((1.3 / 2.0) ** (1 / 0.8),
                                            abs=1e-12)
        assert ground.alpha == pytest.approx(1.3, abs=1e-12)

    def test_c_equals_a_pure_amplitude(self, frac_q):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        ground = gs.kirchhoff_scale(frac_q, params, c=1.0)
        assert ground.beta == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(ground.profile.values, frac_q.profile.values)

    def test_bisection_against_independent_oracle(self, frac_q, frac_params):
        # a=1, b=1, c=1: the scalar equation is beta^0.8 + K beta^0.6 = 1
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.0)
        assert ground.beta == pytest.approx(
            scaling_beta(frac_q, frac_params, 1.0), abs=1e-12)

    def test_root_equation_invariant(self, frac_q, frac_params):
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.4)
        pr = frac_params
        lhs = (pr.a * ground.beta ** (2 * pr.s)
               + pr.b * 1.4 ** (2 / (pr.p - 1)) * frac_q.seminorm_sq
               * ground.beta ** (4 * pr.s - pr.dim))
        assert abs(lhs - 1.4) < 1e-12

    def test_scaling_consistency(self, frac_q, frac_params):
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.4)
        pr = frac_params
        expected = (ground.alpha**2 * ground.beta ** (2 * pr.s - pr.dim)
                    * frac_q.seminorm_sq)
        assert ground.seminorm_sq == pytest.approx(expected, rel=1e-10)

    def test_residual_within_ten_base(self, frac_q, frac_params):
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.4)
        assert ground.residual < 10.0 * frac_q.residual

    def test_inadmissible_rejected(self):
        # b > 0 with 4s <= N never reaches kirchhoff_scale: ProblemParams,
        # the only source of its params, refuses it
        with pytest.raises(AdmissibilityError, match="4s"):
            sp.ProblemParams(1, 0.2, 2.0, 1.0, 1.0)

    def test_negative_c_rejected(self, frac_q, frac_params):
        with pytest.raises(ParameterError):
            gs.kirchhoff_scale(frac_q, frac_params, c=-1.0)

    def test_p_mismatch_rejected(self, frac_q):
        # frac_q solves the p = 2 equation; rescaled as a p = 3 state its
        # residual would be O(1)
        params = sp.ProblemParams(1, 0.4, 3.0, 1.0, 0.0)
        with pytest.raises(ParameterError, match="disagree"):
            gs.kirchhoff_scale(frac_q, params, c=1.3)


class TestSolveSystem:
    def test_b_zero_reduces_to_a(self, frac_q):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.3, 0.0)
        system = gs.solve_system(frac_q, params, [1.0, 2.0])
        assert system.kirchhoff_coefficient == 1.3

    def test_single_peak_matches_kirchhoff_scale(self, frac_q, frac_params):
        # the scaling map's alpha = c^(1/(p-1)) and its equation in beta
        system = gs.solve_system(frac_q, frac_params, [1.2])
        alpha = 1.2 ** (1.0 / (frac_params.p - 1.0))
        assert system.alphas[0] == pytest.approx(alpha, abs=1e-12)
        assert system.betas[0] == pytest.approx(
            scaling_beta(frac_q, frac_params, 1.2), rel=1e-10)

    @pytest.mark.parametrize("peaks", [[1.2], [1.0, 1.4], [1.0, 1.5, 0.8]])
    def test_coefficient_solves_its_equation(self, frac_q, frac_params,
                                             peaks):
        pr = frac_params
        coeff = gs.solve_system(frac_q, pr, peaks).kirchhoff_coefficient
        expo = (2.0 * pr.s - pr.dim) / (2.0 * pr.s)
        rhs = pr.a + pr.b * frac_q.seminorm_sq * sum(
            v ** (2.0 / (pr.p - 1.0)) * (v / coeff) ** expo for v in peaks)
        assert abs(coeff - rhs) <= 1e-14 * coeff

    def test_self_consistency_2d(self):
        # spec example: k=2, V = {1, 2}, a=b=1, s=0.75, N=2, p=2
        grid = sp.GridSpec(2, 12.0, 128)
        base = gs.solve_Q(grid, 0.75, 2.0, tol=1e-9)
        params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 1.0)
        system = gs.solve_system(base, params, [1.0, 2.0])
        coeff = system.kirchhoff_coefficient
        assert abs(coeff - system.measured_coefficient()) < 1e-8 * coeff

    def test_coefficient_exceeds_a(self, frac_q, frac_params):
        system = gs.solve_system(frac_q, frac_params, [1.0, 1.5, 0.8])
        assert system.kirchhoff_coefficient > frac_params.a
        for res in system.residuals:
            assert res < 10.0 * frac_q.residual * max(system.peak_values) ** 2

    def test_empty_and_negative_rejected(self, frac_q, frac_params):
        with pytest.raises(ParameterError):
            gs.solve_system(frac_q, frac_params, [])
        with pytest.raises(ParameterError):
            gs.solve_system(frac_q, frac_params, [1.0, -2.0])

    def test_dim_mismatch_rejected(self):
        # a 1D profile under N = 2 exponents: the residuals, which freeze
        # the coefficient, would not show it
        base = gs.solve_Q(sp.GridSpec(1, 20.0, 512), 0.75, 2.0)
        params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.5)
        with pytest.raises(GridMismatchError):
            gs.solve_system(base, params, [1.0, 1.3])


class TestPdeResidual:
    def test_manufactured_plane_wave(self):
        grid = sp.GridSpec(1, 10.0, 256)
        xi0 = grid.wavenumbers_axis[6]
        u = sp.Field.from_function(grid, lambda x: np.cos(xi0 * x))
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        dens = gs.residual_density(u, 0.4, 2.0, 1.0, 1.0, 1.0)
        sup, _ = gs.pde_residual(u, params, 1.0, eps=1.0)
        s_val = sp.seminorm_sq(u, 0.4)
        coef = 1.0 + s_val
        expected = (coef * abs(xi0) ** 0.8 * u.values + u.values
                    - sp.pos_power(u.values, 2.0))
        assert np.abs(dens - expected).max() < 1e-11
        assert sup == np.abs(dens).max()

    def test_zero_field(self):
        grid = sp.GridSpec(1, 10.0, 64)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        sup, l2 = gs.pde_residual(sp.Field.zeros(grid), params, 1.0)
        assert sup == 0.0 and l2 == 0.0

    def test_scaled_ground_state(self, frac_q, frac_params):
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.0)
        sup, _ = gs.pde_residual(ground.profile, frac_params, 1.0, eps=1.0)
        assert sup < 10.0 * frac_q.residual


class TestBoxDoubling:
    def test_profile_converges_under_box_doubling(self):
        peaks, seminorms = [], []
        for L, m in ((15.0, 1024), (30.0, 2048), (60.0, 4096)):
            grid = sp.GridSpec(1, L, m)
            st = gs.solve_Q(grid, 0.4, 2.0, tol=1e-10)
            peaks.append(st.profile.values.max())
            seminorms.append(st.seminorm_sq)
        d_peak = [abs(peaks[i + 1] - peaks[i]) for i in range(2)]
        d_semi = [abs(seminorms[i + 1] - seminorms[i]) for i in range(2)]
        assert d_peak[1] < d_peak[0]
        assert d_semi[1] < d_semi[0]
