"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion with its wall time.  The heavy 2D sweep backing criteria
8-10 is computed once per session.
"""

import time

import numpy as np
import pytest

from fkpeaks import groundstate as gs
from fkpeaks import kernel as kn
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks import verify as vf
from tests_support import TRUNCATES_BY_DESIGN


def announce(number: int, t0: float, detail: str) -> None:
    print(f"\nPASS criterion {number} ({time.time() - t0:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frac_base_fine():
    """Fractional base profile for the scaling-map criteria (s=0.4)."""
    grid = sp.GridSpec(1, 30.0, 2048)
    return gs.solve_Q(grid, 0.4, 2.0, tol=1e-11)


@pytest.fixture(scope="module")
def sweep_2d():
    """(N=2, s=0.75) well sweep shared by criteria 8, 9, 10.

    m = 2 requires 2m < N + 4s for the correction bound of the theory to
    apply, which rules out the (N=1, s=0.4) point used by criterion 7;
    see the contraction criterion for that regime.
    """
    params = sp.ProblemParams(2, 0.75, 2.0, 1.0, 0.05)
    pot = rd.Potential.single_well([0.2, -0.1], 1.0, [0.6, 0.4], m=2.0,
                                   holder=1.0, asym=0.1, asym_power=3.0)
    grid = sp.GridSpec(2, 2.5, 256)
    red = rd.Reducer(grid, params, pot)
    t0 = time.time()
    records = rd.sweep_reduction(
        red, [0.25, 0.125, 0.0625, 0.025], delta=0.4, theta=0.8,
        y0_offset=np.full((1, 2), 0.05), minimize=True,
    )
    wall = time.time() - t0
    return {"params": params, "pot": pot, "grid": grid, "red": red,
            "records": records, "wall": wall}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_spectral_exactness(self):
        t0 = time.time()
        grid = sp.GridSpec(1, 10.0, 256)
        worst = 0.0
        for s in (0.4, 0.75, 1.0):
            for k in (2, 5, 17, 60, 120):
                xi0 = grid.wavenumbers_axis[k]
                f = sp.Field.from_function(grid,
                                           lambda x: np.cos(xi0 * x))
                out = sp.fractional_laplacian(f, s)
                lam = abs(xi0) ** (2 * s)
                err = np.abs(out.values - lam * f.values).max() / lam
                worst = max(worst, err)
                assert err < 1e-12
        announce(1, t0, f"plane-wave multiplier exact, worst rel err "
                        f"{worst:.2e} <= 1e-12 at M=256, s in {{0.4,0.75,1}}")


class TestCriterion2:
    def test_classical_limit_oracles(self):
        t0 = time.time()
        grid = sp.GridSpec(1, 20.0, 1024)
        st3 = gs.solve_Q(grid, 1.0, 3.0, tol=1e-11)
        err3 = np.abs(st3.profile.values
                      - np.sqrt(2.0) / np.cosh(grid.axis)).max()
        st2 = gs.solve_Q(grid, 1.0, 2.0, tol=1e-11)
        err2 = np.abs(st2.profile.values
                      - 1.5 / np.cosh(grid.axis / 2.0) ** 2).max()
        assert err3 < 1e-6
        assert err2 < 1e-6
        announce(2, t0, f"solve_Q matches closed forms: p=3 err {err3:.1e}, "
                        f"p=2 err {err2:.1e} < 1e-6 (M=1024, L=20)")


class TestCriterion3:
    def test_decay_exponent(self):
        t0 = time.time()
        grid = sp.GridSpec(1, 480.0, 32768)
        st = gs.solve_Q(grid, 0.4, 2.0, tol=1e-10)
        slope = gs.decay_fit(st, (40.0, 160.0))
        target = -(1.0 + 2.0 * 0.4)
        assert abs(slope - target) < 0.1 * abs(target)
        announce(3, t0, f"far-field slope {slope:.4f} within 10% of "
                        f"{target} (s=0.4, N=1, p=2)")


class TestCriterion4:
    def test_scaling_maps(self, frac_base_fine):
        t0 = time.time()
        base = frac_base_fine
        assert base.residual < 1e-10
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        ground = gs.kirchhoff_scale(base, params, c=1.3)
        assert ground.residual < 1e-8
        p0 = sp.ProblemParams(1, 0.4, 2.0, 2.0, 0.0)
        g0 = gs.kirchhoff_scale(base, p0, c=1.3)
        beta_exact = (1.3 / 2.0) ** (1.0 / 0.8)
        assert abs(g0.beta - beta_exact) < 1e-12
        assert abs(g0.alpha - 1.3) < 1e-12
        announce(4, t0, f"scaled residual {ground.residual:.1e} < 1e-8 "
                        f"(base {base.residual:.1e}); b=0 closed form exact "
                        f"to {abs(g0.beta - beta_exact):.1e}")


class TestCriterion5:
    def test_system_self_consistency(self, frac_base_fine):
        t0 = time.time()
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        worst = 0.0
        for peaks in ([1.0], [1.0, 1.4], [1.0, 1.4, 0.8]):
            system = gs.solve_system(frac_base_fine, params, peaks)
            coeff = system.kirchhoff_coefficient
            rel = abs(coeff - system.measured_coefficient()) / coeff
            worst = max(worst, rel)
            assert rel < 1e-8
        single = gs.solve_system(frac_base_fine, params, [1.0])
        ground = gs.kirchhoff_scale(frac_base_fine, params, c=1.0)
        assert abs(single.alphas[0] - ground.alpha) < 1e-10
        assert abs(single.betas[0] - ground.beta) < 1e-10
        announce(5, t0, f"coefficient self-consistency {worst:.1e} < 1e-8 "
                        f"for k in {{1,2,3}}; k=1 path matches the scaling "
                        f"map to 1e-10")


class TestCriterion6:
    def test_nondegeneracy(self):
        t0 = time.time()
        grid = sp.GridSpec(1, 15.0, 512)
        base = gs.solve_Q(grid, 0.4, 2.0, tol=1e-11)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        ground = gs.kirchhoff_scale(base, params, c=1.0)
        op = kn.LinearizedOperator.from_kirchhoff(ground)
        report = kn.kernel_report(op, n=6)
        assert report["kernel_dim"] == 1
        assert all(c > 0.99 for c in report["kernel_cosines"])
        absvals = sorted(abs(v) for v in report["eigenvalues"])
        assert absvals[1] >= 10.0 * report["threshold"]
        announce(6, t0, f"kernel dim {report['kernel_dim']} = N, cosine "
                        f"{min(report['kernel_cosines']):.6f} > 0.99, next "
                        f"|eig| {absvals[1]:.2e} >= 10x threshold "
                        f"(M=512, N=1)")


@TRUNCATES_BY_DESIGN
class TestCriterion7:
    def test_contraction_sweep(self):
        t0 = time.time()
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25)
        grid = sp.GridSpec(1, 4.0, 1024)
        pot = rd.Potential.single_well([0.3], 1.0, [1.0], m=2.0, holder=1.0)
        red = rd.Reducer(grid, params, pot)
        worst_ratio, worst_orth = 0.0, 0.0
        for eps in (0.16, 0.08, 0.04, 0.02):
            cfg = rd.PeakConfig(eps, [[0.4]], delta=0.5, theta=0.8)
            sol = rd.solve_correction(red, cfg)
            assert len(sol.contraction_ratios) >= 1
            assert all(r < 1.0 for r in sol.contraction_ratios)
            orth = float(np.abs(sol.orthogonality).max())
            assert orth < 1e-8
            worst_ratio = max(worst_ratio, max(sol.contraction_ratios))
            worst_orth = max(worst_orth, orth)
        announce(7, t0, f"(N=1, s=0.4, p=2, m=2, k=1): max ratio "
                        f"{worst_ratio:.3f} < 1, max orthogonality "
                        f"{worst_orth:.1e} < 1e-8, eps in [0.02, 0.16]")


@TRUNCATES_BY_DESIGN
class TestCriterion8:
    def test_energy_expansion(self, sweep_2d):
        t0 = time.time()
        params, pot, red = (sweep_2d["params"], sweep_2d["pot"],
                            sweep_2d["red"])
        gz = sp.GridSpec(2, 16.0, 384)
        base = gs.solve_Q(gz, 0.75, 2.0, tol=1e-10)
        system = gs.solve_system(base, params, [pot(pot.peaks[0])])
        a_const, b_consts = rd.energy_constants(system)
        # j_eps(a)/eps^N at the smallest swept eps, peaks at the well bottom
        eps = 0.025
        sol_a = rd.solve_correction(red, rd.PeakConfig(eps, pot.peaks,
                                                       0.4, 0.8))
        ratio = sol_a.reduced_energy / eps**2
        rel_a = abs(ratio - a_const) / a_const
        assert rel_a < 0.05
        # finite-difference probe of the B_i (V(y) - V(a)) term
        eps_b, h = 0.0625, 0.15
        base_sol = rd.solve_correction(red, rd.PeakConfig(eps_b, pot.peaks,
                                                          0.4, 0.8))
        ypert = pot.peaks.copy()
        ypert[0, 0] += h
        pert_sol = rd.solve_correction(red, rd.PeakConfig(eps_b, ypert,
                                                          0.4, 0.8))
        dv = pot(ypert[0]) - pot(pot.peaks[0])
        b_est = (pert_sol.reduced_energy - base_sol.reduced_energy) / (
            eps_b**2 * dv)
        rel_b = abs(b_est - b_consts[0]) / b_consts[0]
        assert rel_b < 0.15
        announce(8, t0, f"j(a)/eps^N = {ratio:.4f} vs A = {a_const:.4f} "
                        f"(rel {rel_a:.4f} < 0.05); B probe rel {rel_b:.4f}"
                        f" < 0.15")


@TRUNCATES_BY_DESIGN
class TestCriterion9:
    def test_asymptotic_exponents(self, sweep_2d):
        t0 = time.time()
        fit = vf.asymptotics_fit(sweep_2d["records"], m=2.0,
                                 dim=sweep_2d["params"].dim)
        assert fit.passed
        exponent = fit.measured["correction_exponent"]
        assert exponent >= sweep_2d["params"].dim / 2.0 + 0.8 * 2.0
        ratios = fit.measured["drift_over_eps"]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        # largest-vs-smallest eps: the drift ratio must drop at least 2x
        assert ratios[0] >= 2.0 * ratios[-1]
        announce(9, t0, f"correction exponent {exponent:.2f} >= "
                        f"{sweep_2d['params'].dim / 2 + 1.6}; drift/eps "
                        f"strictly decreasing {[f'{r:.3f}' for r in ratios]} "
                        f"(sweep wall {sweep_2d['wall']:.0f}s < 20 min)")


@TRUNCATES_BY_DESIGN
class TestCriterion10:
    def test_local_uniqueness(self, sweep_2d):
        t0 = time.time()
        red, pot = sweep_2d["red"], sweep_2d["pot"]
        eps = 0.025
        starts = [
            rd.PeakConfig(eps, pot.peaks + off, 0.4, 0.8)
            for off in (np.array([[0.05, 0.05]]),
                        np.array([[-0.06, 0.02]]),
                        np.array([[0.01, -0.07]]))
        ]
        rep = vf.uniqueness_probe(red, eps, starts, tol=1e-6)
        assert rep.passed
        assert rep.measured["pairwise_sup_diff"] < 1e-6
        announce(10, t0, f"3 distinct starts agree to "
                         f"{rep.measured['pairwise_sup_diff']:.1e} < 1e-6 "
                         f"sup-norm at eps = {eps}")


class TestCriterion11:
    def test_wrong_ansatz_gap(self):
        t0 = time.time()
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.5],
            coeffs=[[1.0], [1.0]], m=2.0, far_value=2.2, plateau=0.7,
        )
        grid = sp.GridSpec(1, 8.0, 2048)
        rep = vf.wrong_ansatz_gap(
            grid, params, pot, eps_list=[0.004, 0.0025, 0.0015, 0.001],
            tol=0.2, contrast_tol=0.05,
        )
        assert rep.passed
        assert rep.measured["relative_gap_error"] < 0.2
        assert rep.measured["system_contrast"] < 0.05
        announce(11, t0, f"k=2, b=1 projected gap within "
                         f"{rep.measured['relative_gap_error']:.3f} of "
                         f"b K_1 ||(-D)^(s/2)u1||^2 (tol 20%); system "
                         f"contrast {rep.measured['system_contrast']:.3f}"
                         f" < 5%")


class TestCriterion12:
    def test_pohozaev_classical(self):
        from tests_support import manufactured_classical
        t0 = time.time()
        params = sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.0,
                                  validation_mode=True)
        residuals = []
        for m_pts in (128, 256):
            _, u, pot = manufactured_classical(m_pts)
            rep = vf.pohozaev_residual(u, 0.1, params, pot,
                                       center=[0.15], radius=0.5)
            assert rep.passed
            residuals.append(abs(rep.measured["residual_over_epsN"]))
        assert residuals[0] < 1e-3
        assert residuals[1] < 0.5 * residuals[0]
        # fractional mode: residual is emitted as a diagnostic, never gated
        grid = sp.GridSpec(1, 30.0, 1024)
        base = gs.solve_Q(grid, 0.4, 2.0, tol=1e-10)
        frac_params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        ground = gs.kirchhoff_scale(base, frac_params, c=1.0)
        pot = rd.Potential.single_well([0.0], 1.0, [1e-12], m=2.0)
        frac_rep = vf.pohozaev_residual(
            ground.profile, 1.0, frac_params, pot, center=[0.0],
            radius=ground.profile.grid.half_width / 4,
        )
        assert frac_rep.passed is None
        announce(12, t0, f"classical residual/eps^N {residuals[0]:.1e} -> "
                         f"{residuals[1]:.1e} under grid doubling "
                         f"(< 1e-3, better than halved); fractional mode "
                         f"diagnostic-only")
