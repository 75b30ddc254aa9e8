import json

import numpy as np
import pytest

from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks import verify as vf
from fkpeaks.errors import (BoundaryMinimizerWarning, GeometryError,
                            IterationError, NoContractionError,
                            ParameterError)


from tests_support import TRUNCATES_BY_DESIGN, manufactured_classical


CLASSICAL = sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.0, validation_mode=True)


class TestPohozaev:
    def test_exact_classical_solution(self):
        _, u, pot = manufactured_classical(256)
        rep = vf.pohozaev_residual(u, 0.1, CLASSICAL, pot,
                                   center=[0.15], radius=0.5)
        assert rep.passed
        assert abs(rep.measured["residual_over_epsN"]) < 1e-3

    def test_residual_halves_under_refinement(self):
        res = []
        for m in (128, 256):
            _, u, pot = manufactured_classical(m)
            rep = vf.pohozaev_residual(u, 0.1, CLASSICAL, pot,
                                       center=[0.15], radius=0.5)
            res.append(abs(rep.measured["residual_over_epsN"]))
        assert res[1] < 0.5 * res[0]

    def test_zero_field_all_terms_vanish(self):
        grid, _, pot = manufactured_classical(128)
        zero = sp.Field(grid, np.zeros(grid.shape))
        rep = vf.pohozaev_residual(zero, 0.1, CLASSICAL, pot,
                                   center=[0.15], radius=0.5)
        for key in ("volume", "surface_kirchhoff", "surface_mass",
                    "surface_nonlinear", "residual"):
            assert rep.measured[key] == 0.0

    def test_fractional_is_diagnostic_only(self, frac_q, frac_params):
        from fkpeaks import groundstate as gs
        ground = gs.kirchhoff_scale(frac_q, frac_params, c=1.0)
        prof = ground.profile
        g = prof.grid
        pot = rd.Potential.single_well([0.0], 1.0, [1e-12], m=2.0)
        rep = vf.pohozaev_residual(prof, 1.0, frac_params, pot,
                                   center=[0.0], radius=g.half_width / 4)
        assert rep.passed is None
        assert "diagnostic" in rep.provenance
        assert len(rep.series) > 0

    def test_planar_quadrature_nodes(self):
        # the N=2 nodes: circle length, disc area and second moment
        grid = sp.GridSpec(2, 2.5, 32)
        center, radius = np.array([0.3, -0.2]), 0.7
        pts, normals, w = vf._sphere_nodes(grid, center, radius)
        assert abs(w.sum() - 2 * np.pi * radius) < 1e-14
        assert np.abs(pts - center - radius * normals).max() < 1e-15
        pts, w = vf._ball_quadrature(grid, center, radius)
        assert abs(w.sum() - np.pi * radius**2) < 1e-14
        second = w @ ((pts - center) ** 2).sum(axis=-1)
        assert abs(second - np.pi * radius**4 / 2) < 1e-14

    def test_geometry_error(self):
        grid, u, pot = manufactured_classical(128)
        with pytest.raises(GeometryError):
            vf.pohozaev_residual(u, 0.1, CLASSICAL, pot,
                                 center=[1.5], radius=1.0)

    def test_radius_scan_reports_best(self):
        _, u, pot = manufactured_classical(256)
        rep = vf.pohozaev_residual(u, 0.1, CLASSICAL, pot,
                                   center=[0.15], radius=0.5)
        assert rep.measured["best_abs_residual"] <= abs(
            rep.measured["residual"]) * (1 + 1e-12)


class TestSobolevScaling:
    def test_q2_ratio_below_one_for_unit_potential(self):
        grid = sp.GridSpec(1, 6.0, 256)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        rep = vf.sobolev_scaling_check(grid, params,
                                       rd.Potential.constant(1.0, dim=1),
                                       eps_list=[0.4, 0.2, 0.1, 0.05],
                                       q=2.0, samples=6, seed=77)
        assert rep.passed
        assert rep.measured["max_ratio"] <= 1.0 + 1e-12

    def test_ratio_stable_under_eps_halvings(self):
        grid = sp.GridSpec(1, 6.0, 256)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        rep = vf.sobolev_scaling_check(
            grid, params, rd.Potential.constant(1.0, dim=1),
            eps_list=[0.4, 0.2, 0.1, 0.05, 0.025],
            q=4.0, samples=4, seed=11,
        )
        assert rep.passed
        series = rep.series
        vals = [r["max_ratio"] for r in series]
        assert max(vals) / min(vals) < 2.0

    @TRUNCATES_BY_DESIGN
    def test_constant_field_matches_direct_computation(self):
        grid = sp.GridSpec(1, 6.0, 256)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        phi = sp.Field(grid, np.ones(grid.shape))
        eps, q = 0.2, 4.0
        lq = sp.lq_norm(phi, q)
        pot = rd.Potential.constant(1.0)
        fr = rd.Reducer(grid, params, pot).frame(
            rd.PeakConfig(eps, pot.peaks, delta=0.5, theta=0.8))
        ne = fr.eps_norm(phi.values)
        direct = lq / (eps ** (1 / q - 0.5) * ne)
        assert np.isfinite(direct) and direct > 0

    def test_q_out_of_range(self):
        grid = sp.GridSpec(1, 6.0, 256)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            vf.sobolev_scaling_check(grid, params,
                                     rd.Potential.constant(1.0, dim=1),
                                     [0.4, 0.2, 0.1], q=11.0, samples=2,
                                     seed=1)

    @pytest.mark.parametrize("eps_list", [[0.1], [0.2, 0.1],
                                          [0.2, 0.1, 0.1]])
    def test_fewer_than_three_distinct_eps_rejected(self, eps_list):
        # one eps makes a rank-deficient slope fit, and with two the
        # large-eps and small-eps windows are the same two points
        grid = sp.GridSpec(1, 6.0, 256)
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError, match="three distinct eps"):
            vf.sobolev_scaling_check(grid, params,
                                     rd.Potential.constant(1.0, dim=1),
                                     eps_list, q=2.0, samples=2, seed=1)


class TestInteractionInequality:
    def test_endpoint_evaluation(self):
        # y = x_i: LHS = (1+d)^-beta; the fitted C must cover it
        x_i, x_j = np.array([0.0]), np.array([2.0])
        alpha = beta = sigma = 2.0
        rep = vf.interaction_inequality_check(x_i, x_j, alpha, beta, sigma,
                                              samples=3000, seed=4)
        d = 2.0
        lhs = (1 + d) ** (-beta)
        rhs_core = d ** (-sigma) * (1.0 + (1 + d) ** (sigma - alpha - beta))
        assert rep.measured["C"] * rhs_core >= lhs - 1e-12

    def test_constant_stable_as_separation_doubles(self):
        cs = []
        for d in (2.0, 4.0, 8.0):
            rep = vf.interaction_inequality_check(
                [0.0], [d], 2.0, 2.0, 2.0, samples=20000, seed=descriptive_seed(d),
            )
            cs.append(rep.measured["C"])
        # < 2x spread per doubling of the separation
        for c_prev, c_next in zip(cs, cs[1:]):
            assert max(c_next, c_prev) / min(c_next, c_prev) < 2.0

    def test_no_violations_in_fresh_sample(self):
        rep = vf.interaction_inequality_check(
            [0.0, 0.0], [3.0, 1.0], 2.4, 1.8, 1.5, samples=100000, seed=99,
        )
        assert rep.passed
        assert rep.measured["violations"] == 0

    def test_sigma_validation(self):
        with pytest.raises(ParameterError):
            vf.interaction_inequality_check([0.0], [1.0], 2.0, 2.0, 2.5,
                                            samples=10, seed=1)
        with pytest.raises(ParameterError):
            vf.interaction_inequality_check([1.0], [1.0], 2.0, 2.0, 1.0,
                                            samples=10, seed=1)


def descriptive_seed(d):
    return int(1000 + 10 * d)


class TestWrongAnsatz:
    def test_single_peak_no_gap(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        pot = rd.Potential.single_well([0.0], 1.0, [1.0], m=2.0)
        grid = sp.GridSpec(1, 6.0, 1024)
        rep = vf.wrong_ansatz_gap(grid, params, pot,
                                  eps_list=[0.004, 0.002, 0.0012, 0.0008])
        assert rep.passed
        # one peak has no obstruction: the report names the gate applied
        # to both projections, not the two-peak `tol`
        assert rep.tolerance == vf.NO_OBSTRUCTION_TOL
        assert rep.measured["relative_gap_error"] < rep.tolerance
        assert rep.measured["system_contrast"] < rep.tolerance

    def test_empty_eps_rejected(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
        pot = rd.Potential.single_well([0.0], 1.0, [1.0], m=2.0)
        grid = sp.GridSpec(1, 6.0, 64)
        with pytest.raises(ParameterError, match="nonempty eps"):
            vf.wrong_ansatz_gap(grid, params, pot, [])

    def test_b_zero_no_gap(self):
        params = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        pot = rd.Potential.multi_well(
            centers=[[-1.0], [1.0]], values=[1.0, 1.5],
            coeffs=[[1.0], [1.0]], m=2.0, far_value=2.2, plateau=0.7,
        )
        grid = sp.GridSpec(1, 8.0, 1024)
        rep = vf.wrong_ansatz_gap(grid, params, pot,
                                  eps_list=[0.06, 0.03, 0.02, 0.012])
        assert rep.passed


class TestAsymptoticsFit:
    @staticmethod
    def synthetic_records(exponent=2.3, drift_pow=1.3, eps=(0.4, 0.2, 0.1, 0.04)):
        return [
            {"eps": e, "correction_norm": 0.7 * e**exponent,
             "drift": [0.05 * e**drift_pow]}
            for e in eps
        ]

    def test_fits_synthetic_exponent(self):
        rep = vf.asymptotics_fit(self.synthetic_records(), m=2.0, dim=1)
        assert rep.passed
        assert rep.measured["correction_exponent"] == pytest.approx(2.3,
                                                                    abs=1e-9)

    def test_frozen_potential_skips_exponent(self):
        recs = [
            {"eps": e, "correction_norm": 1e-14, "drift": [0.0]}
            for e in (0.4, 0.2, 0.1, 0.04)
        ]
        rep = vf.asymptotics_fit(recs, m=2.0, dim=1)
        assert rep.measured["correction_exponent"] is None
        assert "skipped" in rep.notes

    def test_increasing_drift_fails(self):
        recs = self.synthetic_records(drift_pow=0.5)
        for r in recs:
            r["drift"] = [0.05 / r["eps"] ** 0.2 * r["eps"]]
        rep = vf.asymptotics_fit(recs, m=2.0, dim=1)
        assert not rep.passed

    def test_requires_four_eps_and_a_decade(self):
        with pytest.raises(ParameterError):
            vf.asymptotics_fit(self.synthetic_records(eps=(0.4, 0.2, 0.1)),
                               m=2.0, dim=1)
        with pytest.raises(ParameterError):
            vf.asymptotics_fit(
                self.synthetic_records(eps=(0.4, 0.3, 0.2, 0.1)),
                m=2.0, dim=1,
            )

    def test_non_monotone_series_noted(self):
        recs = self.synthetic_records()
        recs[2]["correction_norm"] *= 30.0
        rep = vf.asymptotics_fit(recs, m=2.0, dim=1)
        assert "fit-quality warning" in rep.notes


@pytest.fixture(scope="module")
def quick_reducer():
    params = sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.25,
                              validation_mode=True)
    grid = sp.GridSpec(1, 3.0, 256)
    pot = rd.Potential.single_well([0.2], 1.0, [1.0], m=2.0,
                                   holder=1.0, asym=0.15, asym_power=3.0)
    return rd.Reducer(grid, params, pot)


class TestUniquenessProbe:
    def test_distinct_starts_agree(self, quick_reducer):
        starts = [
            rd.PeakConfig(0.1, [[0.2 + off]], delta=0.4, theta=0.8)
            for off in (0.08, -0.06)
        ]
        rep = vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)
        assert rep.passed
        assert rep.measured["pairwise_sup_diff"] < 1e-6

    def test_identical_starts_bitwise(self, quick_reducer):
        cfg = rd.PeakConfig(0.1, [[0.26]], delta=0.4, theta=0.8)
        _, s1, _ = rd.minimize_peaks(quick_reducer, cfg)
        _, s2, _ = rd.minimize_peaks(quick_reducer, cfg)
        assert np.array_equal(s1.solution.values, s2.solution.values)

    def test_start_outside_d_rejected_before_solving(self, quick_reducer):
        starts = [
            rd.PeakConfig(0.1, [[0.25]], delta=0.4, theta=0.8),
            rd.PeakConfig(0.1, [[0.9]], delta=0.4, theta=0.8),
            rd.PeakConfig(0.1, [[0.15]], delta=0.4, theta=0.8),
        ]
        rep = vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)
        assert len(rep.measured["rejected"]) == 1
        assert rep.measured["rejected"][0]["start"] == 1

    def test_failed_start_yields_partial_report(self, quick_reducer,
                                                monkeypatch):
        calls = {"n": 0}
        real = rd.minimize_peaks

        def flaky(red, cfg, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NoContractionError("forced failure")
            return real(red, cfg, **kw)

        monkeypatch.setattr(rd, "minimize_peaks", flaky)
        starts = [
            rd.PeakConfig(0.1, [[0.25]], delta=0.4, theta=0.8),
            rd.PeakConfig(0.1, [[0.28]], delta=0.4, theta=0.8),
            rd.PeakConfig(0.1, [[0.15]], delta=0.4, theta=0.8),
        ]
        rep = vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)
        assert rep.passed is False
        assert rep.notes == "partial report"
        assert len(rep.measured["failed"]) == 1
        assert rep.measured["failed"][0]["start"] == 1

    def test_singular_search_is_a_failed_start(self, quick_reducer,
                                               monkeypatch):
        # zero multipliers make the Schur complement of the bordered
        # Newton system zero
        bordered = rd._bordered

        def zero_multipliers(*args):
            d, mu, its = bordered(*args)
            return d, np.zeros_like(mu), its

        monkeypatch.setattr(rd, "_bordered", zero_multipliers)
        cfg = rd.PeakConfig(0.1, [[0.25]], delta=0.4, theta=0.8)
        with pytest.raises(IterationError, match="eigenvalues"):
            rd.minimize_peaks(quick_reducer, cfg)
        rep = vf.uniqueness_probe(quick_reducer, [cfg], tol=1e-6)
        assert rep.passed is False
        assert [f["start"] for f in rep.measured["failed"]] == [0]

    def test_boundary_minimizers_fail_the_probe(self, quick_reducer):
        # the interior minimiser lies 2.2e-3 from the well, outside
        # D_{eps,delta}: both searches end on its boundary at one y
        starts = [rd.PeakConfig(0.1, [[y]], delta=1.1e-3, theta=0.8)
                  for y in (0.2, 0.20022)]
        with pytest.warns(BoundaryMinimizerWarning):
            rep = vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)
        assert rep.passed is False
        failed = rep.measured["failed"]
        assert [f["start"] for f in failed] == [0, 1]
        assert all(f["record"]["search"]["termination"] == "boundary"
                   for f in failed)

    @pytest.mark.parametrize("eps_list", [[], [0.1, 0.05]])
    def test_starts_at_one_eps_required(self, quick_reducer, eps_list):
        # the probe reads eps from its starts: none, or two eps, is an error
        starts = [rd.PeakConfig(e, [[0.25]], delta=0.4, theta=0.8)
                  for e in eps_list]
        with pytest.raises(ParameterError, match="one eps"):
            vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)

    def test_programming_error_propagates(self, quick_reducer, monkeypatch):
        def broken(red, cfg, **kw):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(rd, "minimize_peaks", broken)
        starts = [rd.PeakConfig(0.1, [[0.25]], delta=0.4, theta=0.8)]
        with pytest.raises(TypeError):
            vf.uniqueness_probe(quick_reducer, starts, tol=1e-6)


class TestCheckReport:
    def test_json_round_trip(self):
        rep = vf.CheckReport(
            name="demo", inputs_digest="abc", measured={"x": 1.0},
            expected={"x": 0.0}, tolerance=0.1, passed=True,
            provenance="unit-test",
        )
        # as report.json writes it
        data = json.loads(json.dumps(rep.as_dict()))
        assert data["name"] == "demo" and data["passed"] is True
        assert vf.CheckReport(**data) == rep

    def test_digest_reproducible(self):
        payload = {"a": 1, "b": [1.5, 2.5]}
        assert vf.digest_inputs(payload) == vf.digest_inputs(dict(payload))
