import json

import numpy as np
import pytest

from fkpeaks import cli
from fkpeaks import io as fio
from fkpeaks import spectral as sp
from fkpeaks.errors import BoundaryMinimizerWarning, ParameterError
from tests_support import TRUNCATES_BY_DESIGN


def manifest_groundstate(tmp_path):
    return {
        "command": "groundstate",
        "params": {"dim": 1, "s": 1.0, "p": 3.0, "a": 1.0, "b": 0.0,
                   "validation_mode": True},
        "grid": {"half_width": 20.0, "points_per_dim": 1024},
        "output_dir": str(tmp_path / "run"),
    }


def manifest_sweep(tmp_path):
    return {
        "command": "sweep",
        "params": {"dim": 1, "s": 1.0, "p": 3.0, "a": 1.0, "b": 0.25,
                   "validation_mode": True},
        "grid": {"half_width": 3.0, "points_per_dim": 256},
        "potential": {"kind": "single_well", "center": [0.2], "value": 1.0,
                      "coeffs": [1.0], "m": 2.0, "asym": 0.15,
                      "asym_power": 3.0},
        "eps": [0.4, 0.2, 0.1, 0.04],
        "delta": 0.5,
        "theta": 0.8,
        "output_dir": str(tmp_path / "sweep"),
    }


class TestManifest:
    def test_round_trip_lossless(self, tmp_path):
        m = cli.RunManifest.from_dict(manifest_sweep(tmp_path))
        again = cli.RunManifest.from_dict(
            json.loads(json.dumps(m.to_dict()))
        )
        assert again == m

    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError):
            cli.RunManifest.from_dict({"command": "sweep", "bogus": 1})

    def test_validation_before_compute(self, tmp_path):
        bad = manifest_groundstate(tmp_path)
        bad["params"]["p"] = 1.0
        status, run_dir = cli.run(cli.RunManifest.from_dict(bad))
        assert status == 2
        assert run_dir is None

    def test_validation_cites_subcritical_window(self, tmp_path, capsys):
        bad = manifest_groundstate(tmp_path)
        bad["params"] = {"dim": 1, "s": 0.4, "p": 1.0, "a": 1.0, "b": 0.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        status = cli.main(["groundstate", "--manifest", str(path)])
        assert status == 2
        assert "subcritical window" in capsys.readouterr().err


class TestGroundstateCommand:
    def test_snapshot_matches_soliton(self, tmp_path):
        m = cli.RunManifest.from_dict(manifest_groundstate(tmp_path))
        status, run_dir = cli.run(m)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is True
        field, meta = fio.load_field(run_dir / "groundstate")
        exact = np.sqrt(2.0) / np.cosh(field.grid.axis)
        assert np.abs(field.values - exact).max() < 1e-6
        assert (run_dir / "profile.csv").exists()
        assert (run_dir / "version.json").exists()
        assert (run_dir / "README.md").exists()

    def test_manifest_copied_verbatim(self, tmp_path):
        m = cli.RunManifest.from_dict(manifest_groundstate(tmp_path))
        _, run_dir = cli.run(m)
        copied = json.loads((run_dir / "manifest.json").read_text())
        assert cli.RunManifest.from_dict(copied) == m


class TestSystemCommand:
    def test_system_report(self, tmp_path):
        m = cli.RunManifest.from_dict({
            "command": "system",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 1.0},
            "grid": {"half_width": 30.0, "points_per_dim": 1024},
            "options": {"peak_values": [1.0, 1.5]},
            "output_dir": str(tmp_path / "system"),
        })
        status, run_dir = cli.run(m)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["self_consistency_rel"] < 1e-8
        assert (run_dir / "peak_0.bin").exists()
        assert (run_dir / "peak_1.bin").exists()


@TRUNCATES_BY_DESIGN
class TestSweepCommand:
    def test_sweep_emits_records_and_asymptotics(self, tmp_path):
        m = cli.RunManifest.from_dict(manifest_sweep(tmp_path))
        status, run_dir = cli.run(m)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["records"]) == 4
        assert report["asymptotics"]["passed"] is True
        csv_text = (run_dir / "sweep.csv").read_text()
        assert csv_text.count("\n") == 5  # header + 4 eps rows
        assert (run_dir / "asymptotics.json").exists()

    def test_rerun_reproduces_numeric_outputs(self, tmp_path):
        spec1 = manifest_sweep(tmp_path)
        spec1["output_dir"] = str(tmp_path / "a")
        spec2 = dict(manifest_sweep(tmp_path))
        spec2["output_dir"] = str(tmp_path / "b")
        _, dir1 = cli.run(cli.RunManifest.from_dict(spec1))
        _, dir2 = cli.run(cli.RunManifest.from_dict(spec2))
        assert (dir1 / "sweep.csv").read_bytes() == \
            (dir2 / "sweep.csv").read_bytes()


class TestReduceCommand:
    def test_reduce_reports_orthogonality(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.1]
        spec["output_dir"] = str(tmp_path / "reduce")
        status, run_dir = cli.run(cli.RunManifest.from_dict(spec))
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["orthogonality"] < 1e-8
        assert all(r < 1.0 for r in report["contraction_ratios"])
        assert (run_dir / "solution.bin").exists()
        assert report["search"]["termination"] == "converged"
        assert all(ev > 0 for ev in report["search"]["hessian_eigenvalues"])

    def test_boundary_minimizer_fails_the_gate(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.1]
        spec["delta"] = 1e-4
        spec["output_dir"] = str(tmp_path / "reduce")
        with pytest.warns(BoundaryMinimizerWarning):
            status, run_dir = cli.run(cli.RunManifest.from_dict(spec))
        assert status == 1
        report = json.loads((run_dir / "report.json").read_text())
        assert report["search"]["termination"] == "boundary"


class TestVerifyCommand:
    def test_interaction_check_via_cli(self, tmp_path):
        m = cli.RunManifest.from_dict({
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"check": "interaction", "x_i": [0.0], "x_j": [2.0],
                        "alpha": 2.0, "beta": 2.0, "sigma": 2.0,
                        "samples": 5000},
            "output_dir": str(tmp_path / "verify"),
        })
        status, run_dir = cli.run(m)
        assert status == 0
        assert (run_dir / "checks.jsonl").exists()
        assert (run_dir / "checks.csv").exists()

    def test_pohozaev_check_on_pipeline_solution(self, tmp_path):
        m = cli.RunManifest.from_dict({
            "command": "verify",
            "params": {"dim": 1, "s": 1.0, "p": 3.0, "a": 1.0, "b": 0.25,
                       "validation_mode": True},
            "grid": {"half_width": 3.0, "points_per_dim": 256},
            "potential": {"kind": "single_well", "center": [0.2],
                          "value": 1.0, "coeffs": [1.0], "m": 2.0},
            "eps": [0.1],
            "options": {"check": "pohozaev", "radius": 0.6},
            "output_dir": str(tmp_path / "poho"),
        })
        status, run_dir = cli.run(m)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["check"] == "pohozaev_residual"

    def test_unknown_check_rejected(self, tmp_path):
        m = cli.RunManifest.from_dict({
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"check": "nope"},
            "output_dir": str(tmp_path / "verify2"),
        })
        status, _ = cli.run(m)
        assert status == 3


@TRUNCATES_BY_DESIGN
class TestThreadsAndVerbose:
    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = manifest_sweep(tmp_path)
        serial["eps"] = [0.4, 0.2]
        serial["output_dir"] = str(tmp_path / "serial")
        parallel = manifest_sweep(tmp_path)
        parallel["eps"] = [0.4, 0.2]
        parallel["threads"] = 2
        parallel["output_dir"] = str(tmp_path / "parallel")
        _, d1 = cli.run(cli.RunManifest.from_dict(serial))
        _, d2 = cli.run(cli.RunManifest.from_dict(parallel))
        r1 = json.loads((d1 / "report.json").read_text())["records"]
        r2 = json.loads((d2 / "report.json").read_text())["records"]
        for a, b in zip(r1, r2):
            assert a["phi_norm"] == pytest.approx(b["phi_norm"], rel=1e-8)

    def test_verbose_iteration_log(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.2]
        spec["options"] = {"verbose": True, "minimize": False}
        spec["output_dir"] = str(tmp_path / "verbose")
        status, run_dir = cli.run(cli.RunManifest.from_dict(spec))
        assert status == 0
        lines = (run_dir / "iterations.jsonl").read_text().splitlines()
        assert len(lines) >= 1
        assert "increment_eps_norm" in lines[0]


class TestEnvOutputRoot:
    def test_env_var_used_when_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / "envroot"))
        spec = manifest_groundstate(tmp_path)
        spec["output_dir"] = ""
        status, run_dir = cli.run(cli.RunManifest.from_dict(spec))
        assert status == 0
        assert str(run_dir).startswith(str(tmp_path / "envroot"))


class TestSnapshots:
    def test_bitwise_round_trip(self, tmp_path):
        grid = sp.GridSpec(2, 3.0, 32)
        rng = np.random.default_rng(3)
        f = sp.Field(grid, rng.standard_normal(grid.shape))
        fio.save_field(f, tmp_path / "snap", meta={"tag": 1})
        g, meta = fio.load_field(tmp_path / "snap")
        assert np.array_equal(f.values, g.values)
        assert meta["tag"] == 1
        assert meta["byteorder"] == "little"

    def test_csv_round_trip(self, tmp_path):
        grid = sp.GridSpec(1, 3.0, 32)
        f = sp.Field.from_function(grid, lambda x: np.exp(-x**2))
        fio.save_profile_csv(f, tmp_path / "p.csv")
        g = fio.load_profile_csv(tmp_path / "p.csv", grid)
        assert np.array_equal(f.values, g.values)
