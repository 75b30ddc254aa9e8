import csv
import json
import math
import re
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from fkpeaks import cli
from fkpeaks import io as fio
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from fkpeaks import verify as vf
from fkpeaks.errors import (
    BoundaryMinimizerWarning,
    NoContractionError,
    ParameterError,
)
from fkpeaks.groundstate import kirchhoff_scale, solve_Q
from tests_support import TRUNCATES_BY_DESIGN


def readme_names() -> list[str]:
    """The file names and patterns a run directory's README lists."""
    layout = cli.RUN_README.split("====\n", 1)[1].split("\n\n", 1)[0]
    return [name for line in layout.splitlines() if not line.startswith(" ")
            for name in line.split("  ", 1)[0].split(" / ")]


@pytest.fixture(autouse=True)
def run_directories_explain_themselves(monkeypatch):
    """Every file that a run in this module writes to its run directory
    matches a name or pattern that the directory's README lists."""
    names = readme_names()
    run = cli.run

    def checked(*args, **kwargs):
        status, run_dir = run(*args, **kwargs)
        if run_dir is not None:
            unlisted = [p.name for p in run_dir.iterdir()
                        if not any(fnmatch(p.name, n) for n in names)]
            assert unlisted == [], f"the run's README omits {unlisted}"
        return status, run_dir

    monkeypatch.setattr(cli, "run", checked)


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


def refused_before_compute(tmp_path, capsys, monkeypatch, run, change):
    """Run manifest_sweep as `run` (a command or a verify check) with
    `change` merged in; assert that validation refuses it (exit 2, no run
    directory) before anything is solved (not Q, not the pohozaev
    correction), and return the error's detail."""
    solved = []
    monkeypatch.setattr(cli, "solve_Q", lambda *a, **k: solved.append(a))
    monkeypatch.setattr(rd, "solve_correction",
                        lambda *a, **k: solved.append(a))
    spec = manifest_sweep(tmp_path)
    spec["command"] = run
    if run in cli.VERIFY_CHECKS:
        spec["command"], spec["options"] = "verify", {"check": run}
    if run in cli.ONE_EPS_RUNS:
        spec["eps"] = [0.1]
    for name, value in change.items():
        if isinstance(value, dict):
            spec.setdefault(name, {}).update(value)
        else:
            spec[name] = value
    status, run_dir = cli.run(spec)
    assert (status, run_dir, solved) == (2, None, [])
    assert not (tmp_path / "sweep").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    return err["detail"]


class TestManifest:
    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError, match=r"manifest \['bogus'\]"):
            cli.validate({"command": "sweep", "bogus": 1})

    def test_validation_before_compute(self, tmp_path):
        bad = manifest_groundstate(tmp_path)
        bad["params"]["p"] = 1.0
        status, run_dir = cli.run(bad)
        assert status == 2
        assert run_dir is None

    def test_sweep_span_under_a_decade_rejected_before_compute(
            self, tmp_path, capsys):
        # four searched eps feed the exponent fit, which needs a decade
        spec = manifest_sweep(tmp_path)
        spec["eps"] = [0.25, 0.2, 0.1, 0.05]
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert "span at least one decade" in capsys.readouterr().err

    @pytest.mark.parametrize("command, check", [
        ("reduce", None), ("sweep", None), ("verify", "wrong_ansatz"),
        ("verify", "uniqueness"), ("verify", "pohozaev"),
    ])
    def test_empty_eps_rejected_before_compute(self, tmp_path, capsys,
                                               command, check):
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = command, []
        if check:
            spec["options"] = {"check": check}
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert "nonempty eps" in capsys.readouterr().err

    @pytest.mark.parametrize("command, check", [
        ("reduce", None), ("verify", "uniqueness"), ("verify", "pohozaev"),
    ])
    def test_eps_list_rejected_where_one_eps_runs(self, tmp_path, capsys,
                                                 command, check):
        # these run at eps[0] alone; the rest would be dropped silently
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = command, [0.2, 0.1]
        if check:
            spec["options"] = {"check": check}
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        err = capsys.readouterr().err
        assert "runs at one eps" in err and "sweep" in err

    @pytest.mark.parametrize("check, eps, why", [
        (None, [0.16, 0.08, 0.08, 0.016], "must be distinct"),
        ("wrong_ansatz", [0.1, 0.1], "must be distinct"),
        ("sobolev", [0.1], "three distinct eps"),
        ("sobolev", [0.2, 0.1], "three distinct eps"),
    ])
    def test_too_few_distinct_eps_rejected_before_compute(
            self, tmp_path, capsys, check, eps, why):
        # a repeated eps fails the sweep's drift fit only after every
        # search, and the Sobolev slopes need two distinct windows
        spec = manifest_sweep(tmp_path)
        spec["eps"] = eps
        if check:
            spec["command"], spec["options"] = "verify", {"check": check}
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [[], [0.4, 0.2, 0.1]])
    def test_sobolev_eps_validates(self, tmp_path, eps):
        # an empty list runs the check's default eps
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = "verify", eps
        spec["options"] = {"check": "sobolev"}
        cli.validate(spec)

    @pytest.mark.parametrize("command", ["reduce", "sweep"])
    @pytest.mark.parametrize("offset, why", [
        ([0.1, 0.2], "broadcast"), ("abc", "abc"),
        (0.6, "drift 0.6 >= delta"), (None, "not finite"),
    ], ids=["offset0", "abc", "0.6", "None"])
    def test_bad_start_offset_rejected_before_compute(self, tmp_path, capsys,
                                                      command, offset, why):
        # one 1D peak: a 2-vector does not fit, "abc" is not numeric,
        # 0.6 > delta = 0.5 and None is NaN; reduce runs at one eps
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["options"] = command, {"y0_offset": offset}
        if command == "reduce":
            spec["eps"] = [0.1]
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        err = capsys.readouterr().err
        assert '"error": "validation"' in err and why in err

    @pytest.mark.parametrize("offsets, why", [
        ([0.0, [0.1, 0.2]], "broadcast"), ([0.0, "abc"], "abc"),
        (0.05, "not iterable"), ([0.0], "at least two start_offsets"),
        ([], "at least two start_offsets"),
    ], ids=["offsets0", "offsets1", "0.05", "offsets3", "offsets4"])
    def test_bad_uniqueness_starts_rejected_before_compute(
            self, tmp_path, capsys, offsets, why):
        # one 1D peak: a 2-vector does not fit, "abc" is not numeric, a
        # bare number is not a list, and one start or none leaves nothing
        # to compare
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = "verify", [0.1]
        spec["options"] = {"check": "uniqueness", "start_offsets": offsets}
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("command, check", [
        ("reduce", None), ("sweep", None), ("verify", "uniqueness"),
        ("verify", "pohozaev"),
    ])
    def test_theta_outside_window_rejected_before_compute(
            self, tmp_path, capsys, command, check):
        # N=2, s=0.75, alpha=1: the window is (3.5/4.5, 1) = (0.778, 1)
        spec = {
            "command": command,
            "params": {"dim": 2, "s": 0.75, "p": 2.0, "a": 1.0, "b": 0.05},
            "grid": {"half_width": 2.5, "points_per_dim": 32},
            "potential": {"kind": "single_well", "center": [0.1, -0.1],
                          "value": 1.0, "coeffs": [1.0, 1.5], "m": 2.0},
            "eps": [0.25], "theta": 0.5,
            "options": {"check": check} if check else {},
            "output_dir": str(tmp_path / "run"),
        }
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert not (tmp_path / "run").exists()
        assert "(0.777778, 1)" in capsys.readouterr().err
        # theta = 0.8 lies in the window and validates
        spec["theta"] = 0.8
        cli.validate(spec)

    @pytest.mark.parametrize("command, key", [
        ("reduce", "correction"), ("reduce", "profile"), ("sweep", "solver"),
    ])
    def test_unread_tolerance_rejected_before_compute(self, tmp_path, capsys,
                                                      command, key):
        # only groundstate and system read a tolerance, `solver`
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["tolerances"] = command, {key: 1e-9}
        if command == "reduce":
            spec["eps"] = [0.1]
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, options, key", [
        ("reduce", {"minimise": False}, "minimise"),
        ("sweep", {"minimize": False, "verbose": True}, "verbose"),
        ("verify", {"check": "uniqueness", "y0_offset": 0.05}, "y0_offset"),
    ])
    def test_unread_option_rejected_before_compute(self, tmp_path, capsys,
                                                   command, options, key):
        # a misspelt "minimise" would otherwise run a search, and the
        # other keys are read by another run only
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["options"] = command, options
        if command != "sweep":
            spec["eps"] = [0.1]
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert not (tmp_path / "sweep").exists()
        assert f"reads no options ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("run, change, named", [
        ("reduce", {"options": {"minimize": "false"}}, "options.minimize"),
        ("groundstate", {"options": {"verbose": "no"}}, "options.verbose"),
        ("reduce", {"strict": "false"}, "manifest.strict"),
        ("groundstate", {"params": {"validation_mode": "false"}},
         "params.validation_mode"),
        ("pohozaev", {"options": {"radius": "big"}}, "options.radius"),
        ("sobolev", {"options": {"q": "two"}}, "options.q"),
        ("uniqueness", {"options": {"tol": "tight"}}, "options.tol"),
        ("system", {"options": {"peak_values": "x"}}, "options.peak_values"),
        ("interaction", {"options": {"x_j": [2.0]}}, "options.x_i"),
        ("groundstate", {"options": {"decay_window": [1.0]}},
         "options.decay_window"),
        ("groundstate", {"seeds": {"mater": 7}}, "reads no seeds ['mater']"),
        ("groundstate", {"params": {"bogus": 1}}, "reads no params ['bogus']"),
        ("groundstate", {"grid": {"bogus": 1}}, "reads no grid ['bogus']"),
        ("reduce", {"potential": {"m": "two"}}, "potential.m"),
    ])
    def test_unparsed_value_refused_before_compute(
            self, tmp_path, capsys, monkeypatch, run, change, named):
        # every value a run reads is parsed at validation: a string is no
        # flag ("false" would read as true), a misspelt key is no default
        assert named in refused_before_compute(tmp_path, capsys, monkeypatch,
                                               run, change)

    @pytest.mark.parametrize("run, change, named", [
        ("sobolev", {"options": {"samples": 0}}, "options.samples"),
        ("interaction", {"options": {"x_i": [0.0], "x_j": [2.0],
                                     "samples": 0}}, "options.samples"),
        ("system", {"options": {"peak_values": []}}, "options.peak_values"),
        ("pohozaev", {"options": {"radius": -0.1}}, "radius must be positive"),
        ("pohozaev", {"options": {"radius": 2.9}}, "does not fit strictly"),
        ("reduce", {"eps": [-0.1]}, "eps values must be positive"),
        ("reduce", {"eps": [math.inf]}, "eps values must be positive"),
        ("reduce", {"delta": 0.0}, "need delta > 0"),
        ("reduce", {"delta": math.nan}, "need delta > 0"),
        ("groundstate", {"theta": 1.0}, "theta in (0, 1)"),
        ("groundstate", {"grid": {"half_width": math.nan}}, "half_width"),
        ("groundstate", {"grid": {"half_width": math.inf}}, "half_width"),
        ("groundstate", {"params": {"a": math.nan}}, "a must be positive"),
        ("groundstate", {"params": {"a": math.inf}}, "a must be positive"),
        ("groundstate", {"params": {"b": math.nan}}, "b must be"),
        ("groundstate", {"params": {"p": math.nan}}, "p must exceed 1"),
        ("reduce", {"potential": {"value": math.nan}}, "value must be finite"),
        ("reduce", {"potential": {"m": math.nan}}, "exponent m must"),
        ("reduce", {"potential": {"holder": math.nan}}, "holder"),
        ("reduce", {"potential": {"holder": 0.0}}, "holder"),
        ("reduce", {"potential": {"coeffs": [1.0, 1.0]}}, "coeffs must match"),
        ("reduce", {"potential": {"asym_power": 2.5}}, "asym_power must be"),
    ])
    def test_out_of_range_value_refused_before_compute(
            self, tmp_path, capsys, monkeypatch, run, change, named):
        # unchecked, each fails only at compute: no samples to take the
        # maximum over, no peak to solve for, no Pohozaev ball in the box
        # (after the correction solve), or a solver error far from the
        # NaN or inf that caused it
        assert named in refused_before_compute(tmp_path, capsys, monkeypatch,
                                               run, change)

    @pytest.mark.parametrize("run", ["reduce", "groundstate"])
    def test_potential_of_another_dimension_refused(
            self, tmp_path, capsys, monkeypatch, run):
        # unchecked, a 2D well under dim 1 fails on the theta window (of
        # N = 2) or on the grid
        change = {"potential": {"center": [0.2, 0.0], "coeffs": [1.0, 1.0]}}
        detail = refused_before_compute(tmp_path, capsys, monkeypatch, run,
                                        change)
        assert "is 2D, but params.dim is 1" in detail

    def test_null_leaves_an_unset_option_unset(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["options"] = "system", {"peak_values": None}
        spec["potential"]["asym_power"] = None
        values = cli.validate(spec)[-1]
        assert values["options"]["peak_values"].tolist() == [1.0]

    def test_theta_window_only_where_theta_is_used(self, tmp_path):
        spec = manifest_groundstate(tmp_path)
        spec["theta"] = 0.5
        cli.validate(spec)

    @pytest.mark.parametrize("kind, typo", [
        ("constant", "valeu"), ("single_well", "asym_pwr"),
        ("multi_well", "far_val"),
    ])
    def test_unknown_potential_key_rejected_before_compute(
            self, tmp_path, capsys, kind, typo):
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = "reduce", [0.1]
        spec["potential"] = {
            "constant": {"kind": "constant", "value": 1.0},
            "single_well": dict(spec["potential"]),
            "multi_well": {"kind": "multi_well", "centers": [[0.2]],
                           "values": [1.0], "coeffs": [[1.0]], "m": 2.0,
                           "far_value": 1.5},
        }[kind]
        spec["potential"][typo] = 3.0
        status, run_dir = cli.run(spec)
        assert status == 2
        assert run_dir is None
        assert not (tmp_path / "sweep").exists()
        assert typo in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("far_value", math.nan, "far_value and values must be finite"),
        ("plateau", math.nan, "plateau must be positive"),
        ("plateau", 0.0, "plateau must be positive"),
        ("plateau", -0.5, "plateau must be positive"),
    ])
    def test_multi_well_out_of_range_refused_before_compute(
            self, tmp_path, capsys, key, value, named):
        # unchecked, a NaN passes the overlap test and the run fails at
        # compute on a potential that is not positive on the box
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = "reduce", [0.1]
        spec["potential"] = {"kind": "multi_well", "centers": [[-1.0], [1.0]],
                             "values": [1.0, 1.5], "coeffs": [[1.0], [1.0]],
                             "m": 2.0, "far_value": 2.2, "plateau": 0.7,
                             key: value}
        status, run_dir = cli.run(spec)
        assert (status, run_dir) == (2, None)
        assert named in json.loads(capsys.readouterr().err)["detail"]

    def test_readme_manifest_example_validates(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Manifest example", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        cli.validate(json.loads(block))

    def test_readme_lists_each_runs_options(self):
        # one bullet per run, naming exactly the keys of cli.OPTIONS
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("with their defaults (`cli.OPTIONS`):\n", 1)[1]
        listed = {}
        for bullet in section.split("\n\n", 1)[0].split("\n- "):
            run, keys = bullet.removeprefix("- ").split(":", 1)
            listed[run.strip("`").split()[-1]] = set(
                re.findall(r"`(\w+)`", keys))
        assert listed == {run: set(table)
                          for run, table in cli.OPTIONS.items()}

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
        status, run_dir = cli.run(manifest_groundstate(tmp_path))
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is True
        field, meta = fio.load_field(run_dir / "groundstate")
        exact = np.sqrt(2.0) / np.cosh(field.grid.axis)
        assert np.abs(field.values - exact).max() < 1e-6
        assert (run_dir / "profile.csv").exists()
        assert (run_dir / "version.json").exists()
        assert (run_dir / "README.md").exists()

    def test_solver_tolerance_is_read(self, tmp_path):
        spec = manifest_groundstate(tmp_path)
        spec["tolerances"] = {"solver": 1e-8}
        status, run_dir = cli.run(spec)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is True and report["residual"] < 1e-8

    def test_manifest_copied_verbatim(self, tmp_path):
        # no default is filled in
        m = manifest_groundstate(tmp_path)
        _, run_dir = cli.run(m)
        copied = json.loads((run_dir / "manifest.json").read_text())
        assert copied == m == manifest_groundstate(tmp_path)

    def test_kirchhoff_scale_and_gamma_log(self, tmp_path):
        spec = manifest_groundstate(tmp_path)
        spec["params"]["b"] = 0.25
        spec["options"] = {"c": 2.0, "verbose": True}
        status, run_dir = cli.run(spec)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is True
        params = sp.ProblemParams(**spec["params"])
        base = solve_Q(sp.GridSpec(1, 20.0, 1024), params.s, params.p)
        ground = kirchhoff_scale(base, params, 2.0)
        assert report["kirchhoff"] == {"alpha": ground.alpha,
                                       "beta": ground.beta,
                                       "residual": ground.residual}
        field, meta = fio.load_field(run_dir / "kirchhoff")
        assert np.array_equal(field.values, ground.profile.values)
        assert field.grid == ground.profile.grid
        assert {k: meta[k] for k in ("alpha", "beta", "c", "residual")} == {
            "alpha": ground.alpha, "beta": ground.beta, "c": 2.0,
            "residual": ground.residual}
        rows = [json.loads(line) for line in
                (run_dir / "iterations.jsonl").read_text().splitlines()]
        assert rows == [{"iteration": i + 1, "gamma": g}
                        for i, g in enumerate(base.gammas)]
        assert [r["gamma"] for r in rows[-3:]] == report["gamma_tail"]


class TestSystemCommand:
    def test_system_report(self, tmp_path):
        status, run_dir = cli.run({
            "command": "system",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 1.0},
            "grid": {"half_width": 30.0, "points_per_dim": 1024},
            "options": {"peak_values": [1.0, 1.5]},
            "output_dir": str(tmp_path / "system"),
        })
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["self_consistency_rel"] < 1e-8
        assert (run_dir / "peak_0.bin").exists()
        assert (run_dir / "peak_1.bin").exists()


@TRUNCATES_BY_DESIGN
class TestSweepCommand:
    def test_sweep_emits_records_and_asymptotics(self, tmp_path):
        status, run_dir = cli.run(manifest_sweep(tmp_path))
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
        _, dir1 = cli.run(spec1)
        _, dir2 = cli.run(spec2)
        assert (dir1 / "sweep.csv").read_bytes() == \
            (dir2 / "sweep.csv").read_bytes()

    @TRUNCATES_BY_DESIGN
    def test_fixed_y_sweep_fails_on_an_expanding_ratio(self, tmp_path):
        # at eps 0.5 the Newton steps rescue a correction whose first
        # increment ratios exceed 1; reduce fails that record, so must sweep
        spec = {
            "command": "sweep",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.25},
            "grid": {"half_width": 4.0, "points_per_dim": 1024},
            "potential": {"kind": "single_well", "center": [0.3],
                          "value": 1.0, "coeffs": [1.0], "m": 2.0},
            "eps": [0.5, 0.16],
            "options": {"minimize": False, "y0_offset": 0.1},
            "output_dir": str(tmp_path / "sweep"),
        }
        status, run_dir = cli.run(spec)
        assert status == 1
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is False
        big, small = report["records"]
        assert max(big["contraction_ratios"]) > 1.0
        assert big["passed"] is False and small["passed"] is True
        # sweep.csv says which eps failed, in its last column
        with open(run_dir / "sweep.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[-1] == "passed"
        assert [row[-1] for row in rows] == [
            str(r["passed"]) for r in report["records"]]
        assert rows[0][0] == "0.5" and rows[0][-1] == "False"


class TestReduceCommand:
    def test_reduce_reports_orthogonality(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.1]
        spec["output_dir"] = str(tmp_path / "reduce")
        status, run_dir = cli.run(spec)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["orthogonality"] < 1e-8
        assert all(r < 1.0 for r in report["contraction_ratios"])
        assert (run_dir / "solution.bin").exists()
        assert report["search"]["termination"] == "converged"
        assert all(ev > 0 for ev in report["search"]["hessian_eigenvalues"])

    @staticmethod
    def truncating_reduce(tmp_path) -> dict:
        # the s=0.4 profile decays like |x|^-1.8: an L=4 box cuts its tail
        return {
            "command": "reduce",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.25},
            "grid": {"half_width": 4.0, "points_per_dim": 256},
            "potential": {"kind": "single_well", "center": [0.3],
                          "value": 1.0, "coeffs": [1.0], "m": 2.0},
            "eps": [0.1],
            "output_dir": str(tmp_path / "reduce"),
        }

    def test_strict_truncation_is_a_compute_failure(self, tmp_path, capsys):
        spec = self.truncating_reduce(tmp_path)
        spec["strict"] = True
        status, run_dir = cli.run(spec)
        assert status == 3
        report = json.loads((run_dir / "report.json").read_text())
        assert report["failed"].startswith(
            "TailTruncationWarning('peak 0 tail at the box boundary is")
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "compute" and err["stage"] == "reduce"

    def test_strict_truncating_uniqueness_starts_are_failed(self, tmp_path):
        spec = self.truncating_reduce(tmp_path)
        spec["command"], spec["strict"] = "verify", True
        spec["options"] = {"check": "uniqueness",
                           "start_offsets": [0.0, 0.05]}
        status, run_dir = cli.run(spec)
        assert status == 1
        failed = json.loads(
            (run_dir / "report.json").read_text())["measured"]["failed"]
        assert [f["start"] for f in failed] == [0, 1]
        assert all(f["error"].startswith("TailTruncationWarning('peak 0 tail")
                   for f in failed)

    def test_strict_flag_escalates(self, tmp_path):
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(self.truncating_reduce(tmp_path)))
        assert cli.main(["reduce", "--manifest", str(path), "--strict"]) == 3

    def test_boundary_minimizer_fails_the_gate(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.1]
        spec["delta"] = 1e-4
        spec["output_dir"] = str(tmp_path / "reduce")
        with pytest.warns(BoundaryMinimizerWarning):
            status, run_dir = cli.run(spec)
        assert status == 1
        report = json.loads((run_dir / "report.json").read_text())
        assert report["search"]["termination"] == "boundary"


class TestVerifyCommand:
    def test_interaction_check_via_cli(self, tmp_path):
        status, run_dir = cli.run({
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"check": "interaction", "x_i": [0.0], "x_j": [2.0],
                        "alpha": 2.0, "beta": 2.0, "sigma": 2.0,
                        "samples": 5000},
            "output_dir": str(tmp_path / "verify"),
        })
        assert status == 0
        # report.json holds the check's one record, its full CheckReport
        report = json.loads((run_dir / "report.json").read_text())
        rep = vf.interaction_inequality_check(
            [0.0], [2.0], 2.0, 2.0, 2.0, samples=5000, seed=1234)
        assert report["report"] == json.loads(json.dumps(rep.as_dict()))
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "README.md", "manifest.json", "report.json", "version.json"]

    def test_check_named_on_the_command_line(self, tmp_path):
        # the manifest names no check; the positional argument does
        path = tmp_path / "verify.json"
        path.write_text(json.dumps({
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"x_i": [0.0], "x_j": [2.0], "samples": 5000},
            "output_dir": str(tmp_path / "verify"),
        }))
        assert cli.main(["verify", "interaction", "--manifest",
                         str(path)]) == 0
        report = json.loads((tmp_path / "verify" / "report.json").read_text())
        assert report["check"] == "interaction_inequality_check"

    @staticmethod
    def pohozaev(tmp_path, name, **options) -> dict:
        return {
            "command": "verify",
            "params": {"dim": 1, "s": 1.0, "p": 3.0, "a": 1.0, "b": 0.25,
                       "validation_mode": True},
            "grid": {"half_width": 3.0, "points_per_dim": 256},
            "potential": {"kind": "single_well", "center": [0.2],
                          "value": 1.0, "coeffs": [1.0], "m": 2.0},
            "eps": [0.1],
            "options": {"check": "pohozaev", "radius": 0.6, **options},
            "output_dir": str(tmp_path / name),
        }

    def test_pohozaev_check_on_pipeline_solution(self, tmp_path):
        status, run_dir = cli.run(self.pohozaev(tmp_path, "poho"))
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["check"] == "pohozaev_residual"

    def test_pohozaev_from_a_snapshot_matches_the_correction(self, tmp_path):
        # the snapshot holds the solution the check otherwise computes
        params, grid, pot, starts, _ = cli.validate(
            self.pohozaev(tmp_path, "computed"))
        red = rd.Reducer(grid, params, pot)
        fio.save_field(rd.solve_correction(red, starts[0]).solution,
                       tmp_path / "u")
        reports = []
        for name, options in (("computed", {}),
                              ("snapshot", {"solution": str(tmp_path / "u")})):
            status, run_dir = cli.run(
                self.pohozaev(tmp_path, name, **options))
            assert status == 0
            report = json.loads((run_dir / "report.json").read_text())
            reports.append({k: v for k, v in report.items()
                            if k != "wall_seconds"})
        assert reports[0] == reports[1]

    def test_sobolev_check_via_cli(self, tmp_path):
        # no eps list: the check runs at its default eps
        spec = {
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 256},
            "seeds": {"master": 77},
            "options": {"check": "sobolev", "samples": 6},
            "output_dir": str(tmp_path / "sobolev"),
        }
        status, run_dir = cli.run(spec)
        assert status == 0
        report = json.loads((run_dir / "report.json").read_text())
        grid = sp.GridSpec(1, 6.0, 256)
        rep = vf.sobolev_scaling_check(
            grid, sp.ProblemParams(**spec["params"]),
            rd.Potential.constant(1.0, dim=1),
            eps_list=[0.4, 0.2, 0.1, 0.05], q=2.0, samples=6, seed=77)
        assert report["report"] == json.loads(json.dumps(rep.as_dict()))
        assert report["passed"] is True

    def test_wrong_ansatz_check_via_cli(self, tmp_path):
        # eps this large leaves the system contrast above its gate, so the
        # check fails the run
        spec = {
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.25},
            "grid": {"half_width": 8.0, "points_per_dim": 1024},
            "potential": {"kind": "multi_well", "centers": [[-1.0], [1.0]],
                          "values": [1.0, 1.5], "coeffs": [[1.0], [1.0]],
                          "m": 2.0, "far_value": 2.2, "plateau": 0.7},
            "eps": [0.06, 0.03],
            "options": {"check": "wrong_ansatz", "tol": 0.3},
            "output_dir": str(tmp_path / "wrong"),
        }
        status, run_dir = cli.run(spec)
        report = json.loads((run_dir / "report.json").read_text())
        params, grid, pot, _, _ = cli.validate(spec)
        rep = vf.wrong_ansatz_gap(grid, params, pot, eps_list=[0.06, 0.03],
                                  tol=0.3)
        assert report["report"] == json.loads(json.dumps(rep.as_dict()))
        assert rep.tolerance == 0.3 and rep.passed is False
        assert status == 1 and report["passed"] is False

    def test_failed_uniqueness_start_fails_the_run(self, tmp_path,
                                                   monkeypatch):
        def failing(red, cfg, **kw):
            raise NoContractionError("forced failure")

        monkeypatch.setattr(rd, "minimize_peaks", failing)
        spec = manifest_sweep(tmp_path)
        spec["command"], spec["eps"] = "verify", [0.1]
        spec["options"] = {"check": "uniqueness",
                           "start_offsets": [0.05, -0.05]}
        status, run_dir = cli.run(spec)
        assert status == 1
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"] is False
        assert report["diagnostic_only"] is False
        assert len(report["measured"]["failed"]) == 2

    def test_unknown_check_rejected(self, tmp_path):
        status, run_dir = cli.run({
            "command": "verify",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"check": "nope"},
            "output_dir": str(tmp_path / "verify2"),
        })
        assert status == 2
        assert run_dir is None
        assert not (tmp_path / "verify2").exists()


@TRUNCATES_BY_DESIGN
class TestThreadsAndVerbose:
    def test_verbose_iteration_log(self, tmp_path):
        spec = manifest_sweep(tmp_path)
        spec["command"] = "reduce"
        spec["eps"] = [0.2]
        spec["options"] = {"verbose": True, "minimize": False}
        spec["output_dir"] = str(tmp_path / "verbose")
        status, run_dir = cli.run(spec)
        assert status == 0
        rows = [json.loads(line) for line in
                (run_dir / "iterations.jsonl").read_text().splitlines()]
        assert len(rows) >= 1
        assert all(row["inner_iterations"] > 0 for row in rows)
        # the three contraction steps solve to the fixed inner tolerance
        assert [row["forcing"] for row in rows[:3]] == [1e-11] * 3
        assert "increment_eps_norm" in rows[0]


class TestMain:
    @pytest.mark.parametrize("command, manifest, named", [
        ("reduce", 5, "manifest: must be a JSON object, got 5"),
        ("reduce", ["command"], "manifest: must be a JSON object"),
        ("verify", {"options": 7}, "manifest.options: must be a JSON object"),
        ("verify interaction", {"options": 7}, "manifest.options"),
        ("reduce", {"options": 7}, "manifest.options: must be a JSON object"),
        ("reduce", {"eps": 0.1}, "manifest.eps: 'float' object is not"),
        ("reduce", {"params": None}, "manifest.params"),
        ("reduce", {"grid": {"half_width": math.nan, "points_per_dim": 256}},
         "half_width"),
    ], ids=["number", "list", "verify-options", "verify-check-options",
            "reduce-options", "eps", "params", "nan"])
    def test_malformed_manifest_is_a_validation_error(
            self, tmp_path, capsys, command, manifest, named):
        # a field of the wrong JSON type is named, not a traceback; the
        # file's NaN literal reaches GridSpec's check
        if isinstance(manifest, dict):
            manifest = {**manifest_sweep(tmp_path), **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert cli.main([*command.split(), "--manifest", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and named in err["detail"]
        assert list(tmp_path.iterdir()) == [path]

    def test_manifest_json_is_the_manifest_as_run(self, tmp_path):
        # the input plus the command-line overrides; no default filled in
        spec = {
            "command": "groundstate",
            "params": {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 0.0},
            "grid": {"half_width": 6.0, "points_per_dim": 64},
            "options": {"x_i": [0.0], "x_j": [2.0], "samples": 500},
            "output_dir": str(tmp_path / "verify"),
        }
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["verify", "interaction", "--strict", "--manifest",
                         str(path)]) == 0
        ran = json.loads((tmp_path / "verify" / "manifest.json").read_text())
        assert ran == {**spec, "command": "verify", "strict": True,
                       "options": {**spec["options"], "check": "interaction"}}

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_manifest_is_a_validation_error(self, tmp_path,
                                                       capsys, text):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["reduce", "--manifest", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert list(tmp_path.iterdir()) == ([] if text is None else [path])


class TestEnvOutputRoot:
    def test_env_var_used_when_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / "envroot"))
        spec = manifest_groundstate(tmp_path)
        spec["output_dir"] = ""
        status, run_dir = cli.run(spec)
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
        f = sp.Field(grid, np.exp(-grid.axis**2))
        fio.save_profile_csv(f, tmp_path / "p.csv")
        with open(tmp_path / "p.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["x", "value"]
        x, values = np.array(rows, dtype=float).T
        assert np.array_equal(grid.axis, x)
        assert np.array_equal(f.values, values)
