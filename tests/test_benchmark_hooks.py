"""The benchmark's tracer rebinds package entry points by name, and its
workloads read attributes of the package's results; a rename or removal in
the package fails here rather than in a benchmark run."""

import json
from pathlib import Path

import numpy as np

from fkpeaks import cli
from fkpeaks import reduction as rd
from fkpeaks import spectral as sp
from tests_support import TRUNCATES_BY_DESIGN

BENCH = Path(__file__).parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install
    from tracer import Tracer

    tr = Tracer()
    try:
        install(tr)
        bound = list(tr._undo)
        assert all(getattr(owner, attr) is not orig
                   for owner, attr, orig in bound)
    finally:
        tr.restore()
    assert bound
    assert all(getattr(owner, attr) is orig for owner, attr, orig in bound)


def tiny_reducer(points: int = 256) -> rd.Reducer:
    """Criterion 7's problem; on its 1024-point grid at points=1024."""
    return rd.Reducer(sp.GridSpec(1, 4.0, points),
                      sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.25),
                      rd.Potential.single_well([0.3], 1.0, [1.0], m=2.0))


def tiny_correction() -> rd.ReducedSolution:
    return rd.solve_correction(tiny_reducer(),
                               rd.PeakConfig(0.16, [[0.35]], 0.5, 0.8))


@TRUNCATES_BY_DESIGN
def test_inner_iterations_count_every_minres_apply(monkeypatch):
    # each MINRES iteration applies the projected form once and each solve
    # confirms its stop with one more apply, so the inner iterations a
    # correction reports are all of its linear work
    applies = []
    orig = rd._Frame.apply_hat

    def apply_hat(self, z, lin):
        applies.append(1)
        return orig(self, z, lin)

    monkeypatch.setattr(rd._Frame, "apply_hat", apply_hat)
    wide = tiny_reducer(1024)
    runs = [(tiny_reducer(), 0.16, 0.35)] + [
        (wide, eps, 0.4) for eps in (0.16, 0.08, 0.04, 0.02)]
    for red, eps, y in runs:
        applies.clear()
        sol = rd.solve_correction(red, rd.PeakConfig(eps, [[y]], 0.5, 0.8))
        assert sum(sol.inner_iterations) > 0
        assert len(applies) == (sum(sol.inner_iterations)
                                + len(sol.inner_iterations))


@TRUNCATES_BY_DESIGN
def test_correction_attributes_read_by_workloads():
    sol = tiny_correction()
    phi = sol.correction.values
    assert np.array_equal(sol.solution.values, sol.ansatz.values + phi)
    assert sol.contraction_ratios
    assert all(r < 1.0 for r in sol.contraction_ratios)
    assert sol.correction_norm > 0.0
    assert np.isfinite(sol.reduced_energy)


@TRUNCATES_BY_DESIGN
def test_search_result_read_by_tracer():
    # the tracer's search span unpacks the result and adds the info dict's
    # counts
    best, sol, info = rd.minimize_peaks(
        tiny_reducer(), rd.PeakConfig(0.16, [[0.35]], 0.5, 0.8))
    assert isinstance(best, rd.PeakConfig)
    assert isinstance(sol, rd.ReducedSolution)
    for key in ("evaluations", "newton_steps"):
        assert type(info[key]) is int and info[key] > 0
    # per Newton system: its forcing term and its MINRES iterations
    for key, kind in (("forcing", float), ("minres_iterations", int)):
        assert len(info[key]) == info["evaluations"]
        assert all(type(v) is kind and v > 0 for v in info[key])


def test_reduce_report_read_by_workloads(tmp_path, monkeypatch):
    # reduce2d runs the reduce command and reads its report and snapshots
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import read_snapshot

    status, run_dir = cli.run({
        "command": "reduce",
        "params": {"dim": 1, "s": 1.0, "p": 3.0, "a": 1.0, "b": 0.25,
                   "validation_mode": True},
        "grid": {"half_width": 3.0, "points_per_dim": 256},
        "potential": {"kind": "single_well", "center": [0.2], "value": 1.0,
                      "coeffs": [1.0], "m": 2.0, "asym": 0.15,
                      "asym_power": 3.0},
        "eps": [0.1],
        "options": {"minimize": True, "y0_offset": 0.05},
        "output_dir": str(tmp_path / "reduce"),
    })
    assert status == 0
    report = json.loads((run_dir / "report.json").read_text())
    for key in ("y", "correction_norm", "reduced_energy",
                "contraction_ratios", "passed"):
        assert key in report
    for name in ("solution", "correction"):
        sidecar = json.loads((run_dir / f"{name}.json").read_text())
        assert sidecar["shape"] == [256]
        assert read_snapshot(run_dir / name).shape == (256,)
