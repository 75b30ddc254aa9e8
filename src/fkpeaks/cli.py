"""Batch entry point: manifests in, run directories out.

Subcommands: groundstate, system, reduce, sweep, verify <check>.
Exit codes: 0 all gated checks passed, 1 a gated check failed,
2 manifest validation failure, 3 compute failure (stage identified on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import io as fio
from . import reduction as rd
from . import spectral as sp
from . import verify as vf
from .errors import ParameterError
from .groundstate import decay_fit, kirchhoff_scale, solve_Q, solve_system

ENV_OUTPUT_ROOT = "FKPEAKS_OUT"
COMMANDS = ("groundstate", "system", "reduce", "sweep", "verify")
VERIFY_CHECKS = ("sobolev", "interaction", "wrong_ansatz", "uniqueness",
                 "pohozaev")
# a run is the command, or the check for verify; the runs that start from
# peak configurations, read the eps list, run at one eps, and read
# tolerances.solver (no run reads another tolerance)
PEAK_RUNS = ("reduce", "sweep", "uniqueness", "pohozaev")
EPS_RUNS = PEAK_RUNS + ("wrong_ansatz",)
ONE_EPS_RUNS = ("reduce", "uniqueness", "pohozaev")
SOLVER_TOL_RUNS = ("groundstate", "system")
# the options keys each run reads
OPTION_KEYS = {
    "groundstate": {"verbose", "decay_window", "c"}, "system": {"peak_values"},
    "reduce": {"minimize", "verbose", "y0_offset"},
    "sweep": {"minimize", "y0_offset"}, "sobolev": {"check", "q", "samples"},
    "interaction": {"check", "x_i", "x_j", "alpha", "beta", "sigma",
                    "samples"},
    "wrong_ansatz": {"check", "tol"},
    "uniqueness": {"check", "tol", "start_offsets"},
    "pohozaev": {"check", "solution", "center", "radius", "axis", "tol"},
}
DEFAULT_START_OFFSETS = (0.0, 0.05, -0.05)

RUN_README = """\
Run directory layout
====================
manifest.json   exact copy of the input manifest
version.json    package and dependency versions
report.json     per-stage results; `passed` marks gated checks
*.bin / *.json  field snapshots (little-endian float64 + sidecar)
*.csv           series exports
iterations.jsonl  per-iteration log, with options.verbose

iterations.jsonl
----------------
groundstate: iteration, gamma
reduce:      iteration, increment_eps_norm (||phi_{n+1} - phi_n||_eps),
             inner_iterations (MINRES iterations of the step, restarts
             included), forcing (the step's forcing term eta: the true
             residual of its linear solve is at most eta times the
             right-hand side norm; 1e-11 for the contraction steps)

CSV columns
-----------
profile.csv:   x, value                  (1D profiles)
sweep.csv:     eps, phi_norm, energy_over_epsN, max_drift,
               max_drift_over_eps, orthogonality, max_ratio, iterations,
               passed (the record's verdict)
"""


@dataclass
class RunManifest:
    """Serializable description of one batch run."""

    command: str
    params: dict
    grid: dict
    potential: dict = field(default_factory=lambda: {"kind": "constant",
                                                     "value": 1.0})
    eps: list = field(default_factory=list)
    delta: float = 0.5
    theta: float = 0.8
    seeds: dict = field(default_factory=lambda: {"master": 1234})
    tolerances: dict = field(default_factory=dict)
    output_dir: str = ""
    strict: bool = False
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown manifest fields: {sorted(unknown)}")
        if "command" not in data:
            raise ParameterError("manifest missing 'command'")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- validation: every numeric field passes its owning type's checks
    #    before any compute starts

    def validate(self) -> tuple[sp.ProblemParams, sp.GridSpec, rd.Potential,
                                list[rd.PeakConfig]]:
        """The checked inputs of the run: params, grid, potential and its
        starts, the peak configurations it computes from (largest eps
        first; empty outside PEAK_RUNS)."""
        if self.command not in COMMANDS:
            raise ParameterError(
                f"command must be one of {COMMANDS}, got {self.command!r}"
            )
        params = sp.ProblemParams(
            dim=int(self.params["dim"]), s=float(self.params["s"]),
            p=float(self.params["p"]), a=float(self.params["a"]),
            b=float(self.params["b"]),
            validation_mode=bool(self.params.get("validation_mode", False)),
        )
        grid = sp.GridSpec(params.dim, float(self.grid["half_width"]),
                           int(self.grid["points_per_dim"]))
        potential = build_potential(self.potential, params.dim)
        for i, e in enumerate(self.eps):
            if not (0.0 < float(e)):
                raise ParameterError(f"eps values must be positive, got {e}")
            if float(e) in map(float, self.eps[:i]):
                raise ParameterError(f"eps values must be distinct, got {e} "
                                     f"twice in {self.eps}")
        if self.delta <= 0 or not (0.0 < self.theta < 1.0):
            raise ParameterError("need delta > 0 and theta in (0, 1)")
        run = self.command
        if run == "verify":
            run = self.options.get("check")
            if run not in VERIFY_CHECKS:
                raise ParameterError(
                    f"verify needs options.check in {VERIFY_CHECKS}, "
                    f"got {run!r}")
        what = run if run == self.command else f"verify {run}"
        for kind, given, read in (
                ("options", self.options, OPTION_KEYS[run]),
                ("tolerances", self.tolerances,
                 {"solver"} if run in SOLVER_TOL_RUNS else set())):
            if set(given) - read:
                raise ParameterError(
                    f"{what} reads no {kind} {sorted(set(given) - read)}; it"
                    f" reads {sorted(read) or 'none'}")
        if not self.eps and run in EPS_RUNS:
            raise ParameterError(f"{what} requires a nonempty eps list")
        if len(self.eps) > 1 and run in ONE_EPS_RUNS:
            raise ParameterError(
                f"{what} runs at one eps, got {len(self.eps)}: {self.eps}; "
                "use the sweep command for an eps list")
        if run == "sweep" and _fits_asymptotics(self):
            vf.require_decade_span(self.eps)
        if run == "sobolev" and self.eps:
            vf.require_three_eps(self.eps)
        if run not in PEAK_RUNS:
            return params, grid, potential, []
        if run == "uniqueness":
            offsets = self.options.get("start_offsets", DEFAULT_START_OFFSETS)
        elif run == "pohozaev":
            offsets = [0.0]
        else:
            offsets = [self.options.get("y0_offset", 0.0)]
        starts = [
            rd.PeakConfig(e, potential.peaks + _start_offset(off, potential),
                          self.delta, self.theta)
            for e in sorted(map(float, self.eps), reverse=True)
            for off in offsets
        ]
        # D_eps_delta's separation eps^theta needs theta in the window
        lo, hi = starts[0].theta_window(params.s, potential.holder)
        if not (lo < self.theta < hi):
            raise ParameterError(
                f"theta must lie in the window ((N+2s)/(N+2s+alpha), 1)"
                f" = ({lo:.6g}, {hi:g}), got {self.theta}")
        if run == "uniqueness" and len(starts) < 2:
            raise ParameterError(
                "verify uniqueness compares solutions from at least two "
                f"start_offsets, got {len(starts)}")
        if run in ("reduce", "sweep"):
            # the start must lie in D_eps_delta at every eps it runs at;
            # uniqueness reports starts outside it, pohozaev refuses at
            # compute
            for cfg in starts:
                cfg.require_admissible(potential)
        return params, grid, potential, starts


def _start_offset(value, potential: rd.Potential) -> np.ndarray:
    """A start offset from the wells, broadcast to their (k, N) shape;
    TypeError or ValueError when it is not numeric or does not broadcast."""
    offset = np.broadcast_to(np.asarray(value, dtype=float),
                             potential.peaks.shape)
    if not np.all(np.isfinite(offset)):
        raise ParameterError(f"start offset {value!r} is not finite")
    return offset


def _fits_asymptotics(manifest: RunManifest) -> bool:
    """A sweep fits the asymptotic exponents when it searches four or more
    eps."""
    return (len(manifest.eps) >= 4
            and bool(manifest.options.get("minimize", True)))


# the keys of each potential kind besides `kind`: its constructor's arguments
POTENTIAL_KEYS = {
    "constant": {"value"},
    "single_well": {"center", "value", "coeffs", "m", "holder", "asym",
                    "asym_power"},
    "multi_well": {"centers", "values", "coeffs", "m", "far_value",
                   "plateau", "holder"},
}


def build_potential(spec: dict, dim: int) -> rd.Potential:
    kind = spec.get("kind", "constant")
    if kind not in POTENTIAL_KEYS:
        raise ParameterError(f"unknown potential kind {kind!r}")
    unknown = set(spec) - POTENTIAL_KEYS[kind] - {"kind"}
    if unknown:
        raise ParameterError(
            f"unknown keys for potential kind {kind!r}: {sorted(unknown)}")
    if kind == "constant":
        return rd.Potential.constant(float(spec.get("value", 1.0)), dim=dim)
    if kind == "single_well":
        return rd.Potential.single_well(
            center=spec["center"], value=float(spec["value"]),
            coeffs=spec["coeffs"], m=float(spec["m"]),
            holder=float(spec.get("holder", 1.0)),
            asym=float(spec.get("asym", 0.0)),
            asym_power=spec.get("asym_power"),
        )
    return rd.Potential.multi_well(
        centers=spec["centers"], values=spec["values"],
        coeffs=spec["coeffs"], m=float(spec["m"]),
        far_value=float(spec["far_value"]),
        plateau=spec.get("plateau"),
        holder=float(spec.get("holder", 1.0)),
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=str))


def _prepare_run_dir(manifest: RunManifest, out_override=None) -> Path:
    root = out_override or manifest.output_dir or os.environ.get(
        ENV_OUTPUT_ROOT, "runs")
    run_dir = Path(root)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "manifest.json", manifest.to_dict())
    _write_json(run_dir / "version.json", {
        "fkpeaks": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    })
    (run_dir / "README.md").write_text(RUN_README)
    return run_dir


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _log_iterations(run_dir: Path, rows) -> None:
    with open(run_dir / "iterations.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _stage_groundstate(manifest, params, grid, potential, starts,
                       run_dir) -> dict:
    tol = float(manifest.tolerances.get("solver", 1e-9))
    state = solve_Q(grid, params.s, params.p, tol=tol)
    if manifest.options.get("verbose"):
        _log_iterations(run_dir, (
            {"iteration": i + 1, "gamma": g}
            for i, g in enumerate(state.gammas)
        ))
    window = manifest.options.get("decay_window")
    slope = decay_fit(state.profile, tuple(window)) if window else None
    fio.save_field(state.profile, run_dir / "groundstate", meta={
        "residual": state.residual, "seminorm_sq": state.seminorm_sq,
        "s": params.s, "p": params.p, "iterations": state.iterations,
    })
    if grid.dim == 1:
        fio.save_profile_csv(state.profile, run_dir / "profile.csv")
    report = {
        "residual": state.residual,
        "iterations": state.iterations,
        "seminorm_sq": state.seminorm_sq,
        "gamma_tail": state.gammas[-3:],
        "decay_slope": slope,
        "passed": state.residual < tol,
    }
    if "c" in manifest.options:
        ground = kirchhoff_scale(state, params, float(manifest.options["c"]))
        fio.save_field(ground.profile, run_dir / "kirchhoff", meta={
            "alpha": ground.alpha, "beta": ground.beta, "c": ground.c,
            "residual": ground.residual,
        })
        report["kirchhoff"] = {
            "alpha": ground.alpha, "beta": ground.beta,
            "residual": ground.residual,
        }
        report["passed"] = report["passed"] and ground.residual < 10 * max(
            state.residual, tol)
    return report


def _stage_system(manifest, params, grid, potential, starts, run_dir) -> dict:
    tol = float(manifest.tolerances.get("solver", 1e-9))
    state = solve_Q(grid, params.s, params.p, tol=tol)
    peak_values = manifest.options.get("peak_values")
    if peak_values is None:
        peak_values = potential.peak_values.tolist()
    system = solve_system(state, params, peak_values)
    for i, prof in enumerate(system.profiles):
        fio.save_field(prof, run_dir / f"peak_{i}", meta={
            "alpha": system.alphas[i], "beta": system.betas[i],
            "peak_value": system.peak_values[i],
            "residual": system.residuals[i],
        })
    coeff = system.kirchhoff_coefficient
    consistency = abs(coeff - system.measured_coefficient()) / coeff
    a_const, b_consts = rd.energy_constants(system)
    report = {
        "kirchhoff_coefficient": coeff,
        "self_consistency_rel": consistency,
        "alphas": system.alphas,
        "betas": system.betas,
        "residuals": system.residuals,
        "energy_constant_A": a_const,
        "energy_constants_B": b_consts,
        "passed": consistency < 1e-8,
    }
    return report


def _stage_reduce(manifest, params, grid, potential, starts, run_dir) -> dict:
    eps = starts[0].eps
    minimize = bool(manifest.options.get("minimize", True))
    red = rd.Reducer(grid, params, potential, strict=manifest.strict)
    report, sol = rd.reduce_at(red, starts[0], minimize)
    if manifest.options.get("verbose"):
        _log_iterations(run_dir, (
            {"iteration": i + 1, "increment_eps_norm": inc,
             "inner_iterations": inner, "forcing": eta}
            for i, (inc, inner, eta) in enumerate(zip(
                sol.increments, sol.inner_iterations, sol.forcing))
        ))
    fio.save_field(sol.correction, run_dir / "correction",
                   meta={"eps": eps, "norm": sol.correction_norm})
    fio.save_field(sol.solution, run_dir / "solution", meta={"eps": eps})
    return report


def _stage_sweep(manifest, params, grid, potential, starts, run_dir) -> dict:
    minimize = bool(manifest.options.get("minimize", True))
    red = rd.Reducer(grid, params, potential, strict=manifest.strict)
    records = rd.sweep_reduction(red, starts, minimize)
    with open(run_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "phi_norm", "energy_over_epsN", "max_drift",
                         "max_drift_over_eps", "orthogonality", "max_ratio",
                         "iterations", "passed"])
        for r in records:
            writer.writerow([
                r["eps"], r["correction_norm"], r["energy_over_epsN"],
                max(r["drift"]), max(r["drift_over_eps"]),
                r["orthogonality"], max(r["contraction_ratios"], default=0.0),
                r["iterations"], r["passed"],
            ])
    report = {"records": records, "passed": all(r["passed"] for r in records)}
    if _fits_asymptotics(manifest):
        fit = vf.asymptotics_fit(records, m=potential.m, dim=params.dim)
        _write_json(run_dir / "asymptotics.json", fit.as_dict())
        report["asymptotics"] = fit.as_dict()
        report["passed"] = report["passed"] and bool(fit.passed)
    return report


def _stage_verify(manifest, params, grid, potential, starts, run_dir) -> dict:
    check = manifest.options.get("check")
    seeds = manifest.seeds.get("master", 1234)
    if check == "sobolev":
        rep = vf.sobolev_scaling_check(
            grid, params, potential,
            eps_list=manifest.eps or [0.4, 0.2, 0.1, 0.05],
            q=float(manifest.options.get("q", 2.0)),
            samples=int(manifest.options.get("samples", 8)),
            seed=seeds,
        )
    elif check == "interaction":
        rep = vf.interaction_inequality_check(
            x_i=manifest.options["x_i"], x_j=manifest.options["x_j"],
            alpha=float(manifest.options.get("alpha", 2.0)),
            beta=float(manifest.options.get("beta", 2.0)),
            sigma=float(manifest.options.get("sigma", 2.0)),
            samples=int(manifest.options.get("samples", 20000)),
            seed=seeds,
        )
    elif check == "wrong_ansatz":
        rep = vf.wrong_ansatz_gap(
            grid, params, potential,
            eps_list=[float(e) for e in manifest.eps],
            tol=float(manifest.options.get("tol", 0.2)),
        )
    elif check == "uniqueness":
        red = rd.Reducer(grid, params, potential, strict=manifest.strict)
        rep = vf.uniqueness_probe(red, starts,
                                  tol=float(manifest.options.get("tol", 1e-6)))
    else:
        # pohozaev: solution from a snapshot if given, else the correction
        # at the wells
        if "solution" in manifest.options:
            u, _ = fio.load_field(manifest.options["solution"])
        else:
            red = rd.Reducer(grid, params, potential, strict=manifest.strict)
            u = rd.solve_correction(red, starts[0]).solution
        rep = vf.pohozaev_residual(
            u, starts[0].eps, params, potential,
            center=manifest.options.get("center",
                                        potential.peaks[0].tolist()),
            radius=float(manifest.options.get("radius",
                                              grid.half_width / 4)),
            axis=int(manifest.options.get("axis", 0)),
            tol=float(manifest.options.get("tol", 1e-3)),
        )
    vf.append_jsonl(rep, run_dir / "checks.jsonl")
    vf.write_csv([rep], run_dir / "checks.csv")
    # diagnostic-only reports (passed is None) never gate the exit code
    return {"check": rep.name, "passed": rep.passed is not False,
            "diagnostic_only": rep.passed is None,
            "measured": rep.measured, "report": rep.as_dict()}


STAGES = {
    "groundstate": _stage_groundstate,
    "system": _stage_system,
    "reduce": _stage_reduce,
    "sweep": _stage_sweep,
    "verify": _stage_verify,
}


def run(manifest: RunManifest, out_override=None) -> tuple[int, Path | None]:
    """Execute a manifest; returns (exit status, run directory)."""
    try:
        params, grid, potential, starts = manifest.validate()
    except (ParameterError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(json.dumps({
            "error": "validation", "detail": str(exc),
        }) + "\n")
        return 2, None
    run_dir = _prepare_run_dir(manifest, out_override)
    t0 = time.time()
    try:
        report = STAGES[manifest.command](manifest, params, grid, potential,
                                          starts, run_dir)
    except Exception as exc:
        sys.stderr.write(json.dumps({
            "error": "compute", "stage": manifest.command,
            "detail": repr(exc),
        }) + "\n")
        _write_json(run_dir / "report.json", {
            "stage": manifest.command, "failed": repr(exc),
        })
        return 3, run_dir
    report["stage"] = manifest.command
    report["wall_seconds"] = time.time() - t0
    _write_json(run_dir / "report.json", report)
    return (0 if report.get("passed", True) else 1), run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fkpeaks",
        description="solver/verifier pipelines for multi-peak fractional "
                    "Kirchhoff states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True,
                       help="path to a JSON run manifest")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: manifest value or "
                            f"${ENV_OUTPUT_ROOT})")
        p.add_argument("--strict", action="store_true",
                       help="escalate tail-truncation warnings to errors")
        if name == "verify":
            p.add_argument("check", nargs="?", default=None,
                           help="checker name (overrides manifest)")
    args = parser.parse_args(argv)
    try:
        manifest = RunManifest.from_file(args.manifest)
    except (OSError, json.JSONDecodeError, ParameterError) as exc:
        sys.stderr.write(json.dumps({
            "error": "validation", "detail": str(exc),
        }) + "\n")
        return 2
    manifest.command = args.command
    if args.strict:
        manifest.strict = True
    if args.command == "verify" and getattr(args, "check", None):
        manifest.options["check"] = args.check
    status, _ = run(manifest, out_override=args.out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
