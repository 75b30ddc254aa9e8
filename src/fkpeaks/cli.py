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
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import io as fio
from . import reduction as rd
from . import spectral as sp
from . import verify as vf
from .errors import ParameterError, TailTruncationWarning
from .groundstate import (DEFAULT_TOL, decay_fit, kirchhoff_scale,
                          require_decay_window, solve_Q, solve_system)

ENV_OUTPUT_ROOT = "FKPEAKS_OUT"
COMMANDS = ("groundstate", "system", "reduce", "sweep", "verify")
# a run is the command, or the check for verify; the runs that start from
# peak configurations, read the eps list, and run at one eps; a sweep that
# searches FIT_EPS or more eps fits the asymptotic exponents
PEAK_RUNS = ("reduce", "sweep", "uniqueness", "pohozaev")
EPS_RUNS = PEAK_RUNS + ("wrong_ansatz",)
ONE_EPS_RUNS = ("reduce", "uniqueness", "pohozaev")
FIT_EPS = 4


def _flag(value) -> bool:
    """A JSON boolean: the string "false" is refused, not read as true."""
    if not isinstance(value, bool):
        raise ParameterError(f"must be true or false, got {value!r}")
    return value


def _array(value) -> np.ndarray:
    """A finite nonempty float array (a number is a 0-d array)."""
    out = np.asarray(value, dtype=float)
    if out.size == 0 or not np.all(np.isfinite(out)):
        raise ParameterError(f"{value!r} is empty or not finite")
    return out


def _count(value) -> int:
    """An int of at least 1."""
    if (out := int(value)) < 1:
        raise ParameterError(f"must be at least 1, got {value!r}")
    return out


def _object(value) -> dict:
    """A JSON object (its keys are parsed by the field's own table)."""
    if not isinstance(value, dict):
        raise ParameterError(f"must be a JSON object, got {value!r}")
    return value


def _eps(value) -> list[float]:
    """A list of distinct positive finite eps, in the given order."""
    eps = [float(e) for e in value]
    for i, e in enumerate(eps):
        if not (0.0 < e < math.inf):
            raise ParameterError(
                f"eps values must be positive and finite, got {e}")
        if e in eps[:i]:
            raise ParameterError(
                f"eps values must be distinct, got {e} twice in {value}")
    return eps


# each table maps a key of one manifest field to (parser, default); REQUIRED
# marks a key with no default, and None an unset value (validation resolves
# peak_values, center and radius from the potential and the grid)
REQUIRED = object()
TOP_LEVEL = {"command": (str, REQUIRED), "params": (_object, REQUIRED),
             "grid": (_object, REQUIRED), "potential": (_object, {}),
             "eps": (_eps, []), "delta": (float, 0.5), "theta": (float, 0.8),
             "seeds": (_object, {}), "tolerances": (_object, {}),
             "options": (_object, {}), "output_dir": (str, ""),
             "strict": (_flag, False)}
PARAMS = {"dim": (int, REQUIRED), "s": (float, REQUIRED),
          "p": (float, REQUIRED), "a": (float, REQUIRED),
          "b": (float, REQUIRED), "validation_mode": (_flag, False)}
GRID = {"half_width": (float, REQUIRED), "points_per_dim": (int, REQUIRED)}
SEEDS = {"master": (int, 1234)}
TOLERANCES = {run: {"solver": (float, DEFAULT_TOL)}
              for run in ("groundstate", "system")}
CHECK = {"check": (str, REQUIRED)}
OPTIONS = {
    "groundstate": {"verbose": (_flag, False), "decay_window": (_array, None),
                    "c": (float, None)},
    "system": {"peak_values": (_array, None)},
    "reduce": {"minimize": (_flag, True), "verbose": (_flag, False),
               "y0_offset": (_array, 0.0)},
    "sweep": {"minimize": (_flag, True), "y0_offset": (_array, 0.0)},
    "sobolev": {**CHECK, "q": (float, 2.0), "samples": (_count, 8)},
    "interaction": {**CHECK, "x_i": (_array, REQUIRED),
                    "x_j": (_array, REQUIRED), "alpha": (float, 2.0),
                    "beta": (float, 2.0), "sigma": (float, 2.0),
                    "samples": (_count, 20000)},
    "wrong_ansatz": {**CHECK, "tol": (float, 0.2)},
    "uniqueness": {**CHECK, "tol": (float, 1e-6),
                   "start_offsets": (lambda v: list(map(_array, v)),
                                     [0.0, 0.05, -0.05])},
    "pohozaev": {**CHECK, "solution": (str, None), "center": (_array, None),
                 "radius": (float, None), "axis": (int, 0),
                 "tol": (float, 1e-3)},
}
VERIFY_CHECKS = tuple(r for r, table in OPTIONS.items() if "check" in table)


def _parse(what: str, field: str, given: dict, table: dict) -> dict:
    """The values of one manifest field parsed by its table, defaults
    filled in; ParameterError names a key the run does not read, a missing
    required key, or a value its parser refuses."""
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ParameterError(f"{what} reads no {field} {unknown}; it reads "
                             f"{sorted(table) or 'none'}")
    values = {}
    for key, (parse, default) in table.items():
        value = given.get(key, default)
        if value is REQUIRED:
            raise ParameterError(f"{what} requires {field}.{key}")
        try:
            # a missing key takes the default, and so does null where the
            # default is unset
            values[key] = value if value is default else parse(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{field}.{key}: {exc}") from None
    return values


RUN_README = """\
Run directory layout
====================
README.md         this file
manifest.json     the manifest as run: the input manifest plus the
                  command-line overrides (the subcommand, --strict, the
                  verify check); defaults are not filled in
version.json      package and dependency versions
report.json       per-stage results; `passed` marks gated checks; a
                  verify check's full CheckReport is its `report`
asymptotics.json  sweep: the asymptotic-exponent fit, also in report.json
iterations.jsonl  per-iteration log, with options.verbose
*.bin / *.json    field snapshots (little-endian float64 + sidecar)
*.csv             series exports

iterations.jsonl
----------------
groundstate: iteration, gamma
reduce:      per step of the correction at the returned y: iteration,
             increment_eps_norm (||phi_{n+1} - phi_n||_eps), inner_iterations
             (MINRES iterations; one more apply confirms each stop), forcing
             (the step's forcing term eta, the bound on its linear solve's
             true residual relative to the right-hand side; 1e-11 for the
             contraction steps)

CSV columns
-----------
profile.csv:   x, value                  (1D profiles)
sweep.csv:     eps, phi_norm, energy_over_epsN, max_drift,
               max_drift_over_eps, orthogonality, max_ratio, iterations,
               passed (the record's verdict)
"""


def validate(manifest: dict) -> tuple[sp.ProblemParams, sp.GridSpec,
                                     rd.Potential, list[rd.PeakConfig], dict]:
    """The checked inputs of a manifest's run: params, grid, potential, the
    peak configurations it computes from (largest eps first; empty outside
    PEAK_RUNS), and the parsed values it reads, by field of TOP_LEVEL.
    Every value is parsed, and passes its owning type's checks, before any
    compute starts; the manifest itself is left as given."""
    values = _parse("fkpeaks", "manifest", manifest, TOP_LEVEL)
    run = values["command"]
    if run not in COMMANDS:
        raise ParameterError(f"command must be one of {COMMANDS}, got {run!r}")
    if run == "verify":
        run = values["options"].get("check")
        if run not in VERIFY_CHECKS:
            raise ParameterError(
                f"verify needs options.check in {VERIFY_CHECKS}, got {run!r}")
    what = run if run == values["command"] else f"verify {run}"
    for name, table in (("params", PARAMS), ("grid", GRID),
                        ("seeds", SEEDS), ("options", OPTIONS[run]),
                        ("tolerances", TOLERANCES.get(run, {}))):
        values[name] = _parse(what, name, values[name], table)
    params = sp.ProblemParams(**values["params"])
    grid = sp.GridSpec(params.dim, **values["grid"])
    potential = build_potential(values["potential"], params.dim)
    eps, delta, theta = values["eps"], values["delta"], values["theta"]
    if not (delta > 0 and 0.0 < theta < 1.0):
        raise ParameterError("need delta > 0 and theta in (0, 1)")
    if not eps and run in EPS_RUNS:
        raise ParameterError(f"{what} requires a nonempty eps list")
    if len(eps) > 1 and run in ONE_EPS_RUNS:
        raise ParameterError(
            f"{what} runs at one eps, got {len(eps)}: {eps}; "
            "use the sweep command for an eps list")
    options = values["options"]
    if run == "sweep" and len(eps) >= FIT_EPS and options["minimize"]:
        vf.require_decade_span(eps)
    if run == "sobolev" and eps:
        vf.require_three_eps(eps)
    if (window := options.get("decay_window")) is not None:
        try:
            require_decay_window(grid, window)
        except ValueError as exc:
            raise ParameterError(f"options.decay_window: {exc}") from None
    for key, value in (("peak_values", potential.peak_values),
                       ("center", potential.peaks[0]),
                       ("radius", grid.half_width / 4)):
        if key in options and options[key] is None:
            options[key] = value
    if run == "pohozaev":
        vf.require_ball(grid, options["center"], options["radius"])
    if run not in PEAK_RUNS:
        return params, grid, potential, [], values
    # pohozaev starts at the wells
    offsets = options.get("start_offsets", [options.get("y0_offset", 0.0)])
    starts = [rd.PeakConfig(e, potential.peaks + np.broadcast_to(
                  off, potential.peaks.shape), delta, theta)
              for e in sorted(eps, reverse=True) for off in offsets]
    if run == "uniqueness" and len(starts) < 2:
        raise ParameterError(
            "verify uniqueness compares solutions from at least two "
            f"start_offsets, got {len(starts)}")
    # D_eps_delta's separation eps^theta needs theta in the window
    lo, hi = starts[0].theta_window(params.s, potential.holder)
    if not (lo < theta < hi):
        raise ParameterError(
            f"theta must lie in the window ((N+2s)/(N+2s+alpha), 1)"
            f" = ({lo:.6g}, {hi:g}), got {theta}")
    if run in ("reduce", "sweep"):
        # the start must lie in D_eps_delta at every eps it runs at;
        # uniqueness reports starts outside it, pohozaev refuses at compute
        for cfg in starts:
            cfg.require_admissible(potential)
    return params, grid, potential, starts, values


# the keys of each potential kind besides `kind`: its constructor's arguments
POTENTIALS = {
    "constant": {"value": (float, 1.0)},
    "single_well": {"center": (_array, REQUIRED), "value": (float, REQUIRED),
                    "coeffs": (_array, REQUIRED), "m": (float, REQUIRED),
                    "holder": (float, 1.0), "asym": (float, 0.0),
                    "asym_power": (float, None)},
    "multi_well": {"centers": (_array, REQUIRED), "values": (_array, REQUIRED),
                   "coeffs": (_array, REQUIRED), "m": (float, REQUIRED),
                   "far_value": (float, REQUIRED), "plateau": (float, None),
                   "holder": (float, 1.0)},
}


def build_potential(spec: dict, dim: int) -> rd.Potential:
    kind = spec.get("kind", "constant")
    if kind not in POTENTIALS:
        raise ParameterError(f"unknown potential kind {kind!r}")
    values = _parse(f"potential kind {kind!r}", "potential",
                    {k: v for k, v in spec.items() if k != "kind"},
                    POTENTIALS[kind])
    if kind == "constant":
        values["dim"] = dim
    potential = getattr(rd.Potential, kind)(**values)
    if potential.dim != dim:
        raise ParameterError(f"potential kind {kind!r} is {potential.dim}D, "
                             f"but params.dim is {dim}")
    return potential


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=str))


def _prepare_run_dir(run_dir: Path, manifest: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "manifest.json", manifest)
    _write_json(run_dir / "version.json", {
        "fkpeaks": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    })
    (run_dir / "README.md").write_text(RUN_README)


def _refused(detail) -> int:
    """Report a manifest that fails validation; its exit status."""
    sys.stderr.write(json.dumps({
        "error": "validation", "detail": str(detail),
    }) + "\n")
    return 2


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _log_iterations(run_dir: Path, rows) -> None:
    with open(run_dir / "iterations.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _stage_groundstate(values, params, grid, potential, starts,
                       run_dir) -> dict:
    tol, options = values["tolerances"]["solver"], values["options"]
    state = solve_Q(grid, params.s, params.p, tol=tol)
    if options["verbose"]:
        _log_iterations(run_dir, (
            {"iteration": i + 1, "gamma": g}
            for i, g in enumerate(state.gammas)
        ))
    window = options["decay_window"]
    slope = None if window is None else decay_fit(state.profile, window)
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
    if options["c"] is not None:
        ground = kirchhoff_scale(state, params, options["c"])
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


def _stage_system(values, params, grid, potential, starts, run_dir) -> dict:
    state = solve_Q(grid, params.s, params.p,
                    tol=values["tolerances"]["solver"])
    system = solve_system(state, params, values["options"]["peak_values"])
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


def _stage_reduce(values, params, grid, potential, starts, run_dir) -> dict:
    eps = starts[0].eps
    red = rd.Reducer(grid, params, potential)
    report, sol = rd.reduce_at(red, starts[0], values["options"]["minimize"])
    if values["options"]["verbose"]:
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


def _stage_sweep(values, params, grid, potential, starts, run_dir) -> dict:
    minimize = values["options"]["minimize"]
    red = rd.Reducer(grid, params, potential)
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
    if len(records) >= FIT_EPS and minimize:
        fit = vf.asymptotics_fit(records, m=potential.m, dim=params.dim)
        _write_json(run_dir / "asymptotics.json", fit.as_dict())
        report["asymptotics"] = fit.as_dict()
        report["passed"] = report["passed"] and bool(fit.passed)
    return report


def _stage_verify(values, params, grid, potential, starts, run_dir) -> dict:
    options = dict(values["options"])
    check, seed = options.pop("check"), values["seeds"]["master"]
    if check == "sobolev":
        rep = vf.sobolev_scaling_check(
            grid, params, potential,
            eps_list=values["eps"] or [0.4, 0.2, 0.1, 0.05], seed=seed,
            **options)
    elif check == "interaction":
        rep = vf.interaction_inequality_check(seed=seed, **options)
    elif check == "wrong_ansatz":
        rep = vf.wrong_ansatz_gap(grid, params, potential,
                                  eps_list=values["eps"], **options)
    elif check == "uniqueness":
        red = rd.Reducer(grid, params, potential)
        rep = vf.uniqueness_probe(red, starts, tol=options["tol"])
    else:
        # pohozaev: solution from a snapshot if given, else the correction
        # at the wells
        if (solution := options.pop("solution")) is not None:
            u, _ = fio.load_field(solution)
        else:
            red = rd.Reducer(grid, params, potential)
            u = rd.solve_correction(red, starts[0]).solution
        rep = vf.pohozaev_residual(u, starts[0].eps, params, potential,
                                   **options)
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


def run(manifest: dict, out_override=None) -> tuple[int, Path | None]:
    """Execute a manifest; returns (exit status, run directory)."""
    try:
        params, grid, potential, starts, values = validate(manifest)
    except (KeyError, TypeError, ValueError) as exc:
        return _refused(exc), None
    command = values["command"]
    run_dir = Path(out_override or values["output_dir"]
                   or os.environ.get(ENV_OUTPUT_ROOT, "runs"))
    _prepare_run_dir(run_dir, manifest)
    t0 = time.time()
    try:
        with warnings.catch_warnings():
            if values["strict"]:
                # a box that cuts a profile's tail fails the stage
                warnings.simplefilter("error", TailTruncationWarning)
            report = STAGES[command](values, params, grid, potential,
                                     starts, run_dir)
    except Exception as exc:
        sys.stderr.write(json.dumps({
            "error": "compute", "stage": command, "detail": repr(exc),
        }) + "\n")
        _write_json(run_dir / "report.json", {
            "stage": command, "failed": repr(exc),
        })
        return 3, run_dir
    report["stage"] = command
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
        manifest = _object(json.loads(Path(args.manifest).read_text()))
    except (OSError, ValueError) as exc:
        return _refused(f"manifest: {exc}")
    # the command line overrides the file; manifest.json records the result
    manifest["command"] = args.command
    if args.strict:
        manifest["strict"] = True
    if args.command == "verify" and args.check:
        options = manifest.setdefault("options", {})
        if isinstance(options, dict):   # else validation names the field
            options["check"] = args.check
    status, _ = run(manifest, out_override=args.out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
