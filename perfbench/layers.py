"""The package's layers as the benchmark sees them: which entry points a
traced round rebinds, and the per-layer metrics computed from the spans.
"""

from __future__ import annotations

import os

from tracer import Tracer

# (name, unit) of every per-layer metric the traced run computes, in the
# order the trace table prints them.
METRICS = [
    ("spectral.transforms", "count"),
    ("spectral.transform_s", "s"),
    ("spectral.points", "count"),
    ("spectral.bytes_computed", "B"),
    ("spectral.ns_per_point", "ns"),
    ("groundstate.profile_solves", "count"),
    ("groundstate.petviashvili_iters", "count"),
    ("groundstate.profile_s", "s"),
    ("kernel.applies", "count"),
    ("kernel.apply_s", "s"),
    ("kernel.inner_solves", "count"),
    ("kernel.inner_minres_iters", "count"),
    ("kernel.inner_solve_failures", "count"),
    ("kernel.spectrum_s", "s"),
    ("reduction.grid_systems", "count"),
    ("reduction.grid_system_s", "s"),
    ("reduction.frames", "count"),
    ("reduction.frame_s", "s"),
    ("reduction.corrections", "count"),
    ("reduction.correction_s", "s"),
    ("reduction.outer_steps", "count"),
    ("reduction.constrained_solves", "count"),
    ("reduction.constrained_solve_s", "s"),
    ("reduction.minres_iters", "count"),
    ("reduction.minres_iters_per_solve", "ratio"),
    ("reduction.search_evals", "count"),
    ("reduction.newton_steps", "count"),
    ("reduction.gradient_evals", "count"),
    ("reduction.search_s", "s"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("io.bytes_written", "B"),
    ("io.write_s", "s"),
]


def install(tr: Tracer) -> None:
    """Route the package's layer entry points through `tr`."""
    import scipy.sparse.linalg as sla

    from fkpeaks import cli, groundstate, io, kernel, reduction, spectral, verify

    tr.wrap_fft(spectral, "_fftn")
    tr.wrap_fft(spectral, "_ifftn")
    tr.wrap_minres(sla)

    def profile_done(out, args, kwargs):
        tr.add("groundstate.petviashvili_iters", out[3])

    # solve_profile is a from-import in reduction: rebind both names
    tr.wrap(groundstate, "solve_profile", "groundstate.profile", profile_done)
    tr.wrap(reduction, "solve_profile", "groundstate.profile", profile_done)
    tr.wrap(reduction, "solve_grid_system", "reduction.grid_system")
    tr.wrap(verify, "solve_grid_system", "reduction.grid_system")
    tr.wrap(reduction._Frame, "__init__", "reduction.frame")
    tr.wrap(reduction._Frame, "solve_constrained",
            "reduction.constrained_solve")

    def correction_done(out, args, kwargs):
        tr.add("reduction.outer_steps", out.iterations)

    tr.wrap(reduction, "solve_correction", "reduction.correction",
            correction_done)
    tr.wrap(reduction, "reduced_gradient_total", "reduction.gradient")

    def search_done(out, args, kwargs):
        tr.add("reduction.search_evals", out[2]["evaluations"])
        tr.add("reduction.newton_steps", out[2]["newton_steps"])

    tr.wrap(reduction, "minimize_peaks", "reduction.search", search_done)
    tr.wrap(kernel.LinearizedOperator, "apply_values", "kernel.apply")
    tr.wrap(kernel, "kernel_spectrum", "kernel.spectrum")
    tr.wrap(verify, "wrong_ansatz_gap", "verify.wrong_ansatz")
    tr.wrap(cli, "run", "cli.run")

    def saved(out, args, kwargs):
        tr.add("io.bytes_written", os.path.getsize(out)
               + os.path.getsize(out.with_suffix(".json")))

    tr.wrap(io, "save_field", "io.save_field", saved)


def metrics(tr: Tracer) -> dict[str, float]:
    c = tr.counts.get
    self_s = tr.self_times()
    transforms, points, fft_s = tr.fft
    out = {
        "spectral.transforms": transforms,
        "spectral.transform_s": fft_s,
        "spectral.points": points,
        # computed, not measured: 16 B per complex point read plus written
        "spectral.bytes_computed": 32 * points,
        "spectral.ns_per_point": 1e9 * fft_s / points if points else 0.0,
        "groundstate.petviashvili_iters": c("groundstate.petviashvili_iters", 0),
        "kernel.inner_solves": c("kernel.minres_calls", 0),
        "kernel.inner_minres_iters": c("kernel.minres_iters", 0),
        "kernel.inner_solve_failures": c("kernel.minres_failures", 0),
        "reduction.outer_steps": c("reduction.outer_steps", 0),
        "reduction.minres_iters": c("reduction.minres_iters", 0),
        "reduction.minres_iters_per_solve": (
            c("reduction.minres_iters", 0) / c("reduction.minres_calls")
            if c("reduction.minres_calls") else 0.0),
        "reduction.search_evals": c("reduction.search_evals", 0),
        "reduction.newton_steps": c("reduction.newton_steps", 0),
        "verify.self_s": self_s.get("verify", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "io.bytes_written": c("io.bytes_written", 0),
    }
    for span, count_key, time_key in (
        ("groundstate.profile", "groundstate.profile_solves",
         "groundstate.profile_s"),
        ("kernel.apply", "kernel.applies", "kernel.apply_s"),
        ("kernel.spectrum", None, "kernel.spectrum_s"),
        ("reduction.grid_system", "reduction.grid_systems",
         "reduction.grid_system_s"),
        ("reduction.frame", "reduction.frames", "reduction.frame_s"),
        ("reduction.correction", "reduction.corrections",
         "reduction.correction_s"),
        ("reduction.constrained_solve", "reduction.constrained_solves",
         "reduction.constrained_solve_s"),
        ("reduction.gradient", "reduction.gradient_evals", None),
        ("reduction.search", None, "reduction.search_s"),
        ("io.save_field", None, "io.write_s"),
    ):
        n, total = tr.outer(span)
        if count_key:
            out[count_key] = n
        if time_key:
            out[time_key] = total
    return out
