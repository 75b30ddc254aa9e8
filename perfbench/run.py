"""Layered benchmark of the fkpeaks pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reduce2d --seed 1 --seconds 25 --trace 0

It imports the package from ./src, sets the workload up (timed as
setup_s, here and in fresh processes spread over the run), repeats whole
rounds of the workload's solver calls for --seconds seconds (closed
loop, one caller), checks every answer with the reference calculus in
reference.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 untraced and traced rounds alternate; the traced rounds
rebind the package's layer entry points (layers.py) and the result line
carries the per-layer metrics, including the tracing overhead.

    python3 perfbench/run.py --workload kernel2d --determinism

runs two traced runs in separate processes and fails unless their work
counts and answer digests agree exactly.  `--workload all` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_CHILDREN = 6          # set-ups in fresh processes, besides this one's
DETERMINISM_KEYS = ("spectral.transforms", "kernel.inner_minres_iters",
                    "reduction.minres_iters", "reduction.corrections",
                    "groundstate.profile_solves")


def usage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def timed_setup(args) -> tuple[object, float]:
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, OUT / f"{args.workload}-{os.getpid()}")
    t0 = time.perf_counter()
    wl.setup()
    return wl, time.perf_counter() - t0


def child_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(wl, i: int, k: int, tracer=None):
    import layers
    state = wl.prepare_round(i, k)
    if tracer is not None:
        layers.install(tracer)
    try:
        c0, t0 = usage_cpu(), time.perf_counter()
        answer = wl.run_round(state)
        t1, c1 = time.perf_counter(), usage_cpu()
    finally:
        if tracer is not None:
            tracer.restore()
    return answer, t1 - t0, c1 - c0


def measure(wl, seconds: float, trace: bool, verdict,
            sample_setup=None) -> dict:
    """Whole rounds until `seconds` of solving have been measured.  Each
    answer is digested and checked right after its round, outside the
    timed span, and then dropped.  With trace, a warm-up round is followed
    by alternating untraced and traced rounds, so that first-call costs do
    not count as tracing overhead.  With `sample_setup` (which times one
    set-up in a fresh process), SETUP_CHILDREN set-ups are timed between
    rounds, spread over the run: the shared host's speed drifts over tens
    of seconds, and set-ups timed back to back would all see one phase."""
    from tracer import Tracer

    import layers
    rounds, layer_rows, tracers, setups = [], [], [], []
    measured = 0.0
    while True:
        i = len(rounds)
        tracer = Tracer() if trace and i % 2 == 0 and i > 0 else None
        # an untraced round and the traced one after it share their inputs
        k = (i + 1) // 2 if trace else i
        answer, wall, cpu = run_round(wl, i, k, tracer)
        measured += wall
        rounds.append({"solve_s": wall, "cpu_s": cpu, "inputs": wl.inputs(k),
                       "traced": tracer is not None,
                       "warmup": trace and i == 0,
                       "digest": wl.answer_digest(answer)})
        wl.check(verdict, i, answer)
        del answer
        if tracer is not None:
            layer_rows.append(layers.metrics(tracer))
            tracers.append(tracer)
        kind = " traced" if tracer else " warm-up" if rounds[-1]["warmup"] else ""
        print(f"# round {i}{kind}: solve {wall:.4f} s, cpu {cpu:.4f} s, "
              f"inputs {json.dumps(rounds[-1]['inputs'])}", flush=True)
        if (sample_setup is not None and len(setups) < SETUP_CHILDREN
                and measured * SETUP_CHILDREN >= seconds * (len(setups) + 1)):
            setups.append(sample_setup())
        if measured >= seconds and (not trace or tracer is not None):
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while sample_setup is not None and len(setups) < SETUP_CHILDREN:
        setups.append(sample_setup())
    return {"rounds": rounds, "layer_rows": layer_rows, "tracers": tracers,
            "setups": setups, "peak_rss_mib": rss_mib}


def mean_of(rounds, key, traced):
    """The mean over the run's rounds: the run's total time over its
    answers.  A median of the few rounds a run makes follows whichever
    speed phase of the shared host most of them fell in; the mean weighs
    every phase by its time."""
    return statistics.fmean(r[key] for r in rounds
                            if r["traced"] == traced and not r["warmup"])


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, own_setup = timed_setup(args)
    import fkpeaks
    if Path(fkpeaks.__file__).resolve().parent != (ROOT / "src" / "fkpeaks").resolve():
        print(f"error: imported fkpeaks from {fkpeaks.__file__}, not ./src",
              file=sys.stderr)
        wl.cleanup()
        return 2
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    print(f"# workload {args.workload}, seed {args.seed}", flush=True)

    import reference
    import workloads
    verdict = workloads.Verdict()
    for problem in reference.self_test():
        verdict.problems.append(f"reference calculus: {problem}")
    sample_setup = None if args.trace else (lambda: child_setup(args))
    m = measure(wl, args.seconds, bool(args.trace), verdict, sample_setup)
    rounds = m["rounds"]
    digests = [r["digest"] for r in rounds]
    by_inputs: dict[str, set] = {}
    for r in rounds:
        by_inputs.setdefault(json.dumps(r["inputs"]), set()).add(r["digest"])
    verdict.require(all(len(ds) == 1 for ds in by_inputs.values()),
                    f"rounds on the same inputs gave different answers: "
                    f"{by_inputs}")
    print("# checks " + json.dumps(verdict.values, default=float), flush=True)
    for problem in verdict.problems:
        print(f"# FAILED CHECK: {problem}", flush=True)

    if args.trace:
        layer = {k: statistics.median_low(row[k] for row in m["layer_rows"])
                 for k in m["layer_rows"][0]}
        plain, traced = (mean_of(rounds, "solve_s", False),
                         mean_of(rounds, "solve_s", True))
        layer["trace.overhead_s"] = traced - plain
        print(f"# trace overhead: traced solve {traced:.4f} s, untraced "
              f"{plain:.4f} s ({100 * (traced - plain) / plain:+.2f}%)")
        import layers
        units = dict(layers.METRICS, **{"trace.overhead_s": "s"})
        for name, unit in units.items():
            print(f"#   {name:34s} {layer[name]:>16.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for k, tr in enumerate(m["tracers"]):
                tr.dump(fh, {"round": 2 * k + 2})
        metrics = {e["name"]: {"value": layer[e["name"]], "unit": e["unit"]}
                   for e in spec["per_layer"]}
    else:
        setups = [own_setup] + m["setups"]
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": mean_of(rounds, "solve_s", False),
            "cpu_s": mean_of(rounds, "cpu_s", False),
            "peak_rss_mib": m["peak_rss_mib"],
        }
        print(f"# setup samples {setups}", flush=True)
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}

    if args.summary:
        Path(args.summary).write_text(json.dumps({
            "env": env, "digests": digests,
            "counts": [{k: row[k] for k in DETERMINISM_KEYS}
                       for row in m["layer_rows"]],
        }, sort_keys=True))
    wl.cleanup()
    print(json.dumps({"correct": verdict.correct,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


def determinism(args) -> int:
    """Two traced runs in separate processes must do the same work and
    return the same answer."""
    OUT.mkdir(exist_ok=True)
    summaries = []
    for k in range(2):
        path = OUT / f"determinism-{args.workload}-{os.getpid()}-{k}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "1",
             "--summary", str(path)],
            cwd=ROOT, check=True, timeout=600, stdout=subprocess.DEVNULL,
        )
        summaries.append(json.loads(path.read_text()))
        path.unlink()
    a, b = summaries
    same_threads = a["env"]["blas_threads"] == b["env"]["blas_threads"]
    ok = (a["counts"] == b["counts"] and a["digests"] == b["digests"]
          and same_threads)
    print(json.dumps({"workload": args.workload, "deterministic": ok,
                      "blas_threads": a["env"]["blas_threads"],
                      "counts": a["counts"], "counts_other": b["counts"],
                      "digests": a["digests"], "digests_other": b["digests"]},
                     sort_keys=True))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line maps
    workload names to their results."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"# {name} {line}", flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true",
                        help="compare two traced runs in fresh processes")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--summary", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fkpeaks" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import warnings
    warnings.filterwarnings("ignore", message=r"peak \d+ tail at the box")

    if args.setup_only:
        wl, took = timed_setup(args)
        wl.cleanup()
        print(json.dumps({"setup_s": took}))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.determinism:
        return determinism(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
