"""The four benchmark workloads.

Each workload has three phases:
  setup()               import the package and build the inputs (timed as
                        setup_s);
  run_round(state)      one round of the workload's solver calls (timed as
                        solve_s), on what prepare_round(i, k) returned;
  check(v, i, answer)   check one round's answer with the reference calculus
                        (not timed), recording into the Verdict v.

Only the standard library is imported at module level, so that setup()
pays for importing numpy, scipy and the package, as a user's run does.
The 2D grids are 128^2; see README.md for why and for the matching
figures at 256^2.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# the acceptance sweep's problem (criteria 8-10)
SWEEP_PARAMS = {"dim": 2, "s": 0.75, "p": 2.0, "a": 1.0, "b": 0.05}
SWEEP_WELL = {"kind": "single_well", "center": [0.2, -0.1], "value": 1.0,
              "coeffs": [0.6, 0.4], "m": 2.0, "asym": 0.1, "asym_power": 3.0}
SWEEP_GRID = {"half_width": 2.5, "points_per_dim": 128}
DELTA, THETA = 0.4, 0.8
OFFSET_MAX = 0.07      # |offset_j| <= 0.07, as the criterion-10 starts

# tolerances of the checks (reference calculus against program output)
SPAN_TOL = 1e-7        # ||r_perp|| / ||r|| of the reduced equation
FULL_TOL = 1e-11       # ... or ||r_perp|| / ||u_+^p||
ORTH_TOL = 1e-8        # <phi, d_j U>_eps / (||phi||_eps ||d_j U||_eps)
PROFILE_TOL = 1e-9     # sup residual of a re-solved peak profile
COEFF_TOL = 1e-9       # relative error of the shared Kirchhoff coefficient
ENERGY_TOL = 1e-9      # relative error of the reported reduced energy
GROUND_TOL = 1e-8      # sup residual of the ground state and its rescaling
MODE_TOL = 1e-8        # ||L+ d_j U|| / ||d_j U||
PAIR_TOL = 1e-5        # ||L+ v - lambda v|| / ||v|| of a returned eigenpair
LOCAL_MIN_STEP = 0.01  # y +- h e_i probes of the reduced-energy minimum
START_Y_TOL = 1e-8     # minimizers reached from two starts ...
START_U_TOL = 1e-6     # ... and the sup distance of their solutions


# the package raises its numerical errors as subclasses of these; an
# operation that raises one counts as failed
PACKAGE_ERRORS = (RuntimeError, ValueError)


def draw_offset(seed: int, workload: str, index: int = 0) -> list[float]:
    """The index-th start offset the seed draws for the workload."""
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(index + 1):
        offset = [rng.uniform(-OFFSET_MAX, OFFSET_MAX) for _ in range(2)]
    return offset


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif hasattr(part, "tobytes"):
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def capture(owner, attr: str, sink: list):
    """Record the return values of owner.attr while the block runs."""
    orig = getattr(owner, attr)

    def recorded(*args, **kwargs):
        out = orig(*args, **kwargs)
        sink.append(out)
        return out

    setattr(owner, attr, recorded)
    try:
        yield sink
    finally:
        setattr(owner, attr, orig)


def well_values(x, y):
    """The acceptance sweep's single well, written out for the checks."""
    import numpy as np
    dx, dy = x - 0.2, y + 0.1
    return (1.0 + 0.6 * dx**2 + 0.4 * dy**2
            + 0.1 * (np.sign(dx) * np.abs(dx) ** 3
                     + np.sign(dy) * np.abs(dy) ** 3))


def reduced_equation_checks(v: Verdict, tag: str, g, u, phi, V, eps: float,
                            params: dict) -> float:
    """The residual of u = U + phi lies in span{eps^2s a (-D)^s d_jU + V d_jU}
    and phi is eps-orthogonal to every d_jU.  Returns ||phi||_eps."""
    import reference as ref
    s, p, a, b = params["s"], params["p"], params["a"], params["b"]
    U = u - phi
    modes = [g.derivative(U, j) for j in range(g.dim)]
    reps = [eps ** (2 * s) * a * g.frac_lap(m, s) + V * m for m in modes]
    r = ref.kirchhoff_residual(g, u, V, eps, s, p, a, b)
    rperp = ref.span_residual(g, r, reps)
    span = rperp / g.l2(r)
    # at a critical point of the reduced energy the multipliers vanish and
    # r itself is at roundoff, so ||r_perp|| / ||r|| is noise over noise
    full = rperp / g.l2(ref.pos(u, p))
    v.require(span < SPAN_TOL or full < FULL_TOL,
              f"{tag}: residual outside the mode span, ||r_perp||/||r|| = "
              f"{span:.2e}, ||r_perp||/||u_+^p|| = {full:.2e}")
    phi_norm = math.sqrt(ref.eps_inner(g, phi, phi, V, eps, s, a))
    orth = max(
        abs(ref.eps_inner(g, phi, m, V, eps, s, a))
        / (phi_norm * math.sqrt(ref.eps_inner(g, m, m, V, eps, s, a)))
        for m in modes
    )
    v.require(orth < ORTH_TOL, f"{tag}: orthogonality {orth:.2e}")
    v.values.setdefault("span_residual", []).append(span)
    v.values.setdefault("residual_outside_span", []).append(full)
    v.values.setdefault("orthogonality", []).append(orth)
    return phi_norm


def profile_checks(v: Verdict, tag: str, g, gsys, eps: float,
                   params: dict) -> None:
    """Each W_i solves eps^2s A (-D)^s W + v_i W = W^p with
    A = a + b eps^(2s-N) sum ||(-D)^(s/2) W_i||^2, both recomputed."""
    import reference as ref
    s, p, a, b = params["s"], params["p"], params["a"], params["b"]
    A = gsys.coefficient
    semis = 0.0
    for i, w in enumerate(gsys.profiles):
        res = ref.profile_residual(g, w.values, eps ** (2 * s) * A,
                                   gsys.peak_values[i], s, p)
        worst = float(abs(res).max())
        v.require(worst < PROFILE_TOL,
                  f"{tag}: profile {i} residual {worst:.2e}")
        semis += g.seminorm_sq(w.values, s)
    want = a + b * eps ** (2 * s - g.dim) * semis
    v.require(abs(A - want) < COEFF_TOL * A,
              f"{tag}: shared coefficient {A!r} vs recomputed {want!r}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self, k: int):
        """The inputs that vary with the round's input index k (None when
        every round runs the same inputs)."""
        return None

    def prepare_round(self, i: int, k: int):
        """Untimed preparation of round i on inputs k; the result goes to
        run_round."""
        return None

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Reduce2D(Workload):
    """`fkpeaks reduce` through the CLI in-process: the peak search.

    Each round starts from its own offset, so that a run's median averages
    over starts whose searches take different numbers of evaluations."""

    name = "reduce2d"
    eps = 0.125
    first = None        # (y, u) of the first checked answer

    def inputs(self, k: int):
        return draw_offset(self.seed, self.name, k)

    def manifest(self, k: int) -> dict:
        return {
            "command": "reduce", "params": SWEEP_PARAMS, "grid": SWEEP_GRID,
            "potential": SWEEP_WELL, "eps": [self.eps], "delta": DELTA,
            "theta": THETA, "options": {"minimize": True,
                                        "y0_offset": self.inputs(k)},
        }

    def setup(self) -> None:
        from fkpeaks import cli
        from fkpeaks import reduction as rd
        from fkpeaks import spectral as sp
        self.cli = cli
        self.rd = rd
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.workdir / "manifest.json"
        self.manifest_path.write_text(json.dumps(self.manifest(0)))
        params = sp.ProblemParams(**SWEEP_PARAMS)
        grid = sp.GridSpec(2, SWEEP_GRID["half_width"],
                           SWEEP_GRID["points_per_dim"])
        potential = cli.build_potential(SWEEP_WELL, 2)
        self.red = rd.Reducer(grid, params, potential)

    def prepare_round(self, i: int, k: int):
        self.manifest_path.write_text(json.dumps(self.manifest(k)))
        run_dir = self.workdir / f"round{i}"
        shutil.rmtree(run_dir, ignore_errors=True)
        return run_dir

    def run_round(self, run_dir):
        status = self.cli.main(["reduce", "--manifest", str(self.manifest_path),
                                "--out", str(run_dir)])
        return {"status": status, "dir": run_dir}

    def answer_digest(self, ans) -> str:
        d = ans["dir"]
        if ans["status"] != 0:
            return f"exit status {ans['status']}"
        rep = json.loads((d / "report.json").read_text())
        return digest(rep["y"], rep["correction_norm"], rep["reduced_energy"],
                      (d / "solution.bin").read_bytes())

    def check(self, v: Verdict, i: int, ans) -> None:
        import numpy as np

        import reference as ref
        pr = SWEEP_PARAMS
        s, p, a, b = pr["s"], pr["p"], pr["a"], pr["b"]
        g = ref.Grid(2, SWEEP_GRID["half_width"], SWEEP_GRID["points_per_dim"])
        V = well_values(*g.coords)
        v.attempted += 1
        d = ans["dir"]
        if ans["status"] != 0 or not (d / "report.json").exists():
            v.failed += 1
            return
        rep = json.loads((d / "report.json").read_text())
        u = read_snapshot(d / "solution")
        phi = read_snapshot(d / "correction")
        shutil.rmtree(d)
        tag = f"round {i}"
        reduced_equation_checks(v, tag, g, u, phi, V, self.eps, pr)
        y = np.asarray(rep["y"])
        drift = float(np.linalg.norm(y - np.array([[0.2, -0.1]])))
        v.require(drift < DELTA, f"{tag}: y outside D_eps,delta "
                                 f"(drift {drift:.3g})")
        v.require(all(r < 1.0 for r in rep["contraction_ratios"]),
                  f"{tag}: contraction ratios {rep['contraction_ratios']}")
        j_ref = ref.energy(g, u, V, self.eps, s, p, a, b)
        v.require(abs(j_ref - rep["reduced_energy"]) < ENERGY_TOL * abs(j_ref),
                  f"{tag}: reduced energy {rep['reduced_energy']!r} vs "
                  f"recomputed {j_ref!r}")
        if self.first is None:
            self.first = (y, u)
            self._local_minimum(v, g, V, y, j_ref)
        else:
            # every start reaches the same minimizer (criterion 10)
            dy = float(np.abs(y - self.first[0]).max())
            du = float(np.abs(u - self.first[1]).max())
            v.values.setdefault("start_spread", []).append([dy, du])
            v.require(dy < START_Y_TOL and du < START_U_TOL,
                      f"{tag}: the search from another start ended elsewhere "
                      f"(|dy| = {dy:.1e}, sup|du| = {du:.1e})")

    def _local_minimum(self, v: Verdict, g, V, y, j_y: float) -> None:
        """j(y +- h e_i) >= j(y): extra program solves, checked by the
        reference energy."""
        import numpy as np

        import reference as ref
        pr = SWEEP_PARAMS
        rises = []
        for axis in range(2):
            for sign in (1.0, -1.0):
                yy = y.copy()
                yy[0, axis] += sign * LOCAL_MIN_STEP
                cfg = self.rd.PeakConfig(self.eps, yy, DELTA, THETA)
                sol = self.rd.solve_correction(self.red, cfg)
                j = ref.energy(g, sol.solution.values, V, self.eps, pr["s"],
                               pr["p"], pr["a"], pr["b"])
                rises.append(j - j_y)
        v.values["local_min_rises"] = rises
        v.require(min(rises) > 0, f"y is not a local minimum: j(y +- h e_i) "
                                  f"- j(y) = {rises}")


def read_snapshot(prefix: Path):
    """A field snapshot (little-endian float64 + JSON sidecar), read
    without the package."""
    import numpy as np
    meta = json.loads(prefix.with_suffix(".json").read_text())
    raw = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8")
    return raw.reshape(meta["shape"]).astype(float)


class Sweep2D(Workload):
    """The calls sweep_reduction(minimize=False) makes: per eps, the grid
    system and one correction at a fixed y."""

    name = "sweep2d"
    eps_list = (0.25, 0.125, 0.0625, 0.05)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.offset = draw_offset(seed, self.name)

    def inputs(self, k: int):
        return self.offset

    def setup(self) -> None:
        import numpy as np

        from fkpeaks import cli
        from fkpeaks import reduction as rd
        from fkpeaks import spectral as sp
        self.rd = rd
        self.params = sp.ProblemParams(**SWEEP_PARAMS)
        self.grid = sp.GridSpec(2, SWEEP_GRID["half_width"],
                                SWEEP_GRID["points_per_dim"])
        self.potential = cli.build_potential(SWEEP_WELL, 2)
        self.y = self.potential.peaks + np.asarray([self.offset])
        rd.Reducer(self.grid, self.params, self.potential)    # V on the grid

    def prepare_round(self, i: int, k: int):
        # a fresh Reducer, so no round reuses another's per-eps profiles
        return self.rd.Reducer(self.grid, self.params, self.potential)

    def run_round(self, red):
        out = []
        for eps in self.eps_list:
            cfg = self.rd.PeakConfig(eps, self.y, DELTA, THETA)
            try:
                sol = self.rd.solve_correction(red, cfg,
                                               outer_tol_factor=1e-10)
            except PACKAGE_ERRORS as exc:
                out.append((eps, None, repr(exc)))
                continue
            out.append((eps, sol, red.system(eps)))
        return out

    def answer_digest(self, ans) -> str:
        return digest(*[sol.correction.values for _, sol, _ in ans
                        if sol is not None])

    def check(self, v: Verdict, i: int, ans) -> None:
        import reference as ref
        pr = SWEEP_PARAMS
        g = ref.Grid(2, SWEEP_GRID["half_width"], SWEEP_GRID["points_per_dim"])
        V = well_values(*g.coords)
        norms = []
        for eps, sol, gsys in ans:
            v.attempted += 1
            if sol is None:
                v.failed += 1
                continue
            tag = f"round {i} eps {eps}"
            phi = sol.correction.values
            u = sol.ansatz.values + phi
            norms.append(reduced_equation_checks(v, tag, g, u, phi, V, eps, pr))
            v.require(all(r < 1.0 for r in sol.contraction_ratios),
                      f"{tag}: contraction ratios {sol.contraction_ratios}")
            profile_checks(v, tag, g, gsys, eps, pr)
        v.require(all(b < a for a, b in zip(norms, norms[1:])),
                  f"round {i}: ||phi||_eps not decreasing in eps: {norms}")
        v.values.setdefault("phi_norms", norms)


class Kernel2D(Workload):
    """Ground state, Kirchhoff rescaling and the kernel of L+ in 2D."""

    name = "kernel2d"
    params = {"dim": 2, "s": 0.75, "p": 2.0, "a": 1.0, "b": 0.05}
    half_width, points, n_pairs = 8.0, 128, 5

    def setup(self) -> None:
        from fkpeaks import groundstate as gs
        from fkpeaks import kernel as kn
        from fkpeaks import spectral as sp
        self.gs, self.kn = gs, kn
        self.grid = sp.GridSpec(2, self.half_width, self.points)
        self.problem = sp.ProblemParams(**self.params)

    def run_round(self, _):
        try:
            q = self.gs.solve_Q(self.grid, self.params["s"], self.params["p"])
            ground = self.gs.kirchhoff_scale(q, self.problem, 1.0)
            op = self.kn.LinearizedOperator.from_kirchhoff(ground)
            with capture(self.kn, "kernel_spectrum", []) as spectra:
                report = self.kn.kernel_report(op, n=self.n_pairs)
        except PACKAGE_ERRORS as exc:
            return {"error": repr(exc)}
        return {"Q": q, "ground": ground, "report": report,
                "pairs": spectra[0]}

    def answer_digest(self, ans) -> str:
        if "error" in ans:
            return ans["error"]
        return digest(ans["report"]["eigenvalues"],
                      *[f.values for _, f in ans["pairs"]])

    def check(self, v: Verdict, i: int, ans) -> None:
        import numpy as np

        import reference as ref
        s, p, b = self.params["s"], self.params["p"], self.params["b"]
        a = self.params["a"]
        tag = f"round {i}"
        if "error" in ans:
            v.attempted += self.n_pairs
            v.failed += self.n_pairs
            return
        g = ref.Grid(2, self.half_width, self.points)
        q = ans["Q"].profile.values
        res = float(np.abs(ref.profile_residual(g, q, 1.0, 1.0, s, p)).max())
        v.require(res < GROUND_TOL, f"{tag}: ground state residual {res:.2e}")
        ground = ans["ground"]
        gk = g.rescaled(ground.beta)
        U = ground.profile.values
        res = float(np.abs(ref.kirchhoff_residual(
            gk, U, ground.c, 1.0, s, p, a, b)).max())
        v.require(res < GROUND_TOL,
                  f"{tag}: Kirchhoff ground state residual {res:.2e}")
        A = a + b * gk.seminorm_sq(U, s)
        rels = []
        for j in range(2):
            m = gk.derivative(U, j)
            rels.append(gk.l2(ref.lplus(gk, U, m, A, b, ground.c, s, p))
                        / gk.l2(m))
            v.require(rels[-1] < MODE_TOL,
                      f"{tag}: ||L+ d_{j}U|| / ||d_{j}U|| = {rels[-1]:.2e}")
        v.values["mode_residuals"] = rels
        rep = ans["report"]
        v.require(rep["kernel_dim"] == 2,
                  f"{tag}: kernel_dim {rep['kernel_dim']} != N = 2")
        v.require(all(c > 0.99 for c in rep["kernel_cosines"]),
                  f"{tag}: kernel cosines {rep['kernel_cosines']}")
        # one operation per returned eigenpair; the named fault makes all
        # but the first fail (see README.md)
        rels = []
        for lam, f in ans["pairs"]:
            v.attempted += 1
            w = f.values
            rels.append(gk.l2(ref.lplus(gk, U, w, A, b, ground.c, s, p)
                              - lam * w) / gk.l2(w))
            if not rels[-1] <= PAIR_TOL:
                v.failed += 1
        v.values["eigenvalues"] = rep["eigenvalues"]
        v.values["pair_residuals"] = rels


class Ansatz1D(Workload):
    """verify.wrong_ansatz_gap with the criterion-11 inputs."""

    name = "ansatz1d"
    params = {"dim": 1, "s": 0.4, "p": 2.0, "a": 1.0, "b": 1.0}
    centers, values, far, plateau = (-1.0, 1.0), (1.0, 1.5), 2.2, 0.7
    half_width, points = 8.0, 2048
    eps_list = (0.004, 0.0025, 0.0015, 0.001)

    def setup(self) -> None:
        from fkpeaks import reduction as rd
        from fkpeaks import spectral as sp
        from fkpeaks import verify as vf
        self.vf = vf
        self.problem = sp.ProblemParams(**self.params)
        self.grid = sp.GridSpec(1, self.half_width, self.points)
        self.potential = rd.Potential.multi_well(
            centers=[[c] for c in self.centers], values=list(self.values),
            coeffs=[[1.0], [1.0]], m=2.0, far_value=self.far,
            plateau=self.plateau,
        )
        self.potential.on_grid(self.grid)

    def run_round(self, _):
        try:
            with capture(self.vf, "solve_grid_system", []) as systems:
                rep = self.vf.wrong_ansatz_gap(
                    self.grid, self.problem, self.potential,
                    eps_list=list(self.eps_list), tol=0.2, contrast_tol=0.05,
                )
        except PACKAGE_ERRORS as exc:
            return {"error": repr(exc)}
        return {"report": rep, "systems": systems}

    def answer_digest(self, ans) -> str:
        if "error" in ans:
            return ans["error"]
        return digest(ans["report"].measured,
                      *[w.values for gsys in ans["systems"]
                        for w in gsys.profiles])

    def potential_values(self, x):
        """The two-well potential, written out for the checks."""
        import numpy as np
        out = np.full_like(x, self.far)
        ramp = 0.5 * self.plateau
        for c, val in zip(self.centers, self.values):
            r = np.abs(x - c)
            t = np.clip((self.plateau + ramp - r) / ramp, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                e0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
                e1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1 - t, 1e-300)),
                              0.0)
            out = out + e0 / (e0 + e1) * (val + (x - c) ** 2 - self.far)
        return out

    def check(self, v: Verdict, i: int, ans) -> None:
        import reference as ref
        pr = self.params
        s, p, a, b = pr["s"], pr["p"], pr["a"], pr["b"]
        g = ref.Grid(1, self.half_width, self.points)
        V = self.potential_values(g.axis)
        v.attempted += 1
        if "error" in ans:
            v.failed += 1
            return
        rep, systems = ans["report"], ans["systems"]
        tag = f"round {i}"
        v.require(rep.passed is True, f"{tag}: report not passed")
        # calls come in (naive, shared) pairs, largest eps first
        eps_desc = sorted(self.eps_list, reverse=True)
        for k, eps in enumerate(eps_desc):
            profile_checks(v, f"{tag} eps {eps}", g, systems[2 * k + 1],
                           eps, pr)
        eps = eps_desc[-1]
        naive, shared = systems[-2], systems[-1]
        semis = [g.seminorm_sq(w.values, s) for w in naive.profiles]
        proj = {}
        for label, gsys in (("naive", naive), ("shared", shared)):
            shifted = [g.translate(w.values, [c])
                       for w, c in zip(gsys.profiles, self.centers)]
            dens = ref.kirchhoff_residual(g, sum(shifted), V, eps, s, p,
                                          a, b)
            proj[label] = [g.integral(dens * w) / eps for w in shifted]
        expected = [b * eps ** (4 * s - 2) * semis[1 - j] * semis[j]
                    for j in range(2)]
        gap = max(abs(m - e) / abs(e)
                  for m, e in zip(proj["naive"], expected))
        contrast = max(abs(m) / abs(e)
                       for m, e in zip(proj["shared"], expected))
        v.values["relative_gap_error"] = gap
        v.values["system_contrast"] = contrast
        v.require(gap < 0.2, f"{tag}: naive gap off by {gap:.3f} > 0.2")
        v.require(contrast < 0.05,
                  f"{tag}: system contrast {contrast:.3f} >= 0.05")
        reported = rep.measured["naive_over_epsN"]
        agree = max(abs(m - r) / abs(m)
                    for m, r in zip(proj["naive"], reported))
        v.require(agree < 1e-6, f"{tag}: reported naive projection off "
                                f"the recomputed one by {agree:.1e}")


WORKLOADS = {w.name: w for w in (Reduce2D, Sweep2D, Kernel2D, Ansatz1D)}
