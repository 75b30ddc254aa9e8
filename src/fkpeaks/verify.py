"""Stand-alone checkers for the quantitative identities and exponents.

Every checker is a pure function of its inputs plus an explicit seed and
returns a CheckReport carrying the tolerance it was judged against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import spectral as sp
from .errors import SOLVER_ERRORS, GeometryError, ParameterError
from .groundstate import residual_density
from .reduction import (
    PeakConfig,
    Potential,
    Reducer,
    reduce_at,
    solve_grid_system,
)
from .spectral import Field, GridSpec, ProblemParams


@dataclass
class CheckReport:
    """Outcome of one checker run."""

    name: str
    inputs_digest: str
    measured: dict
    expected: dict
    tolerance: float | None
    passed: bool | None          # None marks diagnostic-only output
    provenance: str
    notes: str = ""
    series: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def digest_inputs(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# local Pohozaev identity
# ---------------------------------------------------------------------------

# radii between 0.6 and 1.3 times the requested one that
# pohozaev_residual also evaluates
POHOZAEV_SCAN = 8


def _sphere_nodes(grid: GridSpec, center, radius: float):
    """Boundary quadrature nodes, outward normals, and weights."""
    n = grid.dim
    center = np.asarray(center, dtype=float)
    if n == 1:
        pts = np.array([[center[0] - radius], [center[0] + radius]])
        normals = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
        return pts, normals, weights
    if n == 2:
        nn = 64 * grid.points_per_dim
        th = 2.0 * np.pi * np.arange(nn) / nn
        normals = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = center + radius * normals
        weights = np.full(nn, 2.0 * np.pi * radius / nn)
        return pts, normals, weights
    raise ParameterError("Pohozaev boundary quadrature implemented for N <= 2")


# Gauss-Legendre nodes along the radius of the interior quadrature
BALL_RADIAL_NODES = 64


def _ball_quadrature(grid: GridSpec, center, radius: float):
    """Interior quadrature nodes and weights on the ball."""
    n = grid.dim
    center = np.asarray(center, dtype=float)
    x_gl, w_gl = np.polynomial.legendre.leggauss(BALL_RADIAL_NODES)
    if n == 1:
        pts = (center[0] + radius * x_gl)[:, None]
        return pts, radius * w_gl
    if n == 2:
        rr = 0.5 * radius * (x_gl + 1.0)
        wr = 0.5 * radius * w_gl
        nth = 128
        th = 2.0 * np.pi * np.arange(nth) / nth
        wth = 2.0 * np.pi / nth
        r_m, th_m = np.meshgrid(rr, th, indexing="ij")
        pts = np.stack([
            center[0] + r_m * np.cos(th_m),
            center[1] + r_m * np.sin(th_m),
        ], axis=-1).reshape(-1, 2)
        weights = (r_m * wr[:, None] * wth).ravel()
        return pts, weights
    raise ParameterError("Pohozaev interior quadrature implemented for N <= 2")


def _pohozaev_terms(u: Field, eps: float, params: ProblemParams, V,
                    center, radius: float, axis: int) -> dict:
    grid = u.grid
    s, p = params.s, params.p
    sem = sp.seminorm_sq(u, s)
    a_eps, b_eps = params.scaled(eps)
    coeff = a_eps + b_eps * sem

    b_pts, normals, b_w = _sphere_nodes(grid, center, radius)
    u_b = sp.interpolate(u, b_pts)
    grads = np.stack(
        [sp.interpolate(sp.derivative(u, j), b_pts) for j in range(grid.dim)],
        axis=-1,
    )
    if s == 1.0:
        # classical mode: the boundary gradient group is |grad u|^2
        grad_sq = (grads**2).sum(axis=-1)
    else:
        # fractional mode: the pointwise half-Laplacian, as printed
        half = sp.half_laplacian(u, s)
        grad_sq = sp.interpolate(half, b_pts) ** 2
    du_dnu = (grads * normals).sum(axis=-1)
    du_dxj = grads[..., axis]
    nu_j = normals[..., axis]

    if not isinstance(V, Potential):
        raise ParameterError("pohozaev_residual needs a Potential for dV/dx")
    v_b = V(b_pts)

    surf_kirchhoff = coeff * float(
        (b_w * (grad_sq * nu_j - 2.0 * du_dnu * du_dxj)).sum()
    )
    surf_mass = float((b_w * v_b * u_b**2 * nu_j).sum())
    surf_nonlin = -2.0 / (p + 1.0) * float(
        (b_w * sp.pos_power(u_b, p + 1.0) * nu_j).sum()
    )

    i_pts, i_w = _ball_quadrature(grid, center, radius)
    u_i = sp.interpolate(u, i_pts)
    dv_i = V.gradient(i_pts, axis)
    volume = float((i_w * dv_i * u_i**2).sum())

    residual = volume - (surf_kirchhoff + surf_mass + surf_nonlin)
    return {
        "volume": volume,
        "surface_kirchhoff": surf_kirchhoff,
        "surface_mass": surf_mass,
        "surface_nonlinear": surf_nonlin,
        "residual": residual,
        "residual_over_epsN": residual / eps**grid.dim,
        "coefficient": coeff,
    }


def _ball_fits(grid: GridSpec, center: np.ndarray, radius: float) -> bool:
    """The ball lies two spacings inside the box."""
    return not np.any(np.abs(center) + radius
                      >= grid.half_width - 2 * grid.spacing)


def require_ball(grid: GridSpec, center: np.ndarray, radius: float) -> None:
    """A Pohozaev ball: positive radius, two spacings inside the box."""
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    if not _ball_fits(grid, center, radius):
        raise GeometryError(
            f"ball(center={center}, r={radius}) does not fit strictly "
            f"inside the box of half-width {grid.half_width}"
        )


def pohozaev_residual(u: Field, eps: float, params: ProblemParams,
                      V: Potential, center, radius: float, axis: int = 0,
                      tol: float = 1e-3) -> CheckReport:
    """Volume term against the three boundary groups of the local identity.

    Gates pass/fail on |residual|/eps^N only in the classical mode s = 1;
    fractional runs report the residual as a diagnostic (see the package
    notes on the validity of the boundary form for s < 1).  POHOZAEV_SCAN
    extra radii around the requested one are evaluated and the best
    reported.
    """
    grid = u.grid
    center = np.atleast_1d(np.asarray(center, dtype=float))
    require_ball(grid, center, radius)
    main = _pohozaev_terms(u, eps, params, V, center, axis=axis, radius=radius)

    series = []
    best = (radius, abs(main["residual"]))
    for fac in np.linspace(0.6, 1.3, POHOZAEV_SCAN):
        r2 = radius * fac
        if not _ball_fits(grid, center, r2):
            continue
        t = _pohozaev_terms(u, eps, params, V, center, axis=axis, radius=r2)
        series.append({"radius": r2, "residual": t["residual"]})
        if abs(t["residual"]) < best[1]:
            best = (r2, abs(t["residual"]))

    classical = params.s == 1.0
    rel = abs(main["residual_over_epsN"])
    return CheckReport(
        name="pohozaev_residual",
        inputs_digest=digest_inputs({
            "eps": eps, "s": params.s, "p": params.p, "a": params.a,
            "b": params.b, "center": center.tolist(), "radius": radius,
            "axis": axis, "grid": [grid.dim, grid.half_width,
                                   grid.points_per_dim],
        }),
        measured={**main, "best_radius": best[0],
                  "best_abs_residual": best[1]},
        expected={"residual_over_epsN": 0.0},
        tolerance=tol,
        passed=(rel < tol) if classical else None,
        provenance="classical-identity" if classical
        else "diagnostic-only (fractional boundary form unproven)",
        series=series,
    )


# ---------------------------------------------------------------------------
# scaled Sobolev inequality
# ---------------------------------------------------------------------------

# the sampled fields keep wavenumbers up to this fraction of the grid's
# largest, and the ratio's max/min spread over them must stay below
# SOBOLEV_SPREAD_TOL
SOBOLEV_CUTOFF_FRACTION = 0.25
SOBOLEV_SPREAD_TOL = 10.0


def require_three_eps(eps_values) -> None:
    """The Sobolev growth test compares the log-log slopes of a large-eps
    and a small-eps window of two or more eps each, which coincide with
    fewer than three distinct eps."""
    if len({float(e) for e in eps_values}) < 3:
        raise ParameterError(f"verify sobolev needs at least three distinct "
                             f"eps, got {list(eps_values)}")


def sobolev_scaling_check(grid: GridSpec, params: ProblemParams,
                          V: Potential, eps_list, q: float, samples: int,
                          seed) -> CheckReport:
    """Ratio ||phi||_q / (eps^(N/q - N/2) ||phi||_eps) over seeded random
    band-limited fields: bounded spread and no blow-up as eps shrinks.
    Raises ParameterError for q outside [2, 2N/(N-2s)] or fewer than three
    distinct eps."""
    n = grid.dim
    crit = (2.0 * n / (n - 2.0 * params.s) if 2.0 * params.s < n
            else math.inf)
    if not (2.0 <= q <= crit):
        raise ParameterError(
            f"q must lie in [2, 2N/(N-2s)] = [2, {crit:.4g}], got {q}"
        )
    require_three_eps(eps_list)
    v_vals = V.on_grid(grid)
    cutoff = SOBOLEV_CUTOFF_FRACTION * float(np.sqrt(grid.xi_sq.max()))
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    h = grid.spacing**n
    ratios = np.empty((samples, eps_arr.size))
    for i in range(samples):
        phi = sp.random_band_limited(grid, cutoff, seed=(seed, i))
        lq = sp.lq_norm(phi, q)
        semi = sp.seminorm_sq(phi, params.s)
        mass = float(h * (v_vals * phi.values**2).sum())
        for j, eps in enumerate(eps_arr):
            norm_eps = math.sqrt(eps ** (2.0 * params.s) * params.a * semi + mass)
            ratios[i, j] = lq / (eps ** (n / q - n / 2.0) * norm_eps)
    spread = float(ratios.max() / ratios.min())
    # a genuine blow-up keeps a negative log-log slope as eps -> 0; a
    # bounded ratio levels off, so the small-eps slope must decelerate
    half = max(2, eps_arr.size // 2)
    grow_ok = True
    small_slope = 0.0
    for i in range(samples):
        s_small = float(np.polyfit(np.log(eps_arr[-half:]),
                                   np.log(ratios[i, -half:]), 1)[0])
        s_large = float(np.polyfit(np.log(eps_arr[:half]),
                                   np.log(ratios[i, :half]), 1)[0])
        small_slope = min(small_slope, s_small)
        if s_small < -0.05 and s_small < 0.8 * s_large:
            grow_ok = False
    passed = spread < SOBOLEV_SPREAD_TOL and grow_ok
    return CheckReport(
        name="sobolev_scaling_check",
        inputs_digest=digest_inputs({
            "grid": [n, grid.half_width, grid.points_per_dim], "q": q,
            "samples": samples, "seed": str(seed),
            "eps": eps_arr.tolist(),
        }),
        measured={"spread": spread, "small_eps_slope": small_slope,
                  "max_ratio": float(ratios.max()),
                  "min_ratio": float(ratios.min())},
        expected={"spread_bound": SOBOLEV_SPREAD_TOL,
                  "growth": "decelerating toward a bounded ratio"},
        tolerance=SOBOLEV_SPREAD_TOL,
        passed=bool(passed),
        provenance="sampled-ratio bound",
        series=[{"eps": float(e), "max_ratio": float(ratios[:, j].max())}
                for j, e in enumerate(eps_arr)],
    )


# ---------------------------------------------------------------------------
# two-center interaction inequality
# ---------------------------------------------------------------------------

def _interaction_samples(rng, x_i, x_j, count: int) -> np.ndarray:
    dim = x_i.size
    d = np.linalg.norm(x_i - x_j)
    mid = 0.5 * (x_i + x_j)
    thirds = count // 3
    blocks = [
        mid + rng.uniform(-3.0 * d, 3.0 * d, size=(thirds, dim)),
        x_i + rng.standard_normal((thirds, dim)),
        x_j + rng.standard_normal((count - 2 * thirds, dim)),
    ]
    return np.concatenate(blocks, axis=0)


# a fresh sample violates the fitted constant C when its ratio exceeds
# C (1 + INTERACTION_HEADROOM)
INTERACTION_HEADROOM = 1.0


def interaction_inequality_check(x_i, x_j, alpha: float, beta: float,
                                 sigma: float, samples: int,
                                 seed) -> CheckReport:
    """Smallest constant C over a first sample; validated on a second."""
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_1d(np.asarray(x_j, dtype=float))
    if np.array_equal(x_i, x_j):
        raise ParameterError("the two centers must differ")
    if not (0.0 < sigma <= min(alpha, beta)):
        raise ParameterError(
            f"need 0 < sigma <= min(alpha, beta); got sigma={sigma}"
        )

    def ratio(points):
        ri = 1.0 + np.linalg.norm(points - x_i, axis=-1)
        rj = 1.0 + np.linalg.norm(points - x_j, axis=-1)
        lhs = ri ** (-alpha) * rj ** (-beta)
        d = np.linalg.norm(x_i - x_j)
        core = d ** (-sigma) * (ri ** (sigma - alpha - beta)
                                + rj ** (sigma - alpha - beta))
        return lhs / core

    rng = np.random.default_rng(seed)
    c_fit = float(ratio(_interaction_samples(rng, x_i, x_j, samples)).max())
    rng2 = np.random.default_rng((seed, 1))
    fresh = ratio(_interaction_samples(rng2, x_i, x_j, samples))
    violations = int((fresh > c_fit * (1.0 + INTERACTION_HEADROOM)).sum())
    return CheckReport(
        name="interaction_inequality_check",
        inputs_digest=digest_inputs({
            "x_i": x_i.tolist(), "x_j": x_j.tolist(), "alpha": alpha,
            "beta": beta, "sigma": sigma, "samples": samples,
            "seed": str(seed),
        }),
        measured={"C": c_fit, "violations": violations,
                  "fresh_max_ratio": float(fresh.max())},
        expected={"violations": 0},
        tolerance=INTERACTION_HEADROOM,
        passed=violations == 0,
        provenance="two-sample Monte Carlo",
    )


# ---------------------------------------------------------------------------
# naive-ansatz obstruction
# ---------------------------------------------------------------------------

# the gate on both projections when one peak or b = 0 leaves no obstruction
NO_OBSTRUCTION_TOL = 0.05


def wrong_ansatz_gap(grid: GridSpec, params: ProblemParams,
                     potential: Potential, eps_list, tol: float = 0.2,
                     contrast_tol: float = 0.05) -> CheckReport:
    """Projected equation residual of the naive per-peak superposition.

    The projection onto peak j, divided by eps^N, converges to
    b K_j ||(-Delta)^(s/2) u^(j)||^2 with K_j the off-peak seminorm sum
    (the obstruction that rules the naive form out); substituting the
    shared-coefficient system profiles drives the same projection to
    o(eps^N).  Pass: naive within `tol` of the prediction and the
    system contrast below `contrast_tol` of it, at the smallest eps; with
    one peak or b = 0 both below NO_OBSTRUCTION_TOL, the tolerance then
    reported.  Raises ParameterError for an empty eps list.
    """
    s, p, n, b = params.s, params.p, params.dim, params.b
    vals = potential.peak_values
    k = potential.k
    eps_desc = sorted(eps_list, reverse=True)
    if not eps_desc:
        raise ParameterError("wrong_ansatz_gap needs a nonempty eps list")
    records = []
    for eps in eps_desc:
        naive = solve_grid_system(grid, params, vals, eps,
                                  shared_coefficient=False)
        system = solve_grid_system(grid, params, vals, eps,
                                   shared_coefficient=True)
        rec = {"eps": eps, "naive": [], "system": [], "expected": []}
        a_eps, b_eps = params.scaled(eps)
        for label, gs_obj in (("naive", naive), ("system", system)):
            shifted, u = gs_obj.ansatz(potential.peaks)
            dens = residual_density(u, s, p, a_eps, b_eps,
                                    potential.on_grid(grid))
            h = grid.spacing**n
            for j in range(k):
                proj = h * float((dens * shifted[j].values).sum())
                rec[label].append(proj / eps**n)
        for j in range(k):
            kj = sum(naive.seminorms[i] for i in range(k) if i != j)
            expected = (b * eps ** (4.0 * s - 2.0 * n)
                        * kj * naive.seminorms[j])
            rec["expected"].append(expected)
        records.append(rec)

    last = records[-1]
    if b > 0 and k > 1:
        rel_gap = max(
            abs(m - e) / abs(e)
            for m, e in zip(last["naive"], last["expected"])
        )
        contrast = max(
            abs(m) / abs(e)
            for m, e in zip(last["system"], last["expected"])
        )
        passed = rel_gap < tol and contrast < contrast_tol
    else:
        # k = 1 or b = 0: the obstruction is absent and both projections
        # must vanish at o(eps^N); compare against the nonlinear-term
        # quadrature scale of the smallest-eps (last) naive profiles
        eps_min = last["eps"]
        h = grid.spacing**n
        ref = max(
            h * float(sp.pos_power(w.values, p + 1.0).sum()) / eps_min**n
            for w in naive.profiles
        )
        rel_gap = max(abs(m) for m in last["naive"]) / ref
        contrast = max(abs(m) for m in last["system"]) / ref
        tol = NO_OBSTRUCTION_TOL
        passed = rel_gap < tol and contrast < tol
    return CheckReport(
        name="wrong_ansatz_gap",
        inputs_digest=digest_inputs({
            "grid": [n, grid.half_width, grid.points_per_dim],
            "params": [s, p, params.a, b], "eps": list(eps_list),
            "peaks": potential.peaks.tolist(),
        }),
        measured={"naive_over_epsN": last["naive"],
                  "system_over_epsN": last["system"],
                  "relative_gap_error": rel_gap,
                  "system_contrast": contrast},
        expected={"projection_over_epsN": last["expected"]},
        tolerance=tol,
        passed=bool(passed),
        provenance="eps-sweep projection of the assembled residual",
        series=records,
    )


# ---------------------------------------------------------------------------
# asymptotic exponents
# ---------------------------------------------------------------------------

# the fitted correction exponent must reach N/2 + EXPONENT_MARGIN * m
EXPONENT_MARGIN = 0.8


def require_decade_span(eps_values) -> None:
    """The exponent fit needs eps values spanning at least one decade."""
    eps = [float(e) for e in eps_values]
    if max(eps) / min(eps) < 10.0 * (1.0 - 1e-12):
        raise ParameterError("eps values must span at least one decade")


def asymptotics_fit(records: list[dict], m: float, dim: int) -> CheckReport:
    """Fit the correction exponent and test the peak-drift ratio decay
    over reduction.reduce_at records (their `eps`, `correction_norm` and
    `drift`).

    Pass requires the fitted exponent of ||phi||_eps to reach
    N/2 + EXPONENT_MARGIN * m and |y_eps - a| / eps to decrease strictly
    across the sweep.  A frozen-potential run (vanishing correction)
    skips the exponent clause with a note.
    """
    if len(records) < 4:
        raise ParameterError("need at least 4 eps values")
    eps = np.array([r["eps"] for r in records], dtype=float)
    order = np.argsort(eps)[::-1]
    eps = eps[order]
    require_decade_span(eps)
    phi = np.array([records[i]["correction_norm"] for i in order],
                   dtype=float)
    drift = np.array([max(records[i]["drift"]) for i in order], dtype=float)

    notes = []
    if np.all(phi < 1e-9 * eps ** (dim / 2.0)):
        exponent = None
        exp_ok = True
        notes.append("correction identically ~0; exponent fit skipped")
    else:
        exponent = float(np.polyfit(np.log(eps), np.log(phi), 1)[0])
        exp_ok = exponent >= dim / 2.0 + EXPONENT_MARGIN * m
    ratio = drift / eps
    ratio_ok = bool(np.all(np.diff(ratio) < 0.0))  # eps descending
    monotone_phi = bool(np.all(np.diff(phi) < 0.0))
    if not monotone_phi:
        notes.append("fit-quality warning: ||phi|| series not monotone")

    passed = bool(exp_ok and ratio_ok)
    return CheckReport(
        name="asymptotics_fit",
        inputs_digest=digest_inputs({"eps": eps.tolist(), "m": m, "dim": dim}),
        measured={
            "correction_exponent": exponent,
            "drift_over_eps": ratio.tolist(),
            "phi_norms": phi.tolist(),
        },
        expected={"min_exponent": dim / 2.0 + EXPONENT_MARGIN * m,
                  "drift_ratio": "strictly decreasing"},
        tolerance=EXPONENT_MARGIN,
        passed=passed,
        provenance="log-log least squares over the sweep",
        notes="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# local uniqueness probe
# ---------------------------------------------------------------------------

def uniqueness_probe(red: Reducer, starts: list[PeakConfig],
                     tol: float = 1e-6) -> CheckReport:
    """Multi-start convergence: all admissible starts must produce the
    same full solution in sup norm within tol * ||u||_inf.  Each start
    runs through reduction.reduce_at; a start whose search raises a
    solver error, or whose record does not pass, is listed under `failed`
    and fails the probe; starts outside D_{eps,delta} are listed under
    `rejected`.  Raises ParameterError for no starts or starts at more
    than one eps."""
    eps_values = {cfg.eps for cfg in starts}
    if len(eps_values) != 1:
        raise ParameterError("uniqueness_probe needs starts at one eps, "
                             f"got {sorted(eps_values)}")
    solutions = []
    rejected = []
    failed = []
    for idx, cfg in enumerate(starts):
        ok, why = cfg.admissibility(red.potential)
        if not ok:
            rejected.append({"start": idx, "reason": why})
            continue
        try:
            record, sol = reduce_at(red, cfg)
        except SOLVER_ERRORS as exc:  # partial report per spec
            failed.append({"start": idx, "error": repr(exc)})
            continue
        if not record["passed"]:
            failed.append({"start": idx, "record": record})
            continue
        solutions.append((idx, record["y"], sol))

    worst = 0.0
    worst_pair = None
    for aidx in range(len(solutions)):
        for bidx in range(aidx + 1, len(solutions)):
            ia, _, sa = solutions[aidx]
            ib, _, sb = solutions[bidx]
            diff = float(
                np.abs(sa.solution.values - sb.solution.values).max()
                / np.abs(sa.solution.values).max()
            )
            if diff > worst:
                worst, worst_pair = diff, (ia, ib)
    passed = not failed and len(solutions) >= 2 and worst < tol
    return CheckReport(
        name="uniqueness_probe",
        inputs_digest=digest_inputs({
            "eps": starts[0].eps, "starts": [c.y.tolist() for c in starts],
            "tol": tol,
        }),
        measured={
            "pairwise_sup_diff": worst,
            "worst_pair": worst_pair,
            "minimizers": [y for _, y, _ in solutions],
            "rejected": rejected,
            "failed": failed,
        },
        expected={"pairwise_sup_diff": 0.0},
        tolerance=tol,
        passed=passed,
        provenance="multi-start Lyapunov-Schmidt runs",
        notes="partial report" if failed else "",
    )
