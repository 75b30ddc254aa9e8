"""Ground states of the base soliton equation and their Kirchhoff rescalings.

The base profile Q solves (-Delta)^s Q + Q = Q^p.  Every ground state of
the Kirchhoff equation with constant potential value c,

    (a + b ||(-Delta)^(s/2) U||^2) (-Delta)^s U + c U = U^p,

is, up to translation, U = alpha Q(beta .) with alpha = c^(1/(p-1)) and
beta^(2s) = c / A, where A = a + b ||(-Delta)^(s/2) U||^2 is its
Kirchhoff coefficient.
Numerically the rescaled profile lives on a grid with half-width L/beta
and the same point count, which keeps every scaling identity exact in
the discrete calculus (values are reused, only coordinates change).

The limiting system for k peaks with potential values v_i shares a
single coefficient; with K = ||(-Delta)^(s/2) Q||^2 it is the root of

    A = a + b K sum_i v_i^(2/(p-1)) (v_i / A)^((2s-N)/(2s)),

which has exactly one root A > a.  The scaling map kirchhoff_scale is
its k = 1 case.

On the computational grid the reduction re-solves these profiles with
solve_profile: one Petviashvili loop over the (k, *grid) stack of peak
profiles, at two transforms per iteration, whose multiplier c1 = eps^2s A
follows the coefficient re-read from each iterate's seminorms.  It stops
on one rule: every residual below tol at the A of the returned profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .errors import (
    BracketError,
    DegenerateFixedPointError,
    GeometryError,
    GridMismatchError,
    IterationError,
    ParameterError,
)
from .spectral import Field, GridSpec, ProblemParams

DEFAULT_TOL = 1e-9
MAX_ITER = 10_000


def _symmetrize(values: np.ndarray) -> np.ndarray:
    """Average a (k, *grid) stack over x -> -x on every grid axis; the
    leading stack axis is not reflected."""
    out = values
    for axis in range(1, values.ndim):
        # x_m -> -x_m maps index m to (M - m) mod M on the periodic grid
        out = 0.5 * (out + np.roll(np.flip(out, axis=axis), 1, axis=axis))
    return out


def solve_profile(
    grid: GridSpec,
    s: float,
    p: float,
    c1=1.0,
    c0=1.0,
    tol: float = DEFAULT_TOL,
    init_width=1.0,
    coefficient=None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], int, np.ndarray]:
    """Petviashvili iteration for the stack of k profile equations

        (c1_i (-Delta)^s + c0_i) u_i = u_i^p,

    one per value c0_i (one value or k values); c1 and init_width are one
    value or one per profile.  Each profile iterates
    u <- gamma^(p/(p-1)) (c1 (-Delta)^s + c0)^(-1) u^p from a Gaussian of
    width init_width, with the normalisation factor
    gamma = <L u, u> / <u^p, u> -> 1 at the fixed point.  The step takes
    the even part E(u^p) under x -> -x, so L u = gamma^(p/(p-1)) E(u^p)
    needs no transform: two per iteration, on the whole (k, *grid) stack.

    With coefficient = (scale, rule) the multipliers c1 = scale A follow
    the Kirchhoff coefficients A = rule(S), re-read from each iterate's
    seminorms S_i = ||(-Delta)^(s/2) u_i||^2; the given c1 starts them.
    The loop stops when every profile's sup residual is below tol at the
    multiplier re-read from it (scale rule(S), or the fixed c1), moved
    there on the grid, then confirmed by transforming the returned
    profiles.  Returns (profiles (k, *grid), sup residuals (k,), gamma
    log, iterations, seminorms S (k,)); raises IterationError after
    MAX_ITER iterations.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    c1 = np.broadcast_to(np.asarray(c1, dtype=float), c0.shape)
    width = np.broadcast_to(np.asarray(init_width, dtype=float), c0.shape)
    if not (0.0 < s <= 1.0):
        raise ParameterError(f"s must lie in (0, 1], got {s}")
    if p <= 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    if np.any(c1 <= 0) or np.any(c0 <= 0):
        raise ParameterError(f"need positive multiplier, got c1={c1}, c0={c0}")
    if not (1e-12 <= tol <= 1e-6):
        raise ParameterError(f"tol must lie in [1e-12, 1e-6], got {tol}")

    k = len(c0)
    axes = tuple(range(1, grid.dim + 1))
    col = (slice(None),) + (None,) * grid.dim     # one value per profile
    sym = grid.symbol(s)
    mult = c1[col] * sym + c0[col]
    w_quad = grid.spacing**grid.dim
    r2 = sum(x**2 for x in grid.coords)
    u = np.exp(-r2 / width[col] ** 2)

    gammas: list[np.ndarray] = []
    residual, gap = np.inf, None
    # L u and u^p of the current iterate.  E commutes with the even
    # multiplier, so the step u <- gamma^(p/(p-1)) L^(-1) E(u^p) gives
    # L u without a transform.  After a coefficient update, <L u, u>
    # moves by (new c1 - old c1) S.
    lu = sp._ifftn(mult * sp._fftn(u, axes=axes), axes=axes)
    up = sp.pos_power(u, p)
    shift = 0.0
    for it in range(1, MAX_ITER + 1):
        num = w_quad * sp.dot(lu.reshape(k, -1), u.reshape(k, -1)) + shift
        den = w_quad * sp.dot(up.reshape(k, -1), u.reshape(k, -1))
        if not np.all((den > 0) & np.isfinite(den) & np.isfinite(num)):
            raise DegenerateFixedPointError(
                "normalisation denominator collapsed", residual=residual,
                iterations=it)
        gamma = num / den
        gammas.append(gamma)
        lu = (gamma ** (p / (p - 1.0)))[col] * _symmetrize(up)
        uhat = sp._fftn(lu, axes=axes) / mult
        u = sp._ifftn(uhat, axes=axes)
        peak = np.abs(u).reshape(k, -1).max(axis=1)
        if not np.all(np.isfinite(peak)) or peak.max() > 1e12:
            raise IterationError("fixed-point iteration diverged",
                                 residual=residual, iterations=it)
        if peak.min() < 1e-12:
            raise DegenerateFixedPointError(
                "fixed point collapsed to the zero field", residual=residual,
                iterations=it)
        up = sp.pos_power(u, p)
        residual = float(np.abs(lu - up).max())
        if coefficient is not None:
            scale, rule = coefficient
            semis = sp.seminorm_inner(grid, s, uhat)
            c1_new = scale * np.broadcast_to(rule(semis), c0.shape)
            gap = float(np.abs(c1_new - c1).max()) / scale
            if residual < tol:
                # L u at the new c1 on the grid: c1 (-Delta)^s u = L u - c0 u
                moved = lu + (c1_new / c1 - 1.0)[col] * (lu - c0[col] * u)
                residual = float(np.abs(moved - up).max())
            shift = (c1_new - c1) * semis
            c1 = c1_new
            mult = c1[col] * sym + c0[col]
        if residual < tol:
            # the identity's residual can read up to 5e-13 below that of
            # u itself (uhat transformed back would repeat the identity)
            true = sp._ifftn(mult * sp._fftn(u, axes=axes), axes=axes)
            residuals = np.abs(true - up).reshape(k, -1).max(axis=1)
            if residuals.max() < tol:
                return (u, residuals, gammas, it,
                        sp.seminorm_inner(grid, s, uhat))
    detail = "" if gap is None else f", coefficient gap {gap:.3e}"
    raise IterationError(
        f"no convergence after {MAX_ITER} iterations "
        f"(last residual {residual:.3e}{detail})",
        residual=residual, iterations=MAX_ITER, gap=gap,
    )


@dataclass
class SchrodingerGroundState:
    """Radial ground state Q of (-Delta)^s Q + Q = Q^p."""

    profile: Field
    s: float
    p: float
    seminorm_sq: float
    residual: float
    iterations: int
    gammas: list[float] = field(repr=False, default_factory=list)

    @property
    def grid(self) -> GridSpec:
        return self.profile.grid


def solve_Q(grid: GridSpec, s: float, p: float,
            tol: float = DEFAULT_TOL) -> SchrodingerGroundState:
    """Ground state of the base equation (-Delta)^s Q + Q = Q^p."""
    values, residuals, gammas, its, semis = solve_profile(
        grid, s, p, 1.0, 1.0, tol=tol)
    prof, residual = Field(grid, values[0]), float(residuals[0])
    if prof.values.min() <= 0:
        # tiny negative ripples can appear at truncation level; fail only
        # when they are structural
        floor = prof.values.min() / prof.values.max()
        if floor < -1e6 * max(residual, 1e-15):
            raise IterationError(
                f"profile is not positive (min/max = {floor:.3e})",
                residual=residual, iterations=its,
            )
    return SchrodingerGroundState(
        profile=prof, s=s, p=p,
        seminorm_sq=float(semis[0]),
        residual=residual, iterations=its, gammas=[g[0] for g in gammas],
    )


def require_decay_window(grid: GridSpec, window) -> None:
    """A decay-fit window [r1, r2]: 0 < r1 < r2, and r2 < L/2, clear of
    the periodic wrap region."""
    if np.shape(window) != (2,) or not (0 < window[0] < window[1]):
        raise ParameterError(f"window must be [r1, r2] with 0 < r1 < r2, "
                             f"got {np.asarray(window).tolist()}")
    if not (window[1] < grid.half_width / 2):
        raise GeometryError(
            f"window edge {window[1]} reaches into the periodic wrap region "
            f"(need r2 < L/2 = {grid.half_width / 2:g})")


def decay_fit(prof: Field, window: tuple[float, float]) -> float:
    """Least-squares slope of log u against log |x| over r in [r1, r2].

    For a ground state the slope should sit within 10% of -(N+2s);
    faster-than-polynomial profiles (Gaussians) produce much steeper
    slopes and are flagged by callers.
    """
    grid = prof.grid
    require_decay_window(grid, window)
    r1, r2 = window
    r = grid.radii()
    mask = (r >= r1) & (r <= r2)
    vals = prof.values[mask]
    if vals.size < 4:
        raise ParameterError("window contains fewer than 4 grid points")
    if np.any(vals <= 0):
        raise ParameterError("window contains nonpositive values")
    x = np.log(r[mask])
    y = np.log(vals)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


@dataclass
class KirchhoffGroundState:
    """Ground state of the constant-potential Kirchhoff equation."""

    alpha: float
    beta: float
    base: SchrodingerGroundState
    params: ProblemParams
    c: float
    profile: Field
    residual: float

    @property
    def seminorm_sq(self) -> float:
        return sp.seminorm_sq(self.profile, self.params.s)


def kirchhoff_scale(base: SchrodingerGroundState, params: ProblemParams,
                    c: float) -> KirchhoffGroundState:
    """Map the base ground state to the c-potential Kirchhoff ground state:
    the one-peak limiting system, with the residual of the full equation."""
    system = solve_system(base, params, [c])
    profile = system.profiles[0]
    sup_res = float(np.abs(residual_density(
        profile, params.s, params.p, params.a, params.b, c)).max())
    return KirchhoffGroundState(
        alpha=system.alphas[0], beta=system.betas[0], base=base,
        params=params, c=c, profile=profile, residual=sup_res,
    )


@dataclass
class SystemSolution:
    """Solution of the k-peak limiting system with one shared coefficient."""

    kirchhoff_coefficient: float
    alphas: list[float]
    betas: list[float]
    profiles: list[Field]
    peak_values: list[float]
    params: ProblemParams
    base: SchrodingerGroundState
    residuals: list[float]

    @property
    def seminorms(self) -> list[float]:
        s = self.params.s
        return [sp.seminorm_sq(u, s) for u in self.profiles]

    def measured_coefficient(self) -> float:
        """a + b sum_i ||(-Delta)^(s/2) U^i||^2 from the assembled fields."""
        return self.params.a + self.params.b * sum(self.seminorms)


def solve_system(base: SchrodingerGroundState, params: ProblemParams,
                 peak_values) -> SystemSolution:
    """Solve the k-peak limiting system sharing one Kirchhoff coefficient.

    The coefficient A > a is the root of

        A = a + b K sum_i v_i^(2/(p-1)) (v_i / A)^((2s-N)/(2s)),

    unique since g(A) = A - a - b K sum(...) is negative at a and either
    increasing (2s >= N) or convex (2s < N).  Each peak then rescales the
    base profile with alpha_i = v_i^(1/(p-1)) and
    beta_i = (v_i / A)^(1/(2s)).
    """
    vals = [float(v) for v in np.atleast_1d(peak_values)]
    if len(vals) == 0:
        raise ParameterError("peak_values must contain at least one peak")
    if any(v <= 0 for v in vals):
        raise ParameterError(f"peak values must be positive, got {vals}")
    if (base.s, base.p) != (params.s, params.p):
        raise ParameterError(
            f"base profile (s={base.s}, p={base.p}) and params "
            f"(s={params.s}, p={params.p}) disagree"
        )
    if base.grid.dim != params.dim:
        raise GridMismatchError(
            f"base profile is {base.grid.dim}D, params have N={params.dim}"
        )
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    k_sq = base.seminorm_sq
    expo = (2.0 * s - n) / (2.0 * s)

    if b == 0.0:
        coeff = a
    else:
        def g(A):
            total = sum(
                v ** (2.0 / (p - 1.0)) * (v / A) ** expo for v in vals
            )
            return A - a - b * k_sq * total

        lo, hi = a, a + 1.0
        for _ in range(200):
            if g(hi) > 0:
                break
            lo, hi = hi, a + 2.0 * (hi - a)
        else:
            raise BracketError("could not bracket the system coefficient",
                               bracket=(a, hi))
        # g(lo) < 0 < g(hi) (g(a) = -b K sum(...)): bisect down to
        # adjacent floats
        while lo < (coeff := 0.5 * (lo + hi)) < hi:
            lo, hi = (coeff, hi) if g(coeff) < 0 else (lo, coeff)

    grid = base.grid
    alphas, betas, profiles, residuals = [], [], [], []
    for v in vals:
        alpha = v ** (1.0 / (p - 1.0))
        beta = (v / coeff) ** (1.0 / (2.0 * s))
        # alpha Q(beta .): Q's values on the grid of half-width L / beta
        prof = Field(GridSpec(n, grid.half_width / beta,
                              grid.points_per_dim),
                     alpha * base.profile.values)
        res = float(np.abs(residual_density(prof, s, p, coeff, 0.0, v)).max())
        alphas.append(alpha)
        betas.append(beta)
        profiles.append(prof)
        residuals.append(res)
    return SystemSolution(
        kirchhoff_coefficient=coeff, alphas=alphas, betas=betas,
        profiles=profiles, peak_values=vals, params=params, base=base,
        residuals=residuals,
    )


def residual_density(u: Field, s: float, p: float, a_eps: float,
                     b_eps: float, V) -> np.ndarray:
    """Density of the Kirchhoff residual I'(u),

        (a_eps + b_eps ||(-Delta)^(s/2) u||^2) (-Delta)^s u + V u - u_+^p,

    with V a scalar or grid values (b_eps = 0 freezes the coefficient)."""
    coef = a_eps + b_eps * sp.seminorm_sq(u, s)
    return (coef * sp.fractional_laplacian(u, s).values
            + V * u.values - sp.pos_power(u.values, p))

