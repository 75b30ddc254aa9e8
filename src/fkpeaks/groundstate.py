"""Ground states of the base soliton equation and their Kirchhoff rescalings.

The base profile Q solves (-Delta)^s Q + Q = Q^p.  Ground states of the
Kirchhoff equation with constant potential value c,

    (a + b ||(-Delta)^(s/2) U||^2) (-Delta)^s U + c U = U^p,

are obtained as U = alpha Q(beta .) with alpha = c^(1/(p-1)) and beta the
unique positive root of  a b^(2s) + b c^(2/(p-1)) K beta^(4s-N) = c.
Numerically the rescaled profile lives on a grid with half-width L/beta
and the same point count, which keeps every scaling identity exact in
the discrete calculus (values are reused, only coordinates change).

The limiting system for k peaks shares a single coefficient

    A = a + b * sum_i ||(-Delta)^(s/2) U^i||^2,

found by bracketed root-finding on a strictly monotone scalar function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .errors import (
    AdmissibilityError,
    BracketError,
    DegenerateFixedPointError,
    GeometryError,
    IterationError,
    ParameterError,
)
from .spectral import Field, GridSpec, ProblemParams

DEFAULT_TOL = 1e-9
MAX_ITER = 10_000


def _reflect(values: np.ndarray, axis: int) -> np.ndarray:
    # x_m -> -x_m maps index m to (M - m) mod M on the periodic grid
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def _symmetrize(values: np.ndarray) -> np.ndarray:
    out = values
    for axis in range(values.ndim):
        out = 0.5 * (out + _reflect(out, axis))
    return out


def solve_profile(
    grid: GridSpec,
    s: float,
    p: float,
    c1: float = 1.0,
    c0: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    u0: Field | None = None,
    init_width: float = 1.0,
    symmetrize: bool = True,
) -> tuple[Field, float, list[float], int]:
    """Petviashvili iteration for (c1 (-Delta)^s + c0) u = u^p.

    u <- gamma^(p/(p-1)) (c1 (-Delta)^s + c0)^(-1) u^p with the
    normalisation factor gamma = <L u, u> / <u^p, u>; gamma -> 1 at the
    fixed point.  Returns (profile, sup-residual, gamma log, iterations).
    """
    if not (0.0 < s <= 1.0):
        raise ParameterError(f"s must lie in (0, 1], got {s}")
    if p <= 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    if c1 <= 0 or c0 <= 0:
        raise ParameterError(f"need positive multiplier, got c1={c1}, c0={c0}")
    if not (1e-12 <= tol <= 1e-6):
        raise ParameterError(f"tol must lie in [1e-12, 1e-6], got {tol}")

    mult = c1 * grid.symbol(s) + c0
    w_quad = grid.spacing**grid.dim
    if u0 is None:
        r2 = sum(c**2 for c in grid.coords)
        u = np.exp(-r2 / init_width**2)
    else:
        u = u0.values.copy()

    gammas: list[float] = []
    exponent = p / (p - 1.0)
    residual = np.inf
    for it in range(1, max_iter + 1):
        uhat = sp._fftn(u)
        lu = sp._ifftn(mult * uhat)
        up = sp.pos_power(u, p)
        num = w_quad * float(np.vdot(lu, u).real)
        den = w_quad * float(np.vdot(up, u).real)
        if den <= 0 or not np.isfinite(den) or not np.isfinite(num):
            raise DegenerateFixedPointError(
                "normalisation denominator collapsed", residual=residual,
                iterations=it,
            )
        gamma = num / den
        gammas.append(gamma)
        u_new = gamma**exponent * sp._ifftn(sp._fftn(up) / mult)
        if symmetrize:
            u_new = _symmetrize(u_new)
        u = u_new
        peak = np.abs(u).max()
        if not np.isfinite(peak) or peak > 1e12:
            raise IterationError(
                "fixed-point iteration diverged", residual=residual,
                iterations=it,
            )
        if peak < 1e-12:
            raise DegenerateFixedPointError(
                "fixed point collapsed to the zero field", residual=residual,
                iterations=it,
            )
        uhat = sp._fftn(u)
        res = sp._ifftn(mult * uhat) - sp.pos_power(u, p)
        residual = float(np.abs(res).max())
        if residual < tol:
            return Field(grid, u), residual, gammas, it
    raise IterationError(
        f"no convergence after {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
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


def solve_Q(grid: GridSpec, s: float, p: float, tol: float = DEFAULT_TOL,
            max_iter: int = MAX_ITER, init_width: float = 1.0,
            u0: Field | None = None) -> SchrodingerGroundState:
    """Ground state of the base equation (-Delta)^s Q + Q = Q^p."""
    prof, residual, gammas, its = solve_profile(
        grid, s, p, 1.0, 1.0, tol=tol, max_iter=max_iter,
        init_width=init_width, u0=u0,
    )
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
        seminorm_sq=sp.seminorm_sq(prof, s),
        residual=residual, iterations=its, gammas=gammas,
    )


def decay_fit(obj, window: tuple[float, float]) -> float:
    """Least-squares slope of log u against log |x| over r in [r1, r2].

    For a ground state the slope should sit within 10% of -(N+2s);
    faster-than-polynomial profiles (Gaussians) produce much steeper
    slopes and are flagged by callers.
    """
    prof = obj.profile if hasattr(obj, "profile") else obj
    r1, r2 = window
    grid = prof.grid
    if not (0 < r1 < r2):
        raise ParameterError(f"window must satisfy 0 < r1 < r2, got {window}")
    if r2 >= grid.half_width / 2:
        raise GeometryError(
            f"window edge {r2} reaches into the periodic wrap region "
            f"(need r2 < L/2 = {grid.half_width / 2})"
        )
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

    @property
    def kirchhoff_coefficient(self) -> float:
        return self.params.a + self.params.b * self.seminorm_sq


def _bisect(fn, lo: float, hi: float, rtol: float = 1e-13,
            max_iter: int = 200) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}] (f(lo)={flo:.3e}, f(hi)={fhi:.3e})",
            bracket=(lo, hi),
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or (hi - lo) < rtol * max(abs(mid), 1.0):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _expand_bracket(fn, start: float = 1.0):
    """Bracket the root of an increasing-through-zero scalar function."""
    hi = start
    for _ in range(200):
        if fn(hi) > 0:
            break
        hi *= 2.0
    else:
        raise BracketError("could not bracket root from above", bracket=(start, hi))
    lo = hi / 2.0
    for _ in range(200):
        if fn(lo) < 0:
            break
        lo /= 2.0
    else:
        raise BracketError("could not bracket root from below", bracket=(lo, hi))
    return lo, hi


def rescaled_profile(base: SchrodingerGroundState, alpha: float,
                     beta: float) -> Field:
    """alpha Q(beta .) represented exactly on the grid with half-width
    L/beta and unchanged point count (values are reused; coordinates move)."""
    g = base.grid
    new_grid = GridSpec(g.dim, g.half_width / beta, g.points_per_dim)
    return Field(new_grid, alpha * base.profile.values)


def kirchhoff_scale(base: SchrodingerGroundState, params: ProblemParams,
                    c: float) -> KirchhoffGroundState:
    """Map the base ground state to the c-potential Kirchhoff ground state."""
    if c <= 0:
        raise ParameterError(f"potential value c must be positive, got {c}")
    if base.s != params.s:
        raise ParameterError("base profile and params disagree on s")
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    if b > 0 and 4.0 * s <= n:
        raise AdmissibilityError(
            f"b > 0 requires 4s > N for the scaling map; got N={n}, s={s}"
        )
    k_sq = base.seminorm_sq
    alpha = c ** (1.0 / (p - 1.0))
    if b == 0.0:
        beta = (c / a) ** (1.0 / (2.0 * s))
    else:
        coef = b * c ** (2.0 / (p - 1.0)) * k_sq

        def g(beta):
            return a * beta ** (2.0 * s) + coef * beta ** (4.0 * s - n) - c

        lo, hi = _expand_bracket(g)
        beta = _bisect(g, lo, hi)
    profile = rescaled_profile(base, alpha, beta)
    sup_res, _ = pde_residual(profile, params, c, 1.0)
    return KirchhoffGroundState(
        alpha=alpha, beta=beta, base=base, params=params, c=c,
        profile=profile, residual=sup_res,
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
    def k(self) -> int:
        return len(self.profiles)

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

    strictly monotone in A; each peak then rescales the base profile with
    alpha_i = v_i^(1/(p-1)) and beta_i = (v_i / A)^(1/(2s)).
    """
    vals = [float(v) for v in np.atleast_1d(peak_values)]
    if len(vals) == 0:
        raise ParameterError("peak_values must contain at least one peak")
    if any(v <= 0 for v in vals):
        raise ParameterError(f"peak values must be positive, got {vals}")
    if base.s != params.s:
        raise ParameterError("base profile and params disagree on s")
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    if b > 0 and s < 1.0 and 4.0 * s <= n:
        raise AdmissibilityError(
            f"b > 0 requires 4s > N; got N={n}, s={s}"
        )
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

        hi = a + 1.0
        for _ in range(200):
            if g(hi) > 0:
                break
            hi = a + 2.0 * (hi - a)
        else:
            raise BracketError("could not bracket the system coefficient",
                               bracket=(a, hi))
        coeff = _bisect(g, a * (1 + 1e-15), hi)

    alphas, betas, profiles, residuals = [], [], [], []
    for v in vals:
        alpha = v ** (1.0 / (p - 1.0))
        beta = (v / coeff) ** (1.0 / (2.0 * s))
        prof = rescaled_profile(base, alpha, beta)
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


def pde_residual(u: Field, params: ProblemParams, V, eps: float = 1.0,
                 return_density: bool = False):
    """Residual of the eps-scaled Kirchhoff equation.

    (eps^2s a + eps^(4s-N) b ||(-Delta)^(s/2) u||^2) (-Delta)^s u
        + V u - u_+^p,   reduced to (sup, L2) norms.

    eps = 1 covers the unscaled equations; V may be a scalar, an ndarray
    over the grid, a Field, or a callable on coordinate arrays.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    s, p, n = params.s, params.p, params.dim
    if callable(V):
        v_vals = V(*u.grid.coords)
    elif isinstance(V, Field):
        v_vals = V.values
    else:
        v_vals = np.asarray(V, dtype=float)
    density = residual_density(u, s, p, eps ** (2.0 * s) * params.a,
                               eps ** (4.0 * s - n) * params.b, v_vals)
    h = u.grid.spacing ** n
    sup = float(np.abs(density).max())
    l2 = float(np.sqrt(h * (density**2).sum()))
    if return_density:
        return sup, l2, Field(u.grid, density)
    return sup, l2
