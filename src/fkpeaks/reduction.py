"""Lyapunov-Schmidt machinery for multi-peak states.

Peak profiles are re-solved discretely on the computational grid at each
eps (the scaling trick keeps the solves cheap), so the ansatz satisfies
the discrete frozen-potential equation to solver tolerance and the
correction fixed point measures only the genuine potential-variation and
interaction forcing, not discretisation junk.

The correction phi lives in E_{eps,y}, the L2-orthogonal complement of
the eps-inner-product representatives of the peak-translation modes.
Each fixed-point step solves the constrained symmetric system

    L_eps dphi + sum lambda_ij w_ij = -(l_eps + L_eps phi + R'(phi))

whose right-hand side is -I'_eps(U + phi), evaluated as the Kirchhoff
residual at U + phi (groundstate.residual_density); L_eps is the
kernel module's LinearizedOperator at U.  The system is solved by
projected MINRES after symmetric preconditioning with
P0 = eps^2s a (-Delta)^s + Vbar (a Fourier multiplier), which keeps the
iteration matrix O(1)-conditioned uniformly in eps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import linalg as sla

from . import spectral as sp
from .errors import (
    BoundaryMinimizerWarning,
    EigensolverError,
    GridMismatchError,
    IterationError,
    LinearSolveError,
    NoContractionError,
    ParameterError,
    TailTruncationWarning,
    TruncationError,
)
from .groundstate import (
    SystemSolution,
    pde_residual,
    residual_density,
    solve_profile,
)
from .kernel import LinearizedOperator, smallest_magnitude
from .spectral import Field, GridSpec, ProblemParams


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


class Potential:
    """Potential with k strict local minima and a local power expansion.

    V(x) = V(a_i) + sum_j c_ij |x_j - a_ij|^m + O(|x - a_i|^(m+1)) near
    each peak a_i; evaluable everywhere on the box.
    """

    def __init__(self, fn, peaks, coeffs, m: float, holder: float,
                 grad_fn=None):
        self.fn = fn
        self.peaks = np.atleast_2d(np.asarray(peaks, dtype=float))
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if self.coeffs.shape != self.peaks.shape:
            raise ParameterError("coeffs must match peaks in shape")
        if np.any(self.coeffs == 0.0):
            raise ParameterError("expansion coefficients c_ij must be nonzero")
        if m <= 1.0:
            raise ParameterError(f"flatness exponent m must exceed 1, got {m}")
        if holder <= 0.0:
            raise ParameterError(f"Holder exponent must be positive, got {holder}")
        self.m = float(m)
        self.holder = float(holder)
        self.grad_fn = grad_fn
        self._grid_cache: dict[GridSpec, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "Potential":
        """Constant potential (no wells); peak metadata is a formal origin."""
        return cls(
            lambda pts: np.full(np.asarray(pts).shape[:-1], float(value)),
            peaks=np.zeros((1, dim)), coeffs=np.ones((1, dim)), m=2.0,
            holder=1.0,
            grad_fn=lambda pts, axis: np.zeros(np.asarray(pts).shape[:-1]),
        )

    @classmethod
    def single_well(cls, center, value: float, coeffs, m: float,
                    holder: float = 1.0, asym: float = 0.0,
                    asym_power: float | None = None) -> "Potential":
        """V = value + sum_j c_j |x_j - a_j|^m (+ odd higher-order term)."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        q = float(asym_power) if asym_power is not None else m + 1.0
        if q < m + 1.0:
            raise ParameterError("asymmetry must be O(|x-a|^(m+1)) or smaller")

        def fn(pts):
            d = np.asarray(pts, dtype=float) - center
            out = value + (coeffs * np.abs(d) ** m).sum(axis=-1)
            if asym:
                out = out + asym * (np.sign(d) * np.abs(d) ** q).sum(axis=-1)
            return out

        def grad_fn(pts, axis):
            d = np.asarray(pts, dtype=float) - center
            t = d[..., axis]
            g = coeffs[axis] * m * np.abs(t) ** (m - 1.0) * np.sign(t)
            if asym:
                g = g + asym * q * np.abs(t) ** (q - 1.0)
            return g

        return cls(fn, center[None, :], coeffs[None, :], m, holder, grad_fn)

    @classmethod
    def multi_well(cls, centers, values, coeffs, m: float,
                   far_value: float, plateau: float | None = None,
                   holder: float = 1.0) -> "Potential":
        """Disjoint power wells glued to a constant background.

        Inside a plateau around each a_i the potential is exactly
        value_i + sum_j c_ij |x_j - a_ij|^m; a C-infinity bump blends to
        far_value in between.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        k = centers.shape[0]
        if len(values) != k or coeffs.shape[0] != k:
            raise ParameterError("values/coeffs must match the peak count")
        if k > 1:
            sep = min(
                np.linalg.norm(centers[i] - centers[j])
                for i in range(k) for j in range(i + 1, k)
            )
        else:
            sep = math.inf
        radius = plateau if plateau is not None else min(1.0, 0.4 * sep)
        if 2.5 * radius > sep:
            raise ParameterError("well plateaus overlap; shrink `plateau`")
        ramp = 0.5 * radius

        def fn(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.full(pts.shape[:-1], float(far_value))
            for i in range(k):
                d = pts - centers[i]
                r = np.sqrt((d**2).sum(axis=-1))
                chi = _smoothstep((radius + ramp - r) / ramp)
                local = values[i] + (coeffs[i] * np.abs(d) ** m).sum(axis=-1)
                out = out + chi * (local - far_value)
            return out

        return cls(fn, centers, coeffs, m, holder)

    # -- evaluation ------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.peaks.shape[0]

    @property
    def dim(self) -> int:
        return self.peaks.shape[1]

    @property
    def peak_values(self) -> np.ndarray:
        return self(self.peaks)

    @property
    def min_separation(self) -> float:
        """2 r0 = min_{i != j} |a_i - a_j| (inf for a single peak)."""
        if self.k < 2:
            return math.inf
        return min(
            float(np.linalg.norm(self.peaks[i] - self.peaks[j]))
            for i in range(self.k) for j in range(i + 1, self.k)
        )

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        if scalar:
            pts = pts[None, :]
        out = self.fn(pts)
        return float(out[0]) if scalar else out

    def gradient(self, points, axis: int) -> np.ndarray:
        """dV/dx_axis; analytic when available, else central differences."""
        pts = np.asarray(points, dtype=float)
        if self.grad_fn is not None:
            return self.grad_fn(pts, axis)
        h = 1e-6
        ea = np.zeros(pts.shape[-1])
        ea[axis] = h
        return (self.fn(pts + ea) - self.fn(pts - ea)) / (2.0 * h)

    def on_grid(self, grid: GridSpec) -> np.ndarray:
        if grid not in self._grid_cache:
            vals = self.fn(grid.points).reshape(grid.shape)
            if np.any(vals <= 0):
                raise ParameterError("potential is not positive on the box")
            vals.setflags(write=False)
            self._grid_cache[grid] = vals
        return self._grid_cache[grid]

    def expansion_remainder(self, i: int, radii) -> float:
        """Max sampled ratio |V - V(a_i) - sum c_ij |d_j|^m| / |d|^(m+1).

        Bounded ratios certify the local expansion order.
        """
        rng = np.random.default_rng(1234 + i)
        worst = 0.0
        for r in np.atleast_1d(radii):
            d = rng.standard_normal((64, self.dim))
            d *= r / np.linalg.norm(d, axis=1, keepdims=True)
            pts = self.peaks[i] + d
            model = self(self.peaks[i]) + (
                self.coeffs[i] * np.abs(d) ** self.m
            ).sum(axis=-1)
            rem = np.abs(self(pts) - model) / r ** (self.m + 1.0)
            worst = max(worst, float(rem.max()))
        return worst


def _potential_values(V, grid: GridSpec) -> np.ndarray:
    if isinstance(V, Potential):
        return V.on_grid(grid)
    if isinstance(V, Field):
        return V.values
    if callable(V):
        return V(*grid.coords)
    return np.broadcast_to(np.asarray(V, dtype=float), grid.shape)


# ---------------------------------------------------------------------------
# peak configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakConfig:
    """Candidate peak locations for a given eps, constrained to D_{eps,delta}."""

    eps: float
    y: np.ndarray
    delta: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_2d(np.asarray(self.y, float)))
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if self.delta <= 0:
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if not (0.0 < self.theta < 1.0):
            raise ParameterError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def k(self) -> int:
        return self.y.shape[0]

    def with_y(self, y) -> "PeakConfig":
        return PeakConfig(self.eps, np.asarray(y, float), self.delta, self.theta)

    def admissibility(self, potential: Potential) -> tuple[bool, str]:
        """Membership in D_{eps,delta}: |y_i - a_i| < delta and
        |y_i - y_j| >= eps^theta for i != j."""
        if self.y.shape != potential.peaks.shape:
            return False, "peak count/dimension mismatch with potential"
        drift = np.linalg.norm(self.y - potential.peaks, axis=1)
        if np.any(drift >= self.delta):
            return False, f"peak drift {drift.max():.3g} >= delta {self.delta}"
        sep_min = self.eps**self.theta
        for i in range(self.k):
            for j in range(i + 1, self.k):
                d = float(np.linalg.norm(self.y[i] - self.y[j]))
                if d < sep_min:
                    return False, (
                        f"separation {d:.3g} < eps^theta = {sep_min:.3g}"
                    )
        return True, ""

    def require_admissible(self, potential: Potential) -> None:
        ok, why = self.admissibility(potential)
        if not ok:
            raise ParameterError(f"configuration outside D_eps_delta: {why}")

    def theta_window(self, s: float, holder: float) -> tuple[float, float]:
        """Admissible theta interval ((N+2s)/(N+2s+alpha), 1)."""
        n = self.y.shape[1]
        lo = (n + 2.0 * s) / (n + 2.0 * s + holder)
        return lo, 1.0


@dataclass
class ReducedSolution:
    """Output of the correction fixed point at one peak configuration."""

    config: PeakConfig
    correction: Field
    correction_norm: float
    iterations: int
    contraction_ratios: list[float]
    reduced_energy: float
    full_residual: float
    orthogonality: np.ndarray
    multipliers: np.ndarray
    ansatz: Field = field(repr=False, default=None)
    increments: list[float] = field(repr=False, default_factory=list)

    @property
    def solution(self) -> Field:
        """Full field: ansatz plus correction."""
        return Field(self.ansatz.grid,
                     self.ansatz.values + self.correction.values)


# ---------------------------------------------------------------------------
# grid-consistent peak profiles
# ---------------------------------------------------------------------------

@dataclass
class GridSystem:
    """Limiting-system profiles re-solved on the computational grid."""

    grid: GridSpec
    eps: float
    coefficient: float
    profiles: list[Field]
    seminorms: list[float]
    peak_values: list[float]
    residuals: list[float]

    def tail_fraction(self, i: int) -> float:
        """Boundary value of profile i relative to its peak."""
        vals = self.profiles[i].values
        edge = np.abs(vals[(0,) * vals.ndim])
        return float(edge / np.abs(vals).max())


def solve_grid_system(
    grid: GridSpec,
    params: ProblemParams,
    peak_values,
    eps: float,
    coefficient_hint: float | None = None,
    shared_coefficient: bool = True,
    tol: float = 1e-11,
    warm: list[Field] | None = None,
) -> GridSystem:
    """Solve the eps-scaled limiting-system profiles on `grid`.

    Peak i solves  eps^2s A (-Delta)^s W + v_i W = W^p  with the shared
    coefficient A = a + b eps^(2s-N) sum_i ||(-Delta)^(s/2) W_i||^2 found
    by a secant fixed point on the grid-measured seminorms (independent
    per-peak coefficients when shared_coefficient=False, the naive
    single-equation profiles).
    """
    vals = [float(v) for v in np.atleast_1d(peak_values)]
    if any(v <= 0 for v in vals):
        raise ParameterError("peak values must be positive")
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    scale = eps ** (2.0 * s - n)

    def solve_peaks(coeff, warm_profiles):
        profs, semis, resid = [], [], []
        for i, v in enumerate(vals):
            c1 = eps ** (2.0 * s) * coeff
            width = (c1 / v) ** (1.0 / (2.0 * s))
            u0 = warm_profiles[i] if warm_profiles else None
            prof, res, _, _ = solve_profile(
                grid, s, p, c1=c1, c0=v, tol=tol, u0=u0, init_width=width,
            )
            profs.append(prof)
            semis.append(sp.seminorm_sq(prof, s))
            resid.append(res)
        return profs, semis, resid

    if b == 0.0:
        profs, semis, resid = solve_peaks(a, warm)
        return GridSystem(grid, eps, a, profs, semis, vals, resid)

    if not shared_coefficient:
        # independent per-peak coefficients: k decoupled scalar fixed points
        profs, semis, resid = [], [], []
        for i, v in enumerate(vals):
            sub = solve_grid_system(
                grid, params, [v], eps,
                coefficient_hint=coefficient_hint, shared_coefficient=True,
                tol=tol, warm=[warm[i]] if warm else None,
            )
            profs.append(sub.profiles[0])
            semis.append(sub.seminorms[0])
            resid.append(sub.residuals[0])
        return GridSystem(grid, eps, float("nan"), profs, semis, vals, resid)

    coeff = coefficient_hint if coefficient_hint else a * 2.0
    profs = warm
    history: list[tuple[float, float]] = []
    # the coefficient gap cannot resolve below the profile-solver noise
    gap_tol = max(1e-13, 5.0 * tol)
    for it in range(60):
        profs, semis, resid = solve_peaks(coeff, profs)
        target = a + b * scale * sum(semis)
        g = coeff - target
        history.append((coeff, g))
        if abs(g) <= gap_tol * max(coeff, 1.0):
            return GridSystem(grid, eps, target, profs, semis, vals, resid)
        if len(history) >= 2 and history[-2][1] != g:
            (c0, g0), (c1, g1) = history[-2], history[-1]
            step = c1 - g1 * (c1 - c0) / (g1 - g0)
            coeff = step if step > a else 0.5 * (c1 + max(a, target))
        else:
            coeff = target
    raise LinearSolveError(
        f"grid-system coefficient did not converge (last gap {g:.3e})"
    )


# ---------------------------------------------------------------------------
# reducer: caches bound to one (grid, params, potential)
# ---------------------------------------------------------------------------

class Reducer:
    """Binds the computational grid, equation parameters, and potential.

    Holds per-eps profile caches so peak searches re-solve nothing but
    the correction.  `reference` optionally carries the whole-space
    SystemSolution whose constants feed the energy expansion checks.
    """

    def __init__(self, grid: GridSpec, params: ProblemParams,
                 potential: Potential,
                 reference: SystemSolution | None = None,
                 tail_threshold: float = 1e-8, strict: bool = False,
                 profile_tol: float = 1e-11):
        if potential.dim != grid.dim:
            raise GridMismatchError("potential dimension does not match grid")
        self.grid = grid
        self.params = params
        self.potential = potential
        self.reference = reference
        self.tail_threshold = tail_threshold
        self.strict = strict
        self.profile_tol = profile_tol
        self.V = potential.on_grid(grid)
        self._systems: dict[float, GridSystem] = {}

    def system(self, eps: float) -> GridSystem:
        if eps not in self._systems:
            hint = None
            if self._systems:
                nearest = min(self._systems, key=lambda e: abs(e - eps))
                hint = self._systems[nearest].coefficient
            elif self.reference is not None:
                hint = self.reference.kirchhoff_coefficient
            gs = solve_grid_system(
                self.grid, self.params, self.potential.peak_values, eps,
                coefficient_hint=hint, tol=self.profile_tol,
            )
            self._check_tails(gs)
            self._systems[eps] = gs
        return self._systems[eps]

    def _check_tails(self, gs: GridSystem) -> None:
        for i in range(len(gs.profiles)):
            frac = gs.tail_fraction(i)
            if frac > self.tail_threshold:
                msg = (f"peak {i} tail at the box boundary is {frac:.2e} of "
                       f"its maximum (threshold {self.tail_threshold:.1e})")
                if self.strict:
                    raise TruncationError(msg)
                warnings.warn(msg, TailTruncationWarning, stacklevel=3)

    def frame(self, cfg: PeakConfig) -> "_Frame":
        """The public entry to the operations at one configuration (eps, y).

        The frame holds U_{eps,y} (`U`), L_eps (`L`) and the constraint
        basis of E_{eps,y}, and evaluates l_eps (`ell`, `ell_norm`), I_eps
        (`energy`), R_eps (`remainder`) and the inversion constant
        (`coercivity`).  Raises ParameterError for y outside D_{eps,delta}.
        The class keeps its private name while the benchmark in perfbench/
        rebinds `_Frame` methods to trace them, until the package records
        its own trace.
        """
        cfg.require_admissible(self.potential)
        return _Frame(self, cfg)


class _Frame:
    """All cached fields for one (eps, y) configuration."""

    def __init__(self, red: Reducer, cfg: PeakConfig):
        self.red = red
        self.cfg = cfg
        grid, params = red.grid, red.params
        eps, s, n = cfg.eps, params.s, params.dim
        gs = red.system(eps)

        shifted = [sp.translate(w, cfg.y[i]) for i, w in enumerate(gs.profiles)]
        self.peak_fields = shifted
        u = np.zeros(grid.shape)
        for f in shifted:
            u += f.values
        self.U = Field(grid, u)
        self.V = red.V
        self.a_eps = eps ** (2.0 * s) * params.a
        self.C = params.b * eps ** (4.0 * s - n)            # Kirchhoff weight
        self.h = grid.spacing**n
        self.L = self.second_variation(self.U)              # L_eps

        # translation modes dU/dy_ij and their eps-inner representatives
        self.modes = [-sp.derivative(f, j).values
                      for f in shifted for j in range(n)]
        dens = [self._p_apply(m) for m in self.modes]
        self.mode_densities = dens

        # symmetric preconditioner: P0 = eps^2s a |xi|^2s + Vbar
        vbar = float(np.min(self.V))
        self.p0 = self.a_eps * grid.symbol(s) + vbar
        self.p0_isqrt = 1.0 / np.sqrt(self.p0)
        # orthonormal basis of preconditioned constraint densities
        wmat = np.stack([self.precondition(d).ravel() for d in dens])
        q, _ = np.linalg.qr(wmat.T)
        self.Qc = q.T.copy()
        self._d2cache: dict[tuple[int, int, int], np.ndarray] = {}

    # -- low-level applies ---------------------------------------------------

    def _p_apply(self, vals: np.ndarray) -> np.ndarray:
        """eps-inner-product representative density P f = eps^2s a (-D)^s f + V f."""
        sym = self.red.grid.symbol(self.red.params.s)
        fl = sp._ifftn(sym * sp._fftn(vals))
        return self.a_eps * fl + self.V * vals

    def precondition(self, vals: np.ndarray) -> np.ndarray:
        """P0^(-1/2) f, the symmetric preconditioner's half inverse."""
        return sp._ifftn(self.p0_isqrt * sp._fftn(vals))

    def project(self, flat: np.ndarray) -> np.ndarray:
        return flat - self.Qc.T @ (self.Qc @ flat)

    def project_field(self, vals: np.ndarray) -> np.ndarray:
        """Project grid values onto E_{eps,y} = {phi : <w_ij, phi> = 0}.

        The Krylov projector lives in preconditioned coordinates
        xi = P0^(1/2) phi, so conjugate through P0^(±1/2).
        """
        xi = sp._ifftn(np.sqrt(self.p0) * sp._fftn(vals)).ravel()
        xi = self.project(xi)
        return self.precondition(xi.reshape(vals.shape))

    def apply_hat(self, flat: np.ndarray,
                  lin: LinearizedOperator) -> np.ndarray:
        """Projected, preconditioned action Q m L m Q in the coordinates
        xi = P0^(1/2) phi, with m = P0^(-1/2) and Q the constraint
        projector."""
        v = self.project(flat).reshape(self.U.values.shape)
        return self.project(lin.apply_conjugated(v, self.p0_isqrt).ravel())

    def second_variation(self, u: Field) -> LinearizedOperator:
        """The second variation I''_eps(u); L_eps at the ansatz u = U."""
        params = self.red.params
        return LinearizedOperator(
            profile=u, s=params.s, p=params.p,
            coefficient=self.a_eps + self.C * sp.seminorm_sq(u, params.s),
            b=self.C, c=self.V,
        )

    def gradient_density(self, u: Field) -> np.ndarray:
        """Density of I'_eps(u); l_eps at the ansatz u = U."""
        params = self.red.params
        return residual_density(u, params.s, params.p, self.a_eps, self.C,
                                self.V)

    def remainder(self, vals: np.ndarray) -> float:
        """R_eps(phi) = A1(phi) - A2(phi) (exact expressions)."""
        p = self.red.params.p
        s_phi = sp.seminorm_inner(self.red.grid, self.red.params.s,
                                  sp._fftn(vals))
        iu_phi = self.h * float((self.L.flU * vals).sum())
        a1 = 0.25 * self.C * (s_phi**2 + 4.0 * s_phi * iu_phi)
        u = self.U.values
        a2 = (sp.pos_power(u + vals, p + 1.0) - sp.pos_power(u, p + 1.0)
              - (p + 1.0) * sp.pos_power(u, p) * vals
              - 0.5 * p * (p + 1.0) * sp.pos_power(u, p - 1.0) * vals**2)
        return a1 - self.h * float(a2.sum()) / (p + 1.0)

    def ell(self, vals: np.ndarray) -> float:
        """l_eps(phi) = <I'_eps(U_{eps,y}), phi>."""
        return self.h * float((self.gradient_density(self.U) * vals).sum())

    def ell_norm(self) -> float:
        """Dual norm of l_eps on E_{eps,y} (preconditioner estimate)."""
        b = self.precondition(self.gradient_density(self.U)).ravel()
        return float(np.linalg.norm(self.project(b)) * math.sqrt(self.h))

    def eps_norm(self, vals: np.ndarray) -> float:
        """||phi||_eps, the norm of the eps-inner product."""
        uhat = sp._fftn(vals)
        semi = sp.seminorm_inner(self.red.grid, self.red.params.s, uhat, uhat)
        mass = self.h * float((self.V * vals * vals).sum())
        return math.sqrt(max(self.a_eps * semi + mass, 0.0))

    def energy(self, vals: np.ndarray) -> float:
        """I_eps evaluated at the given field values."""
        p = self.red.params.p
        grid, s = self.red.grid, self.red.params.s
        uhat = sp._fftn(vals)
        s_u = sp.seminorm_inner(grid, s, uhat)
        quad = (self.a_eps * sp.seminorm_inner(grid, s, uhat, uhat)
                + self.h * float((self.V * vals * vals).sum()))
        pot = self.h * float(sp.pos_power(vals, p + 1.0).sum())
        return 0.5 * quad + 0.25 * self.C * s_u**2 - pot / (p + 1.0)

    def orthogonality(self, vals: np.ndarray, phi_norm: float) -> np.ndarray:
        """Relative eps-inner products against each translation mode;
        `phi_norm` is eps_norm(vals), zeros when it is 0."""
        out = np.zeros(len(self.modes))
        for idx, (mode, dens) in enumerate(zip(self.modes, self.mode_densities)):
            raw = self.h * float((dens * vals).sum())
            scale = self.eps_norm(mode) * phi_norm
            out[idx] = raw / scale if scale > 0 else 0.0
        return out

    # -- constrained solve ----------------------------------------------------

    def solve_constrained(self, rhs_density: np.ndarray, rtol: float,
                          atol: float, maxiter: int,
                          lin: LinearizedOperator | None = None) -> np.ndarray:
        """Solve the constrained symmetric system A phi = -rhs on E_{eps,y};
        A is L_eps by default, or the second variation `lin`."""
        npts = self.U.values.size
        shape = self.U.values.shape
        lin = self.L if lin is None else lin
        op = sla.LinearOperator((npts, npts), dtype=float,
                                matvec=lambda v: self.apply_hat(v, lin))
        b = -self.precondition(rhs_density).ravel()
        b = self.project(b)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return np.zeros(shape)
        xi, info = sla.minres(op, b, rtol=rtol, maxiter=maxiter)
        resid = float(np.linalg.norm(b - op.matvec(xi)))
        if resid > max(1e-7 * bnorm, atol):
            raise LinearSolveError(
                f"projected MINRES stalled: residual {resid:.3e} "
                f"(rhs norm {bnorm:.3e}, info={info})"
            )
        xi = self.project(xi)
        return self.precondition(xi.reshape(shape))

    def multipliers(self, grad_density: np.ndarray) -> np.ndarray:
        """Lagrange multipliers of the constrained stationarity system."""
        nmodes = len(self.modes)
        gram = np.empty((nmodes, nmodes))
        rhs = np.empty(nmodes)
        for i, mode in enumerate(self.modes):
            rhs[i] = -self.h * float((grad_density * mode).sum())
            for j, dens in enumerate(self.mode_densities):
                gram[i, j] = self.h * float((dens * mode).sum())
        return np.linalg.solve(gram, rhs)

    def coercivity(self, tol: float = 1e-7, maxiter: int = 400) -> float:
        """Invertibility constant of the projected, preconditioned quadratic
        form on E_{eps,y}: the smallest |eigenvalue|.

        The form is indefinite on E (the profile's single negative direction
        is not a translation mode and survives the projection), so the
        quantitative content of the inversion lemma is min |lambda| >= rho > 0.
        LOBPCG finds the two lowest eigenvalues on E (the constraints
        deflate the translation directions exactly), and the magnitude
        certificate of kernel.smallest_magnitude picks min |lambda| among
        them.  Raises EigensolverError when the pairs miss `tol`.
        """
        n_eigs = 2

        def apply(block):
            out = np.empty_like(block)
            for col in range(block.shape[1]):
                out[:, col] = self.apply_hat(block[:, col], self.L)
            return out

        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((self.U.values.size, n_eigs))
        for col in range(n_eigs):
            x0[:, col] = self.project(x0[:, col])
        vals, _, history = sla.lobpcg(apply, x0, Y=self.Qc.T, largest=False,
                                      tol=tol, maxiter=maxiter,
                                      retResidualNormsHistory=True)
        residuals = np.atleast_1d(history[-1])
        if np.max(residuals) > tol:
            raise EigensolverError(
                f"LOBPCG missed tol {tol:.1e} on E_eps_y: residuals "
                f"{residuals.tolist()}",
                ritz_residuals=residuals.tolist(),
            )
        return float(abs(vals[smallest_magnitude(vals, 1)[0]]))

    def constraint_y_derivative(self, a: int, b: int, j: int) -> np.ndarray:
        """d w_(a,j) / d y_(a,b): eps-representative density of the second
        shift derivative of peak a (zero across peaks)."""
        key = (a, min(b, j), max(b, j))
        if key not in self._d2cache:
            f = sp.derivative(sp.derivative(self.peak_fields[a], j), b)
            self._d2cache[key] = self._p_apply(f.values)
        return self._d2cache[key]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def eps_inner(u: Field, v: Field, eps: float, V, params: ProblemParams) -> float:
    """<u, v>_eps = int (eps^2s a (-D)^(s/2)u (-D)^(s/2)v + V u v)."""
    if u.grid != v.grid:
        raise GridMismatchError("fields live on different grids")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    grid, s = u.grid, params.s
    vvals = _potential_values(V, grid)
    semi = sp.seminorm_inner(grid, s, u.spectral(), v.spectral())
    mass = grid.spacing**grid.dim * float((vvals * u.values * v.values).sum())
    return eps ** (2.0 * s) * params.a * semi + mass


def eps_norm(u: Field, eps: float, V, params: ProblemParams) -> float:
    return math.sqrt(max(eps_inner(u, u, eps, V, params), 0.0))


def solve_correction(
    red: Reducer,
    cfg: PeakConfig,
    phi0: Field | None = None,
    outer_tol_factor: float = 1e-10,
    max_outer: int = 40,
    inner_rtol: float = 1e-11,
    picard_steps: int = 3,
    frame: "_Frame" = None,
) -> ReducedSolution:
    """Fixed point phi = -L_eps^{-1}(l_eps + R'(phi)) on E_{eps,y}.

    Runs `picard_steps` iterations of the contraction map itself (their
    increment ratios are the reported contraction diagnostics), then
    switches the increment operator to the second variation at the
    current iterate, which drives the same fixed point quadratically.
    Stops when ||phi_{n+1} - phi_n||_eps < outer_tol_factor * eps^(N/2).
    """
    if max_outer < 1:
        raise ParameterError(f"max_outer must be at least 1, got {max_outer}")
    fr = frame if frame is not None else red.frame(cfg)
    n = red.params.dim
    tol = outer_tol_factor * cfg.eps ** (0.5 * n)
    maxiter = 400 * (2**red.grid.dim)

    phi = np.zeros(red.grid.shape) if phi0 is None else phi0.values.copy()
    if phi0 is not None:
        phi = fr.project_field(phi)
    ratios: list[float] = []
    increments: list[float] = []
    bad_streak = 0
    for it in range(1, max_outer + 1):
        u = Field(red.grid, fr.U.values + phi)
        lin = None if it <= picard_steps else fr.second_variation(u)
        try:
            delta = fr.solve_constrained(fr.gradient_density(u),
                                         rtol=inner_rtol,
                                         atol=0.01 * tol, maxiter=maxiter,
                                         lin=lin)
        except LinearSolveError:
            if ratios and ratios[-1] >= 1.0:
                raise NoContractionError(
                    "correction iterates diverged before the linear solve "
                    f"broke down (eps={cfg.eps} likely too large)",
                    ratios=ratios,
                ) from None
            raise
        phi = phi + delta
        inc = fr.eps_norm(delta)
        increments.append(inc)
        if not np.isfinite(inc) or fr.eps_norm(phi) > 1e6:
            raise NoContractionError(
                f"correction iterates blew up (eps={cfg.eps} likely too "
                "large)", ratios=ratios,
            )
        if len(increments) >= 2 and increments[-2] > 1e3 * tol:
            # ratios at the stopping floor are solver noise, not map
            # behaviour; only significant increments are recorded
            r = inc / increments[-2]
            ratios.append(r)
            bad_streak = bad_streak + 1 if r >= 1.0 else 0
            if bad_streak >= 3:
                raise NoContractionError(
                    "three consecutive non-contracting iterates "
                    f"(eps={cfg.eps} likely too large)", ratios=ratios,
                )
        if inc < tol:
            break
    else:
        raise NoContractionError(
            f"correction loop hit max_outer={max_outer} "
            f"(last increment {inc:.3e}, tol {tol:.3e})", ratios=ratios,
        )

    phi_norm = fr.eps_norm(phi)
    u_full = Field(red.grid, fr.U.values + phi)
    sup_res, _, grad = pde_residual(u_full, red.params, fr.V, cfg.eps,
                                    return_density=True)
    lam = fr.multipliers(grad.values)
    energy = fr.energy(u_full.values)
    return ReducedSolution(
        config=cfg,
        correction=Field(red.grid, phi),
        correction_norm=phi_norm,
        iterations=it,
        contraction_ratios=ratios,
        reduced_energy=energy,
        full_residual=sup_res,
        orthogonality=fr.orthogonality(phi, phi_norm),
        multipliers=lam,
        ansatz=fr.U,
        increments=increments,
    )


def reduced_gradient_total(red: Reducer, cfg: PeakConfig,
                           sol: ReducedSolution,
                           frame: "_Frame" = None) -> np.ndarray:
    """Exact total derivative of the reduced energy j_eps at a solved
    correction: envelope term plus the multiplier correction from the
    y-dependence of the orthogonality constraints."""
    fr = frame if frame is not None else red.frame(cfg)
    phi = sol.correction.values
    grad_dens = fr.gradient_density(Field(red.grid, fr.U.values + phi))
    lam = fr.multipliers(grad_dens)
    k, n = cfg.y.shape
    out = np.zeros(k * n)
    # I'(u) = -sum lam_ij w_ij on span{w}; differentiating the constraints
    # <w_aj(y), phi_y> = 0 turns the phi-variation term into
    # +sum_j lam_aj <d w_aj / d y_ab, phi>.
    for a in range(k):
        for b in range(n):
            idx = a * n + b
            val = fr.h * float((grad_dens * fr.modes[idx]).sum())
            for j in range(n):
                dw = fr.constraint_y_derivative(a, b, j)
                val += lam[a * n + j] * fr.h * float((dw * phi).sum())
            out[idx] = val
    return out


def energy_constants(sys: SystemSolution) -> tuple[float, list[float]]:
    """Leading constant A and peak weights B_i of the energy expansion.

    A = (1/2 - 1/(p+1)) sum_i int |U^i|^(p+1)
        - (b/4) (sum_i int |(-D)^(s/2) U^i|^2)^2,
    B_i = (1/2) int |U^i|^2.

    The sign of the quartic term follows from pairing each system
    equation with its profile:
        a sum S_i + sum V(a_i) int (U^i)^2
            = sum int (U^i)^(p+1) - b (sum S_i)^2,
    so the +b/4 and -b/2 contributions combine to -b/4.  (For b = 0 both
    conventions coincide.)
    """
    p, b, s = sys.params.p, sys.params.b, sys.params.s
    pots = 0.0
    semis = 0.0
    bs = []
    for u in sys.profiles:
        pots += sp.integrate(Field(u.grid, sp.pos_power(u.values, p + 1.0)))
        semis += sp.seminorm_sq(u, s)
        bs.append(0.5 * sp.integrate(Field(u.grid, u.values**2)))
    a_const = (0.5 - 1.0 / (p + 1.0)) * pots - 0.25 * b * semis**2
    return a_const, bs


# ---------------------------------------------------------------------------
# peak minimisation
# ---------------------------------------------------------------------------

# a search that needs more corrections than this is not converging
MAX_SEARCH_EVALUATIONS = 100


def minimize_peaks(
    red: Reducer,
    y0: PeakConfig,
    outer_tol_factor: float = 1e-10,
) -> tuple[PeakConfig, ReducedSolution, dict]:
    """Minimise the reduced energy j_eps over D_{eps,delta}.

    Trust-region Newton from y0 on the exact reduced gradient (multiplier
    formula) with a symmetrised forward-difference Jacobian.  A step is
    accepted when it lowers sup|grad j|, not j: near the minimiser the
    changes of j fall below its roundoff.  Steps are clipped to the trust
    radius and halved until they stay in D_{eps,delta}; the search ends
    at the boundary when an accepted halved step leaves less than
    1e-3 delta of slack or a step is halved below a floor.  It
    converges when the Newton step solved with a Jacobian built at the
    current y falls below a floor; that Jacobian's eigenvalues are the
    certificate (all positive: a strict local minimum).  The returned
    solution is a fresh full-tolerance solve.

    Raises IterationError on a singular Newton system or when the search
    needs more than MAX_SEARCH_EVALUATIONS corrections.
    """
    y0.require_admissible(red.potential)
    delta, peaks = y0.delta, red.potential.peaks
    k, n = y0.y.shape
    floor = 1e-13
    boundary_tol = 1e-3 * delta
    fd_h = max(1e-3 * delta, 1.6e-7)
    count = {"evaluations": 0, "newton_steps": 0, "rejected": 0}
    warm = None

    def admissible(y) -> bool:
        return y0.with_y(y.reshape(k, n)).admissibility(red.potential)[0]

    def slack(y) -> float:
        return float(delta - np.linalg.norm(y.reshape(k, n) - peaks,
                                            axis=1).max())

    def gradient_at(y) -> np.ndarray:
        nonlocal warm
        cfg = y0.with_y(y.reshape(k, n))
        fr = red.frame(cfg)
        sol = solve_correction(red, cfg, phi0=warm,
                               outer_tol_factor=outer_tol_factor,
                               picard_steps=1, frame=fr)
        warm = sol.correction
        count["evaluations"] += 1
        return reduced_gradient_total(red, cfg, sol, frame=fr)

    def jacobian_at(y, g) -> np.ndarray:
        jac = np.empty((y.size, y.size))
        for idx in range(y.size):
            yp = y.copy()
            yp[idx] += fd_h
            jac[:, idx] = (gradient_at(yp) - g) / fd_h
        return 0.5 * (jac + jac.T)

    y = y0.y.ravel().copy()
    g = gradient_at(y)
    jac, fresh = jacobian_at(y, g), True
    radius = 0.05 * delta
    termination = None
    while termination is None:
        gnorm = float(np.abs(g).max())
        if count["evaluations"] > MAX_SEARCH_EVALUATIONS:
            raise IterationError(
                f"peak search ran past {MAX_SEARCH_EVALUATIONS} corrections "
                f"(sup|grad j| = {gnorm:.3e})",
                residual=gnorm, iterations=count["evaluations"],
            )
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            step = np.full_like(g, np.nan)
        if not np.all(np.isfinite(step)):
            raise IterationError(
                "singular reduced-energy Jacobian: eigenvalues "
                f"{np.linalg.eigvalsh(jac).tolist()}",
                residual=gnorm, iterations=count["evaluations"],
            )
        norm = float(np.abs(step).max())
        if norm < floor:
            if fresh:
                termination = "converged"
            else:
                jac, fresh = jacobian_at(y, g), True
            continue
        shortened = norm > radius
        if shortened:
            step *= radius / norm
        halved = False
        while not admissible(y + step):
            step *= 0.5
            count["rejected"] += 1
            shortened = halved = True
            if float(np.abs(step).max()) < floor:
                termination = "boundary"
                break
        if termination is not None:
            break
        g_new = gradient_at(y + step)
        new_norm = float(np.abs(g_new).max())
        if new_norm < gnorm:
            y, g = y + step, g_new
            count["newton_steps"] += 1
            fresh = False
            if halved and slack(y) < boundary_tol:
                # the minimiser lies beyond D: each further step would
                # only halve the gap to the boundary
                termination = "boundary"
            elif shortened:
                radius = min(2.0 * radius, delta)
            elif new_norm > 0.25 * gnorm:
                jac, fresh = jacobian_at(y, g), True
        elif not fresh:
            jac, fresh = jacobian_at(y, g), True
        else:
            # shrink below the rejected step, which may be shorter than
            # the radius
            radius = 0.5 * float(np.abs(step).max())

    best = y0.with_y(y.reshape(k, n))
    boundary_slack = slack(y)
    if boundary_slack < boundary_tol:
        warnings.warn(
            "reduced-energy minimiser sits on the D_eps_delta boundary "
            f"(slack {boundary_slack:.2e}); interior minimum not confirmed",
            BoundaryMinimizerWarning, stacklevel=2,
        )
    # fresh final solve: history-free, so identical minimisers give
    # identical solutions across different starts
    final = solve_correction(red, best, outer_tol_factor=outer_tol_factor)
    info = {
        **count,
        "boundary_slack": boundary_slack,
        "termination": termination,
        "grad_norm": float(np.abs(g).max()),
        "hessian_eigenvalues": np.linalg.eigvalsh(jac).tolist(),
    }
    return best, final, info


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_reduction(
    red: Reducer,
    eps_list,
    delta: float,
    theta: float,
    y0_offset=None,
    minimize: bool = True,
    outer_tol_factor: float = 1e-10,
) -> list[dict]:
    """Run the correction (and optionally the peak search) over an eps list.

    Returns one record per eps with the quantities the asymptotic
    checkers consume.
    """
    records = []
    peaks = red.potential.peaks
    offset = np.zeros_like(peaks) if y0_offset is None else np.asarray(y0_offset)
    for eps in sorted(eps_list, reverse=True):
        cfg0 = PeakConfig(eps, peaks + offset, delta, theta)
        if minimize:
            best, sol, info = minimize_peaks(
                red, cfg0, outer_tol_factor=outer_tol_factor,
            )
        else:
            best = cfg0
            sol = solve_correction(red, cfg0,
                                   outer_tol_factor=outer_tol_factor)
            info = {}
        drift = np.linalg.norm(best.y - peaks, axis=1)
        records.append({
            "eps": eps,
            "y": best.y.tolist(),
            "drift": drift.tolist(),
            "drift_over_eps": (drift / eps).tolist(),
            "phi_norm": sol.correction_norm,
            "reduced_energy": sol.reduced_energy,
            "energy_over_epsN": sol.reduced_energy / eps**red.params.dim,
            "orthogonality": float(np.abs(sol.orthogonality).max()),
            "ratios": sol.contraction_ratios,
            "iterations": sol.iterations,
            "full_residual": sol.full_residual,
            "search": info,
        })
    return records
