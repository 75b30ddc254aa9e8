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
iteration matrix O(1)-conditioned uniformly in eps.  The Krylov vectors
are the preconditioned coordinates xi = P0^(1/2) phi as packed half
spectra (spectral.pack), an isometry of grid fields: P0^(-1/2) and the
bulk term act there as multipliers, so a matvec moves only P0^(-1/2) xi
to the grid and back (2 transforms).  Each matvec projects its result
onto the spectra of real fields (spectral.make_hermitian), which keeps
roundoff from feeding the packed components no real field has.

Each frame builds the kN x kN constraint algebra once: the stacked
translation modes w_ij, their representatives P w_ij (P = eps^2s a
(-Delta)^s + V) and the Gram matrix <w_ij, w_kl>_eps, from which the
multipliers, orthogonality and reduced gradient and Hessian are products.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag
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
from .groundstate import SystemSolution, residual_density, solve_profile
from .kernel import LinearizedOperator, lanczos_smallest
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


def _min_separation(points) -> float:
    """min_{i != j} |x_i - x_j| over the rows of `points` (inf for one)."""
    k = len(points)
    return min((float(np.linalg.norm(points[i] - points[j]))
                for i in range(k) for j in range(i + 1, k)), default=math.inf)


class Potential:
    """Potential with k critical points a_i and a local power expansion.

    V(x) = V(a_i) + sum_j c_ij |x_j - a_ij|^m + O(|x - a_i|^(m+1)), c_ij != 0,
    near each a_i, evaluable on the box; the peak search solves grad j_eps = 0.
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
        sep = _min_separation(centers)
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
        sep, sep_min = _min_separation(self.y), self.eps**self.theta
        if sep < sep_min:
            return False, f"separation {sep:.3g} < eps^theta = {sep_min:.3g}"
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
    """Output of the correction fixed point on the frame of one peak
    configuration; the configuration is `frame.cfg`."""

    frame: "_Frame" = field(repr=False)
    correction: Field
    correction_norm: float
    iterations: int
    contraction_ratios: list[float]
    reduced_energy: float
    full_residual: float
    orthogonality: np.ndarray
    increments: list[float] = field(repr=False, default_factory=list)
    # MINRES iterations (restarts included) and forcing term eta of each
    # outer step
    inner_iterations: list[int] = field(repr=False, default_factory=list)
    forcing: list[float] = field(repr=False, default_factory=list)
    # density of I'_eps(U + phi), which the multipliers and
    # `full_residual` come from
    gradient_density: np.ndarray = field(repr=False, default=None)

    @property
    def ansatz(self) -> Field:
        """U_{eps,y} of the frame."""
        return self.frame.U

    @property
    def solution(self) -> Field:
        """Full field: ansatz plus correction."""
        return Field(self.ansatz.grid,
                     self.ansatz.values + self.correction.values)


# ---------------------------------------------------------------------------
# grid-consistent peak profiles
# ---------------------------------------------------------------------------

PROFILE_TOL = 1e-11   # sup residual of each profile at its coefficient


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

    def ansatz(self, y) -> tuple[list[Field], Field]:
        """The peaks W_i(. - y_i) and their sum U_{eps,y}."""
        peaks = [sp.translate(w, y[i]) for i, w in enumerate(self.profiles)]
        u = np.zeros(self.grid.shape)
        for f in peaks:
            u += f.values
        return peaks, Field(self.grid, u)


def solve_grid_system(
    grid: GridSpec,
    params: ProblemParams,
    peak_values,
    eps: float,
    shared_coefficient: bool = True,
) -> GridSystem:
    """Solve the eps-scaled limiting-system profiles on `grid`.

    Peak i solves  eps^2s A (-Delta)^s W + v_i W = W^p  with the shared
    coefficient A = a + b eps^(2s-N) sum_i ||(-Delta)^(s/2) W_i||^2
    (A_i = a + b eps^(2s-N) ||(-Delta)^(s/2) W_i||^2 per peak when
    shared_coefficient=False, the naive single-equation profiles; A = a
    when b = 0).  The k profiles are one stack of the Petviashvili loop
    (groundstate.solve_profile), which re-reads A from each iterate's
    grid-measured seminorms; there is no outer loop on A.  By the scaling
    technique eps^(2s-N) ||(-Delta)^(s/2) W_i||^2 scales like A^gamma,
    gamma = (N-2s)/(2s), and |gamma| < 1 when 4s > N, so each update
    shrinks the coefficient error by a factor of at most |gamma|.  Each
    profile solves to PROFILE_TOL at the returned A, measured on the
    returned profiles (naive: at its own A_i; the returned A is nan).
    """
    vals = [float(v) for v in np.atleast_1d(peak_values)]
    if any(v <= 0 for v in vals):
        raise ParameterError("peak values must be positive")
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    weight = b * eps ** (2.0 * s - n)
    scale = eps ** (2.0 * s)

    def rule(semis):
        return a + weight * (semis.sum() if shared_coefficient else semis)

    coeff = a if b == 0.0 else a * 2.0
    width = (scale * coeff / np.array(vals)) ** (1.0 / (2.0 * s))
    profs, resid, _, _, semis = solve_profile(
        grid, s, p, scale * coeff, vals, tol=PROFILE_TOL, init_width=width,
        coefficient=None if b == 0.0 else (scale, rule),
    )
    if b != 0.0:
        coeff = float(rule(semis)) if shared_coefficient else float("nan")
    return GridSystem(grid, eps, coeff, [Field(grid, w) for w in profs],
                      semis.tolist(), vals, resid.tolist())


# ---------------------------------------------------------------------------
# reducer: caches bound to one (grid, params, potential)
# ---------------------------------------------------------------------------

# a profile whose boundary value exceeds this fraction of its peak is
# cut by the box
TAIL_THRESHOLD = 1e-8
# coercivity's eigenvalue for the form's packed null space: P0 clusters
# the form's spectrum near 1, so its smallest |eigenvalue| lies below 2
COERCIVITY_SHIFT = 2.0


class Reducer:
    """Binds the computational grid, equation parameters, and potential.

    Holds per-eps profile caches so peak searches re-solve nothing but
    the correction.
    """

    def __init__(self, grid: GridSpec, params: ProblemParams,
                 potential: Potential, strict: bool = False):
        if potential.dim != grid.dim:
            raise GridMismatchError("potential dimension does not match grid")
        self.grid = grid
        self.params = params
        self.potential = potential
        self.strict = strict
        self.V = potential.on_grid(grid)
        self._systems: dict[float, GridSystem] = {}

    def system(self, eps: float) -> GridSystem:
        if eps not in self._systems:
            gs = solve_grid_system(
                self.grid, self.params, self.potential.peak_values, eps,
            )
            self._check_tails(gs)
            self._systems[eps] = gs
        return self._systems[eps]

    def _check_tails(self, gs: GridSystem) -> None:
        for i in range(len(gs.profiles)):
            frac = gs.tail_fraction(i)
            if frac > TAIL_THRESHOLD:
                msg = (f"peak {i} tail at the box boundary is {frac:.2e} of "
                       f"its maximum (threshold {TAIL_THRESHOLD:.1e})")
                if self.strict:
                    raise TruncationError(msg)
                warnings.warn(msg, TailTruncationWarning, stacklevel=3)

    def frame(self, cfg: PeakConfig) -> "_Frame":
        """The public entry to the operations at one configuration (eps, y).

        The frame holds U_{eps,y} (`U`) and the constraint algebra of
        E_{eps,y} (`modes`, `mode_densities`, `gram`), and evaluates I_eps
        (`energy`), its gradient density and second variation (l_eps and
        L_eps at U), the eps-norm, the multipliers, the orthogonality and
        the inversion constant min |lambda| on E_{eps,y} (`coercivity`, by
        the kernel module's one Lanczos).  Raises ParameterError for y
        outside D_{eps,delta}.
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
        peak_fields, self.U = red.system(eps).ansatz(cfg.y)
        self.V = red.V
        self.a_eps, self.C = params.scaled(eps)  # C: Kirchhoff weight
        self.h = grid.spacing**n
        self.minres_budget = 400 * 2**n     # MINRES iterations per solve

        # translation modes w_ij = dU/dy_ij, their eps-inner representatives
        # P w_ij, stacked (kN, *grid), and their Gram matrix <w, w>_eps
        self.modes = np.stack([-sp.derivative(f, j).values
                               for f in peak_fields for j in range(n)])
        self.mode_densities = dens = np.stack([self._p_apply(m)
                                               for m in self.modes])
        self.gram = self.h * (self.modes.reshape(len(dens), -1)
                              @ dens.reshape(len(dens), -1).T)

        # symmetric preconditioner: P0 = eps^2s a |xi|^2s + Vbar
        vbar = float(np.min(self.V))
        self.p0 = self.a_eps * grid.symbol(s) + vbar
        self.p0_isqrt = 1.0 / np.sqrt(self.p0)
        self.p0_isqrt.setflags(write=False)     # apply_conjugated keeps it
        # orthonormal basis of preconditioned constraint densities
        wmat = np.stack([self.precondition(d) for d in dens])
        q, _ = np.linalg.qr(wmat.T)
        self.Qc = q.T.copy()

    # -- low-level applies ---------------------------------------------------

    def _p_apply(self, vals: np.ndarray) -> np.ndarray:
        """eps-inner-product representative density P f = eps^2s a (-D)^s f + V f."""
        sym = self.red.grid.symbol(self.red.params.s)
        fl = sp._ifftn(sym * sp._fftn(vals))
        return self.a_eps * fl + self.V * vals

    def precondition(self, vals: np.ndarray) -> np.ndarray:
        """The packed spectrum of P0^(-1/2) f, a density in preconditioned
        coordinates (1 transform)."""
        return sp.pack(self.red.grid, self.p0_isqrt * sp._fftn(vals))

    def to_field(self, z: np.ndarray) -> np.ndarray:
        """The grid values phi = P0^(-1/2) xi of z, the packed spectrum
        of xi (1 transform)."""
        return sp._ifftn(self.p0_isqrt * sp.unpack(self.red.grid, z))

    def project(self, z: np.ndarray) -> np.ndarray:
        return z - self.Qc.T @ (self.Qc @ z)

    def project_field(self, vals: np.ndarray) -> np.ndarray:
        """Project grid values onto E_{eps,y} = {phi : <w_ij, phi> = 0}.

        The Krylov projector acts on the packed spectrum of the
        preconditioned coordinates xi = P0^(1/2) phi (2 transforms).
        """
        z = sp.pack(self.red.grid, np.sqrt(self.p0) * sp._fftn(vals))
        return self.to_field(self.project(z))

    def apply_hat(self, z: np.ndarray,
                  lin: LinearizedOperator) -> np.ndarray:
        """Projected, preconditioned action Q m L m Q on packed spectra,
        with m = P0^(-1/2) and Q the constraint projector."""
        return self.project(lin.apply_conjugated(self.project(z),
                                                 self.p0_isqrt))

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

    def eps_norm(self, vals: np.ndarray) -> float:
        """||phi||_eps, the norm of the eps-inner product."""
        uhat = sp._fftn(vals)
        semi = sp.seminorm_inner(self.red.grid, self.red.params.s, uhat, uhat)
        mass = self.h * float((self.V * vals * vals).sum())
        return math.sqrt(max(self.a_eps * semi + mass, 0.0))

    def energy(self, vals: np.ndarray) -> float:
        """I_eps evaluated at the given field values."""
        grid, s, p = self.red.grid, self.red.params.s, self.red.params.p
        s_u = sp.seminorm_inner(grid, s, sp._fftn(vals))
        quad = self.a_eps * s_u + self.h * float((self.V * vals * vals).sum())
        pot = self.h * float(sp.pos_power(vals, p + 1.0).sum())
        return 0.5 * quad + 0.25 * self.C * s_u**2 - pot / (p + 1.0)

    def _pairings(self, stack: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """h sum(stack_i * vals) for each row of a stacked (K, *grid) array."""
        return self.h * (stack.reshape(len(stack), -1) @ vals.ravel())

    def orthogonality(self, vals: np.ndarray, phi_norm: float) -> np.ndarray:
        """Relative eps-inner products against each translation mode;
        `phi_norm` is eps_norm(vals), zeros when it is 0."""
        if phi_norm == 0.0:
            return np.zeros(len(self.modes))
        return (self._pairings(self.mode_densities, vals)
                / (np.sqrt(np.diag(self.gram)) * phi_norm))

    # -- constrained solve ----------------------------------------------------

    def krylov_rhs(self, rhs_density: np.ndarray) -> np.ndarray:
        """The right-hand side b = -Q m rhs of the constrained system as a
        packed spectrum, m = P0^(-1/2) (1 transform)."""
        return self.project(-self.precondition(rhs_density))

    def solve_constrained(self, b: np.ndarray, rtol: float, atol: float,
                          maxiter: int, lin: LinearizedOperator
                          ) -> tuple[np.ndarray, int]:
        """Solve the constrained symmetric system A phi = -rhs on E_{eps,y}
        for b = krylov_rhs(rhs), with A the second variation `lin` (L_eps
        is second_variation(U)).  Returns phi and the MINRES iterations
        spent, restarts included.

        Projected MINRES on Q m A m Q, m = P0^(-1/2), over the packed
        spectra of xi = P0^(1/2) phi; packing is an isometry, so norms are
        those of xi on the grid.  The matvec projects onto the spectra of
        real fields, where the right-hand side lies.

        `rtol` is held on the true residual: ||b - Q m A m Q xi|| <=
        max(rtol ||b||, atol), with atol in the units of b.  scipy's
        MINRES stops on rtol ||A|| ||xi|| or on its least-squares test,
        which can leave the true residual at half of ||b||, so it starts
        at rtol/10 (but not below CORRECTION_INNER_RTOL) and restarts from
        xi at a tenth of its last rtol while the true residual misses.
        Raises LinearSolveError when a restart no longer reduces the
        residual or `maxiter` iterations are spent in all.
        """
        bnorm = float(np.linalg.norm(b))
        op = sla.LinearOperator((b.size, b.size), dtype=float,
                                matvec=lambda v: self.apply_hat(v, lin))
        spent = 0

        def count(_xk):
            nonlocal spent
            spent += 1

        target = max(rtol * bnorm, atol)
        # one MINRES run gains nothing below CORRECTION_INNER_RTOL
        inner_rtol = max(0.1 * rtol, CORRECTION_INNER_RTOL)
        xi, resid = None, bnorm
        while True:
            xi, info = sla.minres(op, b, x0=xi, rtol=inner_rtol,
                                  maxiter=maxiter - spent, callback=count)
            last, resid = resid, float(np.linalg.norm(b - op.matvec(xi)))
            # the true residual one MINRES run can reach grows with the
            # solution (up to 6.2e-10 ||xi|| measured on 64^2 to 256^2
            # grids), so a residual under 1e-8 ||xi|| is roundoff
            xnorm = float(np.linalg.norm(xi))
            if resid <= max(target, 1e-8 * xnorm):
                return self.to_field(self.project(xi)), spent
            if resid >= last or spent >= maxiter:
                raise LinearSolveError(
                    f"projected MINRES stalled: true residual {resid:.3e} "
                    f"misses eta = {rtol:.3e} of the rhs norm {bnorm:.3e} "
                    f"(atol {atol:.3e}, solution norm {xnorm:.3e}, "
                    f"{spent} iterations, info={info})"
                )
            inner_rtol *= 0.1

    def multipliers(self, grad_density: np.ndarray) -> np.ndarray:
        """Lagrange multipliers of the constrained stationarity system."""
        return np.linalg.solve(self.gram,
                               -self._pairings(self.modes, grad_density))

    def constraint_derivative(self, phi: np.ndarray) -> np.ndarray:
        """C = <phi, d w / d y>_eps, the derivative of the constraints at
        phi: d w_aj / d y_ab = -d_b w_aj, with P symmetric and d_b skew on
        the grid, gives the per-peak blocks C[(a,j),(a,b)] = h <w_aj,
        d_b P phi>."""
        k, n = self.cfg.y.shape
        p_phi = Field(self.red.grid, self._p_apply(phi))
        cross = np.stack([self._pairings(self.modes,
                                         sp.derivative(p_phi, b).values)
                          for b in range(n)], axis=-1).reshape(k, n, n)
        return block_diag(*cross)

    def coercivity(self) -> float:
        """Invertibility constant of the projected, preconditioned quadratic
        form on E_{eps,y}: the smallest |eigenvalue|.

        The form is indefinite on E (the profile's single negative direction
        is not a translation mode and survives the projection), so the
        quantitative content of the inversion lemma is min |lambda| >= rho > 0.
        `apply_hat` also vanishes on the constraint span and off the
        spectra of real fields (H, `spectral.make_hermitian`), so
        `kernel.lanczos_smallest` runs on apply_hat(z) + COERCIVITY_SHIFT
        ((z - Hz) + Qc^T Qc z), which moves that null space to the shift;
        a pick not below the shift raises EigensolverError.
        """
        grid = self.red.grid
        l_eps = self.second_variation(self.U)

        def form(z):
            hz = sp.packed_spectrum(grid, z).copy()
            sp.make_hermitian(grid, hz)
            off = z - hz.view(float).ravel() + self.Qc.T @ (self.Qc @ z)
            return self.apply_hat(z, l_eps) + COERCIVITY_SHIFT * off

        vals, _ = lanczos_smallest(form, 2 * self.p0.size, 1)
        rho = float(abs(vals[0]))
        if rho >= COERCIVITY_SHIFT:
            raise EigensolverError(f"min |eigenvalue| {rho:.6e} on E_eps_y is "
                                   f"not below the shift {COERCIVITY_SHIFT:g}")
        return rho


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

MAX_CORRECTION_STEPS = 40
OUTER_TOL_FACTOR = 1e-10   # outer tolerance on ||dphi||_eps / eps^(N/2)
PICARD_STEPS = 3   # contraction steps before a correction's Newton steps
# the MINRES rtol below which one run gains nothing (its true residual
# stalls at 5.7e-11 to 6.2e-10 ||xi||): the forcing term of each
# contraction step and the least forcing term of a Newton step
CORRECTION_INNER_RTOL = 1e-11
# Eisenstat-Walker forcing terms of the Newton steps (choice 2)
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2.0
FORCING_MAX = 0.1


def _forcing(bnorm: float, last_bnorm: float, tau: float) -> float:
    """Forcing term eta of a Newton step whose right-hand side has norm
    `bnorm`, after a step with `last_bnorm`: Eisenstat & Walker's choice 2
    (SIAM J. Sci. Comput. 17 (1996) 16-32), capped at FORCING_MAX, with
    the floor 0.5 tau / bnorm of Kelley (Iterative Methods for Linear and
    Nonlinear Equations, SIAM 1995, sec. 6.3) that keeps the residual
    asked for above half the outer tolerance tau; never below
    CORRECTION_INNER_RTOL.

    Their safeguard max(eta, gamma eta_prev^alpha), applied when
    gamma eta_prev^alpha > 0.1, never binds here: eta_prev <= FORCING_MAX
    gives gamma eta_prev^alpha <= 0.009."""
    eta = FORCING_GAMMA * (bnorm / last_bnorm) ** FORCING_ALPHA
    if bnorm > 0.0:
        eta = max(eta, 0.5 * tau / bnorm)
    return max(min(FORCING_MAX, eta), CORRECTION_INNER_RTOL)


def solve_correction(
    red: Reducer,
    cfg: PeakConfig,
    outer_tol_factor: float = OUTER_TOL_FACTOR,
) -> ReducedSolution:
    """Fixed point phi = -L_eps^{-1}(l_eps + R'(phi)) on E_{eps,y}.

    Runs PICARD_STEPS iterations of the contraction map itself, then
    switches the increment operator to the second variation at the
    current iterate, which drives the same fixed point quadratically.
    `contraction_ratios` holds the ratio of every significant increment
    to the one before it, Newton steps included; a first ratio above 1
    can come from a contraction step that the Newton steps rescue.
    The contraction steps solve their linear systems to
    CORRECTION_INNER_RTOL; the Newton steps are inexact, to the forcing
    terms of `_forcing` on the true residual.
    Stops when ||phi_{n+1} - phi_n||_eps < outer_tol_factor * eps^(N/2);
    raises NoContractionError after MAX_CORRECTION_STEPS steps.
    """
    fr = red.frame(cfg)
    tol = outer_tol_factor * cfg.eps ** (0.5 * red.params.dim)
    # the outer tolerance in the units of the Krylov right-hand side: the
    # eps-norm carries the quadrature weight sqrt(h), packed norms do not
    tau = tol / math.sqrt(fr.h)
    l_eps = fr.second_variation(fr.U)

    phi = np.zeros(red.grid.shape)
    ratios: list[float] = []
    increments: list[float] = []
    forcing: list[float] = []
    inner: list[int] = []
    last_bnorm = math.inf       # with no previous step eta is its floor

    bad_streak = 0
    for it in range(1, MAX_CORRECTION_STEPS + 1):
        u = Field(red.grid, fr.U.values + phi)
        b = fr.krylov_rhs(fr.gradient_density(u))
        bnorm = float(np.linalg.norm(b))
        if it <= PICARD_STEPS:
            lin, eta = l_eps, CORRECTION_INNER_RTOL
        else:
            lin = fr.second_variation(u)
            eta = _forcing(bnorm, last_bnorm, tau)
        last_bnorm = bnorm
        forcing.append(eta)
        try:
            delta, its = fr.solve_constrained(b, eta, 0.01 * tau,
                                              fr.minres_budget, lin)
        except LinearSolveError:
            if ratios and ratios[-1] >= 1.0:
                raise NoContractionError(
                    "correction iterates diverged before the linear solve "
                    f"broke down (eps={cfg.eps} likely too large)",
                    ratios=ratios,
                ) from None
            raise
        inner.append(its)
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
            "correction loop hit its step cap "
            f"MAX_CORRECTION_STEPS={MAX_CORRECTION_STEPS} (last increment "
            f"{inc:.3e}, tol {tol:.3e})", ratios=ratios,
        )

    phi_norm = fr.eps_norm(phi)
    u_full = Field(red.grid, fr.U.values + phi)
    grad = fr.gradient_density(u_full)
    energy = fr.energy(u_full.values)
    return ReducedSolution(
        frame=fr,
        correction=Field(red.grid, phi),
        correction_norm=phi_norm,
        iterations=it,
        contraction_ratios=ratios,
        reduced_energy=energy,
        full_residual=float(np.abs(grad).max()),
        orthogonality=fr.orthogonality(phi, phi_norm),
        increments=increments,
        inner_iterations=inner,
        forcing=forcing,
        gradient_density=grad,
    )


def reduced_gradient_total(sol: ReducedSolution) -> np.ndarray:
    """Exact total derivative of the reduced energy j_eps at a correction,
    on the frame it was solved on: -(G - C)^T lam, with lam the multipliers
    of its gradient density, G the Gram matrix and C the constraint
    derivative (-G lam is the envelope term, C^T lam the constraints')."""
    fr = sol.frame
    t = fr.gram - fr.constraint_derivative(sol.correction.values)
    return -t.T @ fr.multipliers(sol.gradient_density)


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
# peak search
# ---------------------------------------------------------------------------

# a search that assembles more bordered systems than this is not converging
MAX_SEARCH_EVALUATIONS = 100


def _bordered(fr: _Frame, u: Field, rhs: list, rtol: float,
              atol: float) -> tuple[np.ndarray, np.ndarray]:
    """With A = I''_eps(u): the solutions d of A d = -r on E_{eps,y} for r in
    `rhs`, then r = A w_b (the tangents), and the multipliers of A d + r."""
    lin = fr.second_variation(u)
    rhs = rhs + [lin.apply_values(w) for w in fr.modes]
    d = np.stack([fr.solve_constrained(fr.krylov_rhs(r), rtol, atol,
                                       fr.minres_budget, lin)[0]
                  for r in rhs])
    return d, np.column_stack([fr.multipliers(lin.apply_values(x) + r)
                               for x, r in zip(d, rhs)])


def reduced_hessian(sol: ReducedSolution) -> np.ndarray:
    """Exact Hessian -(G - C)^T H G^-1 (G - C) of j_eps, symmetrised, at a
    critical point's correction: G the Gram matrix, C the constraint
    derivative, H the Schur complement (tangents to CORRECTION_INNER_RTOL)."""
    fr = sol.frame
    _, h = _bordered(fr, sol.solution, [], CORRECTION_INNER_RTOL, 0.0)
    t = fr.gram - fr.constraint_derivative(sol.correction.values)
    hess = -t.T @ h @ np.linalg.solve(fr.gram, t)
    return 0.5 * (hess + hess.T)


def minimize_peaks(
    red: Reducer,
    y0: PeakConfig,
) -> tuple[PeakConfig, ReducedSolution, dict]:
    """Solve grad j_eps = 0 in D_{eps,delta} from y0, a critical point of
    the reduced energy, by one Newton iteration on (phi, y).

    There the multipliers vanish, so I'_eps(U_y + phi) = 0 with
    <phi, w_y>_eps = 0 is square.  A step eliminates its blocks (Keller's
    bordering; Govaerts, SIAM 2000) at the Eisenstat-Walker forcing term:
    `_bordered` gives d0 and mu0 for I'_eps(U + phi), the tangents d_b and
    the Schur complement H; e = -H^-1 mu0, dy = (G - C)^-1 G e (G the Gram
    matrix, C `constraint_derivative`) and phi moves by dphi = d0 +
    sum_b (e_b d_b + (e_b - dy_b) w_b), projected onto E at y + s dy.  s
    clips dy to a trust radius (0.05 delta, doubled after a clipped step,
    at most delta) and is halved into D_{eps,delta}.  The search ends
    `boundary` when a halved step leaves under 1e-3 delta of slack or falls
    below 1e-13, and `converged` when |dy| < 1e-13 and ||dphi||_eps is
    under the correction's tolerance.  It starts at phi = 0, y0 and returns
    a fresh solve_correction at the found y, history-free so that one y
    gives one solution across starts, with the eigenvalues of
    reduced_hessian there; a start outside the contraction regime fails
    there (NoContractionError, or ratios above 1).  Raises IterationError
    on a singular H or past MAX_SEARCH_EVALUATIONS steps.
    """
    delta, peaks = y0.delta, red.potential.peaks
    k, n = y0.y.shape
    floor, boundary_tol = 1e-13, 1e-3 * delta
    count = {"evaluations": 0, "newton_steps": 0, "rejected": 0}

    def admissible(y) -> bool:
        return y0.with_y(y.reshape(k, n)).admissibility(red.potential)[0]

    def slack(y) -> float:
        return float(delta - np.linalg.norm(y.reshape(k, n) - peaks,
                                            axis=1).max())

    fr, phi = red.frame(y0), np.zeros(red.grid.shape)
    tol = OUTER_TOL_FACTOR * y0.eps ** (0.5 * red.params.dim)
    tau = tol / math.sqrt(fr.h)         # in the units of the Krylov rhs
    y, radius, last_bnorm = y0.y.ravel().copy(), 0.05 * delta, math.inf
    termination = None
    while termination is None:
        count["evaluations"] += 1
        u = Field(red.grid, fr.U.values + phi)
        g = fr.gradient_density(u)
        resid = float(np.abs(g).max())
        if count["evaluations"] > MAX_SEARCH_EVALUATIONS:
            raise IterationError(
                f"peak search ran past {MAX_SEARCH_EVALUATIONS} Newton steps "
                f"(sup|I'(u)| = {resid:.3e})",
                residual=resid, iterations=count["evaluations"],
            )
        bnorm = float(np.linalg.norm(fr.krylov_rhs(g)))
        eta, last_bnorm = _forcing(bnorm, last_bnorm, tau), bnorm
        d, mu = _bordered(fr, u, [g], eta, 0.01 * tau)
        try:
            e = np.linalg.solve(mu[:, 1:], -mu[:, 0])
        except np.linalg.LinAlgError:
            raise IterationError(
                "singular Schur complement of the bordered Newton system: "
                f"eigenvalues {np.linalg.eigvals(mu[:, 1:]).tolist()}",
                residual=resid, iterations=count["evaluations"],
            ) from None
        dy = np.linalg.solve(fr.gram - fr.constraint_derivative(phi),
                             fr.gram @ e)
        dphi = d[0] + np.tensordot(e, d[1:], 1) + np.tensordot(e - dy,
                                                              fr.modes, 1)
        del d, mu, u        # one frame's fields alive at a time
        norm = float(np.abs(dy).max())
        if norm < floor and fr.eps_norm(dphi) < tol:
            termination = "converged"
            break
        shortened = norm > radius
        step = radius / norm if shortened else 1.0
        halved = False
        while not admissible(y + step * dy):
            step *= 0.5
            count["rejected"] += 1
            shortened = halved = True
            if step * norm < floor:
                termination = "boundary"
                break
        if termination is not None:
            break
        y = y + step * dy
        fr = red.frame(y0.with_y(y.reshape(k, n)))
        phi = fr.project_field(phi + step * dphi)
        count["newton_steps"] += 1
        if halved and slack(y) < boundary_tol:
            # the critical point lies beyond D: each further step would
            # only halve the gap to the boundary
            termination = "boundary"
        elif shortened:
            radius = min(2.0 * radius, delta)

    best = y0.with_y(y.reshape(k, n))
    boundary_slack = slack(y)
    if boundary_slack < boundary_tol:
        warnings.warn(
            "the peak search ended on the D_eps_delta boundary (slack "
            f"{boundary_slack:.2e}); no interior critical point confirmed",
            BoundaryMinimizerWarning, stacklevel=2,
        )
    del fr, phi, g, dphi    # one frame alive at a time, as in the loop
    final = solve_correction(red, best)
    return best, final, {
        **count,
        "boundary_slack": boundary_slack,
        "termination": termination,
        "grad_norm": float(np.abs(reduced_gradient_total(final)).max()),
        "hessian_eigenvalues": np.linalg.eigvalsh(
            reduced_hessian(final)).tolist(),
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# the sup of a record's orthogonality below which it can pass
ORTHOGONALITY_TOL = 1e-8


def reduce_at(
    red: Reducer,
    cfg0: PeakConfig,
    minimize: bool = True,
) -> tuple[dict, ReducedSolution]:
    """One step of the reduction at cfg0.eps: the peak search from cfg0
    (or the correction at the fixed y of cfg0 when `minimize` is off).

    Returns the per-eps record and the solution it describes.  The
    record's `search` block is the search's info dict, empty without a
    search.  Its `passed` holds when the orthogonality is below
    ORTHOGONALITY_TOL, every contraction ratio is below 1 and a search
    ended `converged` with every Hessian eigenvalue positive.
    """
    if minimize:
        best, sol, info = minimize_peaks(red, cfg0)
    else:
        best, info = cfg0, {}
        sol = solve_correction(red, cfg0)
    eps = cfg0.eps
    drift = np.linalg.norm(best.y - red.potential.peaks, axis=1)
    record = {
        "eps": eps,
        "y": best.y.tolist(),
        "drift": drift.tolist(),
        "drift_over_eps": (drift / eps).tolist(),
        "correction_norm": sol.correction_norm,
        "reduced_energy": sol.reduced_energy,
        "energy_over_epsN": sol.reduced_energy / eps**red.params.dim,
        "orthogonality": float(np.abs(sol.orthogonality).max()),
        "contraction_ratios": sol.contraction_ratios,
        "iterations": sol.iterations,
        "full_residual": sol.full_residual,
        "search": info,
    }
    record["passed"] = bool(
        record["orthogonality"] < ORTHOGONALITY_TOL
        and all(r < 1.0 for r in record["contraction_ratios"])
        and (not minimize or (
            info["termination"] == "converged"
            and all(ev > 0 for ev in info["hessian_eigenvalues"])))
    )
    return record, sol


def sweep_reduction(
    red: Reducer,
    starts: list[PeakConfig],
    minimize: bool = True,
) -> list[dict]:
    """reduce_at from each configuration of `starts`, in order (a sweep
    runs the largest eps first); returns the records."""
    return [reduce_at(red, cfg, minimize)[0] for cfg in starts]
