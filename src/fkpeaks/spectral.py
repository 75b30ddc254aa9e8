"""Periodic pseudospectral calculus on [-L, L)^N.

Conventions:
  - uniform grid x_m = -L + m*h, h = 2L/M, m = 0..M-1, per axis;
  - discrete wavenumbers xi = (pi/L)*k with k in {-M/2, ..., M/2-1};
  - every field is real, so transforms are real FFTs and a spectrum is
    the half spectrum: the full FFT layout on every axis but the last,
    which keeps only k = 0..M/2 (`GridSpec.wavenumbers(axis)`); the
    omitted modes are the complex conjugates of the kept ones, and every
    grid multiplier (`xi_sq`, `symbol`, `nyquist_mask`) lives on the same
    half-size array;
  - Parseval sums over the half spectrum weigh each mode by the number of
    full-spectrum modes it stands for (`GridSpec.hermitian_weights`): 1 on
    the k = 0 and k = M/2 columns of the last axis, 2 elsewhere;
  - the fractional Laplacian acts as the Fourier multiplier |xi|^(2s),
    so plane waves at grid wavenumbers are exact eigenfunctions;
  - quadrature is the rectangle rule h^N * sum(values), spectrally
    accurate for smooth periodic integrands;
  - the Nyquist mode is zeroed in odd-order operations (first
    derivatives, translations) to keep real fields real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .errors import (
    AdmissibilityError,
    GridMismatchError,
    NonFiniteFieldError,
    ParameterError,
)

def _fftn(a):
    return sfft.rfftn(a)


def _ifftn(a):
    # the last axis has M/2 + 1 modes with M even, so irfftn's default
    # output length M is the grid's
    return sfft.irfftn(a)


@dataclass(frozen=True)
class GridSpec:
    """Periodic tensor grid on the box [-half_width, half_width)^dim."""

    dim: int
    half_width: float
    points_per_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.half_width <= 0:
            raise ParameterError(f"half_width must be positive, got {self.half_width}")
        m = self.points_per_dim
        if m < 16 or m % 2 != 0:
            raise ParameterError(
                f"points_per_dim must be an even integer >= 16, got {m}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis."""
        m = self.points_per_dim
        return -self.half_width + self.spacing * np.arange(m)

    @cached_property
    def wavenumbers_axis(self) -> np.ndarray:
        """Signed wavenumbers xi = (pi/L) k along one axis, full FFT layout."""
        m = self.points_per_dim
        return 2.0 * np.pi * sfft.fftfreq(m, d=self.spacing)

    @cached_property
    def wavenumbers_half(self) -> np.ndarray:
        """Wavenumbers xi = (pi/L) k, k = 0..M/2, of the last axis."""
        return 2.0 * np.pi * sfft.rfftfreq(self.points_per_dim, d=self.spacing)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Wavenumbers along `axis` in the half-spectrum layout."""
        if axis == self.dim - 1:
            return self.wavenumbers_half
        return self.wavenumbers_axis

    @cached_property
    def hermitian_weights(self) -> np.ndarray:
        """Parseval weights along the last axis: the number of full-spectrum
        modes each half-spectrum column stands for."""
        w = np.full(self.points_per_dim // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinate arrays, one per axis."""
        return np.meshgrid(*([self.axis] * self.dim), indexing="ij")

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (M^dim, dim) array."""
        return np.stack([c.ravel() for c in self.coords], axis=-1)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum wavenumber grid."""
        axes = np.meshgrid(*(self.wavenumbers(ax) for ax in range(self.dim)),
                           indexing="ij")
        return sum(a**2 for a in axes)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask of modes containing a Nyquist component."""
        # k = M/2 sits at index M/2 in both layouts
        m = self.points_per_dim
        masks = np.meshgrid(*(np.arange(self.wavenumbers(ax).size) == m // 2
                              for ax in range(self.dim)), indexing="ij")
        return np.logical_or.reduce(masks)

    @cached_property
    def _symbols(self) -> dict[float, np.ndarray]:
        return {}

    def symbol(self, s: float) -> np.ndarray:
        """Multiplier |xi|^(2s); the zero mode maps to zero.  Computed once
        per s and shared read-only."""
        s = float(s)
        if s not in self._symbols:
            sym = self.xi_sq ** s if s != 1.0 else self.xi_sq
            sym.setflags(write=False)
            self._symbols[s] = sym
        return self._symbols[s]

    def radii(self) -> np.ndarray:
        """|x| over the grid."""
        return np.sqrt(sum(c**2 for c in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.dim == other.dim
            and self.half_width == other.half_width
            and self.points_per_dim == other.points_per_dim
        )

    def __hash__(self):
        return hash((self.dim, self.half_width, self.points_per_dim))


class Field:
    """Real-valued grid function with a lazily cached half spectrum and
    fractional Laplacian.

    Values are frozen after construction (shared safely across threads);
    derived fields are new objects, so the caches never go stale.
    """

    __slots__ = ("grid", "values", "_spectral", "_flap")

    def __init__(self, grid: GridSpec, values: np.ndarray, _spectral=None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("field values contain NaN or Inf")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._spectral = _spectral
        self._flap = None  # (s, (-Delta)^s of this field)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        return cls(grid, fn(*grid.coords))

    @classmethod
    def from_spectral(cls, grid: GridSpec, coeffs: np.ndarray) -> "Field":
        vals = _ifftn(coeffs)
        return cls(grid, vals, _spectral=np.asarray(coeffs, dtype=complex))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    def spectral(self) -> np.ndarray:
        """The half spectrum rfftn(values) (see the module conventions)."""
        if self._spectral is None:
            self._spectral = _fftn(self.values)
        return self._spectral

    def __repr__(self):
        g = self.grid
        return (f"Field(dim={g.dim}, M={g.points_per_dim}, L={g.half_width}, "
                f"max={self.values.max():.4g})")


@dataclass(frozen=True)
class ProblemParams:
    """Coefficients (N, s, p, a, b) of the Kirchhoff equation."""

    dim: int
    s: float
    p: float
    a: float
    b: float
    validation_mode: bool = False

    def __post_init__(self):
        n, s, p = self.dim, self.s, self.p
        if not (0.0 < s <= 1.0):
            raise ParameterError(f"s must lie in (0, 1], got {s}")
        if s == 1.0 and not self.validation_mode:
            raise ParameterError(
                "s = 1 is the classical limit, permitted only with "
                "validation_mode=True"
            )
        if self.a <= 0:
            raise ParameterError(f"a must be positive, got {self.a}")
        if self.b < 0:
            raise ParameterError(f"b must be nonnegative, got {self.b}")
        if self.b > 0 and s < 1.0:
            if not (4.0 * s > n and 2.0 * s < n):
                raise AdmissibilityError(
                    f"b > 0 requires 2s < N < 4s; got N={n}, s={s}"
                )
        if p <= 1.0:
            raise ParameterError(
                f"p must exceed 1 and stay below the subcritical window "
                f"2N/(N-2s) - 1; got p={p}"
            )
        if 2.0 * s < n:
            p_max = 2.0 * n / (n - 2.0 * s) - 1.0
            if p >= p_max:
                raise ParameterError(
                    f"p={p} violates the subcritical window "
                    f"1 < p < 2N/(N-2s) - 1 = {p_max:.6g} for N={n}, s={s}"
                )

    @property
    def critical_exponent(self) -> float:
        """Upper bound of the admissible p window (inf when 2s >= N)."""
        if 2.0 * self.s >= self.dim:
            return math.inf
        return 2.0 * self.dim / (self.dim - 2.0 * self.s) - 1.0


def _check_field(f: Field) -> None:
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteFieldError("field values contain NaN or Inf")


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise ParameterError(f"s must lie in (0, 1], got {s}")


def _same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def fractional_laplacian(f: Field, s: float) -> Field:
    """(-Delta)^s f via the |xi|^(2s) multiplier.  Memoised on f for the
    last s asked, so the residual and the second variation at one field
    share one product."""
    _check_field(f)
    _check_s(s)
    s = float(s)
    if f._flap is None or f._flap[0] != s:
        coeffs = f.spectral() * f.grid.symbol(s)
        f._flap = (s, Field.from_spectral(f.grid, coeffs))
    return f._flap[1]


def half_laplacian(f: Field, s: float) -> Field:
    """(-Delta)^(s/2) f, i.e. the |xi|^s multiplier."""
    _check_field(f)
    _check_s(s)
    coeffs = f.spectral() * f.grid.symbol(0.5 * s)
    return Field.from_spectral(f.grid, coeffs)


def integrate(f: Field) -> float:
    """Rectangle-rule integral h^N * sum(values)."""
    _check_field(f)
    return float(f.grid.spacing ** f.grid.dim * f.values.sum())


def inner(f: Field, g: Field) -> float:
    """L2 inner product on the box."""
    _same_grid(f, g)
    return float(f.grid.spacing ** f.grid.dim * np.vdot(f.values, g.values).real)


def lq_norm(f: Field, q: float) -> float:
    """L^q norm by rectangle rule."""
    h = f.grid.spacing ** f.grid.dim
    return float((h * np.abs(f.values) ** q).sum() ** (1.0 / q))


def seminorm_sq(f: Field, s: float) -> float:
    """||(-Delta)^(s/2) f||_2^2 by Parseval on the discrete modes."""
    _check_s(s)
    return seminorm_inner(f.grid, s, f.spectral())


def seminorm_inner(grid: GridSpec, s: float, uhat: np.ndarray,
                   vhat: np.ndarray | None = None) -> float:
    """int (-Delta)^(s/2) u (-Delta)^(s/2) v by Parseval from the
    half spectra uhat, vhat; vhat = None gives ||(-Delta)^(s/2) u||^2."""
    # h^N/M^N normalisation: |fhat|^2 * (2L)^N / M^(2N); a mode and its
    # omitted conjugate add up to twice the real part of either
    w = grid.spacing ** grid.dim / grid.points_per_dim ** grid.dim
    prod = np.abs(uhat) ** 2 if vhat is None else (uhat.conj() * vhat).real
    return float(w * (grid.symbol(s) * prod * grid.hermitian_weights).sum())


def derivative(f: Field, axis: int) -> Field:
    """Spectral partial derivative; the Nyquist mode is zeroed."""
    _check_field(f)
    g = f.grid
    if not 0 <= axis < g.dim:
        raise ParameterError(f"axis {axis} out of range for dim {g.dim}")
    xi = g.wavenumbers(axis).copy()
    xi[g.points_per_dim // 2] = 0.0
    shape = [1] * g.dim
    shape[axis] = xi.size
    coeffs = f.spectral() * (1j * xi.reshape(shape))
    return Field.from_spectral(g, coeffs)


def translate(f: Field, shift) -> Field:
    """Spectral phase-shift translation f(. - shift).

    Exact for band-limited fields; the Nyquist mode gets the symmetric
    real factor cos(xi_N * shift).
    """
    _check_field(f)
    g = f.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (g.dim,):
        raise GridMismatchError(f"shift must have {g.dim} components")
    coeffs = f.spectral().copy()
    m = g.points_per_dim
    for axis in range(g.dim):
        xi = g.wavenumbers(axis)
        phase = np.exp(-1j * xi * shift[axis])
        phase[m // 2] = math.cos(xi[m // 2] * shift[axis])
        sh = [1] * g.dim
        sh[axis] = xi.size
        coeffs *= phase.reshape(sh)
    return Field.from_spectral(g, coeffs)


def interpolate(f: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    points: (..., dim) array.  Cost O(P * M * dim); fine for boundary
    quadrature, not meant for full-grid resampling.
    """
    _check_field(f)
    g = f.grid
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != g.dim:
        raise GridMismatchError(f"points must have {g.dim} components")
    flat = pts.reshape(-1, g.dim)
    # the real part of the half-spectrum sum, each mode weighted by the
    # full-spectrum modes it stands for
    coeffs = f.spectral() * g.hermitian_weights / g.points_per_dim ** g.dim
    m = g.points_per_dim
    out = coeffs
    for axis in range(g.dim):
        xi = g.wavenumbers(axis)
        # FFT indices correspond to x + L, not x
        offset = flat[:, axis] + g.half_width
        basis = np.exp(1j * np.outer(offset, xi))
        # symmetric Nyquist treatment: cos instead of e^{i xi x}
        basis[:, m // 2] = np.cos(offset * xi[m // 2])
        if axis == 0:
            out = np.einsum("pm,m...->p...", basis, out)
        else:
            out = np.einsum("pm,pm...->p...", basis, out)
    return out.real.reshape(pts.shape[:-1])


def pos_power(values: np.ndarray, p: float) -> np.ndarray:
    """max(u, 0)^p; the nonlinearity used in the energy calculus."""
    return np.maximum(values, 0.0) ** p


def random_band_limited(grid: GridSpec, cutoff: float, seed,
                        amplitude: float = 1.0) -> Field:
    """Seeded random real field supported on modes with |xi| <= cutoff."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    coeffs = _fftn(vals)
    mask = grid.xi_sq <= cutoff**2
    coeffs = np.where(mask, coeffs, 0.0)
    coeffs[grid.nyquist_mask] = 0.0
    out = _ifftn(coeffs)
    peak = np.abs(out).max()
    if peak > 0:
        out = out * (amplitude / peak)
    return Field(grid, out)
