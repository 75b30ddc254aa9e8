"""Reference calculus for the benchmark's correctness checks.

A small numpy implementation of the periodic pseudospectral calculus,
written apart from the package so that a check never trusts the operators
it is checking.  Fields are plain arrays on the grid
x_m = -L + m h, h = 2L/M per axis; wavenumbers are xi = (pi/L) k in FFT
layout.  It uses numpy.fft, where the package uses scipy.fft.

`self_test()` checks the calculus against closed forms before any
workload check relies on it.
"""

from __future__ import annotations

import math

import numpy as np


class Grid:
    """Periodic tensor grid on [-L, L)^dim with M points per axis."""

    def __init__(self, dim: int, half_width: float, points: int):
        self.dim = dim
        self.L = float(half_width)
        self.M = int(points)
        self.h = 2.0 * self.L / self.M
        self.cell = self.h ** dim
        self.axis = -self.L + self.h * np.arange(self.M)
        self.coords = np.meshgrid(*([self.axis] * dim), indexing="ij")
        k = np.fft.fftfreq(self.M, d=1.0 / self.M)          # integers
        self.xi_axis = (math.pi / self.L) * k
        xis = np.meshgrid(*([self.xi_axis] * dim), indexing="ij")
        self.xi_sq = sum(x * x for x in xis)

    def symbol(self, s: float) -> np.ndarray:
        """The |xi|^(2s) multiplier."""
        return self.xi_sq ** s

    def frac_lap(self, u: np.ndarray, s: float) -> np.ndarray:
        """(-Delta)^s u."""
        return np.fft.ifftn(self.symbol(s) * np.fft.fftn(u)).real

    def seminorm_sq(self, u: np.ndarray, s: float) -> float:
        """||(-Delta)^(s/2) u||^2 by Parseval."""
        uh = np.fft.fftn(u)
        w = self.cell / self.M ** self.dim
        return float(w * (self.symbol(s) * np.abs(uh) ** 2).sum())

    def integral(self, f: np.ndarray) -> float:
        return float(self.cell * f.sum())

    def l2(self, f: np.ndarray) -> float:
        return math.sqrt(self.integral(f * f))

    def derivative(self, u: np.ndarray, axis: int) -> np.ndarray:
        """Spectral d/dx_axis with the Nyquist mode zeroed: the spectral
        translation mode of u."""
        xi = self.xi_axis.copy()
        xi[self.M // 2] = 0.0
        shape = [1] * self.dim
        shape[axis] = self.M
        return np.fft.ifftn(1j * xi.reshape(shape) * np.fft.fftn(u)).real

    def translate(self, u: np.ndarray, shift) -> np.ndarray:
        """u(. - shift) by phase shift; the Nyquist mode gets cos."""
        uh = np.fft.fftn(u)
        for axis in range(self.dim):
            ph = np.exp(-1j * self.xi_axis * shift[axis])
            ph[self.M // 2] = math.cos(self.xi_axis[self.M // 2] * shift[axis])
            shape = [1] * self.dim
            shape[axis] = self.M
            uh = uh * ph.reshape(shape)
        return np.fft.ifftn(uh).real

    def rescaled(self, beta: float) -> "Grid":
        """Grid of half-width L/beta and the same point count."""
        return Grid(self.dim, self.L / beta, self.M)


def pos(u: np.ndarray, p: float) -> np.ndarray:
    return np.maximum(u, 0.0) ** p


def kirchhoff_residual(g: Grid, u: np.ndarray, V, eps: float, s: float,
                       p: float, a: float, b: float) -> np.ndarray:
    """(eps^2s a + eps^(4s-N) b ||(-Delta)^(s/2)u||^2)(-Delta)^s u + V u - u_+^p."""
    coef = eps ** (2 * s) * a + eps ** (4 * s - g.dim) * b * g.seminorm_sq(u, s)
    return coef * g.frac_lap(u, s) + V * u - pos(u, p)


def profile_residual(g: Grid, w: np.ndarray, c1: float, c0: float,
                     s: float, p: float) -> np.ndarray:
    """c1 (-Delta)^s w + c0 w - w_+^p (frozen coefficient)."""
    return c1 * g.frac_lap(w, s) + c0 * w - pos(w, p)


def lplus(g: Grid, U: np.ndarray, phi: np.ndarray, A: float, b: float,
          c: float, s: float, p: float) -> np.ndarray:
    """Four-term action of L+ at U:
    A (-D)^s phi + c phi - p U^(p-1) phi + 2b <(-D)^s U, phi> (-D)^s U."""
    flu = g.frac_lap(U, s)
    rank1 = 2.0 * b * g.integral(flu * phi)
    return (A * g.frac_lap(phi, s) + c * phi - p * pos(U, p - 1.0) * phi
            + rank1 * flu)


def eps_inner(g: Grid, u: np.ndarray, v: np.ndarray, V, eps: float,
              s: float, a: float) -> float:
    """<u, v>_eps = eps^2s a <(-D)^(s/2)u, (-D)^(s/2)v> + int V u v."""
    uh, vh = np.fft.fftn(u), np.fft.fftn(v)
    w = g.cell / g.M ** g.dim
    semi = float(w * (g.symbol(s) * (uh.conj() * vh)).sum().real)
    return eps ** (2 * s) * a * semi + g.integral(V * u * v)


def energy(g: Grid, u: np.ndarray, V, eps: float, s: float, p: float,
           a: float, b: float) -> float:
    """I_eps(u) = 1/2 <u,u>_eps + (b/4) eps^(4s-N) S(u)^2 - int u_+^(p+1)/(p+1)."""
    S = g.seminorm_sq(u, s)
    return (0.5 * eps_inner(g, u, u, V, eps, s, a)
            + 0.25 * b * eps ** (4 * s - g.dim) * S * S
            - g.integral(pos(u, p + 1.0)) / (p + 1.0))


def span_residual(g: Grid, r: np.ndarray, basis: list[np.ndarray]) -> float:
    """L2 norm of the part of r outside span(basis)."""
    B = np.stack([v.ravel() for v in basis], axis=1)
    coef, *_ = np.linalg.lstsq(B, r.ravel(), rcond=None)
    return g.l2((r.ravel() - B @ coef).reshape(r.shape))


def self_test() -> list[str]:
    """Closed-form checks of the calculus; returns the failures."""
    fails = []
    # plane waves at grid wavenumbers are exact eigenfunctions
    g = Grid(2, 3.0, 32)
    x, y = g.coords
    k1, k2 = 3 * math.pi / g.L, 5 * math.pi / g.L
    wave = np.cos(k1 * x) * np.sin(k2 * y)
    for s in (0.4, 0.75, 1.0):
        lam = (k1 * k1 + k2 * k2) ** s
        err = np.abs(g.frac_lap(wave, s) - lam * wave).max() / lam
        if err > 1e-12:
            fails.append(f"plane wave s={s}: relative error {err:.1e}")
    semi = g.seminorm_sq(wave, 0.75)
    want = (k1 * k1 + k2 * k2) ** 0.75 * g.integral(wave * wave)
    if abs(semi - want) > 1e-12 * want:
        fails.append(f"Parseval seminorm off by {abs(semi - want):.1e}")
    dx = g.derivative(wave, 0)
    if np.abs(dx + k1 * np.sin(k1 * x) * np.sin(k2 * y)).max() > 1e-11 * k1:
        fails.append("spectral derivative of a plane wave")
    # sqrt(2) sech x solves -u'' + u = u^3 (s=1, p=3, b=0, eps=1, V=1)
    g1 = Grid(1, 40.0, 1024)
    u = math.sqrt(2.0) / np.cosh(g1.axis)
    res = kirchhoff_residual(g1, u, 1.0, 1.0, 1.0, 3.0, 1.0, 0.0)
    if np.abs(res).max() > 1e-12:
        fails.append(f"sech soliton residual {np.abs(res).max():.1e}")
    # its translation mode is annihilated by L+ (b=0, A=1, c=1)
    du = g1.derivative(u, 0)
    kern = lplus(g1, u, du, 1.0, 0.0, 1.0, 1.0, 3.0)
    if np.abs(kern).max() > 1e-11:
        fails.append(f"L+ on the sech translation mode {np.abs(kern).max():.1e}")
    # translation by whole grid steps is a roll
    sh = g1.translate(u, [7 * g1.h])
    if np.abs(sh - np.roll(u, 7)).max() > 1e-13:
        fails.append("spectral translation by grid steps")
    return fails
