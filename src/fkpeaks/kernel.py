"""Second variation of the Kirchhoff functional and its kernel.

L phi = A (-Delta)^s phi + c phi - p U^(p-1) phi
        + 2 b (int (-Delta)^(s/2) U . (-Delta)^(s/2) phi) (-Delta)^s U

with A the full Kirchhoff coefficient, c the potential (a constant or a
grid array) and b the weight of the nonlocal rank-one term.  For the
unit-potential ground state this is L+ (c = 1, A = a + b ||(-Delta)^(s/2)
U||^2), and nondegeneracy means its kernel is exactly span{d_j U}; the
reduction uses the same operator as L_eps, with c = V and the weight
b eps^(4s-N).

The kernel comes from Lanczos on the n+1 lowest eigenvalues with a
magnitude certificate; this serves operators with few negative
eigenvalues such as L+ (Morse index 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import linalg as sla

from . import spectral as sp
from .errors import EigensolverError, GridMismatchError, ParameterError
from .groundstate import KirchhoffGroundState, SystemSolution
from .spectral import Field, GridSpec

KERNEL_THRESHOLD = 1e-4  # |lambda| below this counts as kernel, at default grids


@dataclass
class LinearizedOperator:
    """Matrix-free symmetric action of L on the profile's grid."""

    profile: Field
    s: float
    p: float
    coefficient: float       # A = bulk Kirchhoff coefficient
    b: float                 # weight of the rank-one term
    c: float | np.ndarray    # potential: a value or grid values

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ParameterError(f"s must lie in (0, 1], got {self.s}")
        grid = self.profile.grid
        self.flU = sp.fractional_laplacian(self.profile, self.s).values
        self._local = self.c - self.p * sp.pos_power(self.profile.values,
                                                     self.p - 1.0)
        self._h = grid.spacing**grid.dim

    @property
    def grid(self) -> GridSpec:
        return self.profile.grid

    @classmethod
    def from_kirchhoff(cls, ground: KirchhoffGroundState) -> "LinearizedOperator":
        pr = ground.params
        return cls(
            profile=ground.profile, s=pr.s, p=pr.p,
            coefficient=pr.a + pr.b * ground.seminorm_sq,
            b=pr.b, c=ground.c,
        )

    @classmethod
    def from_system_peak(cls, system: SystemSolution, i: int) -> "LinearizedOperator":
        pr = system.params
        return cls(
            profile=system.profiles[i], s=pr.s, p=pr.p,
            coefficient=system.kirchhoff_coefficient,
            b=pr.b, c=system.peak_values[i],
        )

    def apply_values(self, vals: np.ndarray) -> np.ndarray:
        """L v on grid values (2 transforms)."""
        sym = self.grid.symbol(self.s)
        out = self.coefficient * sp._ifftn(sym * sp._fftn(vals))
        return self._add_lower_order(out, vals)

    def apply_conjugated(self, vals: np.ndarray, m: np.ndarray) -> np.ndarray:
        """m L m v for a real Fourier multiplier m (4 transforms)."""
        vhat = sp._fftn(vals)
        u = sp._ifftn(m * vhat)
        g = self._add_lower_order(np.zeros_like(u), u)
        diag = self.coefficient * self.grid.symbol(self.s) * m * vhat
        return sp._ifftn(diag * m + m * sp._fftn(g))

    def _add_lower_order(self, out: np.ndarray,
                         vals: np.ndarray) -> np.ndarray:
        """out += (c - p U^(p-1)) v + 2 b <(-D)^s U, v> (-D)^s U."""
        out += self._local * vals
        if self.b != 0.0:
            # <(-D)^(s/2)U, (-D)^(s/2)phi> = <(-D)^s U, phi>: one inner
            # product per application
            inner = self._h * float((self.flU * vals).sum())
            out += 2.0 * self.b * inner * self.flU
        return out


def apply_Lplus(op: LinearizedOperator, phi: Field) -> Field:
    """Evaluate the four-term action of L+ spectrally."""
    if phi.grid != op.grid:
        raise GridMismatchError("phi lives on a different grid than the profile")
    return Field(op.grid, op.apply_values(phi.values))


def translation_modes(op: LinearizedOperator) -> list[Field]:
    """Spectral derivatives d_j U, the expected kernel directions."""
    return [sp.derivative(op.profile, j) for j in range(op.grid.dim)]


def _dense_matrix(op: LinearizedOperator) -> np.ndarray:
    npts = op.grid.points_per_dim**op.grid.dim
    mat = np.empty((npts, npts))
    e = np.zeros(op.grid.shape)
    flat = e.ravel()
    for col in range(npts):
        flat[col] = 1.0
        mat[:, col] = op.apply_values(e).ravel()
        flat[col] = 0.0
    return 0.5 * (mat + mat.T)


def smallest_magnitude(vals: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n smallest |lambda| among the k lowest eigenvalues.

    Magnitude certificate: every eigenvalue not computed lies at or above
    max(vals), so the pick is the true n smallest in magnitude only when
    no picked |lambda| exceeds max(vals).  Raises EigensolverError when
    one does: the smallest magnitudes may then lie outside the block.
    """
    order = np.argsort(np.abs(vals), kind="stable")[:n]
    top = float(np.max(vals))
    if np.any(np.abs(vals[order]) > top):
        raise EigensolverError(
            f"smallest |eigenvalue| not certified: picked {vals[order].tolist()}"
            f" but the largest computed eigenvalue is {top:.6e}",
        )
    return order


def kernel_spectrum(op: LinearizedOperator, n: int,
                    method: str = "iterative") -> list[tuple[float, Field]]:
    """The n smallest-magnitude eigenpairs of the discretized operator.

    `iterative` runs Lanczos (ARPACK) on the n+1 lowest eigenvalues with a
    magnitude certificate (`smallest_magnitude`); it serves operators
    with few negative eigenvalues such as L+, whose kernel and single
    negative direction lie among them.  `dense` assembles the matrix
    column by column and diagonalises it (cross-validation oracle on
    small grids).  Eigenfields are L2-normalised.
    """
    if n < 1 or n > 2 * op.grid.dim + 4:
        raise ParameterError(f"n must lie in [1, 2N+4], got {n}")
    npts = op.grid.points_per_dim**op.grid.dim
    shape = op.grid.shape
    h = op.grid.spacing**op.grid.dim

    if method == "dense":
        if npts > 6000:
            raise ParameterError("dense spectrum limited to small grids")
        vals, vecs = np.linalg.eigh(_dense_matrix(op))
        order = np.argsort(np.abs(vals))[:n]
    elif method == "iterative":
        def matvec(flat):
            return op.apply_values(flat.reshape(shape)).ravel()

        a_op = sla.LinearOperator((npts, npts), matvec=matvec, dtype=float)
        v0 = np.cos(np.arange(npts) * 0.37) + 0.5  # fixed deterministic start
        # A Krylov space from one start sees a repeated eigenvalue such as
        # the N-fold kernel only through rounding; a subspace that grows
        # with n keeps the apply count from swinging with roundoff.
        ncv = min(npts - 1, max(20, 5 * (n + 1)))
        try:
            vals, vecs = sla.eigsh(a_op, k=n + 1, which="SA", v0=v0,
                                   tol=1e-10, ncv=ncv)
        except sla.ArpackNoConvergence as exc:
            ritz = []
            if exc.eigenvalues is not None and exc.eigenvectors is not None:
                for lam, vec in zip(exc.eigenvalues, exc.eigenvectors.T):
                    r = np.linalg.norm(matvec(vec) - lam * vec)
                    ritz.append(float(r))
            raise EigensolverError(
                f"Lanczos stagnated ({exc})", ritz_residuals=ritz,
            ) from exc
        order = smallest_magnitude(vals, n)
    else:
        raise ParameterError(f"unknown method {method!r}")

    pairs = []
    for idx in order:
        v = vecs[:, idx].reshape(shape)
        v = v / np.sqrt(h * (v**2).sum())
        pairs.append((float(vals[idx]), Field(op.grid, v)))
    return pairs


def subspace_cosines(op: LinearizedOperator,
                     fields: list[Field]) -> list[float]:
    """Cosine of each field against span{d_j U} (orthogonal projection)."""
    modes = translation_modes(op)
    basis = np.stack([m.values.ravel() for m in modes])
    q, _ = np.linalg.qr(basis.T)
    out = []
    for f in fields:
        v = f.values.ravel()
        nv = np.linalg.norm(v)
        out.append(float(np.linalg.norm(q.T @ v) / nv) if nv > 0 else 0.0)
    return out


def kernel_report(op: LinearizedOperator, n: int,
                  threshold: float = KERNEL_THRESHOLD,
                  method: str = "iterative") -> dict:
    """Spectrum summary: kernel count/alignment, gap, Morse-index count,
    and the residual ||L v - lambda v|| / ||v|| of every returned pair.

    The negative-eigenvalue count is a diagnostic only.
    """
    pairs = kernel_spectrum(op, n, method=method)
    vals = [lam for lam, _ in pairs]
    residuals = [
        float(np.linalg.norm(op.apply_values(f.values) - lam * f.values)
              / np.linalg.norm(f.values))
        for lam, f in pairs
    ]
    kernel_pairs = [(lam, f) for lam, f in pairs if abs(lam) < threshold]
    cosines = subspace_cosines(op, [f for _, f in kernel_pairs])
    absvals = sorted(abs(v) for v in vals)
    kdim = len(kernel_pairs)
    gap_ratio = (absvals[kdim] / absvals[kdim - 1]
                 if 0 < kdim < len(absvals) else float("inf"))
    return {
        "eigenvalues": vals,
        "threshold": threshold,
        "kernel_dim": kdim,
        "kernel_cosines": cosines,
        "gap_ratio": gap_ratio,
        "negative_count": sum(1 for v in vals if v < -threshold),
        "pair_residuals": residuals,
    }
