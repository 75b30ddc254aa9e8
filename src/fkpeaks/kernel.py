"""Second variation of the Kirchhoff functional and its kernel.

L phi = A (-Delta)^s phi + c phi - p U^(p-1) phi
        + 2 b (int (-Delta)^(s/2) U . (-Delta)^(s/2) phi) (-Delta)^s U

with A the full Kirchhoff coefficient, c the potential (a constant or a
grid array) and b the weight of the nonlocal rank-one term.  For the
unit-potential ground state this is L+ (c = 1, A = a + b ||(-Delta)^(s/2)
U||^2), and nondegeneracy means its kernel is exactly span{d_j U}; the
reduction uses the same operator as L_eps, with c = V and the weight
b eps^(4s-N).  It acts on grid values only; the reduction's preconditioned
apply reads its local and rank-one terms (`add_lower_order`).

Every spectral certificate comes from one Lanczos on the n+1 lowest
eigenvalues with a magnitude certificate (`lanczos_smallest`): the
kernel of L+ (Morse index 1), and the reduction's inversion constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import linalg as sla

from . import spectral as sp
from .errors import EigensolverError, ParameterError
from .groundstate import KirchhoffGroundState
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

    def apply_values(self, vals: np.ndarray) -> np.ndarray:
        """L v on grid values (2 transforms)."""
        sym = self.grid.symbol(self.s)
        out = self.coefficient * sp._ifftn(sym * sp._fftn(vals))
        return self.add_lower_order(out, vals)

    def add_lower_order(self, out: np.ndarray,
                        vals: np.ndarray) -> np.ndarray:
        """out += (c - p U^(p-1)) v + 2 b <(-D)^s U, v> (-D)^s U."""
        out += self._local * vals
        if self.b != 0.0:
            # <(-D)^(s/2)U, (-D)^(s/2)phi> = <(-D)^s U, phi>: one inner
            # product per application
            inner = self._h * float((self.flU * vals).sum())
            out += 2.0 * self.b * inner * self.flU
        return out


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


def lanczos_smallest(matvec, size: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n smallest-magnitude eigenpairs (values, vectors by column) of
    a symmetric apply on vectors of length `size`: Lanczos (ARPACK) on the
    n+1 lowest eigenvalues from a fixed start.  Every eigenvalue not
    computed lies at or above the largest computed one, which certifies
    the pick only when no picked |lambda| exceeds it.  Raises
    EigensolverError when one does, and with the Ritz residuals of the
    partial pairs when Lanczos does not converge.
    """
    a_op = sla.LinearOperator((size, size), matvec=matvec, dtype=float)
    v0 = np.cos(np.arange(size) * 0.37) + 0.5  # fixed deterministic start
    # A Krylov space from one start sees a repeated eigenvalue such as
    # the N-fold kernel only through rounding; a subspace that grows
    # with n keeps the apply count from swinging with roundoff.
    ncv = min(size - 1, max(20, 5 * (n + 1)))
    try:
        vals, vecs = sla.eigsh(a_op, k=n + 1, which="SA", v0=v0,
                               tol=1e-10, ncv=ncv)
    except sla.ArpackNoConvergence as exc:
        # the partial pairs scipy extracts (none when extraction fails)
        ritz = []
        for lam, vec in zip(exc.eigenvalues, exc.eigenvectors.T):
            r = matvec(vec) - lam * vec
            ritz.append(math.sqrt(sp.dot(r, r)))
        raise EigensolverError(
            f"Lanczos stagnated ({exc})", ritz_residuals=ritz,
        ) from exc
    order = np.argsort(np.abs(vals), kind="stable")[:n]
    top = float(np.max(vals))
    if np.any(np.abs(vals[order]) > top):
        raise EigensolverError(
            f"smallest |eigenvalue| not certified: picked {vals[order].tolist()}"
            f" but the largest computed eigenvalue is {top:.6e}",
        )
    return vals[order], vecs[:, order]


def kernel_spectrum(op: LinearizedOperator, n: int,
                    method: str = "iterative") -> list[tuple[float, Field]]:
    """The n smallest-magnitude eigenpairs of the discretized operator.

    `iterative` runs `lanczos_smallest` on the operator's grid values;
    L+'s kernel and single negative direction lie among its n+1 lowest
    eigenvalues.  On L+ ask for n >= N+1: at n = N a kernel eigenvalue that
    roundoff puts below zero is the largest computed, so its pick is refused.
    `dense` assembles the matrix column by column and diagonalises it
    (cross-validation oracle on small grids).  Eigenfields are L2-normalised.
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
        vals, vecs = vals[order], vecs[:, order]
    elif method == "iterative":
        vals, vecs = lanczos_smallest(
            lambda flat: op.apply_values(flat.reshape(shape)).ravel(),
            npts, n)
    else:
        raise ParameterError(f"unknown method {method!r}")

    pairs = []
    for lam, v in zip(vals, vecs.T):
        v = v.reshape(shape)
        v = v / np.sqrt(h * (v**2).sum())
        pairs.append((float(lam), Field(op.grid, v)))
    return pairs


def subspace_cosines(op: LinearizedOperator,
                     fields: list[Field]) -> list[float]:
    """Cosine of each field against span{d_j U}, the translation modes
    (orthogonal projection)."""
    basis = np.stack([sp.derivative(op.profile, j).values.ravel()
                      for j in range(op.grid.dim)])
    q, _ = np.linalg.qr(basis.T)
    out = []
    for f in fields:
        v = f.values.ravel()
        nv = math.sqrt(sp.dot(v, v))
        out.append(float(np.linalg.norm(q.T @ v) / nv) if nv > 0 else 0.0)
    return out


def kernel_report(op: LinearizedOperator, n: int) -> dict:
    """Spectrum summary: kernel count/alignment, gap, Morse-index count,
    and the residual ||L v - lambda v|| / ||v|| of every returned pair.
    Needs n >= N + 1 (see `kernel_spectrum`); raises ParameterError below.

    The negative-eigenvalue count is a diagnostic only.
    """
    dim = op.grid.dim
    if n <= dim:
        raise ParameterError(
            f"kernel_report needs n >= N + 1 = {dim + 1}, got {n}: at n <= N "
            "a kernel eigenvalue that roundoff puts below zero is the largest "
            "computed, and its pick is refused")
    pairs = kernel_spectrum(op, n)
    vals = [lam for lam, _ in pairs]
    residuals = []
    for lam, f in pairs:
        v = f.values.ravel()
        r = op.apply_values(f.values).ravel() - lam * v
        residuals.append(math.sqrt(sp.dot(r, r)) / math.sqrt(sp.dot(v, v)))
    kernel_pairs = [(lam, f) for lam, f in pairs if abs(lam) < KERNEL_THRESHOLD]
    cosines = subspace_cosines(op, [f for _, f in kernel_pairs])
    absvals = sorted(abs(v) for v in vals)
    kdim = len(kernel_pairs)
    gap_ratio = (absvals[kdim] / absvals[kdim - 1]
                 if 0 < kdim < len(absvals) else float("inf"))
    return {
        "eigenvalues": vals,
        "threshold": KERNEL_THRESHOLD,
        "kernel_dim": kdim,
        "kernel_cosines": cosines,
        "gap_ratio": gap_ratio,
        "negative_count": sum(1 for v in vals if v < -KERNEL_THRESHOLD),
        "pair_residuals": residuals,
    }
