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
It is the package's own thick-restart Lanczos, which reorthogonalises a
step only when the step's measured loss of orthogonality exceeds
LANCZOS_ORTH_BAR, stopped on ARPACK's convergence test (Ritz estimates
at tol 1e-10) or at a fixed budget of LANCZOS_BUDGET applies; it runs on
the calling thread, so its answer does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import spectral as sp
from .errors import EigensolverError, ParameterError
from .groundstate import KirchhoffGroundState
from .spectral import Field, GridSpec

KERNEL_THRESHOLD = 1e-4  # |lambda| below this counts as kernel, at default grids
# Ritz vectors a restart keeps beyond ARPACK's rule: 3 took 785 applies on
# the 128^2 L+ at n = 5 and 1105 on the 256^2 one, where ARPACK's rule
# alone took 916 and 1186 and a fixed n+9 took 830 and 1518
LANCZOS_KEEP = 3
# applies a Lanczos may spend: 2.8 times the most measured (1445 on the
# 256^2 L+ of kernel2d's box at n = 5, 1105 on the 256^2 one at L = 16;
# 785 on 128^2, at most 229 on the tests' operators)
LANCZOS_BUDGET = 4000
# overlap max_(i<j) |v_i . w| / beta of a new Lanczos vector w = beta
# v_(j+1) above which a step reorthogonalises.  The floor is the sweep's
# own roundoff: right after a full pass the overlap reads 1.4e-15 in the
# median and at most 2.8e-14 on kernel2d's 128^2 and 256^2 L+, and a bar
# of 1e-14 fired on 310 of 816 and 703 of 1514 steps there.  The ceiling
# is the residuals: a skipped step leaves up to bar beta along each
# earlier vector in the Lanczos relation, which every Ritz residual
# carries, and beta stays under 280 on these operators, so 1e-13 keeps
# that under 2.8e-11, below the 1e-10 |theta| the convergence test
# allows the pairs off the kernel.  Measured at 1e-13: the pass ran on
# 71 of 783 and 129 of 1445 steps, the kernel pairs' residuals stayed at
# full reorthogonalisation's (at most 4e-13 and 2e-12) and no eigenvalue
# moved more than 2.4e-12; at 1e-12 a 128^2 residual reached 2.6e-11.
LANCZOS_ORTH_BAR = 1e-13


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

    def add_lower_order(self, out: np.ndarray | None,
                        vals: np.ndarray) -> np.ndarray:
        """out += (c - p U^(p-1)) v + 2 b <(-D)^s U, v> (-D)^s U; with
        out None, the terms alone in a new array."""
        local = self._local * vals
        if out is None:
            out = local
        else:
            out += local
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


def _orthogonalise(basis: np.ndarray,
                   w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """w less its projection on the orthonormal rows of `basis`, the
    projection's coefficients and the remainder's norm: one classical
    Gram-Schmidt pass, and a second when the first cancels more than
    1 - 1/sqrt(2) of w's norm (the DGKS test; Daniel, Gragg, Kaufman &
    Stewart 1976).  When the second pass cancels as much, w lies in the
    span to roundoff and its norm is returned as 0.  The combination of
    rows runs on numpy's einsum loop, which calls no BLAS.
    """
    before = math.sqrt(sp.dot(w, w))
    total = np.zeros(len(basis))
    for _ in range(2):
        coef = sp.dot(basis, w)
        w = w - np.einsum("i,in->n", coef, basis)
        total += coef
        norm = math.sqrt(sp.dot(w, w))
        if norm > before / math.sqrt(2.0):
            return w, total, norm
        before = norm
    return w, total, 0.0


def lanczos_smallest(matvec, size: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n smallest-magnitude eigenpairs (values, vectors by column) of
    a symmetric apply on vectors of length `size`: Lanczos on the n+1
    lowest eigenvalues from a fixed start.  Every eigenvalue not computed
    lies at or above the largest computed one, which certifies the pick
    only when no picked |lambda| exceeds it.  Raises EigensolverError when
    one does, and, with the residuals of the n pairs it would pick, when
    the pairs have not converged within LANCZOS_BUDGET applies.

    Thick-restart Lanczos (Wu & Simon 2000), which computes what ARPACK's
    implicit restart with exact shifts computes (Sorensen 1992).  Each
    step runs the three-term recurrence, then one product sweep c = V w
    over the basis: c_j is the step's alpha and the rest its exact loss
    of orthogonality.  Only when max |c_i| (i < j) exceeds LANCZOS_ORTH_BAR
    of the remainder's norm does the step run a full classical
    Gram-Schmidt pass, and a second when the DGKS test asks
    (`_orthogonalise`), so the basis stays orthogonal to that bar, as in
    Simon's partial reorthogonalisation (Math. Comp. 42 (1984) 115-142)
    with the bar set for the residuals rather than the eigenvalues alone.
    Once the basis holds ncv vectors, the eigenpairs
    (theta_i, y_i) of its Rayleigh quotient T give the Ritz pairs; the
    n+1 lowest have converged when every Ritz estimate |beta_m y_m,i| <=
    1e-10 max(eps^(2/3), |theta_i|) (ARPACK's test at tol 1e-10).  Until
    then the basis restarts in place: its first rows become the lowest
    Ritz vectors, the next the residual direction, and T their diagonal
    and arrow, kept to LANCZOS_KEEP more than ARPACK keeps.  A Krylov
    space that turns invariant (beta at roundoff of |A v|) goes on from a
    seeded pseudo-random vector orthogonalised against the basis.  Every
    product of vectors runs on numpy's einsum loop and T's eigenproblem in
    LAPACK's QR iteration (driver "ev"; numpy's divide and conquer wakes an
    OpenBLAS worker from 26 rows up), both on the calling thread, so the
    answer does not depend on the BLAS thread count.
    """
    k = n + 1
    # A Krylov space from one start sees a repeated eigenvalue such as
    # the N-fold kernel only through rounding; a subspace that grows
    # with n keeps the apply count from swinging with roundoff.
    ncv = min(size - 1, max(20, 5 * k))
    basis = np.empty((ncv + 1, size))   # rows: the Lanczos vectors
    tmat = np.zeros((ncv, ncv))         # their Rayleigh quotient
    v0 = np.cos(np.arange(size) * 0.37) + 0.5  # fixed deterministic start
    basis[0] = v0 / math.sqrt(sp.dot(v0, v0))
    first, spent, breakdowns = 0, 0, 0
    while True:
        for j in range(first, ncv):
            w = matvec(basis[j])
            spent += 1
            wnorm = math.sqrt(sp.dot(w, w))
            # v_j's recurrence reaches v_(j-1), or, first after a restart,
            # every kept Ritz vector
            lo = 0 if j == first else j - 1
            w = w - np.einsum("i,in->n", tmat[lo:j, j], basis[lo:j])
            # one sweep over the basis: c[j] is alpha, and c[:j] is what
            # is left in w of the earlier vectors, the loss of orthogonality
            c = sp.dot(basis[:j + 1], w)
            alpha = c[j]
            w = w - alpha * basis[j]
            beta = math.sqrt(sp.dot(w, w))
            if j > 0 and np.max(np.abs(c[:j])) > LANCZOS_ORTH_BAR * beta:
                w, coef, beta = _orthogonalise(basis[:j + 1], w)
                alpha += coef[j]
            tmat[j, j] = alpha
            # a remainder at roundoff of A v_j (1e-16 to 3e-14 of it on a
            # matrix of 3 distinct eigenvalues, above 1e-3 on the tests'
            # operators) is a breakdown
            if beta > 1e-12 * wnorm:
                basis[j + 1] = w / beta
            else:
                # go on from a fixed pseudo-random vector, as ARPACK does: a
                # unit vector misses every other copy of an eigenvalue whose
                # eigenvectors vanish at its index
                breakdowns += 1
                w, _, norm = _orthogonalise(
                    basis[:j + 1],
                    np.random.default_rng(breakdowns).standard_normal(size))
                basis[j + 1], beta = w / norm, 0.0
            if j + 1 < ncv:
                tmat[j, j + 1] = tmat[j + 1, j] = beta
        theta, y = scipy.linalg.eigh(tmat, driver="ev")
        estimates = np.abs(beta * y[-1, :k])
        converged = estimates <= 1e-10 * np.maximum(
            np.finfo(float).eps ** (2.0 / 3.0), np.abs(theta[:k]))
        if converged.all() or spent >= LANCZOS_BUDGET:
            break
        # ARPACK's rule (the n+1, and as many more as have converged, up
        # to half the rest) and LANCZOS_KEEP more
        keep = min(k + LANCZOS_KEEP + min(int(converged.sum()),
                                          (ncv - k) // 2), ncv - 1)
        basis[:keep] = np.einsum("ji,jn->in", y[:, :keep], basis[:ncv])
        basis[keep] = basis[ncv]
        tmat[:] = 0.0
        tmat[:keep, :keep] = np.diag(theta[:keep])
        tmat[keep, :keep] = tmat[:keep, keep] = beta * y[-1, :keep]
        first = keep
    vals = theta[:k]
    vecs = np.einsum("ji,jn->ni", y[:, :k], basis[:ncv])
    order = np.argsort(np.abs(vals), kind="stable")[:n]
    if not converged.all():
        ritz = []
        for i in order:
            r = matvec(vecs[:, i]) - vals[i] * vecs[:, i]
            ritz.append(math.sqrt(sp.dot(r, r)))
        raise EigensolverError(
            f"Lanczos stagnated: {int(converged.sum())} of {k} Ritz pairs "
            f"converged within its budget of {LANCZOS_BUDGET} applies",
            ritz_residuals=ritz)
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
    (orthogonal projection: |P v|^2 = c . G^(-1) c with c the modes'
    products with v and G their Gram matrix, all by `spectral.dot`)."""
    modes = np.stack([sp.derivative(op.profile, j).values.ravel()
                      for j in range(op.grid.dim)])
    gram = sp.dot(modes[:, None], modes[None])
    out = []
    for f in fields:
        v = f.values.ravel()
        c, nv = sp.dot(modes, v), sp.dot(v, v)
        out.append(math.sqrt(c @ np.linalg.solve(gram, c) / nv)
                   if nv > 0 else 0.0)
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
