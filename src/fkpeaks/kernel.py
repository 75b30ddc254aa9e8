"""The kernel of the second variation, and the package's one eigensolver.

The second variation L is `groundstate.LinearizedOperator`, re-exported
here; for the unit-potential ground state it is L+ (c = 1, A = a + b
||(-Delta)^(s/2) U||^2), and nondegeneracy means its kernel is exactly
span{d_j U}.

Every spectral certificate comes from one Lanczos on the n+1 lowest
eigenvalues with a magnitude certificate (`lanczos_smallest`): the
kernel of L+ (Morse index 1), and the reduction's inversion constant,
which `reduction` reaches by importing this module on first use.
It is the package's own thick-restart Lanczos, which reorthogonalises a
step only when the step's measured loss of orthogonality exceeds
LANCZOS_ORTH_BAR, stopped on ARPACK's convergence test (Ritz estimates
at tol 1e-10) or at a fixed budget of LANCZOS_BUDGET applies.  When its
Ritz values show a spectrum wide against the wanted end (sqrt(kappa) >
LANCZOS_FILTER_SWITCH: kernel2d's L+ does, the reduction's
preconditioned forms on the benchmark's and the tests' frames do not)
it goes on with a Chebyshev filter of the operator, so that the basis
work runs once per m applies, and ends with a Rayleigh-Ritz on the
operator itself.  It runs on the calling thread, so its answer does
not depend on the BLAS thread count.  Its Rayleigh quotient's
eigenproblem is `scipy.linalg.eigh`, which makes this the one module
that imports scipy: the CLI's commands load none.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import spectral as sp
from .errors import EigensolverError, ParameterError
from .groundstate import LinearizedOperator
from .spectral import Field

KERNEL_THRESHOLD = 1e-4  # |lambda| below this counts as kernel, at default grids
# Ritz vectors a restart keeps beyond ARPACK's rule: 3 took 785 applies on
# the 128^2 L+ at n = 5 and 1105 on the 256^2 one, where ARPACK's rule
# alone took 916 and 1186 and a fixed n+9 took 830 and 1518
LANCZOS_KEEP = 3
# applies a Lanczos may spend: 2.3 times the most measured (1752 on the
# 256^2 L+ of kernel2d's box at n = 5, 1445 there before the filter;
# 976 on 128^2, at most 229 on the tests' operators but the two wide
# diagonal spectra, 768 and 992)
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
# sqrt(kappa) above which the Lanczos goes on with a Chebyshev filter,
# kappa = (b - a)/(a - theta_1) from the Ritz values at a restart (a the
# largest kept, b = theta_max + beta; `lanczos_smallest`).  A filtered
# step costs m applies and one step's basis work, so per apply it keeps
# 1/m of the basis work, r times an apply's cost on the plain loop (r =
# 1.6 on kernel2d's 128^2 L+: 0.53 s of sweeps and restarts against 0.33
# s for its 783 applies), and it pays in applies: the filtered Krylov
# space starts again from one vector, and its dimension j buys what the
# operator's of dimension m j would.  It gains while that factor stays
# below (1 + r)/(1 + r/m), which is less than m: 2.2 at m = 8 there,
# where the applies went 783 -> 933-988; at m = 2 the filter took 122
# applies against 77 on the 128^2 coercivity form, most of its bound.
# sqrt(kappa) grows as a tightens (2.3, 4.0, 5.5, 6.5, 7.7 at 30 to 114
# applies on that L+), and a loose a loses the gain (an interval from a
# 20-step Lanczos, a = 52.8, did at m >= 10), so the bar sits well above
# the coercivity forms' 1.6-2.4 and waits for a: at 7 the switch comes
# at a = 3.8 on the 128^2 L+ (114 applies) and 10.6 on the 256^2 one.
# Bars of 4 to 9 all cut the 256^2 L+'s time by a third or more, and 7
# was among the fastest on both grids.
LANCZOS_FILTER_SWITCH = 7.0


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


def _chebyshev(matvec, lo: float, hi: float, low: float, degree: int):
    """-p(A) as an apply, p(x) = T_m(t(x)) / T_m(t(low)) with m = degree
    and t(x) = (c - x)/e, c and e the centre and half-width of [lo, hi]:
    the wanted end lies at t > 1 for odd and even m alike, so p falls
    from 1 at `low` to 1/T_m(t(low)) at lo, and |p| stays within that on
    [lo, hi].  The scaled recurrence y_j = T_j(t(A)) v / T_j(t(low))
    keeps three vectors and its entries of order one."""
    c, e = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t_low = (c - low) / e

    def apply(v):
        rho_prev, rho = 1.0, t_low
        prev, cur = v, (c * v - matvec(v)) / (e * t_low)
        for _ in range(degree - 1):
            rho_next = 2.0 * t_low * rho - rho_prev
            nxt = c * cur
            nxt -= matvec(cur)
            nxt *= 2.0 * rho / (e * rho_next)
            nxt -= (rho_prev / rho_next) * prev
            prev, cur, rho_prev, rho = cur, nxt, rho, rho_next
        return -cur
    return apply


def _rayleigh_ritz(matvec, x: np.ndarray):
    """The apply's Rayleigh-Ritz on the orthonormal rows of x: values,
    Ritz vectors by row (written over the applies' rows) and their
    residual norms, with two rows beside x and its applies at a time.
    Its Gram matrix has len(x) rows, and numpy's eigh wakes no OpenBLAS
    worker below 26."""
    ax = np.empty_like(x)
    for i, v in enumerate(x):
        ax[i] = matvec(v)
    vals, z = np.linalg.eigh(np.einsum("in,jn->ij", x, ax))
    resid = np.empty(len(x))
    for i, zi in enumerate(z.T):
        r = np.einsum("j,jn->n", zi, ax)
        r -= vals[i] * np.einsum("j,jn->n", zi, x)
        resid[i] = math.sqrt(sp.dot(r, r))
    return vals, np.einsum("ji,jn->in", z, x, out=ax), resid


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
    seeded pseudo-random vector orthogonalised against the basis.  The
    loop stops at the first step that reaches LANCZOS_BUDGET applies once
    the basis holds n+1 vectors.

    At each restart the Ritz values give a = the largest kept, b =
    theta_max + beta, the Lanczos upper bound of the spectrum (Zhou & Li,
    Linear Algebra Appl. 435 (2011) 480-493), and kappa = (b - a)/(a -
    theta_1).  The first time sqrt(kappa) exceeds LANCZOS_FILTER_SWITCH
    the loop goes on, once, with the same steps on -p(A), the Chebyshev
    filter of degree m = ceil(sqrt(kappa)) that damps [a, b] against
    theta_1 (`_chebyshev`; Zhou & Saad, SIAM J. Matrix Anal. Appl. 29
    (2007) 954-971; Li, Xi, Vecharynski, Yang & Saad, SIAM J. Sci. Comput.
    38 (2016) A2512-A2534), from the sum of the n+1 lowest Ritz vectors:
    a step then costs m applies and one step's basis work.  The filtered
    run stops on the operator's own residuals: at each restart a
    Rayleigh-Ritz with A on its n+1 lowest Ritz vectors (n+1 applies,
    `_rayleigh_ritz`) gives the pairs, converged when every residual is
    at most 1e-10 max(|theta_i|, LANCZOS_ORTH_BAR ||A||) with ||A|| read
    as max(b, |theta_1|).  It certifies only a pick whose every value lies
    below a: p falls below a and |p| <= p(a) on [a, b], so every
    eigenvalue not computed lies at or above the largest computed, and an
    eigenvalue above b that the filter amplifies shows up as a computed
    value above a.  Every product of vectors runs on numpy's einsum loop
    and T's eigenproblem in LAPACK's QR iteration (driver "ev"; numpy's
    divide and conquer wakes an OpenBLAS worker from 26 rows up), both on
    the calling thread, so the answer does not depend on the BLAS thread
    count.
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
    # the operator, then once the filter: its apply, applies per step,
    # and the bottom of its damped interval
    apply, cost, damped = matvec, 1, None
    while True:
        for j in range(first, ncv):
            w = apply(basis[j])
            spent += cost
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
            if spent >= LANCZOS_BUDGET and j >= n:
                break
        rows = j + 1
        theta, y = scipy.linalg.eigh(tmat[:rows, :rows], driver="ev")
        if damped is None:
            estimates = np.abs(beta * y[-1, :k])
            converged = estimates <= 1e-10 * np.maximum(
                np.finfo(float).eps ** (2.0 / 3.0), np.abs(theta[:k]))
        else:
            vals, vecs, resid = _rayleigh_ritz(
                matvec, np.einsum("ji,jn->in", y[:, :k], basis[:rows]))
            spent += k
            # ARPACK's bound on the operator's own residuals, which near 0
            # (the kernel) cannot reach 1e-10 |theta|: below LANCZOS_ORTH_BAR
            # ||A|| they lie under what the basis's loss of orthogonality
            # leaves in every Ritz residual
            converged = resid <= np.maximum(1e-10 * np.abs(vals),
                                            LANCZOS_ORTH_BAR * norm_a)
        if converged.all() or spent >= LANCZOS_BUDGET:
            break
        vecs = None  # a restart returns no pair: free them before it
        # ARPACK's rule (the n+1, and as many more as have converged, up
        # to half the rest) and LANCZOS_KEEP more
        keep = min(k + LANCZOS_KEEP + min(int(converged.sum()),
                                          (ncv - k) // 2), ncv - 1)
        # a, the largest kept Ritz value, lies at or above the keep-th
        # eigenvalue (Ritz values bound the ordered eigenvalues from
        # above), so [a, b] holds none of the n+1 wanted; b = theta_max +
        # beta, the Lanczos bound of the top of the spectrum (Zhou & Li)
        a, b = theta[keep - 1], theta[-1] + beta
        if damped is None and theta[0] < a < b and (
                b - a > LANCZOS_FILTER_SWITCH**2 * (a - theta[0])):
            # m = sqrt(kappa) puts p(theta_1) at T_m(1 + 2/kappa) ~
            # cosh(2 m/sqrt(kappa)) = cosh 2 = 3.8 times |p| on [a, b]:
            # per apply the filter then damps [a, b] at ln(cosh 2)/2 =
            # 0.66 of Chebyshev's asymptotic rate 2/sqrt(kappa), and twice
            # that degree would reach 0.83 but spend twice the applies per
            # fill past convergence (m = 16 took 1167-1188 applies on
            # kernel2d's 128^2 L+, m = 7 to 10 took 933-988)
            cost = math.ceil(math.sqrt((b - a) / (a - theta[0])))
            apply = _chebyshev(matvec, a, b, theta[0], cost)
            damped, norm_a = a, max(b, abs(theta[0]))
            start = np.einsum("ji,jn->n", y[:, :k], basis[:rows])
            basis[0] = start / math.sqrt(sp.dot(start, start))
            tmat[:] = 0.0
            first = 0
            continue
        basis[:keep] = np.einsum("ji,jn->in", y[:, :keep], basis[:rows])
        basis[keep] = basis[rows]
        tmat[:] = 0.0
        tmat[:keep, :keep] = np.diag(theta[:keep])
        tmat[keep, :keep] = tmat[:keep, keep] = beta * y[-1, :keep]
        first = keep
    if damped is None:
        vals = theta[:k]
        vecs = np.einsum("ji,jn->ni", y[:, :k], basis[:rows])
    else:
        vecs = vecs.T
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
    if damped is not None and np.any(vals >= damped):
        raise EigensolverError(
            f"filtered Lanczos not certified: computed {vals.tolist()}, "
            f"but the filter damps the spectrum from {damped:.6e} up")
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
