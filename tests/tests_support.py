"""Shared oracle constructions for the test suite."""

import glob
import threading
import time

import numpy as np
import pytest

from fkpeaks import reduction as rd
from fkpeaks import spectral as sp

# For tests whose boxes cut the peaks' algebraic |x|^-(N+2s) tails by
# design; a truncation anywhere else shows in the test summary.
TRUNCATES_BY_DESIGN = pytest.mark.filterwarnings(
    "ignore::fkpeaks.errors.TailTruncationWarning")


NEEDS_SCHEDSTAT = pytest.mark.skipif(
    not glob.glob("/proc/self/task/*/schedstat"),
    reason="needs per-thread schedstat under /proc")


def _thread_run_ns() -> dict[int, int]:
    """CPU time in ns each thread of this process has run (schedstat)."""
    out = {}
    for path in glob.glob("/proc/self/task/*/schedstat"):
        try:
            with open(path) as fh:
                out[int(path.split("/")[4])] = int(fh.read().split()[0])
        except FileNotFoundError:       # the thread ended
            pass
    return out


def other_threads_ns(work):
    """work()'s result, and the CPU time in ns each other thread of this
    process ran during it; workers woken before get 0.3 s to fall asleep.
    A threaded BLAS call wakes a library worker that then spins for about
    0.1 s of CPU."""
    time.sleep(0.3)
    me = threading.get_native_id()
    before = _thread_run_ns()
    result = work()
    after = _thread_run_ns()
    return result, {tid: ns - before.get(tid, 0) for tid, ns in after.items()
                    if tid != me}


def integrate(grid, values) -> float:
    """Rectangle-rule integral h^N sum(values) over the box."""
    return float(grid.spacing ** grid.dim * np.sum(values))


def pack(grid, coeffs) -> np.ndarray:
    """Packed coordinates of a half spectrum: S * coeffs viewed as one
    flat float64 vector, S = grid.packing_scale."""
    return (coeffs * grid.packing_scale).view(float).ravel()


def unpack(grid, flat) -> np.ndarray:
    """The half spectrum of packed coordinates (inverse of `pack`);
    _ifftn of it drops the part off the real-field spectra."""
    return sp.packed_spectrum(grid, flat) / grid.packing_scale


def manufactured_classical(M, L=2.0, eps=0.1, y=0.15, amp=2.0):
    """u = amp sech((x-y)/eps) solves the classical equation (s=1, b=0,
    p=3) with V = 1 + (amp^2 - 2) sech^2((x-y)/eps), exactly; the field is
    periodized with one image on each side so the seam is smooth."""
    grid = sp.GridSpec(1, L, M)
    x = grid.axis
    u_vals = sum(
        amp / np.cosh((x - y - 2 * L * k) / eps) for k in (-1, 0, 1)
    )
    u = sp.Field(grid, u_vals)
    c2 = amp**2 - 2.0

    def fn(pts):
        z = (np.asarray(pts)[..., 0] - y) / eps
        return 1.0 + c2 / np.cosh(z) ** 2

    def grad_fn(pts, axis):
        z = (np.asarray(pts)[..., 0] - y) / eps
        return -2.0 * c2 / np.cosh(z) ** 2 * np.tanh(z) / eps

    pot = rd.Potential(fn, [[y]], [[1.0]], 2.0, 1.0, grad_fn)
    return grid, u, pot


def scaling_beta(base, params, c):
    """beta of the c-potential Kirchhoff ground state alpha Q(beta .): the
    root of a beta^(2s) + b c^(2/(p-1)) K beta^(4s-N) = c, K the base
    seminorm ||(-Delta)^(s/2) Q||^2, by bisection down to the last bit
    (the left side increases in beta when 4s > N)."""
    a, b, s, p, n = params.a, params.b, params.s, params.p, params.dim
    coef = b * c ** (2.0 / (p - 1.0)) * base.seminorm_sq

    def fn(beta):
        return a * beta ** (2.0 * s) + coef * beta ** (4.0 * s - n) - c

    lo, hi = 0.0, 1.0
    while fn(hi) <= 0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if fn(mid) <= 0:
            lo = mid
        else:
            hi = mid
