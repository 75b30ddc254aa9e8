"""Shared oracle constructions for the test suite."""

import numpy as np
import pytest

from fkpeaks import reduction as rd
from fkpeaks import spectral as sp

# For tests whose boxes cut the peaks' algebraic |x|^-(N+2s) tails by
# design; a truncation anywhere else shows in the test summary.
TRUNCATES_BY_DESIGN = pytest.mark.filterwarnings(
    "ignore::fkpeaks.errors.TailTruncationWarning")


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
