"""Pseudospectral solver and verifier for multi-peak states of
singularly perturbed fractional Kirchhoff equations."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Field,
    GridSpec,
    ProblemParams,
    fractional_laplacian,
    half_laplacian,
)
from .groundstate import (  # noqa: F401
    KirchhoffGroundState,
    SchrodingerGroundState,
    SystemSolution,
    decay_fit,
    kirchhoff_scale,
    solve_Q,
    solve_system,
)
