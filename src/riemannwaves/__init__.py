"""riemannwaves: rank-k wave solutions of the isentropic compressible fluid equations.

The package constructs the closed-form solution families (simple acoustic
and vortex waves and their admissible superpositions), evaluates them by
solving the implicit Riemann-invariant equations, and verifies them
numerically: residual substitution into the fluid system, compatibility
trace conditions, and empirical gradient-catastrophe detection.
"""

from . import catalog, conditions, elliptic, fluid, linalg, solver, verify
from .catalog import FamilySpec, make_family
from .fluid import ConstraintError, GasParams
from .verify import GridSpec, ResidualReport

__version__ = "0.1.0"

__all__ = [
    "catalog", "conditions", "elliptic", "fluid", "linalg", "solver", "verify",
    "ConstraintError", "FamilySpec", "make_family",
    "GasParams",
    "GridSpec", "ResidualReport",
    "__version__",
]
