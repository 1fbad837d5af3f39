"""Sharp asymptotics of radial solutions of planar Lane-Emden / Henon problems.

The package computes the limit constants that govern the p -> infinity
behavior of every radial solution in the unit disc (Dirichlet and
Neumann) and on the whole plane, solves the radial equation at finite p
with event-detected zeros and critical points, evaluates the explicit
limit bubbles, and verifies the convergence of the one against the other.

Each library module's ``__all__`` is the one list of its public names;
the package re-exports all of them and ``__version__``, not ``nodal.cli``.
"""

from . import bubbles, constants, radial_ode, specfun, verify
from .bubbles import *  # noqa: F403
from .constants import *  # noqa: F403
from .radial_ode import *  # noqa: F403
from .specfun import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*bubbles.__all__, *constants.__all__, *radial_ode.__all__, *specfun.__all__,
           *verify.__all__, "__version__"]
