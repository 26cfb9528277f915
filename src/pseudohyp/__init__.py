"""Uniform sinh/cosh curves on signature (s, r) quadrics.

The library models the real quadric -sum(t_i^2) + sum(x_j^2) = R^2 and the
curve family whose s time-like coordinates share one sinh and whose r
space-like coordinates share one cosh, all at the single frequency sqrt(s*r).
Points and tangent vectors are numpy arrays of n = s + r coordinates, maps
are (n, n) arrays. It provides:

- the row-wise signature inner product and the closed-form curve with all
  its derivatives, scalar or over psi arrays (`geometry`)
- the coupled linear flow the curve solves, integrated with a fixed-step
  fourth-order scheme on its four distinct block values, and
  cross-checked against the closed form (`ode`)
- tangent-bundle dimension accounting and derivative-tower lifts, plain
  arrays of 2^p * n coordinates per psi (`bundle`)
- product-preserving linear maps built from boosts and rotations (`transform`)
- a CLI for trajectory export and a verification sweep (`cli`, `verify`)
"""

from . import geometry, ode, bundle, transform
from .geometry import *  # noqa: F403
from .ode import *  # noqa: F403
from .bundle import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*geometry.__all__, *ode.__all__, *bundle.__all__, *transform.__all__]
