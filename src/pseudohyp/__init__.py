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

from .geometry import (
    CurveSpec,
    Signature,
    curve_derivative,
    inner_product,
    point_at,
    velocity_at,
)
from .ode import (
    IntegratorConfig,
    closed_form_trajectory,
    convergence_order,
    integrate,
    max_deviation,
)
from .bundle import MAX_LIFT_ORDER, bundle_dim, curve_lift
from .transform import (
    apply,
    block_rotation,
    boost,
    isometry_defect,
    random_isometry,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_LIFT_ORDER",
    "CurveSpec",
    "IntegratorConfig",
    "Signature",
    "apply",
    "block_rotation",
    "boost",
    "bundle_dim",
    "closed_form_trajectory",
    "convergence_order",
    "curve_derivative",
    "curve_lift",
    "inner_product",
    "integrate",
    "isometry_defect",
    "max_deviation",
    "point_at",
    "random_isometry",
    "velocity_at",
]
