"""Tangent-bundle bookkeeping: dimension counts and derivative-tower lifts
of the uniform curve.

An order-p lift is a plain array of 2^p * n coordinates, flattened depth
first with the base half leading: order 0 is a bare point, order p is the
lift one order down followed by its parameter derivative. The m-th
derivative of the curve therefore occupies the slots whose position bits sum
to m, and the base projection is the first half, `e[..., : e.shape[-1] // 2]`.
The tower comes from `geometry.curve_derivative`, the library's one curve
formula, which is re-exported here.
"""

from __future__ import annotations

import numpy as np

from .geometry import CurveSpec, curve_derivative

__all__ = [
    "MAX_LIFT_ORDER",
    "bundle_dim",
    "curve_derivative",
    "curve_lift",
]

MAX_LIFT_ORDER = 6

# Past this the flat coordinate count would no longer fit in an int64; any
# realistic use sits far below it.
_DIM_LIMIT = 2**62


def bundle_dim(n: int, p: int) -> int:
    """Coordinate count 2^p * n of an order-p element over an n-manifold."""
    if n < 1:
        raise ValueError(f"manifold dimension must be positive, got {n}")
    if p < 0:
        raise ValueError(f"bundle order must be non-negative, got {p}")
    if p >= 63 or (1 << p) * n > _DIM_LIMIT:
        raise OverflowError(f"bundle dimension 2^{p} * {n} overflows any practical size")
    return (1 << p) * n


def curve_lift(spec: CurveSpec, psi, order: int) -> np.ndarray:
    """Order-p lift of the uniform curve built from its derivative tower.

    Returns a (2^p * n,) array for a scalar psi, or one such row per value
    of a psi array. The order-0 lift is the curve point itself; the order-p
    lift pairs the order-(p-1) lift with its derivative, so its first half
    is the lift one order down exactly. Orders above `MAX_LIFT_ORDER` are
    rejected (the flat size doubles per order).
    """
    if order < 0:
        raise ValueError(f"lift order must be non-negative, got {order}")
    if order > MAX_LIFT_ORDER:
        raise ValueError(f"lift order {order} above cap {MAX_LIFT_ORDER}")
    tower = [curve_derivative(spec, psi, m) for m in range(order + 1)]
    slots = [tower[j.bit_count()] for j in range(1 << order)]
    return np.concatenate(slots, axis=-1)
