"""Tangent-bundle bookkeeping: dimension counts and derivative-tower lifts
of the uniform curve.

An order-p lift is a plain array of 2^p * n coordinates, flattened depth
first with the base half leading: order 0 is a bare point, order p is the
lift one order down followed by its parameter derivative. The m-th
derivative of the curve therefore occupies the slots whose position bits sum
to m, and the base projection is the first half, `e[..., : e.shape[-1] // 2]`.
The lift is one `geometry._expand` of a `_block_tower` of each slot's order.
`curve_derivative` stays bound here, unexported: `perfbench/tracing.py` traces it.
"""

from __future__ import annotations

import numpy as np

from .geometry import CurveSpec, _block_tower, _expand, as_integer, curve_derivative

__all__ = [
    "MAX_LIFT_ORDER",
    "bundle_dim",
    "curve_lift",
]

MAX_LIFT_ORDER = 6

# Past this the flat coordinate count would no longer fit in an int64; any
# realistic use sits far below it.
_DIM_LIMIT = 2**62


def bundle_dim(n: int, p: int) -> int:
    """Coordinate count 2^p * n of an order-p element over an n-manifold."""
    # plain ints: a numpy integer would wrap past 2^63 before the check below
    n, p = as_integer(n, "manifold dimension", 1), as_integer(p, "bundle order", 0)
    if p >= 63 or (1 << p) * n > _DIM_LIMIT:
        raise OverflowError(f"bundle dimension 2^{p} * {n} overflows any practical size")
    return (1 << p) * n


def curve_lift(spec: CurveSpec, psi, order: int) -> np.ndarray:
    """Order-p lift of the uniform curve built from its derivative tower.

    Returns a (2^p * n,) array for a scalar psi, or one such row per value
    of a psi array. The order-0 lift is the curve point itself; the order-p
    lift pairs the order-(p-1) lift with its derivative, so its first half
    is the lift one order down exactly. The order must be an integer in
    [0, MAX_LIFT_ORDER], checked by `as_integer`: the flat size doubles per order.
    """
    order = as_integer(order, "lift order", 0, MAX_LIFT_ORDER + 1)
    return _expand(_block_tower(spec, psi, [j.bit_count() for j in range(1 << order)]), spec.sig)
