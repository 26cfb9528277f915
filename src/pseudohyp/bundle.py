"""Tangent-bundle bookkeeping: elements as nested pairs, the base projection,
local trivialization, and derivative-tower lifts of the uniform curve.

An order-p element stores 2^p * n coordinates, flattened depth first with the
base half leading: order 0 is a bare point, order p is the pair of two
order-(p-1) elements. For the curve lift the two halves are the lift one
order down and its parameter derivative, so the m-th derivative of the curve
occupies the slots whose position bits sum to m. The tower comes from
`geometry.curve_derivative`, the library's one curve formula, which is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CurveSpec, PseudoPoint, Signature, curve_derivative

__all__ = [
    "MAX_LIFT_ORDER",
    "BundleElement",
    "bundle_dim",
    "project",
    "trivialize",
    "untrivialize",
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


@dataclass(eq=False)
class BundleElement:
    """Flattened order-p bundle element over signature space."""

    sig: Signature
    order: int
    coords: np.ndarray

    def __post_init__(self):
        dim = bundle_dim(self.sig.n, self.order)
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (dim,):
            raise ValueError(
                f"order-{self.order} element over n={self.sig.n} needs {dim} "
                f"coordinates, got shape {self.coords.shape}"
            )


def project(e: BundleElement) -> BundleElement:
    """Base projection: the first half of the coordinates, one order down."""
    if e.order < 1:
        raise ValueError("an order-0 element has no base to project onto")
    half = e.coords.shape[0] // 2
    return BundleElement(e.sig, e.order - 1, e.coords[:half].copy())


def trivialize(point: PseudoPoint, v: PseudoPoint) -> np.ndarray:
    """Chart coordinates of (point, vector): the flat 2n concatenation."""
    if point.sig != v.sig:
        raise ValueError(
            f"signature mismatch: point ({point.sig.s},{point.sig.r}) "
            f"vs vector ({v.sig.s},{v.sig.r})"
        )
    return np.concatenate((point.coords, v.coords))


def untrivialize(flat, sig: Signature):
    """Inverse of `trivialize`: split a flat 2n vector back into the pair."""
    arr = np.asarray(flat, dtype=float)
    if arr.shape != (2 * sig.n,):
        raise ValueError(
            f"expected {2 * sig.n} coordinates for signature ({sig.s},{sig.r}), "
            f"got shape {arr.shape}"
        )
    n = sig.n
    return PseudoPoint(sig, arr[:n].copy()), PseudoPoint(sig, arr[n:].copy())


def curve_lift(
    spec: CurveSpec, psi: float, order: int, max_order: int = MAX_LIFT_ORDER
) -> BundleElement:
    """Order-p lift of the uniform curve built from its derivative tower.

    The order-0 lift is the curve point itself; the order-p lift pairs the
    order-(p-1) lift with its derivative, so projecting recovers the lift one
    order down exactly. Orders above `max_order` are rejected (the flat size
    doubles per order).
    """
    if order < 0:
        raise ValueError(f"lift order must be non-negative, got {order}")
    if order > max_order:
        raise ValueError(f"lift order {order} above cap {max_order}")
    tower = [curve_derivative(spec, psi, m) for m in range(order + 1)]
    slots = [tower[j.bit_count()] for j in range(1 << order)]
    return BundleElement(spec.sig, order, np.concatenate(slots))
