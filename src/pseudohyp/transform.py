"""Linear maps preserving the signature product: hyperbolic boosts in mixed
planes, Euclidean rotations in same-sign planes, and their isometry defect.

A map M is an isometry of the product when M^T eta M = eta, with eta the
diagonal sign matrix. Boosts and block rotations generate the maps used here;
compose them with the @ operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PseudoPoint, Signature

__all__ = [
    "PseudoOrthogonalMap",
    "metric_matrix",
    "boost",
    "block_rotation",
    "apply",
    "isometry_defect",
    "random_isometry",
]

_MAX_GENERATORS = 5
_MAX_RAPIDITY = 0.6


def metric_matrix(sig: Signature) -> np.ndarray:
    """Diagonal matrix of the product weights, diag(-1 x s, +1 x r)."""
    return np.diag(sig.signs)


@dataclass(eq=False)
class PseudoOrthogonalMap:
    """An n x n real map intended to preserve the signature product.

    Construction only checks the shape; `isometry_defect` measures the
    defining property (deliberately wrong maps must be constructible so the
    check has something to reject).
    """

    sig: Signature
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.sig.n
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"expected a ({n}, {n}) matrix for signature "
                f"({self.sig.s},{self.sig.r}), got shape {self.matrix.shape}"
            )

    @classmethod
    def identity(cls, sig: Signature) -> "PseudoOrthogonalMap":
        return cls(sig, np.eye(sig.n))

    def __matmul__(self, other: "PseudoOrthogonalMap") -> "PseudoOrthogonalMap":
        if self.sig != other.sig:
            raise ValueError("cannot compose maps over different signatures")
        return PseudoOrthogonalMap(self.sig, self.matrix @ other.matrix)


def boost(sig: Signature, time_axis: int, space_axis: int, rapidity: float) -> PseudoOrthogonalMap:
    """Hyperbolic rotation in the mixed plane (time_axis, space_axis).

    Axes index the full coordinate vector, zero based: time_axis picks one of
    the first s slots, space_axis one of the remaining r. The 2x2 block is
    [[cosh a, sinh a], [sinh a, cosh a]]; rapidities add under composition.
    """
    if not 0 <= time_axis < sig.s:
        raise ValueError(
            f"time_axis must lie in [0, {sig.s}), got {time_axis}"
        )
    if not sig.s <= space_axis < sig.n:
        raise ValueError(
            f"space_axis must lie in [{sig.s}, {sig.n}), got {space_axis}"
        )
    m = np.eye(sig.n)
    c = math.cosh(rapidity)
    sh = math.sinh(rapidity)
    m[time_axis, time_axis] = c
    m[time_axis, space_axis] = sh
    m[space_axis, time_axis] = sh
    m[space_axis, space_axis] = c
    return PseudoOrthogonalMap(sig, m)


def block_rotation(sig: Signature, axis1: int, axis2: int, angle: float) -> PseudoOrthogonalMap:
    """Euclidean rotation in a plane of two like-sign axes.

    Both axes must be time-like or both space-like (a mixed plane needs a
    boost), and distinct.
    """
    if axis1 == axis2:
        raise ValueError(f"rotation axes must differ, got {axis1} twice")
    for a in (axis1, axis2):
        if not 0 <= a < sig.n:
            raise ValueError(f"axis {a} out of range for n={sig.n}")
    if (axis1 < sig.s) != (axis2 < sig.s):
        raise ValueError(
            f"axes {axis1} and {axis2} lie in different sign blocks; "
            "use a boost for mixed planes"
        )
    m = np.eye(sig.n)
    c = math.cos(angle)
    sn = math.sin(angle)
    m[axis1, axis1] = c
    m[axis1, axis2] = -sn
    m[axis2, axis1] = sn
    m[axis2, axis2] = c
    return PseudoOrthogonalMap(sig, m)


def apply(m: PseudoOrthogonalMap, obj):
    """Linear action on a PseudoPoint or a raw coordinate vector.

    Returns the same kind of value it was given. For an isometry the image of
    an on-quadric point stays on the quadric of the same constant.
    """
    if isinstance(obj, PseudoPoint):
        if obj.sig != m.sig:
            raise ValueError("point signature does not match the map")
        return PseudoPoint(m.sig, m.matrix @ obj.coords)
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (m.sig.n,):
        raise ValueError(
            f"expected {m.sig.n} coordinates, got shape {arr.shape}"
        )
    return m.matrix @ arr


def isometry_defect(m: PseudoOrthogonalMap) -> float:
    """Max-norm of M^T eta M - eta; zero for an exact isometry."""
    eta = metric_matrix(m.sig)
    return float(np.max(np.abs(m.matrix.T @ eta @ m.matrix - eta)))


def random_isometry(sig: Signature, rng) -> PseudoOrthogonalMap:
    """Product of 1 to 5 random boosts and rotations drawn from `rng`.

    Rotations get a uniform angle, boosts a rapidity in [-0.6, 0.6].
    """
    m = PseudoOrthogonalMap.identity(sig)
    blocks = []
    if sig.s >= 2:
        blocks.append((0, sig.s))
    if sig.r >= 2:
        blocks.append((sig.s, sig.n))
    for _ in range(int(rng.integers(1, _MAX_GENERATORS + 1))):
        if blocks and rng.random() < 0.5:
            lo, hi = blocks[int(rng.integers(0, len(blocks)))]
            a1, a2 = rng.choice(np.arange(lo, hi), size=2, replace=False)
            g = block_rotation(sig, int(a1), int(a2), float(rng.uniform(-math.pi, math.pi)))
        else:
            ti = int(rng.integers(0, sig.s))
            xj = int(rng.integers(sig.s, sig.n))
            g = boost(sig, ti, xj, float(rng.uniform(-_MAX_RAPIDITY, _MAX_RAPIDITY)))
        m = g @ m
    return m
