"""Linear maps preserving the signature product: hyperbolic boosts in mixed
planes, Euclidean rotations in same-sign planes, and their isometry defect.

A map is an n x n array M; it is an isometry of the product when
M^T eta M = eta, with eta = np.diag(sig.signs) the diagonal sign matrix.
Boosts and block rotations generate the maps used here; compose them with
the @ operator, starting from np.eye(n).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Signature

__all__ = [
    "boost",
    "block_rotation",
    "apply",
    "isometry_defect",
    "random_isometry",
]

_MAX_GENERATORS = 5
_MAX_RAPIDITY = 0.6


def boost(sig: Signature, time_axis: int, space_axis: int, rapidity: float) -> np.ndarray:
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
    return m


def block_rotation(sig: Signature, axis1: int, axis2: int, angle: float) -> np.ndarray:
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
    return m


def apply(m: np.ndarray, x) -> np.ndarray:
    """Linear action of the (n, n) map m on a point (n,) or on rows (..., n).

    For an isometry the image of an on-quadric point stays on the quadric of
    the same constant.
    """
    m = np.asarray(m, dtype=float)
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != m.shape[-1]:
        raise ValueError(f"expected {m.shape[-1]} coordinates per point, got shape {arr.shape}")
    return arr @ m.T


def isometry_defect(m: np.ndarray, sig: Signature) -> float:
    """Max-norm of M^T eta M - eta; zero for an exact isometry of `sig`."""
    m = np.asarray(m, dtype=float)
    if m.shape != (sig.n, sig.n):
        raise ValueError(
            f"expected a ({sig.n}, {sig.n}) matrix for signature "
            f"({sig.s},{sig.r}), got shape {m.shape}"
        )
    eta = np.diag(sig.signs)
    return float(np.max(np.abs(m.T @ eta @ m - eta)))


def random_isometry(sig: Signature, rng) -> np.ndarray:
    """Product of 1 to 5 random boosts and rotations drawn from `rng`.

    Rotations get a uniform angle, boosts a rapidity in [-0.6, 0.6].
    """
    m = np.eye(sig.n)
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
