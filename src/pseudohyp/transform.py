"""Linear maps preserving the signature product: hyperbolic boosts in mixed
planes, Euclidean rotations in same-sign planes, and their isometry defect.

A map is an n x n array M; it is an isometry of the product when
M^T eta M = eta, with eta = np.diag(sig.signs) the diagonal sign matrix.
Boosts and block rotations, each the identity with one 2x2 plane block,
generate the maps used here; compose them with @, starting from np.eye(n).
`apply` and `isometry_defect` also take a stack of maps (..., n, n).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .geometry import Signature, is_integer

__all__ = [
    "boost",
    "block_rotation",
    "apply",
    "isometry_defect",
    "random_isometry",
]

_MAX_GENERATORS = 5
_MAX_RAPIDITY = 0.6


@cache
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False  # maps are copies of it, so none can write into the cache
    return eye


def _plane(n: int, a: int, b: int, c: float, s_ab: float, s_ba: float) -> np.ndarray:
    # the identity with the block [[c, s_ab], [s_ba, c]] in the plane of axes a and b
    m = _eye(n).copy()
    m[a, a] = m[b, b] = c
    m[a, b] = s_ab
    m[b, a] = s_ba
    return m


def boost(sig: Signature, time_axis: int, space_axis: int, rapidity: float) -> np.ndarray:
    """Hyperbolic rotation in the mixed plane (time_axis, space_axis).

    Axes index the full coordinate vector, zero based: time_axis picks one of
    the first s slots, space_axis one of the remaining r. The 2x2 block is
    [[cosh a, sinh a], [sinh a, cosh a]]; rapidities add under composition.
    """
    if not (is_integer(time_axis) and 0 <= time_axis < sig.s):
        raise ValueError(
            f"time_axis must be an integer in [0, {sig.s}), got {time_axis!r}"
        )
    if not (is_integer(space_axis) and sig.s <= space_axis < sig.n):
        raise ValueError(
            f"space_axis must be an integer in [{sig.s}, {sig.n}), got {space_axis!r}"
        )
    sh = math.sinh(rapidity)
    return _plane(sig.n, time_axis, space_axis, math.cosh(rapidity), sh, sh)


def block_rotation(sig: Signature, axis1: int, axis2: int, angle: float) -> np.ndarray:
    """Euclidean rotation in a plane of two like-sign axes.

    Both axes must be time-like or both space-like (a mixed plane needs a
    boost), and distinct.
    """
    for name, a in (("axis1", axis1), ("axis2", axis2)):
        if not (is_integer(a) and 0 <= a < sig.n):
            raise ValueError(f"{name} must be an integer in [0, {sig.n}), got {a!r}")
    if axis1 == axis2:
        raise ValueError(f"rotation axes must differ, got {axis1} twice")
    if (axis1 < sig.s) != (axis2 < sig.s):
        raise ValueError(
            f"axes {axis1} and {axis2} lie in different sign blocks; "
            "use a boost for mixed planes"
        )
    sn = math.sin(angle)
    return _plane(sig.n, axis1, axis2, math.cos(angle), -sn, sn)


def apply(m: np.ndarray, x) -> np.ndarray:
    """Linear action of the (n, n) map m on a point (n,) or on rows (..., n).

    A stack of maps (..., n, n) acts on stacks of rows (..., k, n) as numpy's
    matmul broadcasts them: map i on rows i, or every map on shared (k, n)
    rows. For an isometry the image of an on-quadric point stays on the
    quadric of the same constant.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square map or a stack of them, got shape {m.shape}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != m.shape[-1]:
        raise ValueError(f"expected {m.shape[-1]} coordinates per point, got shape {arr.shape}")
    return arr @ np.swapaxes(m, -1, -2)


def isometry_defect(m: np.ndarray, sig: Signature) -> float:
    """Max-norm of M^T eta M - eta over a map (n, n) or a stack (..., n, n),
    the largest of its maps' defects (0.0 for none); zero for exact isometries of `sig`."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (sig.n, sig.n):
        raise ValueError(
            f"expected a ({sig.n}, {sig.n}) matrix or a stack of them for signature "
            f"({sig.s},{sig.r}), got shape {m.shape}"
        )
    eta = np.diag(sig.signs)
    return float(np.max(np.abs(np.swapaxes(m, -1, -2) @ eta @ m - eta), initial=0.0))


def random_isometry(sig: Signature, rng) -> np.ndarray:
    """Product of 1 to 5 random boosts and rotations drawn from `rng`.

    Rotations get a uniform angle, boosts a rapidity in [-0.6, 0.6].
    """
    m = _eye(sig.n)
    blocks = [axes for axes in (np.arange(sig.s), np.arange(sig.s, sig.n)) if len(axes) >= 2]
    for _ in range(int(rng.integers(1, _MAX_GENERATORS + 1))):
        if blocks and rng.random() < 0.5:
            axes = blocks[int(rng.integers(0, len(blocks)))]
            a1, a2 = rng.choice(axes, size=2, replace=False)
            g = block_rotation(sig, int(a1), int(a2), float(rng.uniform(-math.pi, math.pi)))
        else:
            ti = int(rng.integers(0, sig.s))
            xj = int(rng.integers(sig.s, sig.n))
            g = boost(sig, ti, xj, float(rng.uniform(-_MAX_RAPIDITY, _MAX_RAPIDITY)))
        m = g @ m
    return m
