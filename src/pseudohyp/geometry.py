"""Signature (s, r) geometry: the indefinite inner product and the uniform
sinh/cosh curve family on the constant-form quadric.

Points and tangent vectors are plain arrays of n = s + r coordinates, laid
out as [t-block | x-block]: s time-like axes carrying weight -1 in the
product, followed by r space-like axes carrying weight +1. The quadric of
constant R is the set -sum(t_i^2) + sum(x_j^2) = R^2, and the curve family
whose points `curve_derivative(spec, psi, 0)` gives stays on it for every
parameter value. `curve_derivative` and `inner_product` also work on whole
arrays of samples, one row each.

Everything here is a pure function of its inputs; values can be shared freely
across threads.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signature",
    "CurveSpec",
    "inner_product",
    "curve_derivative",
]

# Veltkamp's constant 2^27 + 1: splits a binary64 value into two halves
# whose pairwise products are exact
_SPLITTER = 134217729.0


def is_integer(value) -> bool:
    """True for an integer of any integral type (Python or numpy), not a bool."""
    # a plain int first: the curve's orders are checked on every evaluation
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


@dataclass(frozen=True)
class Signature:
    """Axis counts of the quadratic form: s minus signs, r plus signs.

    Degenerate signatures (s = 0 or r = 0) are rejected: the curve formulas
    divide by s and by sqrt(r).
    """

    s: int
    r: int

    def __post_init__(self):
        if not is_integer(self.s) or not is_integer(self.r):
            raise ValueError(f"signature counts must be integers, got ({self.s!r}, {self.r!r})")
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "r", int(self.r))
        if self.s < 1 or self.r < 1:
            raise ValueError(f"signature needs s >= 1 and r >= 1, got ({self.s}, {self.r})")

    @property
    def n(self) -> int:
        """Total coordinate count, s + r."""
        return self.s + self.r

    @property
    def signs(self) -> np.ndarray:
        """Diagonal weights of the product: s copies of -1, then r copies of +1."""
        out = np.ones(self.n)
        out[: self.s] = -1.0
        return out


def _check_coords(coords, sig: Signature, what: str) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != sig.n:
        raise ValueError(
            f"{what} must have {sig.n} coordinates for signature "
            f"({sig.s},{sig.r}), got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of the uniform curve: a signature and the quadric constant R.

    The curve amplitude is the effective radius R/sqrt(r); with it the curve
    satisfies -sum(t_i^2) + sum(x_j^2) = R^2 identically, since the r equal
    spatial amplitudes contribute r * (R/sqrt(r))^2 = R^2. R^2 must be a
    normal float, since every residual is measured against it.
    """

    sig: Signature
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not sys.float_info.min <= self.radius * self.radius < math.inf:
            raise ValueError("radius must lie in about [1.5e-154, 1.3e154], so that its square "
                             f"is a normal float, got {self.radius:g}")

    @property
    def r_eff(self) -> float:
        """Curve amplitude R/sqrt(r); r * r_eff**2 == radius**2 to machine precision."""
        return self.radius / math.sqrt(self.sig.r)

    @property
    def frequency(self) -> float:
        """sqrt(s*r), the single growth rate shared by every coordinate."""
        return math.sqrt(self.sig.s * self.sig.r)


def _two_product(a, b):
    # Dekker's TwoProduct: h + e == a * b exactly, barring over/underflow
    h = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return h, a_lo * b_lo - (((h - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _two_sum(a, b):
    # Knuth's TwoSum: x + e == a + b exactly
    x = a + b
    z = x - a
    return x, (a - (x - z)) + (b - z)


def _dot2(products):
    # Dot2's compensated sum of TwoProduct pairs (h, e), in the order given
    total = err = 0.0
    for h, e in products:
        total, q = _two_sum(total, h)
        err = err + (q + e)
    return total + err


def inner_product(u, v, sig: Signature):
    """Indefinite product -sum_{t-block} u_i*v_i + sum_{x-block} u_j*v_j.

    Takes arrays of shape (n,), giving a float, or (..., n), giving one
    product per row. The blocks cancel almost exactly for on-quadric pairs,
    so the terms are summed with Dot2 (Ogita, Rump & Oishi, SIAM J. Sci.
    Comput. 26(6), 2005), one column at a time:
    |res - exact| <= u*|exact| + gamma_n^2 * sum|u_i*v_i|.
    """
    u_cols = np.moveaxis(_check_coords(u, sig, "u"), -1, 0)
    v_cols = np.moveaxis(_check_coords(v, sig, "v"), -1, 0)
    res = _dot2(_two_product(-a if i < sig.s else a, b)
                for i, (a, b) in enumerate(zip(u_cols, v_cols)))
    return float(res) if np.ndim(res) == 0 else res


def _block_inner(u, v, sig: Signature):
    """`inner_product`, bit for bit, of the rows repeating (..., 2) time-/space-like values."""
    terms = (_two_product(-u[..., 0], v[..., 0]), _two_product(u[..., 1], v[..., 1]))
    return _dot2(terms[i >= sig.s] for i in range(sig.n))


def _block_tower(spec: CurveSpec, psi, orders) -> list[np.ndarray]:
    """The derivatives of the listed orders at psi, each as (..., 2) block
    values, time-like then space-like, from one sinh and one cosh per sample."""
    for m in orders:
        if not is_integer(m) or m < 0:
            raise ValueError(f"derivative order must be a non-negative integer, got {m!r}")
    sig, w, r_eff = spec.sig, spec.frequency, spec.r_eff
    with np.errstate(over="ignore"):  # an infinite w*psi is the one error raised below
        arg = w * np.asarray(psi, dtype=float)
    flat = arg.ravel().tolist()
    try:
        if np.isinf(arg).any():  # math.sinh(inf) is inf, not an OverflowError
            raise OverflowError
        sinh = np.fromiter(map(math.sinh, flat), float, len(flat))
        cosh = np.fromiter(map(math.cosh, flat), float, len(flat))
    except OverflowError as exc:
        raise OverflowError(
            "the curve overflows once |psi|*sqrt(s*r) exceeds about 710, "
            f"got {np.nanmax(np.abs(arg)):g}"
        ) from exc
    tower = []
    for m in orders:
        power = (sig.s * sig.r) ** (m // 2)
        table = np.empty((len(flat), 2))
        if m % 2 == 0:
            np.multiply(math.sqrt(sig.r / sig.s) * r_eff * power, sinh, out=table[:, 0])
            np.multiply(r_eff * power, cosh, out=table[:, 1])
        else:
            np.multiply(sig.r * r_eff * power, cosh, out=table[:, 0])
            np.multiply(w * r_eff * power, sinh, out=table[:, 1])
        tower.append(table.reshape(arg.shape + (2,)))
    return tower


def _expand(blocks, sig: Signature, out=None) -> np.ndarray:
    """Block values (..., 2k), k pairs of time-like then space-like, each repeated
    over its s or r axes into (..., k*n): the one place n coordinates are laid out."""
    pairs = blocks.shape[-1] // 2
    return np.take(blocks, np.repeat(np.arange(2 * pairs), (sig.s, sig.r) * pairs), -1, out)


def _tower(spec: CurveSpec, psi, orders) -> list[np.ndarray]:
    """`_block_tower` with each value repeated over its block, as `curve_derivative` gives it."""
    return [_expand(b, spec.sig) for b in _block_tower(spec, psi, orders)]


def curve_derivative(spec: CurveSpec, psi, m: int) -> np.ndarray:
    """m-th parameter derivative of the uniform curve at psi.

    A scalar psi gives n coordinates, an array of psi one row per value.
    With w = sqrt(s*r) and k = m // 2, even m gives sqrt(r/s) * R_eff *
    (s*r)^k * sinh(w*psi) in the time-like block and R_eff * (s*r)^k *
    cosh(w*psi) in the space-like one; odd m gives r * R_eff * (s*r)^k *
    cosh(w*psi) and w * R_eff * (s*r)^k * sinh(w*psi). Each block is filled
    from one value per sample, so its entries are bitwise identical.
    math.sinh/cosh keep every row equal to the scalar formula, and raise
    OverflowError once |w*psi| exceeds about 710.
    """
    return _tower(spec, psi, (m,))[0]


def point_at(psi: float, spec: CurveSpec) -> np.ndarray:
    """`curve_derivative(spec, psi, 0)`; kept only since perfbench's `TRACED` reads it by name."""
    return curve_derivative(spec, psi, 0)


def velocity_at(psi: float, spec: CurveSpec) -> np.ndarray:
    """`curve_derivative(spec, psi, 1)`; kept only since perfbench's `TRACED` reads it by name."""
    return curve_derivative(spec, psi, 1)
