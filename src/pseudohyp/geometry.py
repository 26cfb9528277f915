"""Signature (s, r) geometry: the indefinite inner product and the uniform
sinh/cosh curve family on the constant-form quadric.

Points and tangent vectors are plain arrays of n = s + r coordinates, laid
out as [t-block | x-block]: s time-like axes carrying weight -1 in the
product, followed by r space-like axes carrying weight +1. The quadric of
constant R is the set -sum(t_i^2) + sum(x_j^2) = R^2, and the curve family
produced by `point_at` stays on it for every parameter value.
`curve_derivative` and `inner_product` also work on whole arrays of samples,
one row each.

Everything here is a pure function of its inputs; values can be shared freely
across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "Signature",
    "CurveSpec",
    "is_integer",
    "inner_product",
    "curve_derivative",
    "point_at",
    "velocity_at",
]

DEFAULT_TOL = 1e-9

# Veltkamp's constant 2^27 + 1: splits a binary64 value into two halves
# whose pairwise products are exact
_SPLITTER = 134217729.0


def is_integer(value) -> bool:
    """True for an integer of any integral type (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
            raise TypeError("signature counts must be integers")
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
    spatial amplitudes contribute r * (R/sqrt(r))^2 = R^2.
    """

    sig: Signature
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

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
    total = err = 0.0
    for i, (a, b) in enumerate(zip(u_cols, v_cols)):
        h, e = _two_product(-a if i < sig.s else a, b)
        total, q = _two_sum(total, h)
        err = err + (q + e)
    res = total + err
    return float(res) if np.ndim(res) == 0 else res


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
    if m < 0:
        raise ValueError(f"derivative order must be non-negative, got {m}")
    sig = spec.sig
    w = spec.frequency
    power = (sig.s * sig.r) ** (m // 2)
    if m % 2 == 0:
        t_amp = math.sqrt(sig.r / sig.s) * spec.r_eff * power
        x_amp = spec.r_eff * power
        t_fn, x_fn = math.sinh, math.cosh
    else:
        t_amp = sig.r * spec.r_eff * power
        x_amp = w * spec.r_eff * power
        t_fn, x_fn = math.cosh, math.sinh
    arg = w * np.asarray(psi, dtype=float)
    flat = arg.ravel().tolist()
    out = np.empty((len(flat), sig.n))
    try:
        out[:, : sig.s] = (t_amp * np.fromiter(map(t_fn, flat), float, len(flat)))[:, None]
        out[:, sig.s :] = (x_amp * np.fromiter(map(x_fn, flat), float, len(flat)))[:, None]
    except OverflowError as exc:
        raise OverflowError(
            "the curve overflows once |psi|*sqrt(s*r) exceeds about 710, "
            f"got {np.nanmax(np.abs(arg)):g}"
        ) from exc
    return out.reshape(arg.shape + (sig.n,))


def point_at(psi: float, spec: CurveSpec) -> np.ndarray:
    """Point of the uniform curve at parameter psi, an (n,) array.

    Every time-like coordinate equals sqrt(r/s) * R_eff * sinh(sqrt(s*r)*psi)
    and every space-like coordinate equals R_eff * cosh(sqrt(s*r)*psi).
    """
    return curve_derivative(spec, psi, 0)


def velocity_at(psi: float, spec: CurveSpec) -> np.ndarray:
    """Parameter derivative of `point_at`, an (n,) array.

    Time-like components are r * R_eff * cosh(sqrt(s*r)*psi), space-like
    components sqrt(s*r) * R_eff * sinh(sqrt(s*r)*psi). The result is
    orthogonal to the point in the signature product.
    """
    return curve_derivative(spec, psi, 1)
