"""The coupled first-order system behind the uniform curve, a fixed-step
classic Runge-Kutta integrator for it, and residual checks that cross-validate
the numeric flow against the closed form.

The system is linear and coordinate-symmetric: every dx_j equals the sum of
the s time-like coordinates and every dt_i equals the sum of the r space-like
ones. On a uniform state each block sum is a count times one value, t' = r*x
and x' = s*t, which keeps integrated blocks bitwise uniform when they start
uniform. The curve starts uniform, so the one RK4 loop steps four floats per
sample, the block values t, x, dt and dx. Both producers make a (steps + 1, 4)
table of them, which `generate` and `verify` work on; a flow, integrated or
closed form, is one `geometry._expand` of it: a plain (steps + 1, 2n) array
whose row k is [point | velocity] at cfg.grid()[k], an order-1 `curve_lift`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CurveSpec, _block_tower, _expand, is_integer

__all__ = [
    "IntegratorConfig",
    "integrate",
    "closed_form_trajectory",
    "max_deviation",
    "convergence_order",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration setup over [psi_start, psi_end].

    `steps` is the number of intervals; the sample grid includes both
    endpoints. A reversed interval (psi_end < psi_start) is allowed and
    produces a negative step.
    """

    psi_start: float
    psi_end: float
    steps: int
    spec: CurveSpec

    def __post_init__(self):
        if not is_integer(self.steps) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.steps > 2**53:  # formatted as an int: a float cannot hold every such count
            raise ValueError(f"steps must be at most 2^53 = {2**53}, the largest count whose "
                             f"step and grid a float holds exactly, got {self.steps}")
        if not (math.isfinite(self.psi_start) and math.isfinite(self.psi_end)):
            raise ValueError(
                f"psi_start and psi_end must be finite, got {self.psi_start} and {self.psi_end}"
            )

    @property
    def step(self) -> float:
        return (self.psi_end - self.psi_start) / self.steps

    def grid(self) -> np.ndarray:
        """Sample parameters, endpoints included.

        Built as psi_start + span * (k / steps) rather than by repeated
        addition of the step, so a decimal request like [0, 1] in 10 steps
        lands exactly on 0.0, 0.1, ..., 1.0. A span past the float range,
        such as [-1e308, 1e308], is weighted instead, psi_start * (1 - f) +
        psi_end * f with f = k / steps. Both endpoints are kept bit for bit,
        -0.0 included; a zero-length interval has the one sample psi_start.
        """
        a, b = float(self.psi_start), float(self.psi_end)
        if a == b:
            return np.array([a])
        f = np.arange(self.steps + 1) / self.steps
        g = a + (b - a) * f if math.isfinite(b - a) else a * (1 - f) + b * f
        g[0], g[-1] = a, b
        return g


def check_resolved(cfg: IntegratorConfig, remedy: str = "use more --steps") -> None:
    """Raise ValueError when the RK4 step is too coarse to resolve the curve.

    The flow has the modes e^(+-w*psi), w = sqrt(s*r). One RK4 step of size h
    multiplies the decaying one by R4(-h*w) > 0, R4(z) = 1 + z + z^2/2 + z^3/6 +
    z^4/24. R4(-x) - 1 = x*(x^3 - 4x^2 + 12x - 24)/24 with an increasing cubic,
    so the mode grows exactly for h*w >= x* = 2.78529356340528162..., its root.
    The limit is the largest double below x*; the message ends in `remedy`.
    """
    hw = abs(cfg.step) * cfg.spec.frequency
    if hw > 2.7852935634052813:
        raise ValueError(
            f"integrated step h*sqrt(s*r) = {hw:g} is too coarse to resolve the curve: "
            f"RK4 needs |R4(-h*sqrt(s*r))| < 1, that is h*sqrt(s*r) below about 2.785; {remedy}"
        )


def _flow(cfg: IntegratorConfig, blocks) -> np.ndarray:
    # allocated first, so a flow too large to hold fails before any block is computed
    flow = np.empty((cfg.steps + 1 if cfg.psi_end != cfg.psi_start else 1, 2 * cfg.spec.sig.n))
    return _expand(blocks(cfg), cfg.spec.sig, flow)


def _integrate_blocks(cfg: IntegratorConfig) -> np.ndarray:
    """`integrate`'s flow as block values, a (steps + 1, 4) table [t, x, dt, dx]."""
    s, r = cfg.spec.sig.s, cfg.spec.sig.r
    # the table is allocated first, so one too large to hold fails before the loop
    steps = cfg.steps if cfg.psi_end != cfg.psi_start else 0
    table = np.empty((steps + 1, 4))
    t, x = _block_tower(cfg.spec, cfg.psi_start, (0,))[0].tolist()
    cs, cr = float(s), float(r)
    h = cfg.step
    half, sixth = 0.5 * h, h / 6.0
    # t is -0.0 from a psi_start of -0.0 (and stays so if the step underflows
    # to -0.0), where a sum of its block is +0.0; x stays positive
    dt, dx = cr * x, cs * t + 0.0
    ts, xs = array("d", (t,)) * (steps + 1), array("d", (x,)) * (steps + 1)
    for k in range(1, steps + 1):
        # the first stage is the velocity already recorded for this sample
        dt2, dx2 = cr * (x + half * dx), cs * (t + half * dt)
        dt3, dx3 = cr * (x + half * dx2), cs * (t + half * dt2)
        dt4, dx4 = cr * (x + h * dx3), cs * (t + h * dt3)
        t += sixth * (dt + 2.0 * dt2 + 2.0 * dt3 + dt4)
        x += sixth * (dx + 2.0 * dx2 + 2.0 * dx3 + dx4)
        dt, dx = cr * x, cs * t + 0.0
        ts[k] = t
        xs[k] = x
    table[:, 0], table[:, 1] = ts, xs
    # the loop's velocities, by the same IEEE operations
    table[:, 2], table[:, 3] = cr * table[:, 1], cs * table[:, 0] + 0.0
    return table


def integrate(cfg: IntegratorConfig) -> np.ndarray:
    """Classic four-stage fixed-step integration of the flow from the curve's
    own point at cfg.psi_start.

    The start is uniform and every step keeps it uniform, so the loop steps
    the four block values t, x, dt and dx as Python floats. Each block sum is
    the product count * value, dt = r*x and dx = s*t: the correctly rounded
    sum of the block, equal to math.fsum of its copies, and for blocks of up
    to 3 entries equal to their left-to-right sum as well. Velocities are
    recorded from the right-hand side at every sample. Returns the flow, a
    (steps + 1, 2n) array whose row k is [point | velocity] at cfg.grid()[k].
    Deterministic for fixed inputs.
    """
    return _flow(cfg, _integrate_blocks)


def _closed_form_blocks(cfg: IntegratorConfig) -> np.ndarray:
    """`closed_form_trajectory` as block values, a (steps + 1, 4) table [t, x, dt, dx]."""
    return np.hstack(_block_tower(cfg.spec, cfg.grid(), (0, 1)))


def closed_form_trajectory(cfg: IntegratorConfig) -> np.ndarray:
    """The closed-form curve and its velocity on the grid `integrate` uses.

    Laid out as `integrate`'s flow: row k is `curve_derivative` of order 0,
    then of order 1, at cfg.grid()[k], bit for bit.
    """
    return _flow(cfg, _closed_form_blocks)


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest coordinate difference between two flows of the same shape.

    Covers both the point and the velocity channels.
    """
    if a.shape != b.shape:
        raise ValueError(f"flows have different shapes {a.shape} and {b.shape}")
    return float(np.max(np.abs(a - b), initial=0.0))


def check_span(cfg: IntegratorConfig) -> None:
    """Raise ValueError on a zero step (zero length or underflow), whose log a slope fit needs."""
    if cfg.step == 0:
        a, b = cfg.psi_start, cfg.psi_end
        got = (f"psi_start == psi_end == {a:g}" if a == b else
               f"[{a:g}, {b:g}] over {cfg.steps} steps, whose step underflows to 0")
        raise ValueError(f"a slope fit needs a step size above zero, got {got}")


def convergence_order(cfgs) -> float:
    """Fitted order of accuracy of `integrate` at several step counts.

    `cfgs` holds configs that differ in their step count only, at three or
    more step sizes. Integrates each in turn, measures its deviation from the
    closed form on its own grid and returns the slope of log(deviation)
    against log(step size). The classic four-stage scheme gives about 4.
    """
    cfgs = list(cfgs)
    for cfg in cfgs:
        check_span(cfg)
        if replace(cfg, steps=cfgs[0].steps) != cfgs[0]:
            raise ValueError("a slope fit needs runs that differ in their step count only, "
                             f"got {cfgs[0]} and {cfg}")
    hs = [abs(cfg.step) for cfg in cfgs]
    if len(set(hs)) < 3:
        raise ValueError(f"a slope fit needs at least 3 distinct step sizes, got "
                         f"{len(set(hs))} from step counts {[cfg.steps for cfg in cfgs]}")
    devs = [max(max_deviation(integrate(cfg), closed_form_trajectory(cfg)), 1e-300)
            for cfg in cfgs]
    slope, _ = np.polyfit(np.log(hs), np.log(devs), 1)
    return float(slope)
