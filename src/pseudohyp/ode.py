"""The coupled first-order system behind the uniform curve, a fixed-step
classic Runge-Kutta integrator for it, and residual checks that cross-validate
the numeric flow against the closed form.

The system is linear and coordinate-symmetric: every dx_j equals the sum of
the time-like coordinates and every dt_i equals the sum of the space-like
ones. Each block of the right-hand side is therefore a single broadcast
scalar, which keeps integrated blocks bitwise uniform when they start uniform.
The one RK4 loop steps a batch of flows with any signatures at once, and
every flow in it comes out as it would alone. A flow, integrated or closed
form, is a plain (steps + 1, 2n) array whose row k is [point | velocity] at
cfg.grid()[k], the layout of an order-1 `curve_lift`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CurveSpec, curve_derivative, is_integer

__all__ = [
    "IntegratorConfig",
    "check_resolved",
    "check_span",
    "integrate_batch",
    "integrate",
    "closed_form_trajectory",
    "max_deviation",
    "second_order_residual",
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
        lands exactly on 0.0, 0.1, ..., 1.0. A zero-length interval yields
        the single sample psi_start.
        """
        if self.psi_end == self.psi_start:
            return np.array([float(self.psi_start)])
        span = self.psi_end - self.psi_start
        g = self.psi_start + span * (np.arange(self.steps + 1) / self.steps)
        g[-1] = self.psi_end
        return g


def check_resolved(cfg: IntegratorConfig, remedy: str = "use more --steps") -> None:
    """Raise ValueError when the RK4 step is too coarse to resolve the curve.

    The flow has the modes e^(+-w*psi), w = sqrt(s*r). One RK4 step of size h
    multiplies the decaying one by R4(-h*w), R4(z) = 1 + z + z^2/2 + z^3/6 +
    z^4/24; once |R4(-h*w)| >= 1 it grows instead (h*w >= about 2.785). The
    message ends in `remedy`.
    """
    z = -abs(cfg.step) * cfg.spec.frequency
    if z != 0 and abs(1 + z + z * z / 2 + z**3 / 6 + z**4 / 24) >= 1:
        raise ValueError(
            f"integrated step h*sqrt(s*r) = {-z:g} is too coarse to resolve the curve: "
            f"RK4 needs |R4(-h*sqrt(s*r))| < 1, that is h*sqrt(s*r) below about 2.785; {remedy}"
        )


def _columns(sigs) -> list:
    """Per signature, the columns of its n coordinates in the padded batch state.

    A row of the state is [0, t_1..t_s, 0.., 0, x_1..x_r, 0..]: each block
    follows one zero and is padded with zeros to the widest block of the
    batch, S time-like and R space-like entries.
    """
    S = max(sig.s for sig in sigs)
    return [np.r_[1 : 1 + sig.s, S + 2 : S + 2 + sig.r] for sig in sigs]


def _flow_rhs(sigs):
    """rhs(y, out): the flow's right-hand side of padded states y, written into out.

    Each block sum runs left to right from the block's leading zero, the
    order in which numpy's `sum` adds fewer than 8 entries (at 8 it turns
    pairwise); the padding zeros at the end then add exact zeros, so a
    padded row sums as its own batch of one. `rhs` writes only the real
    coordinates of out, masked when some row is padded, so the zeros of a
    zero-filled out stay +0.0.
    """
    S = max(sig.s for sig in sigs)
    R = max(sig.r for sig in sigs)
    t_blk, x_blk = slice(0, S + 1), slice(S + 1, None)
    t_out, x_out = slice(1, S + 1), slice(S + 2, None)
    accumulate = np.add.accumulate
    if all(sig.s == S and sig.r == R for sig in sigs):
        def rhs(y, out):
            out[:, t_out] = accumulate(y[:, x_blk], axis=1)[:, -1:]
            out[:, x_out] = accumulate(y[:, t_blk], axis=1)[:, -1:]
        return rhs
    t_mask = np.arange(S) < np.array([[sig.s] for sig in sigs])
    x_mask = np.arange(R) < np.array([[sig.r] for sig in sigs])
    copyto = np.copyto

    def masked_rhs(y, out):
        copyto(out[:, t_out], accumulate(y[:, x_blk], axis=1)[:, -1:], where=t_mask)
        copyto(out[:, x_out], accumulate(y[:, t_blk], axis=1)[:, -1:], where=x_mask)
    return masked_rhs


def integrate_batch(cfgs, initials) -> list:
    """Classic four-stage fixed-step integration of several flows in one loop.

    `cfgs` may differ in their curve spec but must share psi_start, psi_end
    and steps; `initials` holds each flow's start point, an (n,) array. The
    flows are stepped together as the rows of one padded (B, S + R + 2)
    state (see `_columns`), and each returned flow equals the `integrate`
    run of its own config bit for bit. Velocities are recorded from the
    right-hand side at every sample.
    """
    cfgs, initials = list(cfgs), list(initials)
    if not cfgs or len(cfgs) != len(initials):
        raise ValueError(f"need one initial point per config, got {len(initials)} for {len(cfgs)}")
    first = cfgs[0]
    if any((c.psi_start, c.psi_end, c.steps) != (first.psi_start, first.psi_end, first.steps)
           for c in cfgs):
        raise ValueError("batched configs must share psi_start, psi_end and steps")
    sigs = [cfg.spec.sig for cfg in cfgs]
    columns = _columns(sigs)
    width = max(sig.s for sig in sigs) + max(sig.r for sig in sigs) + 2
    samples = first.grid().shape[0]
    h = first.step
    rhs = _flow_rhs(sigs)
    # zero-filled, so the padding and the blocks' leading zeros stay +0.0
    points = np.zeros((samples, len(sigs), width))
    velocities = np.zeros_like(points)
    k2, k3, k4 = np.zeros((3, len(sigs), width))
    for b, (sig, y) in enumerate(zip(sigs, initials)):
        y = np.asarray(y, dtype=float)
        if y.shape != (sig.n,):
            raise ValueError(
                f"initial point must have shape ({sig.n},) for signature "
                f"({sig.s},{sig.r}), got shape {y.shape}"
            )
        points[0, b, columns[b]] = y
    rhs(points[0], velocities[0])
    half, sixth = 0.5 * h, h / 6.0
    for k in range(samples - 1):
        # the first stage is the velocity already recorded for this sample
        y, k1 = points[k], velocities[k]
        rhs(y + half * k1, k2)
        rhs(y + half * k2, k3)
        rhs(y + h * k3, k4)
        np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=points[k + 1])
        rhs(points[k + 1], velocities[k + 1])
    return [np.hstack((points[:, b, cols], velocities[:, b, cols]))
            for b, cols in enumerate(columns)]


def integrate(cfg: IntegratorConfig, initial: np.ndarray) -> np.ndarray:
    """Classic four-stage fixed-step integration of the flow.

    `initial` is the start point, an (n,) array; this is `integrate_batch`
    with a batch of one. Returns the flow, a (steps + 1, 2n) array whose row
    k is [point | velocity] at cfg.grid()[k]. Deterministic for fixed inputs.
    """
    return integrate_batch([cfg], [initial])[0]


def closed_form_trajectory(cfg: IntegratorConfig) -> np.ndarray:
    """The closed-form curve and its velocity on the grid `integrate` uses.

    Laid out as `integrate`'s flow: row k is [point_at | velocity_at] at
    cfg.grid()[k], bit for bit.
    """
    grid = cfg.grid()
    return np.hstack((curve_derivative(cfg.spec, grid, 0), curve_derivative(cfg.spec, grid, 1)))


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest coordinate difference between two flows of the same shape.

    Covers both the point and the velocity channels.
    """
    if a.shape != b.shape:
        raise ValueError(f"flows have different shapes {a.shape} and {b.shape}")
    return float(np.max(np.abs(a - b), initial=0.0))


def second_order_residual(cfg: IntegratorConfig, flow: np.ndarray) -> float:
    """Worst violation of x'' = s*r*x estimated by central second differences.

    `flow` is sampled on cfg.grid() and needs at least three samples; the
    stencil is second order, so on closed-form samples the residual is
    dominated by (h^2 / 12) * (s*r)^2 * max|x|.
    """
    m = len(flow)
    if m < 3:
        raise ValueError(f"need at least 3 samples, got {m}")
    h = cfg.step
    s, n = cfg.spec.sig.s, cfg.spec.sig.n
    x = flow[:, s:n]
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (h * h)
    return float(np.max(np.abs(xdd - s * cfg.spec.sig.r * x[1:-1])))


def check_span(psi_start: float, psi_end: float) -> None:
    """Raise ValueError when [psi_start, psi_end] has zero length, which leaves no step to fit."""
    if psi_start == psi_end:
        raise ValueError(
            f"a slope fit needs a step size above zero, got psi_start == psi_end == {psi_start:g}"
        )


def convergence_order(cfgs, flows) -> float:
    """Fitted order of accuracy of integrated flows at several step counts.

    `flows` holds at least three `integrate` runs over one psi interval at
    different step counts, and `cfgs` their configs. Measures each one's
    deviation from the closed form on its own grid and returns the slope of
    log(deviation) against log(step size). The classic four-stage scheme
    gives about 4.
    """
    runs = list(zip(cfgs, flows, strict=True))
    if len(runs) < 3:
        raise ValueError("need at least 3 step counts for a slope fit")
    for cfg, _ in runs:
        check_span(cfg.psi_start, cfg.psi_end)
    hs = [abs(cfg.step) for cfg, _ in runs]
    devs = [max(max_deviation(flow, closed_form_trajectory(cfg)), 1e-300) for cfg, flow in runs]
    slope, _ = np.polyfit(np.log(hs), np.log(devs), 1)
    return float(slope)
