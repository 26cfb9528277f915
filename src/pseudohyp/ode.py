"""The coupled first-order system behind the uniform curve, a fixed-step
classic Runge-Kutta integrator for it, and residual checks that cross-validate
the numeric flow against the closed form.

The system is linear and coordinate-symmetric: every dx_j equals the sum of
the time-like coordinates and every dt_i equals the sum of the space-like
ones. Each block of the right-hand side is therefore a single broadcast
scalar, which keeps integrated blocks bitwise uniform when they start uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import CurveSpec, Signature, curve_derivative, is_integer, point_at

__all__ = [
    "Provenance",
    "IntegratorConfig",
    "Trajectory",
    "system_rhs",
    "integrate",
    "closed_form_trajectory",
    "max_deviation",
    "second_order_residual",
    "convergence_order",
]


class Provenance(Enum):
    CLOSED_FORM = "closed_form"
    INTEGRATED = "integrated"


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


@dataclass(eq=False)
class Trajectory:
    """Ordered samples (psi, point, velocity) sharing one signature.

    `points` and `velocities` are (m, n) arrays whose k-th rows belong to
    psi[k]. The parameter values must be strictly monotone.
    """

    spec: CurveSpec
    provenance: Provenance
    psi: np.ndarray
    points: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        m = self.psi.shape[0]
        n = self.spec.sig.n
        if self.points.shape != (m, n) or self.velocities.shape != (m, n):
            raise ValueError(
                f"expected point/velocity arrays of shape ({m}, {n}), got "
                f"{self.points.shape} and {self.velocities.shape}"
            )
        if m > 1:
            d = np.diff(self.psi)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("psi values must be strictly monotone")

    def __len__(self) -> int:
        return self.psi.shape[0]


def system_rhs(y: np.ndarray, sig: Signature) -> np.ndarray:
    """Right-hand side of the flow at the point y of n coordinates.

    Every space-like derivative is the sum of the time-like coordinates and
    every time-like derivative is the sum of the space-like ones; the shared
    value per block is what drives the uniform parametrization. Each sum is
    computed once and broadcast, keeping the blocks bit-identical.
    """
    s = sig.s
    out = np.empty_like(y)
    out[:s] = y[s:].sum()
    out[s:] = y[:s].sum()
    return out


def integrate(cfg: IntegratorConfig, initial: np.ndarray) -> Trajectory:
    """Classic four-stage fixed-step integration of the flow.

    `initial` is the start point, an (n,) array. Velocities are recorded
    from the right-hand side at every sample. Deterministic for fixed inputs.
    """
    sig = cfg.spec.sig
    y0 = np.asarray(initial, dtype=float)
    if y0.shape != (sig.n,):
        raise ValueError(
            f"initial point must have shape ({sig.n},) for signature "
            f"({sig.s},{sig.r}), got shape {y0.shape}"
        )
    grid = cfg.grid()
    h = cfg.step
    m = grid.shape[0]
    points = np.empty((m, sig.n))
    velocities = np.empty_like(points)
    points[0] = y0
    velocities[0] = system_rhs(points[0], sig)
    for k in range(m - 1):
        # the first stage is the velocity already recorded for this sample
        y, k1 = points[k], velocities[k]
        k2 = system_rhs(y + 0.5 * h * k1, sig)
        k3 = system_rhs(y + 0.5 * h * k2, sig)
        k4 = system_rhs(y + h * k3, sig)
        points[k + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        velocities[k + 1] = system_rhs(points[k + 1], sig)
    return Trajectory(cfg.spec, Provenance.INTEGRATED, grid, points, velocities)


def closed_form_trajectory(cfg: IntegratorConfig) -> Trajectory:
    """The closed-form curve and its velocity on the grid `integrate` uses.

    Row k equals `point_at` / `velocity_at` at grid[k] bit for bit.
    """
    grid = cfg.grid()
    points = curve_derivative(cfg.spec, grid, 0)
    velocities = curve_derivative(cfg.spec, grid, 1)
    return Trajectory(cfg.spec, Provenance.CLOSED_FORM, grid, points, velocities)


def max_deviation(a: Trajectory, b: Trajectory) -> float:
    """Largest coordinate difference between two trajectories on one grid.

    Covers both the point and the velocity channels. The trajectories must
    share their signature and their psi grid exactly.
    """
    if a.spec.sig != b.spec.sig:
        raise ValueError("trajectories have different signatures")
    if not np.array_equal(a.psi, b.psi):
        raise ValueError("trajectories are sampled on different psi grids")
    dev_p = float(np.max(np.abs(a.points - b.points))) if len(a) else 0.0
    dev_v = float(np.max(np.abs(a.velocities - b.velocities))) if len(a) else 0.0
    return max(dev_p, dev_v)


def second_order_residual(traj: Trajectory) -> float:
    """Worst violation of x'' = s*r*x estimated by central second differences.

    Needs at least three uniformly spaced samples; the stencil is second
    order, so on closed-form samples the residual is dominated by
    (h^2 / 12) * (s*r)^2 * max|x|.
    """
    m = len(traj)
    if m < 3:
        raise ValueError(f"need at least 3 samples, got {m}")
    h = (traj.psi[-1] - traj.psi[0]) / (m - 1)
    d = np.diff(traj.psi)
    if np.max(np.abs(d - h)) > 1e-9 * abs(h):
        raise ValueError("psi grid is not uniform")
    s = traj.spec.sig.s
    sr = s * traj.spec.sig.r
    x = traj.points[:, s:]
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (h * h)
    return float(np.max(np.abs(xdd - sr * x[1:-1])))


def convergence_order(
    spec: CurveSpec,
    psi_start: float,
    psi_end: float,
    step_counts,
) -> float:
    """Fitted order of accuracy from deviations at several step counts.

    Integrates from point_at(psi_start) at each step count, measures the
    deviation from the closed form, and returns the slope of log(deviation)
    against log(step size). The classic four-stage scheme gives about 4.
    """
    step_counts = list(step_counts)
    if len(step_counts) < 3:
        raise ValueError("need at least 3 step counts for a slope fit")
    if psi_start == psi_end:
        raise ValueError(
            f"a slope fit needs a step size above zero, got psi_start == psi_end == {psi_start:g}"
        )
    hs = []
    devs = []
    initial = point_at(psi_start, spec)
    for steps in step_counts:
        cfg = IntegratorConfig(psi_start, psi_end, steps, spec)
        dev = max_deviation(integrate(cfg, initial), closed_form_trajectory(cfg))
        hs.append(abs(cfg.step))
        devs.append(max(dev, 1e-300))
    slope, _ = np.polyfit(np.log(hs), np.log(devs), 1)
    return float(slope)
