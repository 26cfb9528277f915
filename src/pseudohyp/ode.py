"""The coupled first-order system behind the uniform curve, a fixed-step
classic Runge-Kutta integrator for it, and residual checks that cross-validate
the numeric flow against the closed form.

The system is linear and coordinate-symmetric: every dx_j equals the sum of
the time-like coordinates and every dt_i equals the sum of the space-like
ones. Each block of the right-hand side is therefore a single broadcast
scalar, which keeps integrated blocks bitwise uniform when they start uniform.
The one RK4 loop steps a batch of flows with any signatures at once, and
every flow in it comes out as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import CurveSpec, Signature, curve_derivative, is_integer

__all__ = [
    "Provenance",
    "IntegratorConfig",
    "check_resolved",
    "check_span",
    "Trajectory",
    "system_rhs",
    "integrate_batch",
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


def system_rhs(y: np.ndarray, sig: Signature) -> np.ndarray:
    """Right-hand side of the flow at the point y of n coordinates.

    Every space-like derivative is the sum of the time-like coordinates and
    every time-like derivative is the sum of the space-like ones; the shared
    value per block is what drives the uniform parametrization. This is the
    right-hand side `integrate_batch` steps, on a batch of one.
    """
    state = _padded([sig], [y])
    out = np.zeros_like(state)
    _flow_rhs([sig])(state, out)
    return out[0, _columns([sig])[0]]


def _columns(sigs) -> list:
    """Per signature, the columns of its n coordinates in the padded batch state.

    A row of the state is [0, t_1..t_s, 0.., 0, x_1..x_r, 0..]: each block
    follows one zero and is padded with zeros to the widest block of the
    batch, S time-like and R space-like entries.
    """
    S = max(sig.s for sig in sigs)
    return [np.r_[1 : 1 + sig.s, S + 2 : S + 2 + sig.r] for sig in sigs]


def _padded(sigs, rows) -> np.ndarray:
    """The (B, S + R + 2) batch state holding one row of n coordinates per signature."""
    S = max(sig.s for sig in sigs)
    state = np.zeros((len(sigs), S + max(sig.r for sig in sigs) + 2))
    for b, (sig, cols) in enumerate(zip(sigs, _columns(sigs))):
        y = np.asarray(rows[b], dtype=float)
        if y.shape != (sig.n,):
            raise ValueError(
                f"initial point must have shape ({sig.n},) for signature "
                f"({sig.s},{sig.r}), got shape {y.shape}"
            )
        state[b, cols] = y
    return state


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
    state (see `_columns`), and each returned Trajectory equals the
    `integrate` run of its own config bit for bit. Velocities are recorded
    from the right-hand side at every sample.
    """
    cfgs, initials = list(cfgs), list(initials)
    if not cfgs or len(cfgs) != len(initials):
        raise ValueError(f"need one initial point per config, got {len(initials)} for {len(cfgs)}")
    first = cfgs[0]
    if any((c.psi_start, c.psi_end, c.steps) != (first.psi_start, first.psi_end, first.steps)
           for c in cfgs):
        raise ValueError("batched configs must share psi_start, psi_end and steps")
    sigs = [cfg.spec.sig for cfg in cfgs]
    y0 = _padded(sigs, initials)
    grid = first.grid()
    h = first.step
    rhs = _flow_rhs(sigs)
    # zero-filled, so the padding and the blocks' leading zeros stay +0.0
    points = np.zeros((grid.shape[0],) + y0.shape)
    velocities = np.zeros_like(points)
    k2, k3, k4 = np.zeros((3,) + y0.shape)
    points[0] = y0
    rhs(points[0], velocities[0])
    half, sixth = 0.5 * h, h / 6.0
    for k in range(grid.shape[0] - 1):
        # the first stage is the velocity already recorded for this sample
        y, k1 = points[k], velocities[k]
        rhs(y + half * k1, k2)
        rhs(y + half * k2, k3)
        rhs(y + h * k3, k4)
        np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=points[k + 1])
        rhs(points[k + 1], velocities[k + 1])
    return [Trajectory(cfg.spec, Provenance.INTEGRATED, grid, points[:, b, cols],
                       velocities[:, b, cols])
            for b, (cfg, cols) in enumerate(zip(cfgs, _columns(sigs)))]


def integrate(cfg: IntegratorConfig, initial: np.ndarray) -> Trajectory:
    """Classic four-stage fixed-step integration of the flow.

    `initial` is the start point, an (n,) array; this is `integrate_batch`
    with a batch of one. Deterministic for fixed inputs.
    """
    return integrate_batch([cfg], [initial])[0]


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


def check_span(psi_start: float, psi_end: float) -> None:
    """Raise ValueError when [psi_start, psi_end] has zero length, which leaves no step to fit."""
    if psi_start == psi_end:
        raise ValueError(
            f"a slope fit needs a step size above zero, got psi_start == psi_end == {psi_start:g}"
        )


def convergence_order(trajs) -> float:
    """Fitted order of accuracy of integrated trajectories at several step counts.

    `trajs` holds at least three `integrate` runs over one psi interval at
    different step counts. Measures each one's deviation from the closed
    form on its own grid and returns the slope of log(deviation) against
    log(step size). The classic four-stage scheme gives about 4.
    """
    trajs = list(trajs)
    if len(trajs) < 3:
        raise ValueError("need at least 3 step counts for a slope fit")
    hs = []
    devs = []
    for traj in trajs:
        check_span(traj.psi[0], traj.psi[-1])
        cfg = IntegratorConfig(traj.psi[0], traj.psi[-1], len(traj) - 1, traj.spec)
        dev = max_deviation(traj, closed_form_trajectory(cfg))
        hs.append(abs(cfg.step))
        devs.append(max(dev, 1e-300))
    slope, _ = np.polyfit(np.log(hs), np.log(devs), 1)
    return float(slope)
