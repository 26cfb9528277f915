"""Per-signature verification battery behind the `verify` command.

For every grid cell (s, r, R) this runs the closed-form invariants, the
integrator cross-checks, the bundle bookkeeping, and the isometry sweeps,
and reports the worst residual of each check against its bound. All checks
are deterministic: random draws come from a generator seeded per cell.

`fault_r_eff=True` deliberately evaluates the curve with amplitude R instead
of R/sqrt(r) while still checking against the quadric of R. Cells with r >= 2
must then fail with a form residual of (r-1) * R^2, which proves the sweep is
able to reject a wrong implementation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bundle import bundle_dim, curve_lift, project
from .geometry import (DEFAULT_TOL, CurveSpec, Signature, curve_derivative, inner_product,
                       point_at, velocity_at)
from .ode import IntegratorConfig, closed_form_trajectory, convergence_order, integrate, max_deviation
from .transform import apply, boost, isometry_defect, random_isometry

__all__ = ["DEFAULT_SEED", "Check", "CellReport", "run_cell_checks", "run_sweep"]

DEFAULT_SEED = 20260810

_FD_PSI = np.linspace(-0.9, 0.9, 19)
_LIFT_PSI = np.array([-0.8, 0.3, 0.9])
_CONVERGENCE_STEPS = (60, 120, 240)
_TRANSFORM_TRIALS = 24


@dataclass(frozen=True)
class Check:
    """One named residual check: passes when worst <= bound."""

    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound

    @property
    def ratio(self) -> float:
        if self.bound > 0:
            return self.worst / self.bound
        return 0.0 if self.worst == 0.0 else math.inf


@dataclass(frozen=True)
class CellReport:
    """All check results for one (signature, radius) cell."""

    sig: Signature
    radius: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_check(self) -> Check:
        return max(self.checks, key=lambda c: c.ratio)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


def _block_spread(arr: np.ndarray, s: int) -> float:
    # 0.0 exactly when each block is bitwise uniform
    spread_t = float(np.max(np.abs(arr[..., :s] - arr[..., :1])))
    spread_x = float(np.max(np.abs(arr[..., s:] - arr[..., s : s + 1])))
    return max(spread_t, spread_x)


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def run_cell_checks(
    sig: Signature,
    radius: float,
    psi_start: float = -2.0,
    psi_end: float = 2.0,
    samples: int = 100,
    steps: int = 2000,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    fault_r_eff: bool = False,
) -> CellReport:
    """Run the full battery for one cell and report worst residuals."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if samples < 2:
        raise ValueError(f"need at least 2 psi samples, got {samples}")
    spec = CurveSpec(sig, radius)  # rejects a bad radius before it seeds the generator
    r2 = radius * radius
    if not sys.float_info.min <= r2 < math.inf:
        raise ValueError(
            "radius must lie in about [1.5e-154, 1.3e154], so that its square is a "
            f"normal float, got {radius:g}"
        )
    rng = np.random.default_rng([seed, sig.s, sig.r, int(round(radius * 1e6))])
    if fault_r_eff:
        spec = CurveSpec(sig, radius * math.sqrt(sig.r))
    s, r, n = sig.s, sig.r, sig.n
    w = spec.frequency
    checks = []

    # closed-form invariants on the psi grid
    grid = np.linspace(psi_start, psi_end, samples)
    pts = curve_derivative(spec, grid, 0)
    vel = curve_derivative(spec, grid, 1)
    worst_quad = _max_abs(inner_product(pts, pts, sig) - r2)
    worst_orth = _max_abs(inner_product(pts, vel, sig))
    worst_vnorm = _max_abs(inner_product(vel, vel, sig) + s * r * r2)
    worst_unif = max(_block_spread(pts, s), _block_spread(vel, s))
    checks.append(Check("quadric", worst_quad, tol * r2))
    checks.append(Check("orthogonality", worst_orth, tol * r2))
    checks.append(Check("velocity_norm", worst_vnorm, tol * s * r * r2))
    checks.append(Check("uniformity", worst_unif, 0.0))

    # velocity against a central finite difference of the points
    h = 1e-5
    fd = (curve_derivative(spec, _FD_PSI + h, 0) - curve_derivative(spec, _FD_PSI - h, 0)) / (2 * h)
    worst_fd = _max_abs(fd - curve_derivative(spec, _FD_PSI, 1))
    checks.append(Check("velocity_fd", worst_fd, 1e-8 * max(1.0, r * spec.r_eff)))

    # integrated flow against the closed form, plus conservation along it
    cfg = IntegratorConfig(psi_start, psi_end, steps, spec)
    num = integrate(cfg, point_at(psi_start, spec))
    ref = closed_form_trajectory(cfg)
    psi_max = max(abs(psi_start), abs(psi_end))
    dev_bound = 1e-7 * (1.0 + r * spec.r_eff * math.cosh(psi_max * w))
    checks.append(Check("flow_deviation", max_deviation(num, ref), dev_bound))
    worst_fquad = _max_abs(inner_product(num.points, num.points, sig) - r2)
    worst_forth = _max_abs(inner_product(num.points, num.velocities, sig))
    checks.append(Check("flow_quadric", worst_fquad, 1e-7 * r2))
    checks.append(Check("flow_orthogonality", worst_forth, 1e-7 * r2))
    checks.append(
        Check(
            "flow_uniformity",
            max(_block_spread(num.points, s), _block_spread(num.velocities, s)),
            0.0,
        )
    )
    slope = convergence_order(spec, psi_start, psi_end, _CONVERGENCE_STEPS)
    checks.append(Check("convergence_order", abs(slope - 4.0), 0.3))

    # bundle bookkeeping on the lift tower
    worst_dim = worst_proj = worst_lift_fd = 0.0
    for psi in _LIFT_PSI:
        lifts = [curve_lift(spec, psi, p) for p in range(5)]
        for p, e in enumerate(lifts):
            worst_dim = max(worst_dim, abs(e.coords.shape[0] - bundle_dim(n, p)))
            if p >= 1:
                worst_proj = max(worst_proj, _max_abs(project(e).coords - lifts[p - 1].coords))
    # the tower itself, each row scaled by its own magnitude
    d0 = (s * r) * curve_derivative(spec, _LIFT_PSI, 0)
    d2 = curve_derivative(spec, _LIFT_PSI, 2)
    worst_second = _max_abs((d2 - d0) / np.max(np.abs(d0), axis=1, keepdims=True))
    hh = 1e-4
    for m_ord in range(1, 4):
        ahead = curve_derivative(spec, _LIFT_PSI + hh, m_ord - 1)
        fd = (ahead - curve_derivative(spec, _LIFT_PSI - hh, m_ord - 1)) / (2 * hh)
        dm = curve_derivative(spec, _LIFT_PSI, m_ord)
        scale = np.maximum(1.0, np.max(np.abs(dm), axis=1, keepdims=True))
        worst_lift_fd = max(worst_lift_fd, _max_abs((fd - dm) / scale))
    checks.append(Check("lift_dims", worst_dim, 0.0))
    checks.append(Check("lift_projection", worst_proj, 0.0))
    checks.append(Check("lift_second_derivative", worst_second, 1e-10))
    checks.append(Check("lift_fd", worst_lift_fd, 1e-6))

    # random isometry products: defect, form preservation, quadric images
    worst_defect = worst_form = worst_image = worst_pair = 0.0
    for _ in range(_TRANSFORM_TRIALS):
        m = random_isometry(sig, rng)
        worst_defect = max(worst_defect, isometry_defect(m, sig))
        u = rng.uniform(-1.0, 1.0, n)
        vv = rng.uniform(-1.0, 1.0, n)
        ip = inner_product(u, vv, sig)
        err = abs(inner_product(apply(m, u), apply(m, vv), sig) - ip)
        worst_form = max(worst_form, err / (1.0 + abs(ip)))
        psi = float(rng.uniform(-1.0, 1.0))
        q = apply(m, point_at(psi, spec))
        worst_image = max(worst_image, abs(inner_product(q, q, sig) - r2))
        qv = apply(m, velocity_at(psi, spec))
        worst_pair = max(worst_pair, abs(inner_product(q, qv, sig)))
    checks.append(Check("isometry_defect", worst_defect, 1e-10))
    checks.append(Check("isometry_form", worst_form, 1e-10))
    checks.append(Check("isometry_quadric", worst_image, 1e-9 * r2))
    checks.append(Check("isometry_pair_orthogonality", worst_pair, 1e-10 * r2))

    # for the (1,1) plane a boost acts as a parameter shift on the curve; the
    # rounding error of the shift is relative, so its bound scales with R_eff
    if s == 1 and r == 1:
        shift_psi = np.linspace(psi_start, psi_end, 21)
        base = curve_derivative(spec, shift_psi, 0)
        worst_shift = 0.0
        for a in np.linspace(-1.0, 1.0, 9):
            got = apply(boost(sig, 0, 1, float(a)), base)
            want = curve_derivative(spec, shift_psi + a, 0)
            worst_shift = max(worst_shift, _max_abs(got - want))
        checks.append(Check("boost_translation", worst_shift, 1e-10 * max(1.0, spec.r_eff)))

    return CellReport(sig, radius, tuple(checks))


def run_sweep(max_sig: int = 4, radii=(1.0,), **cell):
    """Run the battery over s, r in 1..max_sig and every radius.

    `cell` holds keyword arguments of `run_cell_checks`, passed to every
    cell. Returns one CellReport per (s, r, radius), ordered by (s, r, radius).
    """
    if max_sig < 1:
        raise ValueError(f"max_sig must be at least 1, got {max_sig}")
    return [
        run_cell_checks(Signature(s, r), float(radius), **cell)
        for s in range(1, max_sig + 1)
        for r in range(1, max_sig + 1)
        for radius in radii
    ]
