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

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .bundle import bundle_dim, curve_lift
from .geometry import (DEFAULT_TOL, CurveSpec, Signature, curve_derivative, inner_product,
                       is_integer)
from .ode import (IntegratorConfig, check_resolved, check_span, closed_form_trajectory,
                  convergence_order, integrate, max_deviation)
from .transform import apply, boost, isometry_defect, random_isometry

__all__ = ["DEFAULT_SEED", "Check", "CellReport", "run_cell_checks", "run_sweep"]

DEFAULT_SEED = 20260810

_FD_PSI = np.linspace(-0.9, 0.9, 19)
_LIFT_PSI = np.array([-0.8, 0.3, 0.9])
_CONVERGENCE_STEPS = (60, 120, 240)
_TRANSFORM_TRIALS = 24
_PEAK_MAX = 1e152


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
    # 0.0 exactly when each block is bitwise uniform: -0.0 beside +0.0 differ
    # by 0.0 yet print apart, so a difference in sign alone reads 1.0
    heads = np.repeat(arr[..., [0, s]], (s, arr.shape[-1] - s), axis=-1)
    return _max_abs(arr - heads) or float(np.any(np.signbit(arr) != np.signbit(heads)))


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def _cell_plan(sig, radius, psi_start, psi_end, samples, steps, tol, seed,
               fault_r_eff) -> list:
    """Validate one cell's parameters; return its IntegratorConfigs at `steps`
    and at each of `_CONVERGENCE_STEPS`, whose spec is the one its curve is
    evaluated with.

    Raises ValueError for a cell the battery cannot serve, naming the limit.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol == math.inf:
        # the bounds scale with tol, and an infinite bound passes any residual
        raise ValueError(f"tolerance must be finite, got {tol}")
    # numpy seeds a generator from non-negative integers only
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if samples < 2:
        raise ValueError(f"need at least 2 psi samples, got {samples}")
    spec = CurveSpec(sig, radius)  # rejects a bad radius before any use of it
    # inner products sum squared coordinates: on the grid their partial sums
    # reach 2*s*r*(R*cosh(w*psi))^2, and the isometry images at |psi| <= 1 up
    # to e^6 times that (five boosts of rapidity <= 0.6); with
    # sqrt(s*r)*R*e^(w*psi) <= _PEAK_MAX both stay below 2*e^6*1e304 < 1.8e308
    w = spec.frequency
    psi_reach = max(abs(psi_start), abs(psi_end), 1.0)
    radius_max = math.exp(math.log(_PEAK_MAX / w) - w * psi_reach)
    # RK4 rounding seeds the flow's growing mode at up to steps*u*|y0|, and the
    # mode multiplies it by e^(w*span); bounding sqrt(s*r)*R*steps*u*e^(w*(|psi_start|
    # + span)) by _PEAK_MAX keeps the products along the integrated flow finite too
    steps_max = max(steps, *_CONVERGENCE_STEPS)
    flow_max = math.exp(math.log(_PEAK_MAX / (w * steps_max * 2.0**-53))
                        - w * (abs(psi_start) + abs(psi_end - psi_start)))
    flow_error = ValueError(
        f"sqrt(s*r) * R * steps * 2^-53 * exp(sqrt(s*r) * (|psi_start| + span)) must stay "
        f"below {_PEAK_MAX:g}, so that the integrated flow's rounding stays finite; for "
        f"(s, r) = ({sig.s}, {sig.r}), psi in [{psi_start:g}, {psi_end:g}] and {steps_max} "
        f"steps that caps the radius at {flow_max:.6g}, got {radius:g}"
    )
    if radius > radius_max:
        # above both caps, the smaller one is the one that binds
        if flow_max < radius_max:
            raise flow_error
        raise ValueError(
            f"sqrt(s*r) * R * exp(sqrt(s*r) * max(|psi|, 1)) must stay below {_PEAK_MAX:g}, "
            f"so that the inner products stay finite; for (s, r) = ({sig.s}, {sig.r}) and "
            f"|psi| up to {psi_reach:g} that caps the radius at {radius_max:.6g}, got {radius:g}"
        )
    if fault_r_eff:
        spec = CurveSpec(sig, radius * math.sqrt(sig.r))
    cfgs = [IntegratorConfig(psi_start, psi_end, k, spec) for k in (steps, *_CONVERGENCE_STEPS)]
    # the bound above assumes every step count the cell integrates is resolved
    check_resolved(cfgs[0])
    for k, cfg in zip(_CONVERGENCE_STEPS, cfgs[1:]):
        check_resolved(cfg, f"the convergence fit's {k}-step run does not change with --steps, "
                            "so the psi range must narrow")
    if radius > flow_max:
        raise flow_error
    check_span(psi_start, psi_end)
    return cfgs


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
    plan = _cell_plan(sig, radius, psi_start, psi_end, samples, steps, tol, seed, fault_r_eff)
    cfg, *fit_cfgs = plan
    spec = cfg.spec
    r2 = radius * radius
    rng = np.random.default_rng([seed, sig.s, sig.r, int(round(radius * 1e6))])
    w = spec.frequency
    s, r, n = sig.s, sig.r, sig.n
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
    num, *fits = [integrate(c) for c in plan]
    ref = closed_form_trajectory(cfg)
    psi_max = max(abs(psi_start), abs(psi_end))
    dev_bound = 1e-7 * (1.0 + r * spec.r_eff * math.cosh(psi_max * w))
    checks.append(Check("flow_deviation", max_deviation(num, ref), dev_bound))
    num_p, num_v = num[:, :n], num[:, n:]
    worst_fquad = _max_abs(inner_product(num_p, num_p, sig) - r2)
    worst_forth = _max_abs(inner_product(num_p, num_v, sig))
    checks.append(Check("flow_quadric", worst_fquad, 1e-7 * r2))
    checks.append(Check("flow_orthogonality", worst_forth, 1e-7 * r2))
    checks.append(
        Check("flow_uniformity", max(_block_spread(num_p, s), _block_spread(num_v, s)), 0.0)
    )
    slope = convergence_order(fit_cfgs, fits)
    checks.append(Check("convergence_order", abs(slope - 4.0), 0.3))

    # bundle bookkeeping on the lift tower, one whole-array lift per order
    lifts = [curve_lift(spec, _LIFT_PSI, p) for p in range(5)]
    worst_dim = float(max(abs(e.shape[-1] - bundle_dim(n, p)) for p, e in enumerate(lifts)))
    worst_proj = max(_max_abs(e[:, : e.shape[-1] // 2] - lifts[p - 1])
                     for p, e in enumerate(lifts) if p >= 1)
    # the tower itself, each row scaled by its own magnitude
    d0 = (s * r) * curve_derivative(spec, _LIFT_PSI, 0)
    d2 = curve_derivative(spec, _LIFT_PSI, 2)
    worst_second = _max_abs((d2 - d0) / np.max(np.abs(d0), axis=1, keepdims=True))
    hh = 1e-4
    worst_lift_fd = 0.0
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

    # random isometry products: defect, form preservation, quadric images; each
    # trial draws its map, then a pair of vectors, then a curve parameter
    draws = [(random_isometry(sig, rng), rng.uniform(-1.0, 1.0, (2, n)), rng.uniform(-1.0, 1.0))
             for _ in range(_TRANSFORM_TRIALS)]
    maps, pairs, psis = map(np.array, zip(*draws))
    ip = inner_product(pairs[:, 0], pairs[:, 1], sig)
    images = apply(maps, pairs)
    form_err = (inner_product(images[:, 0], images[:, 1], sig) - ip) / (1.0 + np.abs(ip))
    curve = np.stack((curve_derivative(spec, psis, 0), curve_derivative(spec, psis, 1)), axis=1)
    q, qv = np.moveaxis(apply(maps, curve), 1, 0)
    checks.append(Check("isometry_defect", isometry_defect(maps, sig), 1e-10))
    checks.append(Check("isometry_form", _max_abs(form_err), 1e-10))
    checks.append(Check("isometry_quadric", _max_abs(inner_product(q, q, sig) - r2), 1e-9 * r2))
    checks.append(Check("isometry_pair_orthogonality", _max_abs(inner_product(q, qv, sig)),
                        1e-10 * r2))

    # for the (1,1) plane a boost acts as a parameter shift on the curve; the
    # rounding error of the shift is relative, so its bound scales with R_eff
    if s == 1 and r == 1:
        shift_psi = np.linspace(psi_start, psi_end, 21)
        shifts = np.linspace(-1.0, 1.0, 9)
        got = apply(np.array([boost(sig, 0, 1, float(a)) for a in shifts]),
                    curve_derivative(spec, shift_psi, 0))
        want = curve_derivative(spec, shift_psi + shifts[:, None], 0)
        checks.append(Check("boost_translation", _max_abs(got - want),
                            1e-10 * max(1.0, spec.r_eff)))

    return CellReport(sig, radius, tuple(checks))


# the cell parameters that have a default, read once from run_cell_checks itself
_CELL_DEFAULTS = {k: v.default for k, v in inspect.signature(run_cell_checks).parameters.items()
                  if v.default is not v.empty}


def run_sweep(max_sig: int = 4, radii=(1.0,), **cell):
    """Run the battery over s, r in 1..max_sig and every radius.

    `cell` holds keyword arguments of `run_cell_checks`, passed to every
    cell. Returns one CellReport per (s, r, radius), ordered by (s, r, radius).
    Every cell is validated before any is integrated.
    """
    if max_sig < 1:
        raise ValueError(f"max_sig must be at least 1, got {max_sig}")
    unknown = sorted(cell.keys() - _CELL_DEFAULTS.keys())
    if unknown:
        raise TypeError(f"run_cell_checks() got unexpected keyword arguments {unknown}")
    p = {**_CELL_DEFAULTS, **cell}
    # each cell is validated as the walk reaches it, before the next is built
    cells = []
    for s in range(1, max_sig + 1):
        for r in range(1, max_sig + 1):
            sig = Signature(s, r)
            for radius in map(float, radii):
                _cell_plan(sig, radius, **p)
                cells.append((sig, radius))
    return [run_cell_checks(sig, radius, **cell) for sig, radius in cells]
