"""Per-signature verification battery behind the `verify` command.

For every grid cell (s, r, R) four check groups run, in order: closed form,
flow, bundle, and isometry with the (1,1) boost shift. Each evaluates each of
its psi arrays once, all orders from one tower, and reports every check's
worst residual against its bound. Random draws are seeded per cell. The
closed-form invariants and main flow run use block values and `_block_inner`,
bit for bit `inner_product` of the n-wide rows `geometry._expand` lays out.

`fault_r_eff=True` deliberately evaluates the curve with amplitude R instead
of R/sqrt(r) while still checking against the quadric of R. Cells with r >= 2
must then fail with a form residual of (r-1) * R^2, which proves the sweep is
able to reject a wrong implementation.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .bundle import bundle_dim, curve_lift
from .geometry import (CurveSpec, Signature, _block_inner, _block_tower, _tower, curve_derivative,
                       inner_product, is_integer)
from .ode import (IntegratorConfig, _closed_form_blocks, _integrate_blocks, check_resolved,
                  check_span, convergence_order, max_deviation)
from .transform import apply, boost, isometry_defect, random_isometry

__all__ = ["DEFAULT_SEED", "Check", "CellReport", "run_cell_checks", "run_sweep"]

DEFAULT_SEED = 20260810

_CLOSED_FORM_SAMPLES = 100
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


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def _cell_plan(sig, radius, psi_start, psi_end, steps, seed, fault_r_eff) -> list:
    """Validate one cell's parameters; return its IntegratorConfigs at `steps`
    and at each of `_CONVERGENCE_STEPS`, with the spec its curve is evaluated with.

    Raises ValueError, naming the limit, at the first check the cell fails: its
    inputs, then the one radius cap, RK4 resolution and a step that underflows.
    """
    # numpy seeds a generator from non-negative integers only
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    spec = CurveSpec(sig, radius)
    cfgs = [IntegratorConfig(psi_start, psi_end, k, spec) for k in (steps, *_CONVERGENCE_STEPS)]
    # inner products sum squared coordinates: on the grid their partial sums
    # reach 2*s*r*(R*cosh(w*psi))^2, and the isometry images at |psi| <= 1 up
    # to e^6 times that (five boosts of rapidity <= 0.6); with
    # sqrt(s*r)*R*e^(w*psi) <= _PEAK_MAX both stay below 2*e^6*1e304 < 1.8e308
    w = spec.frequency
    psi_reach = max(abs(psi_start), abs(psi_end), 1.0)
    curve_max = math.exp(math.log(_PEAK_MAX / w) - w * psi_reach)
    # RK4 rounding seeds the flow's growing mode at up to steps*u*|y0|, and the
    # mode multiplies it by e^(w*span); bounding sqrt(s*r)*R*steps*u*e^(w*(|psi_start|
    # + span)) by _PEAK_MAX keeps the products along the integrated flow finite too
    steps_max = max(steps, *_CONVERGENCE_STEPS)
    flow_max = math.exp(math.log(_PEAK_MAX / (w * steps_max * 2.0**-53))
                        - w * (abs(psi_start) + abs(psi_end - psi_start)))
    cap = min(curve_max, flow_max)  # the smaller binds, and the curve's at a tie
    if radius > cap:
        limit = (f"sqrt(s*r) * R * steps * 2^-53 * exp(sqrt(s*r) * (|psi_start| + span)) must "
                 f"stay below {_PEAK_MAX:g}, so that the integrated flow's rounding stays finite; "
                 f"for (s, r) = ({sig.s}, {sig.r}), psi in [{psi_start:g}, {psi_end:g}] and "
                 f"{steps_max} steps" if flow_max < curve_max else
                 f"sqrt(s*r) * R * exp(sqrt(s*r) * max(|psi|, 1)) must stay below {_PEAK_MAX:g}, "
                 f"so that the inner products stay finite; for (s, r) = ({sig.s}, {sig.r}) and "
                 f"|psi| up to {psi_reach:g}")
        raise ValueError(f"{limit} that caps the radius at {cap:.6g}, got {radius:g}")
    # the flow cap assumes every count is resolved; finer fit runs are when the coarsest is
    check_resolved(cfgs[0])
    check_resolved(cfgs[1], f"the convergence fit's {cfgs[1].steps}-step run does not change "
                            "with --steps, so the psi range must narrow")
    check_span(cfgs[-1])  # the finest fit run has the smallest step
    if fault_r_eff:
        cfgs = [replace(cfg, spec=CurveSpec(sig, radius * math.sqrt(sig.r))) for cfg in cfgs]
    return cfgs


def _closed_form_checks(spec: CurveSpec, r2: float, grid: np.ndarray) -> list:
    """The closed form's invariants on the grid; its velocity against a central difference."""
    sig = spec.sig
    pts, vel = _block_tower(spec, grid, (0, 1))
    h = 1e-5
    ahead, behind = _tower(spec, _FD_PSI + [[h], [-h]], (0,))[0]
    fd = (ahead - behind) / (2 * h)
    return [
        Check("quadric", _max_abs(_block_inner(pts, pts, sig) - r2), 1e-9 * r2),
        Check("orthogonality", _max_abs(_block_inner(pts, vel, sig)), 1e-9 * r2),
        Check("velocity_norm", _max_abs(_block_inner(vel, vel, sig) + sig.s * sig.r * r2),
              1e-9 * sig.s * sig.r * r2),
        Check("velocity_fd", _max_abs(fd - curve_derivative(spec, _FD_PSI, 1)),
              1e-8 * max(1.0, sig.r * spec.r_eff)),
    ]


def _flow_checks(plan: list, r2: float) -> list:
    """The integrated flow against the closed form, conservation along it, its fitted order."""
    cfg, *fit_cfgs = plan
    spec, sig = cfg.spec, cfg.spec.sig
    num = _integrate_blocks(cfg)
    psi_max = max(abs(cfg.psi_start), abs(cfg.psi_end))
    dev_bound = 1e-7 * (1.0 + sig.r * spec.r_eff * math.cosh(psi_max * spec.frequency))
    num_p, num_v = num[:, :2], num[:, 2:]
    return [
        Check("flow_deviation", max_deviation(num, _closed_form_blocks(cfg)), dev_bound),
        Check("flow_quadric", _max_abs(_block_inner(num_p, num_p, sig) - r2), 1e-7 * r2),
        Check("flow_orthogonality", _max_abs(_block_inner(num_p, num_v, sig)), 1e-7 * r2),
        Check("convergence_order", abs(convergence_order(fit_cfgs) - 4.0), 0.3),
    ]


def _bundle_checks(spec: CurveSpec) -> list:
    """The lifts' bookkeeping, then the tower itself, each row scaled by its own magnitude."""
    sig = spec.sig
    lifts = [curve_lift(spec, _LIFT_PSI, p) for p in range(5)]
    worst_dim = float(max(abs(e.shape[-1] - bundle_dim(sig.n, p)) for p, e in enumerate(lifts)))
    worst_proj = max(_max_abs(e[:, : e.shape[-1] // 2] - below)
                     for below, e in zip(lifts, lifts[1:]))
    tower = np.array(_tower(spec, _LIFT_PSI, range(4)))
    d0 = (sig.s * sig.r) * tower[0]
    worst_second = _max_abs((tower[2] - d0) / np.max(np.abs(d0), axis=1, keepdims=True))
    # orders 1..3 against a central difference of the order below, at +hh and -hh at once
    hh = 1e-4
    ahead, behind = np.moveaxis(_tower(spec, _LIFT_PSI + [[hh], [-hh]], range(3)), 1, 0)
    scale = np.maximum(1.0, np.max(np.abs(tower[1:]), axis=-1, keepdims=True))
    worst_lift_fd = _max_abs(((ahead - behind) / (2 * hh) - tower[1:]) / scale)
    return [
        Check("lift_dims", worst_dim, 0.0),
        Check("lift_projection", worst_proj, 0.0),
        Check("lift_second_derivative", worst_second, 1e-10),
        Check("lift_fd", worst_lift_fd, 1e-6),
    ]


def _isometry_checks(cfg: IntegratorConfig, r2: float, rng: np.random.Generator) -> list:
    """Random isometries and their images of the curve; on (1,1), a boost as a shift."""
    spec, sig = cfg.spec, cfg.spec.sig
    # each trial draws its map, then a pair of vectors, then a curve parameter
    draws = [(random_isometry(sig, rng), rng.uniform(-1.0, 1.0, (2, sig.n)),
              rng.uniform(-1.0, 1.0)) for _ in range(_TRANSFORM_TRIALS)]
    maps, pairs, psis = map(np.array, zip(*draws))
    ip = inner_product(pairs[:, 0], pairs[:, 1], sig)
    images = apply(maps, pairs)
    form_err = (inner_product(images[:, 0], images[:, 1], sig) - ip) / (1.0 + np.abs(ip))
    q, qv = np.moveaxis(apply(maps, np.stack(_tower(spec, psis, (0, 1)), axis=1)), 1, 0)
    checks = [
        Check("isometry_defect", isometry_defect(maps, sig), 1e-10),
        Check("isometry_form", _max_abs(form_err), 1e-10),
        Check("isometry_quadric", _max_abs(inner_product(q, q, sig) - r2), 1e-9 * r2),
        Check("isometry_pair_orthogonality", _max_abs(inner_product(q, qv, sig)), 1e-10 * r2),
    ]
    # the rounding error of the shift is relative, so its bound scales with R_eff
    if sig.s == 1 and sig.r == 1:
        shift_psi = np.linspace(cfg.psi_start, cfg.psi_end, 21)
        shifts = np.linspace(-1.0, 1.0, 9)
        got = apply(np.array([boost(sig, 0, 1, float(a)) for a in shifts]),
                    curve_derivative(spec, shift_psi, 0))
        want = curve_derivative(spec, shift_psi + shifts[:, None], 0)
        checks.append(Check("boost_translation", _max_abs(got - want),
                            1e-10 * max(1.0, spec.r_eff)))
    return checks


def run_cell_checks(
    sig: Signature,
    radius: float,
    psi_start: float = -2.0,
    psi_end: float = 2.0,
    steps: int = 2000,
    seed: int = DEFAULT_SEED,
    fault_r_eff: bool = False,
) -> CellReport:
    """Run the full battery for one cell and report worst residuals."""
    plan = _cell_plan(sig, radius, psi_start, psi_end, steps, seed, fault_r_eff)
    cfg, r2 = plan[0], radius * radius
    rng = np.random.default_rng([seed, sig.s, sig.r, int(round(radius * 1e6))])
    grid = np.linspace(psi_start, psi_end, _CLOSED_FORM_SAMPLES)
    checks = (_closed_form_checks(cfg.spec, r2, grid) + _flow_checks(plan, r2)
              + _bundle_checks(cfg.spec) + _isometry_checks(cfg, r2, rng))
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
    if not is_integer(max_sig) or max_sig < 1:
        raise ValueError(f"max_sig must be an integer of at least 1, got {max_sig!r}")
    values = [float(radius) for radius in radii]
    if not values:
        raise ValueError(f"radii must hold at least one radius, got {radii!r}")
    unknown = sorted(cell.keys() - _CELL_DEFAULTS.keys())
    if unknown:
        raise TypeError(f"run_cell_checks() got unexpected keyword arguments {unknown}")
    p = {**_CELL_DEFAULTS, **cell}
    # each cell is validated as the walk reaches it, before the next is built
    cells = []
    for s in range(1, max_sig + 1):
        for r in range(1, max_sig + 1):
            sig = Signature(s, r)
            for radius in values:
                _cell_plan(sig, radius, **p)
                cells.append((sig, radius))
    return [run_cell_checks(sig, radius, **cell) for sig, radius in cells]
