"""Tests for the coupled flow, the fixed-step integrator, and its residuals."""

import math

import numpy as np
import pytest

from pseudohyp import (
    CurveSpec,
    IntegratorConfig,
    Provenance,
    Signature,
    Trajectory,
    closed_form_trajectory,
    convergence_order,
    inner_product,
    integrate,
    max_deviation,
    point_at,
    second_order_residual,
    system_rhs,
)


def spec11(radius=1.0):
    return CurveSpec(Signature(1, 1), radius)


@pytest.mark.parametrize("radius", (0.5, 1.0, 2.0))
def test_system_rhs_base_case(radius):
    v = system_rhs(np.array([0.0, radius]), Signature(1, 1))
    assert v[0] == radius
    assert v[1] == 0.0


def test_system_rhs_zero_point():
    assert np.all(system_rhs(np.zeros(5), Signature(2, 3)) == 0.0)


def test_system_rhs_hand_sums():
    # sum of x-block is 6, sum of t-block is 2
    v = system_rhs(np.array([1.0, 1.0, 2.0, 2.0, 2.0]), Signature(2, 3))
    assert np.array_equal(v, [6.0, 6.0, 2.0, 2.0, 2.0])


def test_integrator_config_validation():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 1.0, bad, spec11())
    with pytest.raises(ValueError):
        IntegratorConfig(0.0, 1.0, 1.5, spec11())
    with pytest.raises(ValueError):
        IntegratorConfig(0.0, 1.0, True, spec11())
    cfg = IntegratorConfig(0.0, 1.0, np.int64(5), spec11())
    assert type(cfg.steps) is int and cfg.steps == 5
    for start, end in ((0.0, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="psi"):
            IntegratorConfig(start, end, 5, spec11())


def test_grid_hits_decimals_exactly():
    g = IntegratorConfig(0.0, 1.0, 10, spec11()).grid()
    assert list(g) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def test_grid_endpoints_and_direction():
    cfg = IntegratorConfig(-1.25, 2.5, 7, spec11())
    g = cfg.grid()
    assert g[0] == -1.25 and g[-1] == 2.5 and len(g) == 8
    rev = IntegratorConfig(2.5, -1.25, 7, spec11()).grid()
    assert rev[0] == 2.5 and rev[-1] == -1.25
    assert np.all(np.diff(rev) < 0)


def test_zero_span_single_sample():
    spec = spec11()
    cfg = IntegratorConfig(1.5, 1.5, 1, spec)
    initial = point_at(1.5, spec)
    traj = integrate(cfg, initial)
    assert len(traj) == 1
    assert np.array_equal(traj.points[0], initial)
    ref = closed_form_trajectory(cfg)
    assert len(ref) == 1 and ref.psi[0] == 1.5


def test_integrate_signature_mismatch():
    cfg = IntegratorConfig(0.0, 1.0, 10, spec11())
    with pytest.raises(ValueError, match="signature"):
        integrate(cfg, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="signature"):
        integrate(cfg, np.zeros((1, 2)))


def test_integrate_base_case_oracle():
    spec = spec11()
    cfg = IntegratorConfig(0.0, 1.0, 1000, spec)
    traj = integrate(cfg, point_at(0.0, spec))
    assert abs(traj.points[-1][0] - math.sinh(1.0)) <= 1e-9
    assert abs(traj.points[-1][1] - math.cosh(1.0)) <= 1e-9


def test_integrate_one_two_oracle():
    # R_eff = 1, so t_1 = sqrt(2) sinh(sqrt(2) psi) and x_2 = x_3 = cosh(sqrt(2) psi)
    spec = CurveSpec(Signature(1, 2), math.sqrt(2.0))
    cfg = IntegratorConfig(0.0, 1.0, 2000, spec)
    traj = integrate(cfg, point_at(0.0, spec))
    w = math.sqrt(2.0)
    assert abs(traj.points[-1][0] - w * math.sinh(w)) <= 1e-8
    assert abs(traj.points[-1][1] - math.cosh(w)) <= 1e-8
    assert traj.points[-1][1] == traj.points[-1][2]


def test_closed_form_initial_condition_row():
    for sig in (Signature(1, 1), Signature(2, 3)):
        spec = CurveSpec(sig, 2.0)
        traj = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 4, spec))
        assert np.all(traj.points[0][: sig.s] == 0.0)
        assert np.all(traj.points[0][sig.s :] == spec.r_eff)
        assert traj.provenance is Provenance.CLOSED_FORM


def test_closed_form_base_case_values():
    spec = spec11(2.0)
    traj = closed_form_trajectory(IntegratorConfig(-1.0, 1.0, 20, spec))
    for k, psi in enumerate(traj.psi):
        assert traj.points[k][0] == 2.0 * math.sinh(psi)
        assert traj.points[k][1] == 2.0 * math.cosh(psi)


def test_closed_form_matches_point_at_bitwise():
    from pseudohyp import curve_derivative, velocity_at

    spec = CurveSpec(Signature(3, 2), 1.5)
    traj = closed_form_trajectory(IntegratorConfig(-0.7, 1.3, 13, spec))
    for k, psi in enumerate(traj.psi):
        assert np.array_equal(traj.points[k], point_at(psi, spec))
        assert np.array_equal(traj.velocities[k], velocity_at(psi, spec))
    for m in range(4):
        rows = [curve_derivative(spec, psi, m) for psi in traj.psi]
        assert np.array_equal(curve_derivative(spec, traj.psi, m), rows)


def test_max_deviation_identity():
    traj = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 10, spec11()))
    assert max_deviation(traj, traj) == 0.0


def test_max_deviation_oracle_and_step_halving():
    spec = spec11()
    devs = {}
    for steps in (500, 1000):
        cfg = IntegratorConfig(0.0, 1.0, steps, spec)
        devs[steps] = max_deviation(integrate(cfg, point_at(0.0, spec)), closed_form_trajectory(cfg))
    assert devs[1000] <= 1e-9
    # fourth order: halving the step cuts the deviation about 16x
    assert 12.0 <= devs[500] / devs[1000] <= 20.0


def test_max_deviation_grid_mismatch():
    spec = spec11()
    a = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 10, spec))
    b = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 20, spec))
    with pytest.raises(ValueError):
        max_deviation(a, b)
    c = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 10, CurveSpec(Signature(1, 2), 1.0)))
    with pytest.raises(ValueError):
        max_deviation(a, c)


def test_second_order_residual_closed_form():
    traj = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 1000, spec11()))
    assert second_order_residual(traj) <= 1e-5 * np.max(np.abs(traj.points[:, 1:]))


def test_second_order_residual_zero_channel():
    spec = CurveSpec(Signature(2, 2), 1.0)
    psi = np.linspace(0.0, 1.0, 11)
    pts = np.zeros((11, 4))
    pts[:, 0] = np.linspace(1.0, 2.0, 11)  # only the x-channel enters
    traj = Trajectory(spec, Provenance.CLOSED_FORM, psi, pts, np.zeros((11, 4)))
    assert second_order_residual(traj) == 0.0


def test_second_order_residual_exponential_solution():
    # x(psi) = exp(sqrt(s*r) psi) solves the reduced equation exactly, so the
    # residual sits at the central-difference truncation floor
    spec = CurveSpec(Signature(1, 2), 1.0)
    w = spec.frequency
    h = 1e-3
    psi = np.linspace(0.0, 1.0, 1001)
    pts = np.zeros((psi.size, 3))
    pts[:, 1] = np.exp(w * psi)
    pts[:, 2] = np.exp(w * psi)
    traj = Trajectory(spec, Provenance.CLOSED_FORM, psi, pts, np.zeros_like(pts))
    resid = second_order_residual(traj)
    model = (h * h / 12.0) * (w**4) * float(np.max(pts))
    assert 0.0 < resid <= 2.0 * model


def test_second_order_residual_errors():
    spec = spec11()
    short = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 1, spec))
    with pytest.raises(ValueError):
        second_order_residual(short)
    psi = np.array([0.0, 0.1, 0.35])
    pts = np.zeros((3, 2))
    uneven = Trajectory(spec, Provenance.CLOSED_FORM, psi, pts, pts.copy())
    with pytest.raises(ValueError):
        second_order_residual(uneven)


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 3), Signature(4, 4)])
def test_flow_conserves_quadric_and_orthogonality(sig):
    spec = CurveSpec(sig, 1.0)
    cfg = IntegratorConfig(0.0, 1.5, 2000, spec)
    traj = integrate(cfg, point_at(0.0, spec))
    for k in range(len(traj)):
        assert abs(inner_product(traj.points[k], traj.points[k], sig) - 1.0) <= 1e-7
        assert abs(inner_product(traj.points[k], traj.velocities[k], sig)) <= 1e-7


def test_flow_uniformity_bitwise():
    spec = CurveSpec(Signature(3, 2), 1.0)
    cfg = IntegratorConfig(0.0, 1.5, 500, spec)
    traj = integrate(cfg, point_at(0.0, spec))
    s = spec.sig.s
    for arr in (traj.points, traj.velocities):
        assert np.all(arr[:, :s] == arr[:, :1])
        assert np.all(arr[:, s:] == arr[:, s : s + 1])


def test_convergence_order_estimate():
    slope = convergence_order(CurveSpec(Signature(2, 2), 1.0), 0.0, 1.5, (60, 120, 240))
    assert 3.7 <= slope <= 4.3


def test_convergence_order_needs_three_counts():
    with pytest.raises(ValueError):
        convergence_order(spec11(), 0.0, 1.0, (100, 200))
    with pytest.raises(ValueError, match="psi_start == psi_end"):
        convergence_order(spec11(), 5.0, 5.0, (60, 120, 240))


def test_trajectory_monotonicity_validation():
    spec = spec11()
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Trajectory(spec, Provenance.CLOSED_FORM, [0.0, 0.5, 0.5], pts, pts.copy())
    with pytest.raises(ValueError):
        Trajectory(spec, Provenance.CLOSED_FORM, [0.0, 0.5, 0.2], pts, pts.copy())

