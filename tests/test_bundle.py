"""Tests for bundle dimensions and curve lifts, with the base projection as a slice."""

import math

import numpy as np
import pytest

from pseudohyp import (
    MAX_LIFT_ORDER,
    CurveSpec,
    Signature,
    bundle_dim,
    curve_derivative,
    curve_lift,
    point_at,
    velocity_at,
)

SMALL_SIGS = [Signature(s, r) for s in range(1, 4) for r in range(1, 4)]
PSI_ROWS = np.array([-0.8, 0.0, 0.37, 0.9])


def test_bundle_dim_values():
    for n in range(1, 7):
        assert bundle_dim(n, 0) == n
        assert bundle_dim(n, 1) == 2 * n
        assert bundle_dim(n, 2) == 4 * n
    assert bundle_dim(3, 4) == 48
    assert bundle_dim(5, 3) == 40


def test_bundle_dim_errors():
    with pytest.raises(ValueError):
        bundle_dim(0, 1)
    with pytest.raises(ValueError):
        bundle_dim(3, -1)
    with pytest.raises(OverflowError):
        bundle_dim(3, 70)
    with pytest.raises(OverflowError):
        bundle_dim(10, 60)


def test_project_order_one_recovers_base():
    sig = Signature(1, 1)
    spec = CurveSpec(sig, 1.0)
    e = curve_lift(spec, 0.8, 1)
    assert np.array_equal(e[: e.shape[-1] // 2], point_at(0.8, spec))


@pytest.mark.parametrize("sig", SMALL_SIGS)
@pytest.mark.parametrize("order", range(1, 7))
def test_lift_projection_consistency(sig, order):
    spec = CurveSpec(sig, 1.0)
    lifted = curve_lift(spec, 0.37, order)
    below = curve_lift(spec, 0.37, order - 1)
    assert np.array_equal(lifted[: lifted.shape[-1] // 2], below)
    # over a psi array: row i is the scalar lift at psi[i], bit for bit, and
    # the row-wise half is the lift one order down
    rows = curve_lift(spec, PSI_ROWS, order)
    for i, psi in enumerate(PSI_ROWS):
        assert np.array_equal(rows[i], curve_lift(spec, psi, order))
    assert np.array_equal(rows[:, : rows.shape[-1] // 2], curve_lift(spec, PSI_ROWS, order - 1))


def test_trivialize_example():
    # the order-1 lift is the chart pair (point, velocity) flattened: at
    # psi = 0 the (1,1) curve sits at (0, 1) and moves along (1, 0)
    e = curve_lift(CurveSpec(Signature(1, 1), 1.0), 0.0, 1)
    assert np.array_equal(e, [0.0, 1.0, 1.0, 0.0])


def test_trivialize_length_matches_bundle_dim():
    for sig in SMALL_SIGS:
        spec = CurveSpec(sig, 1.0)
        flat = np.concatenate((point_at(0.4, spec), velocity_at(0.4, spec)))
        assert flat.shape == (bundle_dim(sig.n, 1),)
        assert np.array_equal(curve_lift(spec, 0.4, 1), flat)


def test_curve_lift_order0_is_point():
    for sig in SMALL_SIGS:
        spec = CurveSpec(sig, 1.3)
        for psi in (-0.9, 0.0, 0.55):
            assert np.array_equal(curve_lift(spec, psi, 0), point_at(psi, spec))


def test_curve_lift_order1_base_case():
    spec = CurveSpec(Signature(1, 1), 1.0)
    for psi in (-1.1, 0.3, 0.9):
        e = curve_lift(spec, psi, 1)
        want = [math.sinh(psi), math.cosh(psi), math.cosh(psi), math.sinh(psi)]
        assert np.array_equal(e, want)


def test_curve_lift_order2_at_zero():
    # derivative tower becomes (p, p', p', p'') = (0,1, 1,0, 1,0, 0,1)
    e = curve_lift(CurveSpec(Signature(1, 1), 1.0), 0.0, 2)
    assert np.array_equal(e, [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_curve_lift_second_derivative_fd_crosscheck():
    spec = CurveSpec(Signature(1, 1), 1.0)
    h = 1e-4
    psi = 0.6
    fd = (
        point_at(psi + h, spec)
        - 2.0 * point_at(psi, spec)
        + point_at(psi - h, spec)
    ) / (h * h)
    d2 = curve_derivative(spec, psi, 2)
    assert np.max(np.abs(fd - d2)) <= 1e-6 * max(1.0, float(np.max(np.abs(d2))))


@pytest.mark.parametrize("sig", SMALL_SIGS)
def test_derivative_channels_match_fd(sig):
    spec = CurveSpec(sig, 1.0)
    h = 1e-4
    for psi in (-0.8, 0.25, 0.7):
        for m in range(1, 4):
            fd = (
                curve_derivative(spec, psi + h, m - 1)
                - curve_derivative(spec, psi - h, m - 1)
            ) / (2 * h)
            dm = curve_derivative(spec, psi, m)
            assert np.max(np.abs(fd - dm)) <= 1e-6 * max(1.0, float(np.max(np.abs(dm))))


@pytest.mark.parametrize("sig", SMALL_SIGS)
def test_second_derivative_identity(sig):
    # x'' = s*r*x and t'' = s*r*t
    spec = CurveSpec(sig, 1.0)
    sr = sig.s * sig.r
    for psi in (-0.8, 0.3, 0.9):
        d0 = curve_derivative(spec, psi, 0)
        d2 = curve_derivative(spec, psi, 2)
        scale = float(np.max(np.abs(sr * d0)))
        assert np.max(np.abs(d2 - sr * d0)) <= 1e-10 * scale


def test_lift_dims_match_bundle_dim():
    for sig in SMALL_SIGS:
        spec = CurveSpec(sig, 1.0)
        for p in range(7):
            assert curve_lift(spec, 0.2, p).shape == (bundle_dim(sig.n, p),)
            rows = curve_lift(spec, PSI_ROWS, p)
            assert rows.shape == (len(PSI_ROWS), bundle_dim(sig.n, p))
            for i, psi in enumerate(PSI_ROWS):
                assert np.array_equal(rows[i], curve_lift(spec, psi, p))


def test_lift_order_cap():
    spec = CurveSpec(Signature(1, 1), 1.0)
    e = curve_lift(spec, 0.0, MAX_LIFT_ORDER)
    assert MAX_LIFT_ORDER == 6 and e.shape == (bundle_dim(2, 6),)
    with pytest.raises(ValueError, match="above cap 6"):
        curve_lift(spec, 0.0, 7)
    with pytest.raises(ValueError):
        curve_lift(spec, 0.0, -1)


def test_bundle_element_validation():
    with pytest.raises(ValueError):
        curve_derivative(CurveSpec(Signature(1, 1), 1.0), 0.0, -2)
    with pytest.raises(OverflowError, match="710"):
        curve_derivative(CurveSpec(Signature(1, 1), 1.0), np.array([0.0, 800.0]), 0)
