"""Tests for bundle dimensions, projection, trivialization, and curve lifts."""

import math

import numpy as np
import pytest

from pseudohyp import (
    BundleElement,
    CurveSpec,
    PseudoPoint,
    Signature,
    bundle_dim,
    curve_derivative,
    curve_lift,
    point_at,
    project,
    trivialize,
    untrivialize,
)

SMALL_SIGS = [Signature(s, r) for s in range(1, 4) for r in range(1, 4)]


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
    base = project(e)
    assert base.order == 0
    assert np.array_equal(base.coords, point_at(0.8, spec).coords)


def test_project_requires_positive_order():
    e = BundleElement(Signature(1, 1), 0, [1.0, 2.0])
    with pytest.raises(ValueError):
        project(e)


def test_project_nested_layout():
    sig = Signature(1, 2)
    e = BundleElement(sig, 2, np.arange(12.0))
    first = project(e)
    assert first.order == 1
    assert np.array_equal(first.coords, np.arange(6.0))


@pytest.mark.parametrize("sig", SMALL_SIGS)
@pytest.mark.parametrize("order", range(1, 7))
def test_lift_projection_consistency(sig, order):
    spec = CurveSpec(sig, 1.0)
    lifted = curve_lift(spec, 0.37, order)
    below = curve_lift(spec, 0.37, order - 1)
    assert np.array_equal(project(lifted).coords, below.coords)


def test_trivialize_example():
    sig = Signature(1, 1)
    flat = trivialize(PseudoPoint(sig, [0.0, 1.0]), PseudoPoint(sig, [1.0, 0.0]))
    assert np.array_equal(flat, [0.0, 1.0, 1.0, 0.0])


def test_trivialize_roundtrip_exact():
    rng = np.random.default_rng(5)
    for sig in SMALL_SIGS:
        p = PseudoPoint(sig, rng.uniform(-4, 4, sig.n))
        v = PseudoPoint(sig, rng.uniform(-4, 4, sig.n))
        q, w = untrivialize(trivialize(p, v), sig)
        assert np.array_equal(q.coords, p.coords)
        assert np.array_equal(w.coords, v.coords)


def test_trivialize_length_matches_bundle_dim():
    from pseudohyp import velocity_at

    for sig in SMALL_SIGS:
        spec = CurveSpec(sig, 1.0)
        flat = trivialize(point_at(0.4, spec), velocity_at(0.4, spec))
        assert flat.shape == (bundle_dim(sig.n, 1),)


def test_trivialize_errors():
    p = PseudoPoint(Signature(1, 1), [0.0, 1.0])
    v = PseudoPoint(Signature(1, 2), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        trivialize(p, v)
    with pytest.raises(ValueError):
        untrivialize([1.0, 2.0, 3.0], Signature(1, 1))


def test_curve_lift_order0_is_point():
    for sig in SMALL_SIGS:
        spec = CurveSpec(sig, 1.3)
        for psi in (-0.9, 0.0, 0.55):
            assert np.array_equal(curve_lift(spec, psi, 0).coords, point_at(psi, spec).coords)


def test_curve_lift_order1_base_case():
    spec = CurveSpec(Signature(1, 1), 1.0)
    for psi in (-1.1, 0.3, 0.9):
        e = curve_lift(spec, psi, 1)
        want = [math.sinh(psi), math.cosh(psi), math.cosh(psi), math.sinh(psi)]
        assert np.array_equal(e.coords, want)


def test_curve_lift_order2_at_zero():
    # derivative tower becomes (p, p', p', p'') = (0,1, 1,0, 1,0, 0,1)
    e = curve_lift(CurveSpec(Signature(1, 1), 1.0), 0.0, 2)
    assert np.array_equal(e.coords, [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_curve_lift_second_derivative_fd_crosscheck():
    spec = CurveSpec(Signature(1, 1), 1.0)
    h = 1e-4
    psi = 0.6
    fd = (
        point_at(psi + h, spec).coords
        - 2.0 * point_at(psi, spec).coords
        + point_at(psi - h, spec).coords
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
            assert curve_lift(spec, 0.2, p).coords.shape == (bundle_dim(sig.n, p),)


def test_lift_order_cap():
    spec = CurveSpec(Signature(1, 1), 1.0)
    with pytest.raises(ValueError):
        curve_lift(spec, 0.0, 7)
    e = curve_lift(spec, 0.0, 7, max_order=7)
    assert e.coords.shape == (bundle_dim(2, 7),)
    with pytest.raises(ValueError):
        curve_lift(spec, 0.0, -1)


def test_bundle_element_validation():
    with pytest.raises(ValueError):
        BundleElement(Signature(1, 1), 1, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        curve_derivative(CurveSpec(Signature(1, 1), 1.0), 0.0, -2)
    with pytest.raises(OverflowError, match="710"):
        curve_derivative(CurveSpec(Signature(1, 1), 1.0), np.array([0.0, 800.0]), 0)
