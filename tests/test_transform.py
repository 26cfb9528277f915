"""Tests for boosts, block rotations, and isometry verification."""

import math

import numpy as np
import pytest

from pseudohyp import (
    CurveSpec,
    Signature,
    apply,
    block_rotation,
    boost,
    inner_product,
    isometry_defect,
    point_at,
    random_isometry,
    velocity_at,
)

SIGS = [Signature(s, r) for s in range(1, 5) for r in range(1, 5)]


def test_metric_matrix():
    eta = np.diag(Signature(2, 3).signs)
    assert np.array_equal(eta, np.diag([-1.0, -1.0, 1.0, 1.0, 1.0]))


def test_boost_zero_rapidity_is_identity():
    m = boost(Signature(2, 2), 1, 3, 0.0)
    assert np.array_equal(m, np.eye(4))


def test_boost_is_isometry():
    rng = np.random.default_rng(17)
    for sig in SIGS:
        for _ in range(3):
            ti = int(rng.integers(0, sig.s))
            xj = int(rng.integers(sig.s, sig.n))
            m = boost(sig, ti, xj, float(rng.uniform(-1.2, 1.2)))
            assert isometry_defect(m, sig) <= 1e-12


def test_boost_translates_curve_parameter():
    # in the (1,1) plane the addition formulas turn the boost into a psi shift
    sig = Signature(1, 1)
    for radius in (0.5, 1.0, 2.0):
        spec = CurveSpec(sig, radius)
        for a in np.linspace(-1.0, 1.0, 9):
            g = boost(sig, 0, 1, float(a))
            for psi in np.linspace(-2.0, 2.0, 21):
                got = apply(g, point_at(psi, spec))
                want = point_at(psi + float(a), spec)
                assert np.max(np.abs(got - want)) <= 1e-10


def test_boost_composition_adds_rapidities():
    sig = Signature(1, 1)
    for a, b in [(0.3, 0.5), (-0.8, 0.2), (1.0, -1.0)]:
        combined = boost(sig, 0, 1, a) @ boost(sig, 0, 1, b)
        direct = boost(sig, 0, 1, a + b)
        assert np.max(np.abs(combined - direct)) <= 1e-12


def test_boost_index_validation():
    sig = Signature(2, 3)
    with pytest.raises(ValueError):
        boost(sig, 2, 3, 0.1)  # axis 2 is already space-like
    with pytest.raises(ValueError):
        boost(sig, 0, 1, 0.1)  # axis 1 is time-like
    with pytest.raises(ValueError):
        boost(sig, -1, 2, 0.1)
    with pytest.raises(ValueError):
        boost(sig, 0, 5, 0.1)


def test_rotation_zero_angle_is_identity():
    m = block_rotation(Signature(1, 3), 1, 3, 0.0)
    assert np.array_equal(m, np.eye(4))


def test_rotation_preserves_quadric():
    rng = np.random.default_rng(23)
    for sig in (Signature(1, 2), Signature(2, 2), Signature(1, 4)):
        spec = CurveSpec(sig, 1.0)
        for _ in range(5):
            a1, a2 = rng.choice(np.arange(sig.s, sig.n), size=2, replace=False)
            g = block_rotation(sig, int(a1), int(a2), float(rng.uniform(-math.pi, math.pi)))
            psi = float(rng.uniform(-1.0, 1.0))
            q = apply(g, point_at(psi, spec))
            assert abs(inner_product(q, q, sig) - 1.0) <= 1e-12


def test_rotation_quarter_turn_swaps_axes():
    sig = Signature(1, 2)
    spec = CurveSpec(sig, 1.0)
    p = point_at(0.8, spec)
    q = apply(block_rotation(sig, 1, 2, math.pi / 2.0), p)
    assert abs(q[1] + p[2]) <= 1e-14
    assert abs(q[2] - p[1]) <= 1e-14


def test_rotation_validation():
    sig = Signature(2, 3)
    with pytest.raises(ValueError):
        block_rotation(sig, 0, 2, 0.3)  # mixed blocks need a boost
    with pytest.raises(ValueError):
        block_rotation(sig, 3, 3, 0.3)
    with pytest.raises(ValueError):
        block_rotation(sig, 0, 9, 0.3)


def test_apply_identity_is_exact():
    sig = Signature(2, 2)
    p = np.array([1.0, -2.0, 0.5, 3.0])
    q = apply(np.eye(sig.n), p)
    assert np.array_equal(q, p)


def test_apply_boost_reaches_curve_point():
    # boosting the initial point must land on point_at(1), both code paths
    sig = Signature(1, 1)
    for radius in (1.0, 2.5):
        spec = CurveSpec(sig, radius)
        q = apply(boost(sig, 0, 1, 1.0), np.array([0.0, radius]))
        assert np.max(np.abs(q - point_at(1.0, spec))) <= 1e-12 * radius


def test_apply_preserves_inner_product():
    rng = np.random.default_rng(29)
    for sig in SIGS:
        for _ in range(5):
            m = random_isometry(sig, rng)
            u = rng.uniform(-1, 1, sig.n)
            v = rng.uniform(-1, 1, sig.n)
            ip = inner_product(u, v, sig)
            got = inner_product(apply(m, u), apply(m, v), sig)
            assert abs(got - ip) <= 1e-10 * (1.0 + abs(ip))


def test_apply_keeps_pair_orthogonal():
    rng = np.random.default_rng(31)
    for sig in SIGS:
        spec = CurveSpec(sig, 1.0)
        for _ in range(3):
            m = random_isometry(sig, rng)
            psi = float(rng.uniform(-1, 1))
            q = apply(m, point_at(psi, spec))
            qv = apply(m, velocity_at(psi, spec))
            assert abs(inner_product(q, qv, sig)) <= 1e-10


def test_apply_types_and_mismatch():
    sig = Signature(1, 1)
    m = boost(sig, 0, 1, 0.4)
    arr = apply(m, [1.0, 2.0])
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    rows = np.array([[1.0, 2.0], [0.0, 1.0], [-3.0, 0.5]])
    np.testing.assert_allclose(apply(m, rows), [apply(m, row) for row in rows], rtol=1e-14)
    with pytest.raises(ValueError):
        apply(m, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        apply(m, [1.0, 2.0, 3.0])


def test_is_isometry_identity_and_scaling():
    sig = Signature(2, 2)
    assert isometry_defect(np.eye(sig.n), sig) <= 1e-15
    scaled = np.diag([2.0, 1.0, 1.0, 1.0])
    assert isometry_defect(scaled, sig) > 1e-10
    assert isometry_defect(scaled, sig) == pytest.approx(3.0)


def test_is_isometry_generator_products():
    rng = np.random.default_rng(37)
    for sig in SIGS:
        for _ in range(3):
            assert isometry_defect(random_isometry(sig, rng), sig) <= 1e-10


def test_map_validation_and_compose_mismatch():
    with pytest.raises(ValueError, match="signature"):
        isometry_defect(np.eye(3), Signature(1, 1))
    with pytest.raises(ValueError):
        isometry_defect(np.eye(2)[:1], Signature(1, 1))
