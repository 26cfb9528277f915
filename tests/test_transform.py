"""Tests for boosts, block rotations, and isometry verification."""

import math
import re

import numpy as np
import pytest

from pseudohyp import (
    CurveSpec,
    Signature,
    apply,
    block_rotation,
    boost,
    curve_derivative,
    inner_product,
    isometry_defect,
    random_isometry,
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
        psi = np.linspace(-2.0, 2.0, 21)
        pts = curve_derivative(spec, psi, 0)
        for a in np.linspace(-1.0, 1.0, 9):
            got = apply(boost(sig, 0, 1, float(a)), pts)
            want = curve_derivative(spec, psi + float(a), 0)
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


ONE, MIXED = Signature(1, 1), Signature(1, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: boost(ONE, False, 1, 0.5), "time_axis must be an integer in [0, 1), got False"),
    (lambda: boost(ONE, 0, True, 0.5), "space_axis must be an integer in [1, 2), got True"),
    (lambda: boost(ONE, 0.0, 1, 0.5), "time_axis must be an integer in [0, 1), got 0.0"),
    (lambda: boost(ONE, 0, 1.0, 0.5), "space_axis must be an integer in [1, 2), got 1.0"),
    (lambda: block_rotation(MIXED, True, 2, 0.3), "axis1 must be an integer in [0, 4), got True"),
    (lambda: block_rotation(MIXED, 1, False, 0.3), "axis2 must be an integer in [0, 4), got False"),
    (lambda: block_rotation(MIXED, 1.0, 2, 0.3), "axis1 must be an integer in [0, 4), got 1.0"),
    (lambda: block_rotation(MIXED, 1, 2.0, 0.3), "axis2 must be an integer in [0, 4), got 2.0"),
], ids=["boost-false", "boost-true", "boost-float-time", "boost-float-space", "rotation-true",
        "rotation-false", "rotation-float-1", "rotation-float-2"])
def test_generators_reject_bool_and_float_axes(build, message):
    # numpy reads a bool index as a mask, which built maps that are no
    # isometry, and a float one raises an IndexError that names no argument
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_generators_take_numpy_integer_axes():
    assert np.array_equal(boost(ONE, np.int64(0), np.int64(1), 0.5), boost(ONE, 0, 1, 0.5))
    assert np.array_equal(block_rotation(MIXED, np.int64(1), np.int64(2), 0.3),
                          block_rotation(MIXED, 1, 2, 0.3))


def _eye_fill(n, a, b, c, s_ab, s_ba):
    # the generators' fill before they shared one builder
    m = np.eye(n)
    m[a, a] = c
    m[a, b] = s_ab
    m[b, a] = s_ba
    m[b, b] = c
    return m


def test_generators_match_the_identity_fill_bytewise():
    # angles past pi/2 give cos < 0, and sin(0.0) = 0.0 puts -0.0 in a rotation
    params = [0.0, -0.0, 0.4, -1.1, 2.0, -2.9, math.pi, 4.5]
    for sig in (Signature(1, 1), Signature(2, 3), Signature(3, 2), Signature(4, 4)):
        s, n = sig.s, sig.n
        for x in params:
            for i in range(s):
                for j in range(s, n):
                    want = _eye_fill(n, i, j, math.cosh(x), math.sinh(x), math.sinh(x))
                    assert boost(sig, i, j, x).tobytes() == want.tobytes()
            for lo, hi in ((0, s), (s, n)):
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        if i != j:
                            want = _eye_fill(n, i, j, math.cos(x), -math.sin(x), math.sin(x))
                            assert block_rotation(sig, i, j, x).tobytes() == want.tobytes()


def _reference_isometry(sig, rng):
    # random_isometry's draws, in its order, composed from a fresh identity
    m = np.eye(sig.n)
    blocks = [(lo, hi) for lo, hi in ((0, sig.s), (sig.s, sig.n)) if hi - lo >= 2]
    for _ in range(int(rng.integers(1, 6))):
        if blocks and rng.random() < 0.5:
            lo, hi = blocks[int(rng.integers(0, len(blocks)))]
            a1, a2 = rng.choice(np.arange(lo, hi), size=2, replace=False)
            g = block_rotation(sig, int(a1), int(a2), float(rng.uniform(-math.pi, math.pi)))
        else:
            ti, xj = int(rng.integers(0, sig.s)), int(rng.integers(sig.s, sig.n))
            g = boost(sig, ti, xj, float(rng.uniform(-0.6, 0.6)))
        m = g @ m
    return m


def test_random_isometry_matches_the_reference_composition_bitwise():
    for seed in (3, 17, 2026):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for s in range(1, 9):
            for r in range(1, 9):
                sig = Signature(s, r)
                for _ in range(3):
                    assert (random_isometry(sig, got_rng).tobytes()
                            == _reference_isometry(sig, want_rng).tobytes())
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_returned_maps_share_no_memory():
    # the generators start from a cached identity; writing into any map they
    # return must not reach the next one
    sig = Signature(2, 3)

    def make():
        return [boost(sig, 0, 3, 0.0), block_rotation(sig, 2, 4, 0.0),
                random_isometry(sig, np.random.default_rng(5))]

    want = [m.tobytes() for m in make()]
    for k in range(3):
        make()[k][...] = 7.0
        assert [m.tobytes() for m in make()] == want


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
            q = apply(g, curve_derivative(spec, psi, 0))
            assert abs(inner_product(q, q, sig) - 1.0) <= 1e-12


def test_rotation_quarter_turn_swaps_axes():
    sig = Signature(1, 2)
    spec = CurveSpec(sig, 1.0)
    p = curve_derivative(spec, 0.8, 0)
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
    # boosting the initial point must land on the curve point at psi = 1, both code paths
    sig = Signature(1, 1)
    for radius in (1.0, 2.5):
        spec = CurveSpec(sig, radius)
        q = apply(boost(sig, 0, 1, 1.0), np.array([0.0, radius]))
        assert np.max(np.abs(q - curve_derivative(spec, 1.0, 0))) <= 1e-12 * radius


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
            q = apply(m, curve_derivative(spec, psi, 0))
            qv = apply(m, curve_derivative(spec, psi, 1))
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
    # a stack of maps acts on matching stacks of rows, or on rows they share;
    # stacked matmul against gemv per map may differ in the last bits only
    sig = Signature(2, 3)
    rng = np.random.default_rng(5)
    maps = np.array([random_isometry(sig, rng) for _ in range(9)])
    pairs = rng.uniform(-1.0, 1.0, (2, 2, sig.n))
    np.testing.assert_allclose(apply(maps[:2], pairs), [apply(maps[0], pairs[0]),
                                                        apply(maps[1], pairs[1])], rtol=1e-14)
    shared = rng.uniform(-1.0, 1.0, (21, sig.n))
    np.testing.assert_allclose(apply(maps, shared), [apply(mk, shared) for mk in maps],
                               rtol=1e-14)
    with pytest.raises(ValueError):
        apply(maps, np.ones((21, sig.n + 1)))


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


def test_stacked_defect_is_the_largest_per_map_defect():
    rng = np.random.default_rng(41)
    for s in range(1, 9):
        for r in range(1, 9):
            sig = Signature(s, r)
            maps = np.array([random_isometry(sig, rng) for _ in range(6)])
            maps[2] *= 1.0 + 1e-13  # one map with a defect well above rounding
            each = [isometry_defect(m, sig) for m in maps]
            # each map's defect is the same in a stack of one, not only the largest
            assert [isometry_defect(maps[k : k + 1], sig) for k in range(6)] == each
            want = max(each)
            assert isometry_defect(maps, sig) == want
            assert isometry_defect(maps.reshape(2, 3, sig.n, sig.n), sig) == want
            # and the largest defect of no maps is 0.0
            assert isometry_defect(maps[:0], sig) == 0.0


def test_stack_of_one_scaled_map_reports_its_defect():
    sig = Signature(2, 2)
    scaled = np.diag([2.0, 1.0, 1.0, 1.0])
    assert isometry_defect(scaled[None], sig) == isometry_defect(scaled, sig) == 3.0
    stack = np.array([np.eye(sig.n), scaled, np.eye(sig.n)])
    assert isometry_defect(stack, sig) == 3.0


def test_map_validation_and_compose_mismatch():
    with pytest.raises(ValueError, match="signature"):
        isometry_defect(np.eye(3), Signature(1, 1))
    with pytest.raises(ValueError):
        isometry_defect(np.eye(2)[:1], Signature(1, 1))
    sig = Signature(2, 1)
    for shape in ((sig.n,), (5, sig.n, sig.n + 1), (5, 4, 4), ()):
        with pytest.raises(ValueError, match=r"signature \(2,1\)"):
            isometry_defect(np.zeros(shape), sig)
    # apply takes square maps only, whatever the rows it is given
    for shape in ((2, 3), (5, 3, 2), (3,), ()):
        with pytest.raises(ValueError, match=rf"square map .*got shape {re.escape(str(shape))}"):
            apply(np.ones(shape), [1.0, 2.0, 3.0])
