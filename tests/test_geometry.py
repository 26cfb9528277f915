"""Tests for the signature product, the quadric, and the closed-form curve."""

import enum
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudohyp import (
    CurveSpec,
    IntegratorConfig,
    Signature,
    boost,
    curve_derivative,
    curve_lift,
    inner_product,
)
from pseudohyp.geometry import _block_inner, _block_tower
from pseudohyp.verify import run_cell_checks

SIGS = [Signature(s, r) for s in range(1, 5) for r in range(1, 5)]
RADII = (0.5, 1.0, 2.0)


def test_signature_validation():
    assert Signature(2, 3).n == 5
    for s, r in [(0, 1), (1, 0), (-1, 2), (2, -2)]:
        with pytest.raises(ValueError):
            Signature(s, r)
    with pytest.raises(ValueError, match=r"signature count s must be a positive integer, got 1\.5"):
        Signature(1.5, 2)
    with pytest.raises(ValueError, match=r"signature count s must be a positive integer, got True"):
        Signature(True, True)
    sig = Signature(np.int64(2), 3)
    assert type(sig.s) is int and sig == Signature(2, 3)


class _Count(enum.IntEnum):
    TWO = 2


_SPEC = CurveSpec(Signature(2, 3), 1.0)
_PSI = np.array([-0.5, 0.25])

# each integer input as a call of its value, and a value just outside its range
_INTEGER_INPUTS = {
    "signature count s": (lambda v: Signature(v, 1), 0),
    "signature count r": (lambda v: Signature(1, v), 0),
    "steps": (lambda v: IntegratorConfig(0.0, 1.0, v, _SPEC), 0),
    "seed": (lambda v: run_cell_checks(Signature(1, 1), 1.0, steps=400, seed=v), -1),
    "lift order": (lambda v: curve_lift(_SPEC, _PSI, v), 7),
    "derivative order": (lambda v: curve_derivative(_SPEC, _PSI, v), -1),
    "time_axis": (lambda v: boost(Signature(3, 1), v, 3, 0.5), 3),
    "space_axis": (lambda v: boost(Signature(2, 1), 0, v, 0.5), 3),
}


@pytest.mark.parametrize("name", _INTEGER_INPUTS)
def test_every_integer_input_follows_one_rule(name):
    # one rule, geometry.as_integer, at every entry point: any integral type is
    # taken as the plain int it equals, and a bool, a float, a Fraction or a
    # string is refused in the same words as a value outside the range
    call, outside = _INTEGER_INPUTS[name]
    want = call(2)
    for value in (np.int8(2), np.uint64(2), _Count.TWO):
        got = call(value)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), value
        else:  # the repr shows a count stored as a numpy integer or an enum member
            assert repr(got) == repr(want), value
    for value in (True, np.bool_(True), 2.0, np.float64(2), Fraction(2, 1), "2", outside):
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(name)} must be .+, got {re.escape(repr(value))}$"):
            call(value)


def test_signature_signs():
    sig = Signature(2, 3)
    assert np.array_equal(sig.signs, [-1.0, -1.0, 1.0, 1.0, 1.0])


def test_point_and_vector_blocks():
    sig = Signature(2, 3)
    p = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(p[: sig.s], [1, 2])
    assert np.array_equal(p[sig.s :], [3, 4, 5])
    v = np.array([1.0, 1.0, 0.0, 0.0, 2.0])
    assert np.array_equal(v[: sig.s], [1, 1])
    assert np.array_equal(v[sig.s :], [0, 0, 2])
    spec = CurveSpec(sig, 1.0)
    assert curve_derivative(spec, 0.3, 0).shape == curve_derivative(spec, 0.3, 1).shape == (sig.n,)


def test_point_validation():
    with pytest.raises(ValueError, match="signature"):
        inner_product([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], Signature(1, 1))
    with pytest.raises(ValueError, match="signature"):
        inner_product([0.0], [0.0], Signature(2, 2))


@pytest.mark.parametrize("radius", RADII)
def test_inner_product_initial_condition(radius):
    sig = Signature(1, 1)
    u = (0.0, radius)
    assert inner_product(u, u, sig) == radius * radius


def test_inner_product_zero_vector():
    rng = np.random.default_rng(7)
    for sig in SIGS:
        v = rng.uniform(-5, 5, sig.n)
        assert inner_product(np.zeros(sig.n), v, sig) == 0.0


def test_inner_product_hand_value():
    # -(1 + 4) + (9 + 16 + 25) = 45
    u = (1.0, 2.0, 3.0, 4.0, 5.0)
    assert inner_product(u, u, Signature(2, 3)) == 45.0


def test_inner_product_dimension_mismatch():
    sig = Signature(2, 3)
    with pytest.raises(ValueError):
        inner_product((1.0, 2.0), (1.0, 2.0, 3.0, 4.0, 5.0), sig)
    p = curve_derivative(CurveSpec(Signature(1, 1), 1.0), 0.3, 0)
    with pytest.raises(ValueError):
        inner_product(p, np.zeros(5), sig)


def test_inner_product_symmetry_exact():
    rng = np.random.default_rng(42)
    for sig in SIGS:
        for _ in range(5):
            u = rng.uniform(-3, 3, sig.n)
            v = rng.uniform(-3, 3, sig.n)
            assert inner_product(u, v, sig) == inner_product(v, u, sig)


def test_inner_product_bilinear():
    rng = np.random.default_rng(43)
    for sig in SIGS:
        for _ in range(5):
            u, w, v = (rng.uniform(-2, 2, sig.n) for _ in range(3))
            a, b = rng.uniform(-3, 3, 2)
            lhs = inner_product(a * u + b * w, v, sig)
            rhs = a * inner_product(u, v, sig) + b * inner_product(w, v, sig)
            scale = 1.0 + abs(a * inner_product(u, v, sig)) + abs(b * inner_product(w, v, sig))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_inner_product_rowwise_matches_rows():
    rng = np.random.default_rng(44)
    for sig in SIGS:
        u = rng.uniform(-3, 3, (7, sig.n))
        v = rng.uniform(-3, 3, (7, sig.n))
        got = inner_product(u, v, sig)
        assert got.shape == (7,)
        assert np.array_equal(got, [inner_product(a, b, sig) for a, b in zip(u, v)])


# signed zeros, subnormals, the largest finite magnitudes and infinities,
# among any other float; a product of two of them may overflow
BLOCK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1e200, math.inf]),
    st.floats(allow_nan=False),
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(sig=st.sampled_from([(1, 1), (2, 3), (3, 1), (1, 9), (4, 4), (8, 8)]), data=st.data())
def test_block_inner_matches_inner_product_bitwise(sig, data):
    # the residual kernel on block values against the product of the rows
    # that repeat them over their blocks; compared as int64, so that a -0.0
    # beside a +0.0, or one NaN beside another, differs too
    sig = Signature(*sig)
    rows = data.draw(st.integers(1, 5))
    u, v = (data.draw(arrays(float, (rows, 2), elements=BLOCK_VALUES)) for _ in range(2))
    if data.draw(st.booleans()):
        # points near the null cone, s*t^2 = r*x^2, each paired with itself:
        # the n terms cancel, so the order of the TwoSums decides the last bits
        u = v = u[:, :1] * [1.0, math.sqrt(sig.s / sig.r)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _block_inner(u, v, sig)
        want = inner_product(*(np.repeat(a, (sig.s, sig.r), axis=-1) for a in (u, v)), sig)
    assert got.shape == want.shape == (rows,)
    assert (got.view(np.int64) == want.view(np.int64)).all()


def test_inner_product_exact_oracle():
    # Dot2 error bound (Ogita, Rump & Oishi 2005), checked in exact rational
    # arithmetic against the exact product of the binary64 inputs
    sig = Signature(4, 4)
    u = Fraction(1, 2**53)
    gamma = sig.n * u / (1 - sig.n * u)
    for radius in RADII:
        spec = CurveSpec(sig, radius)
        psi = np.linspace(-3.0, 3.0, 61)
        for p, v in zip(curve_derivative(spec, psi, 0), curve_derivative(spec, psi, 1)):
            for a, b in ((p, p), (p, v), (v, v)):
                terms = [Fraction(x) * Fraction(y) for x, y in zip(a, b)]
                exact = sum(terms[sig.s :]) - sum(terms[: sig.s])
                bound = u * abs(exact) + gamma**2 * sum(abs(t) for t in terms)
                assert abs(Fraction(inner_product(a, b, sig)) - exact) <= bound


def test_effective_radius_values():
    assert CurveSpec(Signature(1, 1), 1.0).r_eff == 1.0
    assert CurveSpec(Signature(3, 4), 2.0).r_eff == 1.0
    assert CurveSpec(Signature(2, 2), math.sqrt(2.0)).r_eff == 1.0


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("radius", RADII)
def test_effective_radius_identity(sig, radius):
    r_eff = CurveSpec(sig, radius).r_eff
    assert sig.r * r_eff * r_eff == pytest.approx(radius * radius, rel=1e-14)


def test_effective_radius_rejects_nonpositive():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            CurveSpec(Signature(1, 1), bad)


def test_effective_radius_puts_curve_on_quadric():
    # independent evaluation of the form, plain signed sum over the blocks
    spec = CurveSpec(Signature(3, 4), 2.0)
    t, x = np.split(curve_derivative(spec, 0.7, 0), [3])
    form = -sum(c * c for c in t) + sum(c * c for c in x)
    assert abs(form - 4.0) <= 1e-12


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("radius", RADII)
def test_point_at_initial_condition(sig, radius):
    spec = CurveSpec(sig, radius)
    p = curve_derivative(spec, 0.0, 0)
    assert np.all(p[: sig.s] == 0.0)
    assert np.all(p[sig.s :] == spec.r_eff)


def test_point_at_base_case_bitwise():
    spec = CurveSpec(Signature(1, 1), 1.0)
    psi = np.linspace(-3, 3, 50)
    p = curve_derivative(spec, psi, 0)
    assert p[:, 0].tolist() == [math.sinh(a) for a in psi]
    assert p[:, 1].tolist() == [math.cosh(a) for a in psi]


def test_point_at_two_two_example():
    spec = CurveSpec(Signature(2, 2), math.sqrt(2.0))
    p = curve_derivative(spec, 0.5, 0)
    want = [math.sinh(1.0), math.sinh(1.0), math.cosh(1.0), math.cosh(1.0)]
    assert np.array_equal(p, want)
    t, x = np.split(p, [2])
    form = -sum(c * c for c in t) + sum(c * c for c in x)
    assert abs(form - 2.0) <= 1e-12


def test_point_uniformity_bitwise():
    rng = np.random.default_rng(3)
    for sig in SIGS:
        spec = CurveSpec(sig, 1.5)
        psi = rng.uniform(-3, 3, 10)
        for m in (0, 1):
            for block in np.split(curve_derivative(spec, psi, m), [sig.s], axis=-1):
                assert np.all(block == block[:, :1])


def _stacked_tower(spec, psi, orders):
    # _block_tower's former assembly: each order's two blocks joined by np.stack
    sig, w = spec.sig, spec.frequency
    arg = w * np.asarray(psi, dtype=float)
    flat = arg.ravel().tolist()
    sinh, cosh = np.array([math.sinh(a) for a in flat]), np.array([math.cosh(a) for a in flat])
    tower = []
    for m in orders:
        power = (sig.s * sig.r) ** (m // 2)
        if m % 2 == 0:
            blocks = (math.sqrt(sig.r / sig.s) * spec.r_eff * power * sinh,
                      spec.r_eff * power * cosh)
        else:
            blocks = (sig.r * spec.r_eff * power * cosh, w * spec.r_eff * power * sinh)
        tower.append(np.stack(blocks, axis=-1).reshape(arg.shape + (2,)))
    return tower


def test_block_tower_matches_the_stacked_form_bitwise():
    lift_psi = np.array([-0.8, 0.3, 0.9])
    # a scalar, (k,), the lift's (2, k) at +-hh, an empty array, -0.0 and NaN
    psis = (0.3, lift_psi, lift_psi + [[1e-4], [-1e-4]], np.array([]), -0.0, math.nan)
    for sig in map(Signature, (1, 1, 2, 3, 4), (1, 3, 3, 2, 4)):
        for radius in (0.5, 1.3, 2.0):
            spec = CurveSpec(sig, radius)
            for psi in psis:
                want = _stacked_tower(spec, psi, range(5))
                table = _block_tower(spec, psi, range(5))
                for got, ref in zip(np.split(table, 5, axis=-1), want, strict=True):
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert _block_tower(spec, np.array([]), (0, 1)).shape == (0, 4)


def test_curve_derivative_rejects_non_integer_orders():
    # 1.5 % 2 and 1.5 // 2 would select the velocity, as True would: only integers are orders
    spec = CurveSpec(Signature(2, 3), 1.0)
    for m in (1.5, True, False, 1.0, None, -1):
        with pytest.raises(ValueError, match=f"derivative order must be a non-negative integer, "
                                             f"got {re.escape(repr(m))}"):
            curve_derivative(spec, 0.3, m)
    assert np.array_equal(curve_derivative(spec, 0.3, np.int64(1)), curve_derivative(spec, 0.3, 1))


def test_velocity_base_case_bitwise():
    spec = CurveSpec(Signature(1, 1), 1.0)
    psi = np.linspace(-3, 3, 50)
    v = curve_derivative(spec, psi, 1)
    assert v[:, 0].tolist() == [math.cosh(a) for a in psi]
    assert v[:, 1].tolist() == [math.sinh(a) for a in psi]


@pytest.mark.parametrize("sig", SIGS)
def test_velocity_at_zero(sig):
    spec = CurveSpec(sig, 2.0)
    v = curve_derivative(spec, 0.0, 1)
    assert np.all(v[: sig.s] == sig.r * spec.r_eff)
    assert np.all(v[sig.s :] == 0.0)


def test_velocity_two_two_example():
    spec = CurveSpec(Signature(2, 2), math.sqrt(2.0))
    v = curve_derivative(spec, 0.5, 1)
    want = [2 * math.cosh(1.0), 2 * math.cosh(1.0), 2 * math.sinh(1.0), 2 * math.sinh(1.0)]
    assert np.array_equal(v, want)
    p = curve_derivative(spec, 0.5, 0)
    # independent orthogonality check, plain signed sum
    (pt, px), (vt, vx) = np.split(p, [2]), np.split(v, [2])
    form = -sum(a * b for a, b in zip(pt, vt)) + sum(a * b for a, b in zip(px, vx))
    assert abs(form) <= 1e-12


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("radius", RADII)
def test_velocity_matches_finite_difference(sig, radius):
    spec = CurveSpec(sig, radius)
    h = 1e-5
    bound = 1e-8 * max(1.0, sig.r * spec.r_eff)
    psi = np.linspace(-0.9, 0.9, 19)
    fd = (curve_derivative(spec, psi + h, 0) - curve_derivative(spec, psi - h, 0)) / (2 * h)
    assert np.max(np.abs(fd - curve_derivative(spec, psi, 1))) <= bound


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("radius", RADII)
def test_curve_invariants(sig, radius):
    spec = CurveSpec(sig, radius)
    r2 = radius * radius
    psi = np.linspace(-2, 2, 25)
    p, v = curve_derivative(spec, psi, 0), curve_derivative(spec, psi, 1)
    assert np.max(np.abs(inner_product(p, p, sig) - r2)) <= 1e-9 * r2
    assert np.max(np.abs(inner_product(p, v, sig))) <= 1e-9 * r2
    norm_err = inner_product(v, v, sig) + sig.s * sig.r * r2
    assert np.max(np.abs(norm_err)) <= 1e-9 * sig.s * sig.r * r2


def test_velocity_norm_independent_oracle():
    # evaluate the closed forms directly, away from the library path
    s, r, radius, psi = 2, 3, 1.5, 0.8
    w = math.sqrt(s * r)
    a = radius / math.sqrt(r)
    dt = r * a * math.cosh(w * psi)
    dx = w * a * math.sinh(w * psi)
    norm = -s * dt * dt + r * dx * dx
    assert norm == pytest.approx(-s * r * radius * radius, rel=1e-12)


def test_is_on_hyperboloid_examples():
    sig = Signature(1, 1)
    p = curve_derivative(CurveSpec(sig, 1.0), 1.3, 0)
    assert abs(inner_product(p, p, sig) - 1.0) <= 1e-12
    null_point = np.array([1.0, 1.0])
    assert abs(inner_product(null_point, null_point, sig) - 1.0) > 1e-12


def test_is_on_hyperboloid_random_sweep():
    # cosh^2 grows to ~2.7e10 at psi = 3 for s = r = 4, so the tolerance
    # follows the conditioning of the cancellation instead of a flat value
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for sig in SIGS:
        spec = CurveSpec(sig, 1.0)
        w = spec.frequency
        psi = rng.uniform(-3, 3, 100)
        tol = [64 * eps * max(1.0, math.cosh(w * a) ** 2) for a in psi]
        p = curve_derivative(spec, psi, 0)
        assert np.all(np.abs(inner_product(p, p, sig) - 1.0) <= tol)


def test_is_h_orthogonal_curve_pairs():
    for sig in SIGS:
        spec = CurveSpec(sig, 1.0)
        psi = np.linspace(-1.5, 1.5, 41)
        ortho = inner_product(curve_derivative(spec, psi, 0), curve_derivative(spec, psi, 1), sig)
        assert np.max(np.abs(ortho)) <= 1e-10


def test_is_h_orthogonal_examples():
    sig = Signature(1, 1)
    p = np.array([0.0, 2.0])
    for c in (-3.0, 0.5, 7.0):
        assert abs(inner_product(p, np.array([c, 0.0]), sig)) <= 1e-15
    q = np.array([1.0, 2.0])
    assert abs(inner_product(q, np.array([1.0, 2.0]), sig)) > 1e-10


def test_is_h_orthogonal_signature_mismatch():
    p = np.array([0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="signature"):
        inner_product(p, v, Signature(1, 1))


def test_curvespec_properties():
    spec = CurveSpec(Signature(2, 2), math.sqrt(2.0))
    assert spec.r_eff == 1.0
    assert spec.frequency == 2.0
