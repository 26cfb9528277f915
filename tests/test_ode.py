"""Tests for the coupled flow, the fixed-step integrator, and its residuals."""

import math

import mpmath
import numpy as np
import pytest

from pseudohyp import (
    CurveSpec,
    IntegratorConfig,
    Signature,
    closed_form_trajectory,
    convergence_order,
    curve_derivative,
    curve_lift,
    inner_product,
    integrate,
    max_deviation,
)
from pseudohyp import ode
from pseudohyp.ode import check_resolved


def spec11(radius=1.0):
    return CurveSpec(Signature(1, 1), radius)


def rhs(spec, psi):
    # the flow's right-hand side at the curve point of psi: the velocity integrate records first
    return integrate(IntegratorConfig(psi, psi + 1.0, 1, spec))[0, spec.sig.n :]


@pytest.mark.parametrize("radius", (0.5, 1.0, 2.0))
def test_system_rhs_base_case(radius):
    # the (1,1) curve starts at (0, R) at psi = 0
    v = rhs(spec11(radius), 0.0)
    assert v[0] == radius
    assert v[1] == 0.0


def test_system_rhs_zero_point():
    # the time-like block is zero at psi = 0, so the space-like velocity is
    # +0.0, also when the block is -0.0
    spec = CurveSpec(Signature(2, 3), 1.0)
    for psi in (0.0, -0.0):
        assert curve_derivative(spec, psi, 0)[:2].tobytes() == np.full(2, psi).tobytes()
        assert rhs(spec, psi)[2:].tobytes() == np.zeros(3).tobytes()


def test_system_rhs_hand_sums():
    # each time-like entry of the velocity is the sum of the three space-like
    # coordinates, and each space-like entry the sum of the two time-like ones
    spec = CurveSpec(Signature(2, 3), 1.3)
    t, x = curve_derivative(spec, 0.7, 0)[[0, 2]]
    assert np.array_equal(rhs(spec, 0.7), [x + x + x] * 2 + [t + t] * 3)


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


def test_grid_keeps_a_signed_zero_start():
    # the first sample was psi_start + span * 0.0, which turns -0.0 into +0.0
    for end, steps in ((1.0, 4), (-2.0, 3)):
        g = IntegratorConfig(-0.0, end, steps, spec11()).grid()
        assert math.copysign(1.0, g[0]) == -1.0 and g[0] == 0.0 and g[-1] == end
        assert np.array_equal(g[1:], IntegratorConfig(0.0, end, steps, spec11()).grid()[1:])


def test_grid_over_a_span_past_the_float_range_is_finite():
    # 1e308 - -1e308 overflows to inf, which made the grid [nan, inf, ..., 1e308]
    for start, end in ((-1e308, 1e308), (1e308, -1e308), (-1.7976931348623157e308, 1e307)):
        g = IntegratorConfig(start, end, 10, spec11()).grid()
        assert np.isfinite(g).all() and g[0] == start and g[-1] == end
        assert np.all(np.diff(g) > 0) if end > start else np.all(np.diff(g) < 0)
    assert IntegratorConfig(-1e308, 1e308, 10, spec11()).grid()[5] == 0.0


def test_check_resolved_decides_at_the_rk4_threshold():
    # R4(-x) = 1 at x(x^3 - 4x^2 + 12x - 24) = 0, whose one positive root
    # 2.78529356340528162... lies between two adjacent doubles; with w = 1 and
    # one step, h*w is the interval itself. Steps below 2^-54, which R4 in
    # floats rounds to 1, are resolved too
    last = 2.7852935634052813
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda x: x**3 - 4 * x**2 + 12 * x - 24, 2.785)
        assert mpmath.mpf(last) < root < mpmath.mpf(math.nextafter(last, 3.0))
    for hw in (0.0, 5e-324, 1e-300, 5e-17, 1e-3, 1.0, 2.7, last):
        check_resolved(IntegratorConfig(0.0, hw, 1, spec11()))
    for hw in (math.nextafter(last, 3.0), 2.9, 1e3, 1e77):
        with pytest.raises(ValueError, match="too coarse"):
            check_resolved(IntegratorConfig(0.0, hw, 1, spec11()))


def test_check_resolved_rejects_steps_past_the_float_range():
    # one comparison with the limit decides every step: past 1.2e77, where
    # R4's z**4 in floats overflowed, and at an infinite step, where R4 was
    # inf - inf, NaN; both are unresolved, not an OverflowError or a pass
    for start, end in ((0.0, 1e80), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="too coarse"):
            check_resolved(IntegratorConfig(start, end, 10, spec11()))


def test_zero_span_single_sample():
    spec = spec11()
    cfg = IntegratorConfig(1.5, 1.5, 1, spec)
    initial = curve_derivative(spec, 1.5, 0)
    flow = integrate(cfg)
    assert flow.shape == (1, 4)
    assert np.array_equal(flow[0, :2], initial)
    assert closed_form_trajectory(cfg).shape == (1, 4) and list(cfg.grid()) == [1.5]


def test_integrate_base_case_oracle():
    spec = spec11()
    cfg = IntegratorConfig(0.0, 1.0, 1000, spec)
    flow = integrate(cfg)
    assert abs(flow[-1, 0] - math.sinh(1.0)) <= 1e-9
    assert abs(flow[-1, 1] - math.cosh(1.0)) <= 1e-9


def test_integrate_one_two_oracle():
    # R_eff = 1, so t_1 = sqrt(2) sinh(sqrt(2) psi) and x_2 = x_3 = cosh(sqrt(2) psi)
    spec = CurveSpec(Signature(1, 2), math.sqrt(2.0))
    cfg = IntegratorConfig(0.0, 1.0, 2000, spec)
    flow = integrate(cfg)
    w = math.sqrt(2.0)
    assert abs(flow[-1, 0] - w * math.sinh(w)) <= 1e-8
    assert abs(flow[-1, 1] - math.cosh(w)) <= 1e-8
    assert flow[-1, 1] == flow[-1, 2]


def test_closed_form_initial_condition_row():
    for sig in (Signature(1, 1), Signature(2, 3)):
        spec = CurveSpec(sig, 2.0)
        flow = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 4, spec))
        assert np.all(flow[0, : sig.s] == 0.0)
        assert np.all(flow[0, sig.s : sig.n] == spec.r_eff)


def test_closed_form_base_case_values():
    spec = spec11(2.0)
    cfg = IntegratorConfig(-1.0, 1.0, 20, spec)
    flow = closed_form_trajectory(cfg)
    for k, psi in enumerate(cfg.grid()):
        assert flow[k, 0] == 2.0 * math.sinh(psi)
        assert flow[k, 1] == 2.0 * math.cosh(psi)


def test_closed_form_matches_point_at_bitwise():
    spec = CurveSpec(Signature(3, 2), 1.5)
    cfg = IntegratorConfig(-0.7, 1.3, 13, spec)
    flow = closed_form_trajectory(cfg)
    assert np.array_equal(flow[:, :5], curve_derivative(spec, cfg.grid(), 0))
    assert np.array_equal(flow[:, 5:], curve_derivative(spec, cfg.grid(), 1))
    for m in range(4):
        rows = [curve_derivative(spec, psi, m) for psi in cfg.grid()]
        assert np.array_equal(curve_derivative(spec, cfg.grid(), m), rows)


def test_flows_are_order_one_lifts():
    # closed form and integrated alike: row k is [point | velocity] at grid[k]
    cfgs = [IntegratorConfig(-0.7, 1.3, 13, CurveSpec(sig, 1.5))
            for sig in (Signature(1, 1), Signature(3, 2), Signature(2, 9))]
    for cfg in cfgs:
        want = curve_lift(cfg.spec, cfg.grid(), 1)
        assert closed_form_trajectory(cfg).tobytes() == want.tobytes()
        assert closed_form_trajectory(cfg).shape == want.shape == (14, 2 * cfg.spec.sig.n)
    flows = [integrate(cfg) for cfg in cfgs]
    assert [flow.shape for flow in flows] == [(14, 2 * cfg.spec.sig.n) for cfg in cfgs]


def test_max_deviation_identity():
    flow = closed_form_trajectory(IntegratorConfig(0.0, 1.0, 10, spec11()))
    assert max_deviation(flow, flow) == 0.0


def test_max_deviation_oracle_and_step_halving():
    spec = spec11()
    devs = {}
    for steps in (500, 1000):
        cfg = IntegratorConfig(0.0, 1.0, steps, spec)
        devs[steps] = max_deviation(integrate(cfg), closed_form_trajectory(cfg))
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


def test_second_order_residual_closed_form(second_order_residual):
    cfg = IntegratorConfig(0.0, 1.0, 1000, spec11())
    flow = closed_form_trajectory(cfg)
    assert second_order_residual(cfg, flow) <= 1e-5 * np.max(np.abs(flow[:, 1:2]))


def test_second_order_residual_zero_channel(second_order_residual):
    cfg = IntegratorConfig(0.0, 1.0, 10, CurveSpec(Signature(2, 2), 1.0))
    flow = np.zeros((11, 8))
    flow[:, 0] = np.linspace(1.0, 2.0, 11)  # only the x-channel enters
    flow[:, 4:] = 7.0  # and no velocity
    assert second_order_residual(cfg, flow) == 0.0


def test_second_order_residual_exponential_solution(second_order_residual):
    # x(psi) = exp(sqrt(s*r) psi) solves the reduced equation exactly, so the
    # residual sits at the central-difference truncation floor
    cfg = IntegratorConfig(0.0, 1.0, 1000, CurveSpec(Signature(1, 2), 1.0))
    w = cfg.spec.frequency
    h = 1e-3
    psi = cfg.grid()
    flow = np.zeros((psi.size, 6))
    flow[:, 1] = np.exp(w * psi)
    flow[:, 2] = np.exp(w * psi)
    resid = second_order_residual(cfg, flow)
    model = (h * h / 12.0) * (w**4) * float(np.max(flow))
    assert 0.0 < resid <= 2.0 * model


def test_second_order_residual_errors(second_order_residual):
    short = IntegratorConfig(0.0, 1.0, 1, spec11())
    with pytest.raises(ValueError, match="at least 3 samples"):
        second_order_residual(short, closed_form_trajectory(short))


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 3), Signature(4, 4)])
def test_flow_conserves_quadric_and_orthogonality(sig):
    spec = CurveSpec(sig, 1.0)
    cfg = IntegratorConfig(0.0, 1.5, 2000, spec)
    flow = integrate(cfg)
    for row in flow:
        p, v = row[: sig.n], row[sig.n :]
        assert abs(inner_product(p, p, sig) - 1.0) <= 1e-7
        assert abs(inner_product(p, v, sig)) <= 1e-7


def test_flow_uniformity_bitwise():
    # every coordinate has the bits of its block's first entry, as np.repeat
    # of the four block values lays them out, and those are the (steps + 1, 4)
    # table of the block producer that `generate` writes; compared as int64,
    # so that a -0.0 beside a +0.0, which == takes as equal, differs too
    ranges = [(-1.0, 1.0, 8),  # 0.0 on the grid
              (-0.0, 1.5, 6), (1.5, -2.0, 7), (0.75, 0.75, 3), (-0.0, -0.0, 2), (0.0, 1.5, 500)]
    for producer, blocks_of in ((integrate, ode._integrate_blocks),
                                (closed_form_trajectory, ode._closed_form_blocks)):
        for s, r in ((1, 1), (2, 3), (3, 1), (4, 4), (1, 9), (8, 8)):
            for start, end, steps in ranges:
                cfg = IntegratorConfig(start, end, steps, CurveSpec(Signature(s, r), 1.3))
                flow = producer(cfg)
                blocks = flow[:, [0, s, s + r, 2 * s + r]]
                want = np.repeat(blocks, (s, r, s, r), axis=1)
                case = (producer.__name__, s, r, start, end)
                assert flow.shape == want.shape, case
                assert (flow.view(np.int64) == want.view(np.int64)).all(), case
                assert (blocks_of(cfg).view(np.int64) == blocks.view(np.int64)).all(), case


def runs(spec, psi_start, psi_end, step_counts):
    # the configs a slope fit takes, one per step count
    return [IntegratorConfig(psi_start, psi_end, k, spec) for k in step_counts]


def test_convergence_order_estimate():
    slope = convergence_order(runs(CurveSpec(Signature(2, 2), 1.0), 0.0, 1.5, (60, 120, 240)))
    assert 3.7 <= slope <= 4.3


def test_convergence_order_needs_three_counts():
    with pytest.raises(ValueError, match=r"3 distinct step sizes, got 2 from step counts \[100"):
        convergence_order(runs(spec11(), 0.0, 1.0, (100, 200)))
    # one count thrice is one step size, whose line numpy fits only with a warning
    with pytest.raises(ValueError, match=r"got 1 from step counts \[60, 60, 60\]"):
        convergence_order(runs(spec11(), 0.0, 1.0, (60, 60, 60)))
    # distinct counts of a subnormal span can round to one step size
    with pytest.raises(ValueError, match=r"got 1 from step counts \[11, 12, 13\]"):
        convergence_order(runs(spec11(), 5e-323, 0.0, (11, 12, 13)))
    with pytest.raises(ValueError, match="psi_start == psi_end"):
        convergence_order(runs(spec11(), 5.0, 5.0, (60, 120, 240)))
    # a span of one subnormal has a step of 0 at every count, whose log is -inf
    with pytest.raises(ValueError, match="0] over 60 steps, whose step underflows to 0"):
        convergence_order(runs(spec11(), 5e-324, 0.0, (60, 120, 240)))
    # runs over different intervals or of different curves make no one slope
    mixed = runs(spec11(), 0.0, 1.0, (60, 120)) + runs(spec11(), 0.0, 2.0, (240,))
    with pytest.raises(ValueError, match=r"step count only, got .*psi_end=1\.0, steps=60.* and "
                                         r".*psi_end=2\.0, steps=240"):
        convergence_order(mixed)
    larger = CurveSpec(Signature(1, 1), 2.0)
    mixed = runs(spec11(), 0.0, 1.0, (60,)) + runs(larger, 0.0, 1.0, (120, 240))
    with pytest.raises(ValueError, match=r"step count only, got .*radius=1\.0\)\) and "
                                         r".*steps=120.*radius=2\.0\)\)"):
        convergence_order(mixed)


def reference_rhs(y, sig, block_sum=np.sum):
    # the right-hand side as it was, every coordinate summed: numpy's own sum
    # of each block, or the given `block_sum` of it
    s = sig.s
    out = np.empty_like(y)
    out[:s] = block_sum(y[s:])
    out[s:] = block_sum(y[:s])
    return out


def reference_integrate(cfg, initial, block_sum=np.sum):
    # the one-point RK4 loop as it was before the batched loop replaced it
    sig = cfg.spec.sig
    grid = cfg.grid()
    h = cfg.step
    points = np.empty((grid.shape[0], sig.n))
    velocities = np.empty_like(points)
    points[0] = initial
    velocities[0] = reference_rhs(points[0], sig, block_sum)
    for k in range(grid.shape[0] - 1):
        y, k1 = points[k], velocities[k]
        k2 = reference_rhs(y + 0.5 * h * k1, sig, block_sum)
        k3 = reference_rhs(y + 0.5 * h * k2, sig, block_sum)
        k4 = reference_rhs(y + h * k3, sig, block_sum)
        points[k + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        velocities[k + 1] = reference_rhs(points[k + 1], sig, block_sum)
    return points, velocities


def fsum_reference(cfg):
    # the n-coordinate loop with each block summed by math.fsum, which is
    # correctly rounded whatever the entries, so it assumes no uniformity
    start = curve_derivative(cfg.spec, cfg.psi_start, 0)
    points, velocities = reference_integrate(cfg, start, math.fsum)
    return np.hstack((points, velocities))


def bits(flow):
    n = flow.shape[1] // 2
    return flow[:, :n].tobytes(), flow[:, n:].tobytes()


def assert_rounding_close(cfg, flow, want):
    # each block sum of c <= n entries, summed in another order, differs by at
    # most c * u * (c * |entry|), so step k moves the state by at most
    # n^2 * u * h * e^(h*w) * max|y_k| (the stages grow by up to e^(h*w)); the
    # growing mode carries that on by R4(h*w) per step to the end
    sig, h = cfg.spec.sig, abs(cfg.step)
    z = h * cfg.spec.frequency
    gain = 1 + z + z * z / 2 + z**3 / 6 + z**4 / 24
    sizes = np.max(np.abs(want[:-1]), axis=1)
    carried = sizes * gain ** np.arange(len(sizes) - 1, -1, -1.0)
    bound = sig.n**2 * 2.0**-53 * h * math.exp(z) * np.sum(carried)
    assert max_deviation(flow, want) <= bound


@pytest.mark.parametrize("s", range(1, 8))
def test_integrate_matches_the_reference_loop(s):
    # a block of up to 3 entries has count * value as its left-to-right sum
    # from 0.0, the order numpy uses below 8 entries, so the two agree bit for
    # bit there; at psi = -0.0 the time-like block is -0.0, which both sum to
    # +0.0. Every length agrees bit for bit with the fsum loop.
    for r in range(1, 8):
        spec = CurveSpec(Signature(s, r), 1.3)
        for psi_start, psi_end in ((-1.0, 0.8), (0.8, -1.0), (-0.0, 0.8), (-0.0, -1.0)):
            cfg = IntegratorConfig(psi_start, psi_end, 24, spec)
            flow = integrate(cfg)
            points, velocities = reference_integrate(cfg, curve_derivative(spec, psi_start, 0))
            if max(s, r) <= 3:
                assert bits(flow) == (points.tobytes(), velocities.tobytes()), (s, r)
            else:
                assert_rounding_close(cfg, flow, np.hstack((points, velocities)))
            assert bits(flow) == bits(fsum_reference(cfg)), (s, r)
            assert flow.shape == (cfg.grid().shape[0], 2 * spec.sig.n)


def padded_reference(cfg):
    # the padded-state RK4 loop that stepped every coordinate, with a batch
    # of one: the state row is [0, t_1..t_s, 0, x_1..x_r], and each block of
    # the right-hand side sums left to right from the block's leading zero
    sig = cfg.spec.sig
    S = sig.s
    cols = np.r_[1 : 1 + S, S + 2 : S + 2 + sig.r]
    t_blk, x_blk = slice(0, S + 1), slice(S + 1, None)
    t_out, x_out = slice(1, S + 1), slice(S + 2, None)
    accumulate = np.add.accumulate

    def rhs(y, out):
        out[:, t_out] = accumulate(y[:, x_blk], axis=1)[:, -1:]
        out[:, x_out] = accumulate(y[:, t_blk], axis=1)[:, -1:]

    samples = cfg.grid().shape[0]
    h = cfg.step
    points = np.zeros((samples, 1, sig.n + 2))
    velocities = np.zeros_like(points)
    k2, k3, k4 = np.zeros((3, 1, sig.n + 2))
    points[0, 0, cols] = curve_derivative(cfg.spec, cfg.psi_start, 0)
    rhs(points[0], velocities[0])
    half, sixth = 0.5 * h, h / 6.0
    for k in range(samples - 1):
        y, k1 = points[k], velocities[k]
        rhs(y + half * k1, k2)
        rhs(y + half * k2, k3)
        rhs(y + h * k3, k4)
        np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=points[k + 1])
        rhs(points[k + 1], velocities[k + 1])
    return np.hstack((points[:, 0, cols], velocities[:, 0, cols]))


@pytest.mark.parametrize("s", range(1, 10))
def test_integrate_matches_the_padded_loop(s):
    # bit for bit where every block has up to 3 entries, and within rounding
    # beyond; bit for bit with the fsum loop at every length, blocks of 8 and
    # more included, where numpy's own sum turns pairwise; forward, reversed,
    # and from psi = -0.0
    for r in range(1, 10):
        for radius in (0.5, 2.5):
            spec = CurveSpec(Signature(s, r), radius)
            for psi_start, psi_end in ((-1.2, 0.9), (0.9, -1.2), (-0.0, 0.9), (-0.0, -1.2)):
                cfg = IntegratorConfig(psi_start, psi_end, 30, spec)
                flow, padded = integrate(cfg), padded_reference(cfg)
                if max(s, r) <= 3:
                    assert bits(flow) == bits(padded), (s, r, psi_start)
                else:
                    assert_rounding_close(cfg, flow, padded)
                assert bits(flow) == bits(fsum_reference(cfg)), (s, r, psi_start)


@pytest.mark.parametrize("s, r", [(8, 8), (1, 9), (9, 2), (3, 3), (2, 3)])
def test_integrate_matches_the_padded_loop_over_long_runs(s, r):
    cfg = IntegratorConfig(-2.0, 2.0, 5000, CurveSpec(Signature(s, r), 1.3))
    flow = integrate(cfg)
    if max(s, r) <= 3:
        assert bits(flow) == bits(padded_reference(cfg))
    else:
        assert_rounding_close(cfg, flow, padded_reference(cfg))
    assert bits(flow) == bits(fsum_reference(cfg))


def test_block_sums_are_correctly_rounded_at_every_length():
    # each block of the right-hand side is the correctly rounded sum of its
    # copies, math.fsum's, at every length; up to 3 entries that is also the
    # left-to-right sum from 0.0, which from 4 entries on differs for some values
    rng = np.random.default_rng(3)
    fold_differs = 0
    for s in range(1, 13):
        spec = CurveSpec(Signature(s, 13 - s), 10.0 ** rng.integers(-8, 9))
        for psi in rng.uniform(-3.0, 3.0, 20).tolist():
            p = curve_derivative(spec, psi, 0)
            out = rhs(spec, psi)
            for block, count, value in ((out[:s], 13 - s, p[s]), (out[s:], s, p[0])):
                want = math.fsum([value] * count)
                assert block.tobytes() == np.full(block.size, want).tobytes()
                fold = 0.0
                for _ in range(count):
                    fold += value
                if count <= 3:
                    assert fold == want
                fold_differs += fold != want
    # the check can tell the two orders apart
    assert fold_differs > 0
