"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and then
asserts, so a red run still reports every criterion's outcome.
"""

import math
import time

import numpy as np

from pseudohyp import (
    CurveSpec,
    IntegratorConfig,
    Signature,
    apply,
    boost,
    bundle_dim,
    closed_form_trajectory,
    convergence_order,
    curve_derivative,
    curve_lift,
    inner_product,
    integrate,
    max_deviation,
    random_isometry,
)

FULL_GRID = [Signature(s, r) for s in range(1, 5) for r in range(1, 5)]
RADII = (0.5, 1.0, 2.0)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name}{detail}")


def test_criterion_1_base_case_reproduction():
    t0 = time.perf_counter()
    spec = CurveSpec(Signature(1, 1), 1.0)
    psi = np.linspace(-3.0, 3.0, 50)
    sinh, cosh = (np.array([f(a) for a in psi]) for f in (math.sinh, math.cosh))
    got = np.hstack((curve_derivative(spec, psi, 0), curve_derivative(spec, psi, 1)))
    want = np.column_stack((sinh, cosh, cosh, sinh))
    worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-15 and elapsed < 1.0
    report(1, "base case (sinh psi, cosh psi)", ok,
           f" worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-15
    assert elapsed < 1.0


def test_criterion_2_quadric_invariant_sweep():
    t0 = time.perf_counter()
    psis = np.linspace(-2.0, 2.0, 100)
    worst_form = worst_orth = 0.0
    for sig in FULL_GRID:
        for radius in RADII:
            spec = CurveSpec(sig, radius)
            r2 = radius * radius
            p, v = curve_derivative(spec, psis, 0), curve_derivative(spec, psis, 1)
            form = np.abs(inner_product(p, p, sig) - r2) / r2
            worst_form = max(worst_form, float(np.max(form)))
            worst_orth = max(worst_orth, float(np.max(np.abs(inner_product(p, v, sig)) / r2)))
    elapsed = time.perf_counter() - t0
    ok = worst_form <= 1e-9 and worst_orth <= 1e-9 and elapsed < 5.0
    report(2, "quadric and orthogonality sweep", ok,
           f" worst |p*p-R2|/R2 {worst_form:.2e}, worst |p*p'|/R2 {worst_orth:.2e}, "
           f"{elapsed:.2f}s")
    assert worst_form <= 1e-9
    assert worst_orth <= 1e-9
    assert elapsed < 5.0


def independent_velocity_norm(s, r, radius, psi):
    # closed forms evaluated directly, away from the library path
    w = math.sqrt(s * r)
    a = radius / math.sqrt(r)
    dt = r * a * math.cosh(w * psi)
    dx = w * a * math.sinh(w * psi)
    return -s * dt * dt + r * dx * dx


def test_criterion_3_velocity_norm():
    # oracle first: the independent evaluation reproduces -s*r*R^2
    for s, r, radius, psi in [(1, 1, 1.0, 0.7), (3, 2, 0.5, -1.2), (4, 4, 2.0, 1.9)]:
        want = -s * r * radius * radius
        got = independent_velocity_norm(s, r, radius, psi)
        assert abs(got - want) <= 1e-9 * abs(want)
    worst = 0.0
    for sig in FULL_GRID:
        for radius in RADII:
            spec = CurveSpec(sig, radius)
            target = sig.s * sig.r * radius * radius
            v = curve_derivative(spec, np.linspace(-2.0, 2.0, 100), 1)
            norm = np.abs(inner_product(v, v, sig) + target) / target
            worst = max(worst, float(np.max(norm)))
    ok = worst <= 1e-9
    report(3, "velocity norm -s*r*R^2", ok, f" worst rel {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_4_ode_oracle_equivalence():
    t0 = time.perf_counter()
    # the 48 deviation runs, then the 16 slope fits' runs at three counts each
    cfgs = [IntegratorConfig(0.0, 1.5, 2000, CurveSpec(sig, radius))
            for sig in FULL_GRID for radius in RADII]
    worst_ratio = 0.0
    for cfg in cfgs:
        spec = cfg.spec
        dev = max_deviation(integrate(cfg), closed_form_trajectory(cfg))
        bound = 1e-7 * (1.0 + spec.sig.r * spec.r_eff * math.cosh(1.5 * spec.frequency))
        worst_ratio = max(worst_ratio, dev / bound)
    specs = [CurveSpec(sig, 1.0) for sig in FULL_GRID]
    fit_cfgs = [[IntegratorConfig(0.0, 1.5, k, spec) for k in (60, 120, 240)] for spec in specs]
    slopes = [convergence_order(run_cfgs) for run_cfgs in fit_cfgs]
    elapsed = time.perf_counter() - t0
    slope_ok = all(abs(sl - 4.0) <= 0.3 for sl in slopes)
    ok = worst_ratio <= 1.0 and slope_ok and elapsed < 30.0
    report(4, "integrator matches closed form", ok,
           f" worst dev/bound {worst_ratio:.2e}, slopes "
           f"[{min(slopes):.2f}, {max(slopes):.2f}], {elapsed:.1f}s")
    assert worst_ratio <= 1.0
    assert slope_ok
    assert elapsed < 30.0


def test_criterion_5_second_order_reduction(second_order_residual):
    # restricted to s*r <= 9: the 3-point stencil truncation error is
    # (h^2/12) (s*r)^2 max|x|, which crosses the stated bound at s*r >= 12
    worst_ratio = 0.0
    for sig in FULL_GRID:
        if sig.s * sig.r > 9:
            continue
        for radius in (1.0, 2.0):
            spec = CurveSpec(sig, radius)
            cfg = IntegratorConfig(0.0, 1.0, 1000, spec)
            flow = closed_form_trajectory(cfg)
            resid = second_order_residual(cfg, flow)
            bound = 1e-5 * float(np.max(np.abs(flow[:, sig.s : sig.n])))
            worst_ratio = max(worst_ratio, resid / bound)
    ok = worst_ratio <= 1.0
    report(5, "x'' = s*r*x residual at h=1e-3", ok, f" worst resid/bound {worst_ratio:.2e}")
    assert worst_ratio <= 1.0


def test_criterion_6_uniformity():
    def blocks_bit_equal(arr, s):
        return bool(np.all(arr[:, :s] == arr[:, :1]) and np.all(arr[:, s:] == arr[:, s : s + 1]))

    ok = True
    for sig in FULL_GRID:
        for radius in RADII:
            spec = CurveSpec(sig, radius)
            for psi_end in (1.5, -1.5):
                cfg = IntegratorConfig(0.0, psi_end, 300, spec)
                for flow in (closed_form_trajectory(cfg), integrate(cfg)):
                    ok = ok and blocks_bit_equal(flow[:, : sig.n], sig.s)
                    ok = ok and blocks_bit_equal(flow[:, sig.n :], sig.s)
    report(6, "blocks stay pairwise bit-equal", ok)
    assert ok


def test_criterion_7_bundle_dimension_law():
    ok = True
    for s in range(1, 6):
        for r in range(1, 7 - s):
            sig = Signature(s, r)
            spec = CurveSpec(sig, 1.0)
            for psi in (-0.4, 0.0, 0.8):
                lifts = [curve_lift(spec, psi, p) for p in range(7)]
                for p, e in enumerate(lifts):
                    ok = ok and e.shape == (bundle_dim(sig.n, p),)
                    ok = ok and bundle_dim(sig.n, p) == 2**p * sig.n
                    if p >= 1:
                        ok = ok and np.array_equal(e[: e.shape[-1] // 2], lifts[p - 1])
    report(7, "lift sizes 2^p*n and exact projection", ok)
    assert ok


def test_criterion_8_isometry_invariance():
    rng = np.random.default_rng(20260810)
    worst_form = worst_image = 0.0
    for _ in range(200):
        sig = Signature(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        m = random_isometry(sig, rng)
        u = rng.uniform(-1.0, 1.0, sig.n)
        v = rng.uniform(-1.0, 1.0, sig.n)
        ip = inner_product(u, v, sig)
        err = abs(inner_product(apply(m, u), apply(m, v), sig) - ip)
        worst_form = max(worst_form, err / (1e-10 * (1.0 + abs(ip))))
        radius = float(rng.choice(RADII))
        spec = CurveSpec(sig, radius)
        q = apply(m, curve_derivative(spec, float(rng.uniform(-1.0, 1.0)), 0))
        image_err = abs(inner_product(q, q, sig) - radius * radius)
        worst_image = max(worst_image, image_err / (1e-9 * radius * radius))
    worst_shift = 0.0
    sig11 = Signature(1, 1)
    spec11 = CurveSpec(sig11, 1.0)
    psi = np.linspace(-2.0, 2.0, 21)
    pts = curve_derivative(spec11, psi, 0)
    for a in np.linspace(-1.0, 1.0, 9):
        got = apply(boost(sig11, 0, 1, float(a)), pts)
        want = curve_derivative(spec11, psi + float(a), 0)
        worst_shift = max(worst_shift, float(np.max(np.abs(got - want))) / 1e-10)
    ok = worst_form <= 1.0 and worst_image <= 1.0 and worst_shift <= 1.0
    report(8, "isometry products preserve form and quadric", ok,
           f" worst form {worst_form:.2e}, image {worst_image:.2e}, "
           f"boost-shift {worst_shift:.2e} (fractions of bound)")
    assert worst_form <= 1.0
    assert worst_image <= 1.0
    assert worst_shift <= 1.0


def test_criterion_9_fault_sensitivity():
    # amplitude R instead of R/sqrt(r): the criterion-2 check must now fail
    # with the constant residual (r-1) * R^2 for every r >= 2
    psis = np.linspace(-2.0, 2.0, 100)
    ok = True
    for sig in FULL_GRID:
        for radius in RADII:
            r2 = radius * radius
            faulty = CurveSpec(sig, radius * math.sqrt(sig.r))
            pts = curve_derivative(faulty, psis, 0)
            worst = float(np.max(np.abs(inner_product(pts, pts, sig) - r2)))
            if sig.r == 1:
                ok = ok and worst <= 1e-9 * r2  # amplitude is still right
            else:
                ok = ok and worst > 1e-9 * r2
                ok = ok and abs(worst - (sig.r - 1) * r2) <= 1e-6 * r2
    report(9, "wrong amplitude trips the quadric sweep", ok)
    assert ok
