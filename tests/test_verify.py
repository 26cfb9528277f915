"""Tests for the verification sweep, including its fault sensitivity."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudohyp import (CurveSpec, IntegratorConfig, Signature, apply, boost,
                       closed_form_trajectory, curve_derivative, curve_lift, inner_product,
                       integrate, isometry_defect, random_isometry)
from pseudohyp import geometry, ode, verify
from pseudohyp.verify import run_cell_checks, run_sweep


def test_small_sweep_passes():
    reports = run_sweep(max_sig=2, radii=(1.0, 2.0), steps=400)
    assert len(reports) == 2 * 2 * 2
    assert all(rep.passed for rep in reports)
    # ordered by (s, r, radius)
    keys = [(rep.sig.s, rep.sig.r, rep.radius) for rep in reports]
    assert keys == sorted(keys)


def test_report_names_unique_and_bounded():
    rep = run_cell_checks(Signature(1, 1), 1.0, steps=300)
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    assert "boost_translation" in names  # only present for the (1,1) cell
    rep22 = run_cell_checks(Signature(2, 2), 1.0, steps=300)
    assert "boost_translation" not in [c.name for c in rep22.checks]


@pytest.mark.parametrize("name, sweep", [
    ("verify_checks_default.txt", {}),
    ("verify_checks_max_sig_3_fault.txt", {"max_sig": 3, "fault_r_eff": True}),
])
def test_every_check_is_the_recorded_one(name, sweep):
    # each check's worst and bound as the sweep computed them before its
    # groups were split, to the last bit
    want = (Path(__file__).parent / "data" / name).read_text()
    got = "".join(f"{rep.sig.s} {rep.sig.r} {rep.radius!r} {c.name} {c.worst!r} {c.bound!r}\n"
                  for rep in run_sweep(**sweep) for c in rep.checks)
    assert got == want


def test_fault_injection_is_detected():
    reports = run_sweep(max_sig=3, radii=(1.0,), steps=1500, fault_r_eff=True)
    assert len(reports) == 9
    for rep in reports:
        r = rep.sig.r
        quad = next(c for c in rep.checks if c.name == "quadric")
        if r == 1:
            # amplitude R/sqrt(1) is still correct, nothing to detect
            assert rep.passed
        else:
            assert not rep.passed
            assert not quad.passed
            # the wrong amplitude leaves a constant form residual (r-1) * R^2
            assert abs(quad.worst - (r - 1) * 1.0) <= 1e-6


def test_cell_checks_validation():
    with pytest.raises(ValueError):
        run_sweep(max_sig=0)
    # a bool or a float is no signature count, and a sweep over no radius checks nothing
    for max_sig in (True, 1.5):
        with pytest.raises(ValueError, match=f"max_sig must be a positive integer, got {max_sig}"):
            run_sweep(max_sig=max_sig)
    # a seed is checked by the library, not only by the CLI, and a numpy one is taken as is
    for seed in (True, 1.5, -1):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}$"):
            run_cell_checks(Signature(1, 1), 1.0, seed=seed)
    assert (run_cell_checks(Signature(1, 1), 1.0, seed=np.int64(3))
            == run_cell_checks(Signature(1, 1), 1.0, seed=3))
    with pytest.raises(ValueError, match=r"at least one radius, got \(\)"):
        run_sweep(max_sig=1, radii=())
    # a non-finite endpoint is rejected before a radius cap reads it
    with pytest.raises(ValueError, match="psi_start and psi_end must be finite, got -2.0 and inf"):
        run_cell_checks(Signature(1, 1), 1.0, psi_end=math.inf)
    # radii given as an iterator reach every signature, not only the first
    assert len(run_sweep(max_sig=np.int64(2), radii=iter([1.0]), steps=400)) == 4


def test_boost_translation_bound_scales_with_radius():
    # the shift error is relative to the curve's size, about 2.3e-15 * R
    rep = run_cell_checks(Signature(1, 1), 1e5)
    shift = next(c for c in rep.checks if c.name == "boost_translation")
    assert shift.passed and shift.bound == 1e-10 * 1e5
    assert rep.passed


def test_radius_cap_bounds_the_integrated_flow():
    # RK4 rounding seeds the flow's growing mode at about u*|y0| per step, and
    # e^(sqrt(2)*35) lifts it past the curve's own size: the curve term alone
    # admitted 2.65e133 here, where inner_product overflowed into nan checks
    sig, w = Signature(2, 1), math.sqrt(2.0)
    largest = math.exp(math.log(1e152 / (w * 2000 * 2.0**-53)) - w * 65.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_cell_checks(sig, largest, -30.0, 5.0)
    assert all(math.isfinite(c.worst) for c in rep.checks)
    for radius in (largest * 1.001, 2.65e133):
        with pytest.raises(ValueError, match="integrated flow's rounding"):
            run_cell_checks(sig, radius, -30.0, 5.0)


@pytest.mark.parametrize("fault", [False, True], ids=["plain", "fault"])
def test_sweep_equals_one_cell_at_a_time(fault):
    # the sweep gives every check, worst and bound included, exactly as the
    # cells run one at a time
    radii = (1.0, 2.5)
    reports = run_sweep(max_sig=3, radii=radii, fault_r_eff=fault)
    singles = [run_cell_checks(Signature(s, r), radius, fault_r_eff=fault)
               for s in range(1, 4) for r in range(1, 4) for radius in radii]
    assert reports == singles


def test_sweep_validates_every_cell_before_integrating(monkeypatch):
    def unreachable(cfg):
        raise AssertionError("integrated before every cell was validated")

    # the main run steps block values, the convergence fit whole flows
    monkeypatch.setattr(verify, "_integrate_blocks", unreachable)
    monkeypatch.setattr(ode, "integrate", unreachable)
    # (1,1) and (1,2) are served, and (2,2) is the first cell whose cap 1e150 exceeds
    with pytest.raises(ValueError, match=r"\(s, r\) = \(2, 2\)"):
        run_sweep(max_sig=2, radii=(1e150,))
    # the closed-form grid and its bounds are fixed, not settings
    for unknown in ("stepz", "tol", "samples"):
        with pytest.raises(TypeError, match=unknown):
            run_sweep(max_sig=1, **{unknown: 10})


def test_sweep_stops_at_the_first_unservable_cell(monkeypatch):
    # at the default psi range the fit's 60-step run cannot resolve s*r >= 1746,
    # so (1, 1746) is the 1746th cell walked and the first that fails; the
    # rest of the 1746^2 grid must not be built
    built = []

    class Counted(Signature):
        def __init__(self, s, r):
            built.append((s, r))
            if len(built) > 5000:
                raise AssertionError("built the grid past its first unservable cell")
            super().__init__(s, r)

    monkeypatch.setattr(verify, "Signature", Counted)
    with pytest.raises(ValueError, match=r"h\*sqrt\(s\*r\) = 2\.78568"):
        run_sweep(max_sig=1746)
    assert len(built) == 1746
    assert built[-1] == (1, 1746)


def test_layout_fault_moves_every_flow_and_fails_the_isometry_images(monkeypatch):
    # one function lays out the n coordinates; with its counts swapped to
    # (r, s), every n-wide array moves, and at s != r the isometry images,
    # whose random maps mix the blocks, are the checks that catch it
    real = geometry._expand

    def swapped(blocks, sig, out=None):
        return real(blocks, Signature(sig.r, sig.s), out)

    spec = CurveSpec(Signature(1, 2), 1.0)
    cfg = IntegratorConfig(-1.0, 1.0, 20, spec)

    def flows():
        return [curve_derivative(spec, 0.3, 0), curve_lift(spec, 0.3, 2), integrate(cfg),
                closed_form_trajectory(cfg)]

    before = flows()
    bound = [(mod, name) for key, mod in list(sys.modules.items()) if key.startswith("pseudohyp")
             for name, value in vars(mod).items() if value is real]
    assert len(bound) >= 2  # geometry's own and ode's
    for mod, name in bound:
        monkeypatch.setattr(mod, name, swapped)
    for want, got in zip(before, flows()):
        assert want.shape == got.shape and not np.array_equal(want, got)
    for s, r in ((1, 2), (2, 3), (3, 1)):
        failed = [c.name for c in run_cell_checks(Signature(s, r), 1.0).failures]
        assert failed == ["isometry_quadric", "isometry_pair_orthogonality"], (s, r)
    # at s == r the swap is the identity
    assert run_cell_checks(Signature(2, 2), 1.0).passed


def test_radius_cap_names_the_cap_that_binds():
    # over [-30, 5] the flow term caps (1,1) at 2.66e136 and the curve term at
    # 9.36e138; a radius above both is told the smaller cap
    for radius in (1e139, 1e137):
        with pytest.raises(ValueError, match=r"integrated flow's rounding.*at 2\.65716e\+136"):
            run_cell_checks(Signature(1, 1), radius, -30.0, 5.0)
    # the cap is checked once, before RK4 resolution: 10 steps here are too coarse as well,
    # and the fit's 240 steps set the flow cap
    with pytest.raises(ValueError, match=r"integrated flow's rounding.*240 steps.*at 2\.2143e\+137"):
        run_cell_checks(Signature(1, 1), 1e138, -30.0, 5.0, steps=10)
    # at the default range the curve term is the smaller one
    with pytest.raises(ValueError, match=r"inner products stay finite.*at 1\.35335e\+151"):
        run_cell_checks(Signature(1, 1), 1.3e154)


def _per_trial_groups(sig, radius, fault_r_eff):
    """The isometry and boost groups one trial and one rapidity at a time,
    each check's worst with the rounding the matrix products allow it."""
    n, r2 = sig.n, radius * radius
    spec = CurveSpec(sig, radius * math.sqrt(sig.r) if fault_r_eff else radius)
    rng = np.random.default_rng([verify.DEFAULT_SEED, sig.s, sig.r, int(round(radius * 1e6))])
    u = 2.0**-53
    gamma = n * u / (1 - n * u)

    def slack(m, x1, x2, c):
        # |fl(M x) - M x| <= gamma_n |M||x| componentwise in any summation
        # order, so two evaluations differ by d <= 2 gamma_n |M||x|; the
        # products of the images then move by sum(d1|y2| + |y1|d2 + d1 d2),
        # and Dot2, the subtraction of c and a division round each by at most
        # u|result| + gamma_n^2 sum|y1 y2| on either side
        y1, y2 = apply(m, x1), apply(m, x2)
        d1, d2 = (2 * gamma * (np.abs(m) @ np.abs(x)) for x in (x1, x2))
        size = np.sum((np.abs(y1) + d1) * (np.abs(y2) + d2)) + abs(c)
        return np.sum(d1 * np.abs(y2) + np.abs(y1) * d2 + d1 * d2) + 2 * (3 * u + gamma**2) * size

    names = ["isometry_defect", "isometry_form", "isometry_quadric", "isometry_pair_orthogonality"]
    worst, allow = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0.0)
    for _ in range(verify._TRANSFORM_TRIALS):
        m = random_isometry(sig, rng)
        worst["isometry_defect"] = max(worst["isometry_defect"], isometry_defect(m, sig))
        a = rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-1.0, 1.0, n)
        ip = inner_product(a, b, sig)
        err = abs(inner_product(apply(m, a), apply(m, b), sig) - ip)
        worst["isometry_form"] = max(worst["isometry_form"], err / (1.0 + abs(ip)))
        allow["isometry_form"] = max(allow["isometry_form"], slack(m, a, b, ip) / (1.0 + abs(ip)))
        psi = float(rng.uniform(-1.0, 1.0))
        p, v = curve_derivative(spec, psi, 0), curve_derivative(spec, psi, 1)
        q, qv = apply(m, p), apply(m, v)
        worst["isometry_quadric"] = max(worst["isometry_quadric"],
                                        abs(inner_product(q, q, sig) - r2))
        allow["isometry_quadric"] = max(allow["isometry_quadric"], slack(m, p, p, r2))
        worst["isometry_pair_orthogonality"] = max(worst["isometry_pair_orthogonality"],
                                                   abs(inner_product(q, qv, sig)))
        allow["isometry_pair_orthogonality"] = max(allow["isometry_pair_orthogonality"],
                                                   slack(m, p, v, 0.0))
    if sig.s == sig.r == 1:
        shift_psi = np.linspace(-2.0, 2.0, 21)
        base = curve_derivative(spec, shift_psi, 0)
        worst["boost_translation"] = allow["boost_translation"] = 0.0
        for a in np.linspace(-1.0, 1.0, 9):
            got = apply(boost(sig, 0, 1, float(a)), base)
            want = curve_derivative(spec, shift_psi + a, 0)
            worst["boost_translation"] = max(worst["boost_translation"],
                                             float(np.max(np.abs(got - want))))
    return worst, allow


@pytest.mark.parametrize("s, r, radius, fault", [
    (1, 1, 1.0, False), (1, 1, 1e5, False), (2, 3, 2.5, False), (3, 3, 1.0, True),
    (4, 4, 1.0, False), (6, 6, 1.0, False),
])
def test_whole_array_groups_match_the_per_trial_loop(s, r, radius, fault):
    # the defect and the boosts are the same arithmetic, allowed no change;
    # the other three checks move only by the rounding of the matrix products
    sig = Signature(s, r)
    worst, allow = _per_trial_groups(sig, radius, fault)
    got = {c.name: c.worst for c in run_cell_checks(sig, radius, fault_r_eff=fault).checks}
    for name, want in worst.items():
        assert abs(got[name] - want) <= allow[name], name
