"""Tests for the verification sweep, including its fault sensitivity."""

import math
import warnings

import pytest

from pseudohyp import Signature
from pseudohyp import verify
from pseudohyp.verify import run_cell_checks, run_sweep


def test_small_sweep_passes():
    reports = run_sweep(max_sig=2, radii=(1.0, 2.0), samples=40, steps=400)
    assert len(reports) == 2 * 2 * 2
    assert all(rep.passed for rep in reports)
    # ordered by (s, r, radius)
    keys = [(rep.sig.s, rep.sig.r, rep.radius) for rep in reports]
    assert keys == sorted(keys)


def test_report_names_unique_and_bounded():
    rep = run_cell_checks(Signature(1, 1), 1.0, samples=30, steps=300)
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    assert "boost_translation" in names  # only present for the (1,1) cell
    rep22 = run_cell_checks(Signature(2, 2), 1.0, samples=30, steps=300)
    assert "boost_translation" not in [c.name for c in rep22.checks]


def test_fault_injection_is_detected():
    reports = run_sweep(max_sig=3, radii=(1.0,), samples=30, steps=1500, fault_r_eff=True)
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
        run_cell_checks(Signature(1, 1), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        run_cell_checks(Signature(1, 1), 1.0, samples=1)
    with pytest.raises(ValueError):
        run_sweep(max_sig=0)


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
    # the batched flows give every check, worst and bound included, exactly
    # as a cell that integrates its own
    radii = (1.0, 2.5)
    reports = run_sweep(max_sig=3, radii=radii, fault_r_eff=fault)
    singles = [run_cell_checks(Signature(s, r), radius, fault_r_eff=fault)
               for s in range(1, 4) for r in range(1, 4) for radius in radii]
    assert reports == singles


def test_sweep_groups_cells_when_steps_are_long(monkeypatch):
    calls = []
    batch = verify.integrate_batch

    def counted(cfgs, initials):
        calls.append(len(cfgs))
        return batch(cfgs, initials)

    monkeypatch.setattr(verify, "integrate_batch", counted)
    whole = run_sweep(max_sig=2, samples=30, steps=400)
    assert calls == [4] * 4  # one loop per step count for all four cells
    monkeypatch.setattr(verify, "_BATCH_SAMPLES", 1000)
    calls.clear()
    assert run_sweep(max_sig=2, samples=30, steps=400) == whole
    assert calls == [2] * 8  # 1000 samples hold two cells of 401


def test_sweep_validates_every_cell_before_integrating(monkeypatch):
    def unreachable(cfgs, initials):
        raise AssertionError("integrated before every cell was validated")

    monkeypatch.setattr(verify, "integrate_batch", unreachable)
    # (1,1) and (1,2) are served, and (2,2) is the first cell whose cap 1e150 exceeds
    with pytest.raises(ValueError, match=r"\(s, r\) = \(2, 2\)"):
        run_sweep(max_sig=2, radii=(1e150,))
    with pytest.raises(TypeError, match="stepz"):
        run_sweep(max_sig=1, stepz=10)


def test_radius_cap_names_the_cap_that_binds():
    # over [-30, 5] the flow term caps (1,1) at 2.66e136 and the curve term at
    # 9.36e138; a radius above both is told the smaller cap
    for radius in (1e139, 1e137):
        with pytest.raises(ValueError, match=r"integrated flow's rounding.*at 2\.65716e\+136"):
            run_cell_checks(Signature(1, 1), radius, -30.0, 5.0)
    # at the default range the curve term is the smaller one
    with pytest.raises(ValueError, match=r"inner products stay finite.*at 1\.35335e\+151"):
        run_cell_checks(Signature(1, 1), 1.3e154)
