"""Tests for the verification sweep, including its fault sensitivity."""

import pytest

from pseudohyp import Signature
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
