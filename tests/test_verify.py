"""Tests for the verification sweep, including its fault sensitivity."""

import io
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudohyp import (CurveSpec, IntegratorConfig, Signature, apply, boost,
                       closed_form_trajectory, curve_derivative, curve_lift, inner_product,
                       integrate, isometry_defect)
from pseudohyp import bundle, cli, geometry, ode, transform, verify
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


_PRINT_SWEEP = ("from pseudohyp.verify import run_sweep\n"
                "for rep in run_sweep({}):\n"
                "    print(rep.sig, rep.radius, *map(repr, rep.checks))\n")


def _sweep_lines(**sweep):
    # what _PRINT_SWEEP prints, computed in this process
    return [" ".join(map(str, (rep.sig, rep.radius, *map(repr, rep.checks))))
            for rep in run_sweep(**sweep)]


def _child_stdout(code, **env):
    # `code` run by a fresh interpreter on this checkout's src, with `env` added
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=120).stdout


def test_checks_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel for the CPU it runs on; a child forced onto
    # the Haswell kernel (AVX2 and FMA, no AVX-512) computes what such a
    # machine would, and must report every check of the default sweep to the bit
    cpuinfo = Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text().split()) if cpuinfo.exists() else set()
    if not {"avx2", "fma"} <= flags:
        pytest.skip("the Haswell kernel needs a CPU with AVX2 and FMA")
    child = _child_stdout(_PRINT_SWEEP.format(""), OPENBLAS_CORETYPE="Haswell")
    assert child.splitlines() == _sweep_lines()


def test_checks_do_not_depend_on_the_hash_seed():
    # random.Random hashes its str key with SHA-512, not with hash(), so the
    # isometry checks' draws are the same under every PYTHONHASHSEED
    code = _PRINT_SWEEP.format("max_sig=2")
    first, second = (_child_stdout(code, PYTHONHASHSEED=h).splitlines() for h in ("0", "1"))
    assert first == second == _sweep_lines(max_sig=2)


def test_seed_moves_the_drawn_checks():
    # --seed picks the isometry checks' vectors, so it is no dead flag
    def form(seed):
        checks = run_cell_checks(Signature(2, 2), 1.0, seed=seed).checks
        return next(c.worst for c in checks if c.name == "isometry_form")

    assert form(1) != form(2)


def test_draws_are_the_documented_stdlib_draws():
    # the key is the str "seed,s,r,round(R*1e6)"; each value is the top 53 bits
    # m of one little-endian 64-bit word, as m * 2^-52 - 1; pairs come first
    sig, k = Signature(2, 3), 4
    pairs, psis = verify._draws(5, sig, 1.5, k)
    assert pairs.shape == (k, 2, sig.n) and psis.shape == (k,)
    rng = random.Random("5,2,3,1500000")
    want = [(rng.getrandbits(64) >> 11) * 2.0**-52 - 1.0 for _ in range(k * (2 * sig.n + 1))]
    got = np.concatenate([pairs.ravel(), psis])
    assert got.tolist() == want
    assert np.all((-1.0 <= got) & (got < 1.0))
    # the same key gives the same draws, a numpy seed too
    for seed in (5, np.int64(5)):
        again = verify._draws(seed, sig, 1.5, k)
        assert again[0].tobytes() == pairs.tobytes() and again[1].tobytes() == psis.tobytes()
    # every field of the key moves them; a longer draw starts with the same words
    for key in ((6, sig, 1.5), (5, Signature(3, 2), 1.5), (5, Signature(2, 4), 1.5),
                (5, sig, 1.5 + 1e-6)):
        assert verify._draws(*key, k)[0].ravel()[:8].tolist() != want[:8], key
    assert verify._draws(5, Signature(2, 4), 1.5, k)[0].shape == (k, 2, 6)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1$"):
        verify._draws(-1, sig, 1.5, k)


def test_verify_does_not_load_numpy_random():
    # numpy.random and its C extensions cost a fresh process about 14 ms and
    # 5 MB; the isometry checks draw from the stdlib generator instead
    code = ("import contextlib, io, sys\n"
            "from pseudohyp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--max-sig', '1']) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    assert _child_stdout(code) == "False\n"


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


def _patch_every_binding(monkeypatch, real, fake) -> int:
    # the modules bind helpers with `from .x import f`, so each binding is replaced
    bound = [(mod, name) for key, mod in list(sys.modules.items()) if key.startswith("pseudohyp")
             for name, value in vars(mod).items() if value is real]
    for mod, name in bound:
        monkeypatch.setattr(mod, name, fake)
    return len(bound)


def _failed_checks(s, r):
    return [c.name for c in run_cell_checks(Signature(s, r), 1.0).failures]


def test_layout_fault_moves_every_flow_and_fails_the_isometry_images(monkeypatch):
    # one function lays out the n coordinates; with its counts swapped to
    # (r, s), every n-wide array and the writers' rows move, and at s != r
    # the isometry images, whose maps mix the blocks, are the checks that
    # catch it
    real = geometry._expand

    def swapped(blocks, sig):
        return real(blocks, Signature(sig.r, sig.s))

    spec = CurveSpec(Signature(1, 2), 1.0)
    cfg = IntegratorConfig(-1.0, 1.0, 20, spec)
    table = cli._sample_values(cfg, ode._closed_form_blocks(cfg))

    def flows():
        return [curve_derivative(spec, 0.3, 0), curve_lift(spec, 0.3, 2), integrate(cfg),
                closed_form_trajectory(cfg)]

    def csv_lines():
        stream = io.StringIO()
        cli.write_csv(spec, table, stream)
        return stream.getvalue().split("\r\n")

    before, lines = flows(), csv_lines()
    assert _patch_every_binding(monkeypatch, real, swapped) >= 4  # geometry, ode, verify, cli
    for want, got in zip(before, flows()):
        assert want.shape == got.shape and not np.array_equal(want, got)
    header, *rows = csv_lines()
    assert header == lines[0]
    assert all(got != want for got, want in zip(rows[:-1], lines[1:-1], strict=True))
    for s, r in ((1, 2), (2, 3), (3, 1)):
        assert _failed_checks(s, r) == ["isometry_quadric", "isometry_pair_orthogonality"], (s, r)
    # at s == r the swap is the identity
    assert run_cell_checks(Signature(2, 2), 1.0).passed


def test_closed_form_fault_fails_every_check_of_an_odd_order(monkeypatch):
    # one function computes every derivative tower; with the space-like value
    # of each odd order negated, the velocity is no longer tangent to the
    # quadric, and every check that relates an odd order to an even one fails
    real = geometry._block_tower

    def odd_flipped(spec, psi, orders):
        orders = list(orders)
        table = real(spec, psi, orders)
        table[..., [2 * i + 1 for i, m in enumerate(orders) if m % 2]] *= -1.0
        return table

    assert _patch_every_binding(monkeypatch, real, odd_flipped) >= 5  # with bundle and cli
    for s, r in ((1, 1), (1, 2), (2, 3), (3, 1)):
        assert _failed_checks(s, r) == ["orthogonality", "velocity_fd", "flow_deviation",
                                        "convergence_order", "lift_fd",
                                        "isometry_pair_orthogonality"], (s, r)


def test_bundle_fault_fails_only_the_lift_projection(monkeypatch):
    # with the halves of every order >= 1 lift swapped, the lift's first half is
    # no longer the lift one order down; no other check reads the slot order
    real = bundle.curve_lift

    def halves_swapped(spec, psi, order):
        lift = real(spec, psi, order)
        return np.roll(lift, lift.shape[-1] // 2, axis=-1) if order >= 1 else lift

    assert _patch_every_binding(monkeypatch, real, halves_swapped) >= 3  # bundle, verify, package
    for s, r in ((1, 1), (2, 3)):
        assert _failed_checks(s, r) == ["lift_projection"], (s, r)


# The checks each planted fault fails, over the cells its test tries. The
# coverage guard below requires every check the sweep reports to be in one.
_PLANTED = {
    # `fault_r_eff=True`, at r >= 2 (test_r_eff_fault_fails_exactly_the_quadric_family)
    "r-eff": {"quadric", "velocity_norm", "flow_quadric", "isometry_quadric"},
    # test_layout_fault_moves_every_flow_and_fails_the_isometry_images
    "layout": {"isometry_quadric", "isometry_pair_orthogonality"},
    # test_closed_form_fault_fails_every_check_of_an_odd_order
    "closed form": {"orthogonality", "velocity_fd", "flow_deviation", "convergence_order",
                    "lift_fd", "isometry_pair_orthogonality"},
    # test_bundle_fault_fails_only_the_lift_projection
    "bundle": {"lift_projection"},
    # the tests below
    "flow order": {"flow_deviation", "flow_quadric", "convergence_order"},
    "flow right-hand side": {"flow_deviation", "flow_quadric", "flow_orthogonality",
                             "convergence_order"},
    "isometry": {"isometry_defect", "isometry_form", "isometry_quadric",
                 "isometry_pair_orthogonality", "boost_translation"},
    "one plane": {"isometry_defect", "isometry_form", "isometry_quadric",
                  "isometry_pair_orthogonality", "boost_translation"},
    "bundle dimension": {"lift_dims"},
    "tower scale": {"lift_second_derivative", "lift_fd"},
}


def test_every_check_is_failed_by_a_planted_fault():
    # a check that no planted fault fails could pass on any code: a new check
    # lands with a fault that fails it
    names = {c.name for c in run_cell_checks(Signature(1, 1), 1.0, steps=300).checks}
    assert names <= set().union(*_PLANTED.values()), names - set().union(*_PLANTED.values())
    assert len(names) == 17


def test_r_eff_fault_fails_exactly_the_quadric_family():
    for s, r in ((1, 2), (2, 3), (4, 4)):
        failed = [c.name for c in run_cell_checks(Signature(s, r), 1.0, fault_r_eff=True).failures]
        assert set(failed) == _PLANTED["r-eff"], (s, r)
    assert run_cell_checks(Signature(3, 1), 1.0, fault_r_eff=True).passed


def _runge_kutta_blocks(tableau, rates):
    """An explicit Runge-Kutta scheme with `tableau` (a, b) on the block flow
    t' = c_t*x, x' = c_x*t, (c_t, c_x) = rates(s, r), laid out as
    `ode._integrate_blocks`' (steps + 1, 4) table [t, x, dt, dx]."""
    a, b = tableau

    def integrate_blocks(cfg):
        c_t, c_x = rates(cfg.spec.sig.s, cfg.spec.sig.r)
        h = cfg.step
        t, x = geometry._block_tower(cfg.spec, cfg.psi_start, (0,)).tolist()
        rows = [(t, x)]
        for _ in range(cfg.steps if cfg.psi_end != cfg.psi_start else 0):
            stages = []
            for row in a:
                kt = sum(w * k[0] for w, k in zip(row, stages))
                kx = sum(w * k[1] for w, k in zip(row, stages))
                stages.append((c_t * (x + h * kx), c_x * (t + h * kt)))
            t += h * sum(w * k[0] for w, k in zip(b, stages))
            x += h * sum(w * k[1] for w, k in zip(b, stages))
            rows.append((t, x))
        pts = np.array(rows)
        return np.column_stack((pts, c_t * pts[:, 1], c_x * pts[:, 0]))

    return integrate_blocks


_RK4 = ([[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
_KUTTA3 = ([[], [0.5], [-1.0, 2.0]], [1 / 6, 2 / 3, 1 / 6])


@pytest.mark.parametrize("fault, tableau, rates, want", [
    # the classic scheme on the true flow t' = r*x, x' = s*t passes every check
    (None, _RK4, lambda s, r: (r, s), {(1, 1): [], (2, 3): [], (4, 4): []}),
    # a third-order scheme breaks the fitted order, and at (4,4), where w*h is
    # largest, its truncation shows in the flow itself
    ("flow order", _KUTTA3, lambda s, r: (r, s), {
        **dict.fromkeys([(1, 1), (1, 2), (2, 3), (3, 1)], ["convergence_order"]),
        (4, 4): ["flow_deviation", "flow_quadric", "convergence_order"]}),
    # dt = s*x in place of r*x: the velocity leaves the tangent space, which
    # at s == r is the true flow again
    ("flow right-hand side", _RK4, lambda s, r: (s, s), {
        **dict.fromkeys([(1, 2), (2, 3), (3, 1)], ["flow_deviation", "flow_quadric",
                                                   "flow_orthogonality", "convergence_order"]),
        (2, 2): []}),
], ids=["control", "order", "right-hand side"])
def test_flow_faults_fail_exactly_the_flow_checks(monkeypatch, fault, tableau, rates, want):
    fake = _runge_kutta_blocks(tableau, rates)
    assert _patch_every_binding(monkeypatch, ode._integrate_blocks, fake) >= 3  # ode, verify, cli
    for (s, r), failed in want.items():
        assert _failed_checks(s, r) == failed, (s, r)
    assert set().union(*want.values()) == _PLANTED.get(fault, set())


def test_isometry_fault_fails_exactly_the_isometry_checks(monkeypatch):
    # a boost whose [space_axis, time_axis] entry is negated is a rotation-like
    # map, no isometry; the sweep's maps hold a boost in every mixed plane
    real = transform.boost

    def skewed(sig, time_axis, space_axis, rapidity):
        m = real(sig, time_axis, space_axis, rapidity)
        m[space_axis, time_axis] *= -1.0
        return m

    assert _patch_every_binding(monkeypatch, real, skewed) >= 3  # transform, verify, package
    isometry = ["isometry_defect", "isometry_form", "isometry_quadric",
                "isometry_pair_orthogonality"]
    assert _failed_checks(1, 1) == [*isometry, "boost_translation"]
    for s, r in ((1, 2), (2, 3), (3, 1), (2, 2)):
        assert _failed_checks(s, r) == isometry, (s, r)
    assert {*isometry, "boost_translation"} == _PLANTED["isometry"]


def test_one_plane_fault_fails_the_isometry_checks_at_every_cell(monkeypatch):
    # the skewed boost only in the plane (s-1, n-1), which a sample of random
    # products can miss; the fixed set holds a map in every plane, so each cell
    # fails the whole family
    real = transform.boost

    def skewed(sig, time_axis, space_axis, rapidity):
        m = real(sig, time_axis, space_axis, rapidity)
        if (time_axis, space_axis) == (sig.s - 1, sig.n - 1):
            m[space_axis, time_axis] *= -1.0
        return m

    assert _patch_every_binding(monkeypatch, real, skewed) >= 3  # transform, verify, package
    isometry = ["isometry_defect", "isometry_form", "isometry_quadric",
                "isometry_pair_orthogonality"]
    family = {*isometry, "boost_translation"}
    # (3,6) and (5,5) fail closed-form checks on correct code, so only the family is read
    for s, r in ((1, 1), (1, 2), (2, 3), (3, 6), (5, 5)):
        got = [name for name in _failed_checks(s, r) if name in family]
        assert got == isometry + ["boost_translation"] * (s == r == 1), (s, r)
    assert family == _PLANTED["one plane"]


def test_every_fixed_map_is_an_isometry_that_stretches_by_at_most_e3():
    # the radius cap lets the isometry images' squared sums grow by e^6
    for s in range(1, 9):
        for r in range(1, 9):
            sig = Signature(s, r)
            for m in verify._isometry_maps(sig):
                assert np.linalg.norm(m, 2) <= math.exp(3.0), (s, r)
                assert isometry_defect(m, sig) <= 1e-10, (s, r)


def test_bundle_dim_fault_fails_only_the_lift_dims(monkeypatch):
    def added(n, p):
        return (1 << p) + n

    assert _patch_every_binding(monkeypatch, bundle.bundle_dim, added) >= 3  # bundle, verify, cli
    for s, r in ((1, 1), (2, 3)):
        assert _failed_checks(s, r) == ["lift_dims"], (s, r)
    assert _PLANTED["bundle dimension"] == {"lift_dims"}


def test_tower_scale_fault_fails_the_second_derivative_and_the_lift_fd(monkeypatch):
    # order m >= 2 scaled by ((s+r)/(s*r))^(m//2) carries (s+r)^(m//2) where
    # the curve has (s*r)^(m//2): no check below order 2 sees it, and at
    # (2,2), where s + r == s*r, it is the identity
    real = geometry._block_tower

    def rescaled(spec, psi, orders):
        orders = list(orders)
        table = real(spec, psi, orders)
        s, r = spec.sig.s, spec.sig.r
        for i, m in enumerate(orders):
            table[..., 2 * i : 2 * i + 2] *= ((s + r) / (s * r)) ** (m // 2) if m >= 2 else 1.0
        return table

    assert _patch_every_binding(monkeypatch, real, rescaled) >= 5  # with bundle and cli
    for s, r in ((1, 1), (1, 2), (2, 3), (3, 1)):
        assert _failed_checks(s, r) == ["lift_second_derivative", "lift_fd"], (s, r)
    assert run_cell_checks(Signature(2, 2), 1.0).passed
    assert _PLANTED["tower scale"] == {"lift_second_derivative", "lift_fd"}


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


@pytest.mark.parametrize("low", [np.float32, np.float16])
def test_reduced_precision_inputs_run_in_binary64(low):
    # numpy 2 keeps a float32 or float16 through arithmetic with Python floats,
    # so such an endpoint once made the step, and with it the whole RK4 loop,
    # that precision: 6.4e-5 (float32) and 0.35 (float16) off the closed form
    spec = CurveSpec(Signature(1, 1), 1.0)
    want = integrate(IntegratorConfig(-2.0, 2.0, 2000, spec))
    cfg = IntegratorConfig(low(-2), low(2), 2000, spec)
    assert type(cfg.psi_start) is float and type(cfg.psi_end) is float
    assert integrate(cfg).tobytes() == want.tobytes()
    sig = Signature(2, 2)
    assert (run_cell_checks(sig, 1.0, psi_start=low(-2), psi_end=low(2))
            == run_cell_checks(sig, 1.0))
    assert run_sweep(max_sig=2, psi_start=low(-2)) == run_sweep(max_sig=2)
    # the radius cap too is computed from binary64 endpoints; float16 ones once
    # moved the cap of (4,4) over [-2, 2] from 8.38657e147 to 7.53826e147
    for psi in ((-2.0, 2.0), (low(-2), low(2))):
        with pytest.raises(ValueError, match=r"caps the radius at 8\.38657e\+147, got 1e\+150"):
            run_cell_checks(Signature(4, 4), 1e150, *psi)
    # and so is the radius: a float32 0.3 once made R^2 a float32, failing the
    # quadric checks, and a float16 one overflowed the rng key's R*1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cell_checks(sig, low(0.3)) == run_cell_checks(sig, float(low(0.3)))


def _per_trial_groups(sig, radius, fault_r_eff):
    """The isometry and boost groups one map and one rapidity at a time,
    each check's worst with the rounding the matrix products allow it."""
    n, r2 = sig.n, radius * radius
    spec = CurveSpec(sig, radius * math.sqrt(sig.r) if fault_r_eff else radius)
    maps = verify._isometry_maps(sig)
    pairs, psis = verify._draws(verify.DEFAULT_SEED, sig, radius, len(maps))
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
    for m, (a, b), psi in zip(maps, pairs, psis.tolist()):
        worst["isometry_defect"] = max(worst["isometry_defect"], isometry_defect(m, sig))
        ip = inner_product(a, b, sig)
        err = abs(inner_product(apply(m, a), apply(m, b), sig) - ip)
        worst["isometry_form"] = max(worst["isometry_form"], err / (1.0 + abs(ip)))
        allow["isometry_form"] = max(allow["isometry_form"], slack(m, a, b, ip) / (1.0 + abs(ip)))
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
def test_whole_array_groups_match_the_per_trial_loop(monkeypatch, s, r, radius, fault):
    # the defect and the boosts are the same arithmetic, allowed no change;
    # the other three checks move only by the rounding of the matrix products
    sig = Signature(s, r)
    worst, allow = _per_trial_groups(sig, radius, fault)
    # those roundings are as large as the worsts, so that the sweep drew the
    # reference's vectors and points is asserted directly
    real, drawn = verify._draws, []
    monkeypatch.setattr(verify, "_draws", lambda *key: drawn.append(real(*key)) or drawn[-1])
    got = {c.name: c.worst for c in run_cell_checks(sig, radius, fault_r_eff=fault).checks}
    ref = real(verify.DEFAULT_SEED, sig, radius, len(verify._isometry_maps(sig)))
    assert [[a.tobytes() for a in d] for d in drawn] == [[a.tobytes() for a in ref]]
    for name, want in worst.items():
        assert abs(got[name] - want) <= allow[name], name
