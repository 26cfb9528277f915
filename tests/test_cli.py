"""Tests for the command-line interface and its export formats."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudohyp import (CurveSpec, IntegratorConfig, Signature, closed_form_trajectory,
                       inner_product, integrate)
from pseudohyp import cli, ode, verify
from pseudohyp.cli import main
from pseudohyp.verify import run_sweep


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def test_generate_csv_example(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "generate", "--sig", "1,1", "--radius", "1", "--psi-start", "0",
        "--psi-end", "1", "--steps", "10", "--out", str(out),
    ])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["psi", "t_1", "x_2", "dt_1", "dx_2", "form_residual", "ortho_residual"]
    assert data.shape == (11, 7)
    assert np.array_equal(data[0], [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_generate_csv_roundtrip_bitexact(tmp_path):
    out = tmp_path / "traj.csv"
    args = ["generate", "--sig", "2,3", "--radius", "1.7", "--psi-start", "-1.1",
            "--psi-end", "0.9", "--steps", "17", "--out", str(out)]
    assert main(args) == 0
    header, data = read_csv(out)
    cfg = IntegratorConfig(-1.1, 0.9, 17, CurveSpec(Signature(2, 3), 1.7))
    flow = closed_form_trajectory(cfg)
    assert np.array_equal(data[:, 0], cfg.grid())
    assert np.array_equal(data[:, 1:6], flow[:, :5])
    assert np.array_equal(data[:, 6:11], flow[:, 5:])


def test_generate_json_roundtrip_bitexact(tmp_path):
    out = tmp_path / "traj.json"
    args = ["generate", "--sig", "1,2", "--radius", "2", "--psi-start", "0",
            "--psi-end", "1.5", "--steps", "12", "--format", "json",
            "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert doc["s"] == 1 and doc["r"] == 2
    assert doc["radius"] == 2.0
    assert doc["mode"] == "closed_form"
    cfg = IntegratorConfig(0.0, 1.5, 12, CurveSpec(Signature(1, 2), 2.0))
    flow = closed_form_trajectory(cfg)
    assert len(doc["samples"]) == 13
    for k, sample in enumerate(doc["samples"]):
        assert sample["psi"] == cfg.grid()[k]
        assert np.array_equal(sample["t"] + sample["x"], flow[k, :3])
        assert np.array_equal(sample["dt"] + sample["dx"], flow[k, 3:])


def expanded(sig, table):
    """A `_sample_values` table with each block value repeated over its
    block: one column per entry of `_columns`."""
    return np.repeat(table, (1, sig.s, sig.r, sig.s, sig.r, 1, 1), axis=1)


def reference_csv(spec, table, stream):
    # the writer as csv.writer, one formatted value at a time
    writer = csv.writer(stream)
    writer.writerow(cli._columns(spec.sig))
    for row in expanded(spec.sig, table):
        writer.writerow(format(v, ".17g") for v in row.tolist())


def reference_json(spec, mode, table, stream):
    # the writer as json.dump of one dict per sample
    sig = spec.sig
    samples = []
    for row in expanded(sig, table):
        vals = row.tolist()
        samples.append(
            {
                "psi": vals[0],
                "t": vals[1 : 1 + sig.s],
                "x": vals[1 + sig.s : 1 + sig.n],
                "dt": vals[1 + sig.n : 1 + sig.n + sig.s],
                "dx": vals[1 + sig.n + sig.s : 1 + 2 * sig.n],
                "form_residual": vals[-2],
                "ortho_residual": vals[-1],
            }
        )
    doc = {
        "s": sig.s,
        "r": sig.r,
        "radius": spec.radius,
        "mode": mode,
        "samples": samples,
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


WRITERS = {"csv": (cli.write_csv, reference_csv), "json": (cli.write_json, reference_json)}


def head(fmt, cfg, mode):
    """The writer arguments before the table: the curve, and for JSON the mode."""
    return (cfg.spec,) if fmt == "csv" else (cfg.spec, mode)


def written(writer, head, table):
    stream = io.StringIO(newline="")
    writer(*head, table, stream)
    return stream.getvalue()


def parsed(fmt, text):
    """The table read back from a writer's output."""
    if fmt == "csv":
        return np.loadtxt(io.StringIO(text, newline=""), delimiter=",", skiprows=1, ndmin=2)
    return np.array([[d["psi"], *d["t"], *d["x"], *d["dt"], *d["dx"], d["form_residual"],
                      d["ortho_residual"]] for d in json.loads(text)["samples"]])


# the block producer `generate` calls, and the public flow it stands for
PRODUCERS = {"closed_form": (ode._closed_form_blocks, closed_form_trajectory),
             "integrated": (ode._integrate_blocks, integrate)}


def trajectory(sig, mode, rows):
    """A config and its (rows, 4) block table [t, x, dt, dx]."""
    spec = CurveSpec(Signature(*sig), 1.7)
    # one row is the zero-length interval, which has a single sample
    cfg = IntegratorConfig(-1.5, -1.5 if rows == 1 else 2.5, max(rows - 1, 1), spec)
    return cfg, PRODUCERS[mode][0](cfg)


@pytest.mark.parametrize("mode", ["closed_form", "integrated"])
@pytest.mark.parametrize("sig", [(1, 1), (2, 3), (3, 1), (4, 4), (1, 9), (8, 8)])
def test_writers_match_reference_writers(sig, mode):
    block = cli._BLOCK_ROWS
    for rows in (1, block - 1, block, block + 1, 2 * block + 1):
        cfg, blocks = trajectory(sig, mode, rows)
        table = cli._sample_values(cfg, blocks)
        assert table.shape == (rows, 7)
        # the table keeps each block value once, and the public flow's bits
        flow = PRODUCERS[mode][1](cfg)
        assert expanded(cfg.spec.sig, table)[:, 1:-2].tobytes() == flow.tobytes()
        # and the residuals of the flow's rows, bit for bit
        spec, p = cfg.spec, flow[:, : cfg.spec.sig.n]
        want = (inner_product(p, p, spec.sig) - spec.radius * spec.radius,
                inner_product(p, flow[:, spec.sig.n :], spec.sig))
        assert table[:, -2:].tobytes() == np.column_stack(want).tobytes()
        for fmt, (writer, reference) in WRITERS.items():
            text = written(writer, head(fmt, cfg, mode), table)
            assert text == written(reference, head(fmt, cfg, mode), table), (fmt, rows)
            want = expanded(cfg.spec.sig, table).tobytes()
            assert parsed(fmt, text).tobytes() == want, (fmt, rows)


def test_writers_match_reference_on_hand_made_values():
    # signed zero, the smallest subnormal, extremes, and values whose shortest
    # repr and 17-digit forms differ; seven values fill one table row, and
    # past (1,1) each block value lands in up to nine columns
    values = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1e16, 123456789012345680.0]
    table = np.array([np.roll(values, k) for k in range(len(values))])
    for sig in ((1, 1), (2, 3), (3, 1), (4, 4), (1, 9), (8, 8)):
        cfg, _ = trajectory(sig, "closed_form", len(values))
        for fmt, (writer, reference) in WRITERS.items():
            text = written(writer, head(fmt, cfg, "closed_form"), table)
            assert text == written(reference, head(fmt, cfg, "closed_form"), table), (sig, fmt)
            want = expanded(cfg.spec.sig, table).tobytes()
            assert parsed(fmt, text).tobytes() == want, (sig, fmt)


class RecordingStream:
    """A text stream that keeps only the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_stream_in_blocks(fmt):
    # both tables repeat one block of rows, so every block formats alike
    cfg, blocks = trajectory((4, 4), "closed_form", cli._BLOCK_ROWS)
    block = cli._sample_values(cfg, blocks)
    largest, peak = [], []
    for table in (np.tile(block, (4, 1)), np.tile(block, (8, 1))):
        stream = RecordingStream()
        tracemalloc.start()
        try:
            WRITERS[fmt][0](*head(fmt, cfg, "closed_form"), table, stream)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        largest.append(max(stream.sizes))
    # a whole-table write grows with the table; json.dump writes small pieces
    # but builds the whole document first, which only the memory peak shows
    assert largest[0] == largest[1]
    assert peak[1] < 1.25 * peak[0]


def test_sample_values_memory_does_not_grow_with_n():
    # the table holds 7 columns whatever n is, and the residuals come from the
    # 4 block values, so no (steps + 1, 2n) temporary makes the peak grow with
    # the signature
    per_byte = []
    for sig in ((1, 1), (8, 8)):
        cfg, blocks = trajectory(sig, "closed_form", 5001)
        tracemalloc.start()
        try:
            table = cli._sample_values(cfg, blocks)
            per_byte.append(tracemalloc.get_traced_memory()[1] / table.nbytes)
        finally:
            tracemalloc.stop()
    assert per_byte[1] < 1.25 * per_byte[0]


@pytest.mark.parametrize("mode", ["closed_form", "integrated"])
def test_generate_memory_per_row_does_not_grow_with_n(tmp_path, mode):
    # generate holds 4 block values per sample, never the (steps + 1, 2n)
    # flow, so at (8,8) its peak per row stays that of (1,1), where the flow
    # would be 8 times as wide; the writer's block of text, which grows with
    # n but not with the rows, is small beside 10001 rows
    per_row = []
    for sig in ("1,1", "8,8"):
        tracemalloc.start()
        try:
            assert main(["generate", "--sig", sig, "--mode", mode, "--psi-start", "-1", "--psi-end",
                         "1", "--steps", "10000", "--out", str(tmp_path / "t.csv")]) == 0
            per_row.append(tracemalloc.get_traced_memory()[1] / 10001)
        finally:
            tracemalloc.stop()
    assert per_row[1] < 1.25 * per_row[0]


def test_generate_to_stdout(capsys):
    assert main(["generate", "--sig", "1,1", "--steps", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("psi,t_1,x_2")
    assert len(lines) == 6


def test_generate_integrated_matches_closed_form(tmp_path):
    closed = tmp_path / "closed.csv"
    numeric = tmp_path / "numeric.csv"
    base = ["generate", "--sig", "1,1", "--radius", "1", "--psi-start", "0",
            "--psi-end", "1", "--steps", "1000"]
    assert main(base + ["--mode", "closed_form", "--out", str(closed)]) == 0
    assert main(base + ["--mode", "integrated", "--out", str(numeric)]) == 0
    _, a = read_csv(closed)
    _, b = read_csv(numeric)
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a[:, 1:5] - b[:, 1:5])) <= 1e-7


# a count past 2^53, the largest whose step and grid a float holds exactly,
# and one past the float range, which the message must not format as a float
_STEPS_LIMIT = ("steps must be at most 2^53 = 9007199254740992, the largest count whose step and "
                "grid a float holds exactly, got ")
_HUGE_STEPS = "1" + "0" * 400


def test_generate_config_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["generate", "--sig", "1,1", "--steps", "0", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["generate", "--sig", "1", "--out", str(out)]) == 1
    assert "expected S,R_COUNT (for example 1,3), got '1'" in capsys.readouterr().err
    assert main(["generate", "--sig", "0,2", "--out", str(out)]) == 1
    assert "signature count s must be a positive integer, got 0" in capsys.readouterr().err
    assert main(["generate", "--sig", "1,1", "--radius", "0", "--out", str(out)]) == 1
    capsys.readouterr()
    # numpy once refused these counts in its own words, naming no flag
    for steps in (_HUGE_STEPS, "1000000000000000000"):
        assert main(["generate", "--sig", "1,1", "--steps", steps, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {_STEPS_LIMIT}{steps}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--radius", "inf"], "finite"),
    (["--mode", "integrated", "--psi-end", "800", "--steps", "100"], "710"),
    (["--psi-end", "800"], "710"),
    (["--psi-end", "nan"], "psi_end must be finite"),
    # a span past the float range once gave a grid of [nan, inf, ...], named as "got inf"
    (["--psi-start=-1e308", "--psi-end", "1e308", "--steps", "10"], "710, got 1e+308"),
])
def test_generate_overflow_leaves_no_file(tmp_path, capsys, extra, message):
    out = tmp_path / "traj.csv"
    assert main(["generate", "--sig", "1,1", *extra, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_unresolved_integrated_step(tmp_path, capsys):
    # h*sqrt(s*r) = 346: RK4 grows the decaying mode, and the parent wrote
    # values near 1e17 with exit 0
    out = tmp_path / "traj.csv"
    argv = ["generate", "--sig", "4,4", "--mode", "integrated", "--psi-end", "170",
            "--steps", "2", "--out", str(out)]
    assert main(argv) == 1
    assert "h*sqrt(s*r) = 346" in capsys.readouterr().err
    assert not out.exists()
    # |R4(-2.7)| < 1 < |R4(-2.9)|, and the closed form has no step to resolve
    coarse = ["generate", "--sig", "1,1", "--psi-start", "0", "--steps", "1", "--out", str(out)]
    assert main([*coarse, "--mode", "integrated", "--psi-end", "2.7"]) == 0
    assert main([*coarse, "--mode", "integrated", "--psi-end", "2.9"]) == 1
    assert main([*coarse, "--mode", "closed_form", "--psi-end", "2.9"]) == 0
    # h*sqrt(s*r) = 1e-17 is resolved: R4 in floats rounded it to 1, which
    # once asked for more --steps
    assert main(["generate", "--sig", "1,1", "--mode", "integrated", "--psi-start", "0",
                 "--psi-end", "1e-15", "--steps", "100", "--out", str(out)]) == 0
    assert read_csv(out)[1].shape[0] == 101


def test_generate_integrated_overflow_is_only_reported(tmp_path, capsys):
    # resolved (h*sqrt(s*r) = 0.403), but the flow passes the float range: the
    # numpy overflow warnings stay silent, so under warnings-as-errors main
    # still returns 1, and the non-finite message is the whole output
    out = tmp_path / "traj.csv"
    argv = ["generate", "--sig", "2,2", "--mode", "integrated", "--psi-end", "400",
            "--steps", "2000", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite coordinates or residuals")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_generate_closed_form_overflow_is_only_reported(tmp_path, capsys):
    # the closed form overflows past the float range; numpy's overflow
    # warnings stay silent here as they do for the integrated flow
    out = tmp_path / "x.csv"
    argv = ["generate", "--sig", "1,1", "--radius", "1e100", "--psi-end", "600",
            "--steps", "10", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite coordinates or residuals")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("radius", ["1e160", "1e-200"])
def test_generate_rejects_radius_with_unrepresentable_square(tmp_path, capsys, radius):
    # 1e160 was blamed on |psi| although psi is 1, and 1e-200 wrote residuals
    # of exact zeros, since R^2 underflows
    out = tmp_path / "x.csv"
    argv = ["generate", "--sig", "1,1", "--radius", radius, "--psi-end", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radius must lie in about [1.5e-154, 1.3e154]")
    assert not out.exists()


def test_generate_names_the_residual_overflow(tmp_path, capsys):
    # at R = 1 the coordinates stay finite up to |psi|*sqrt(s*r) ~ 710, but
    # <p,p> squares them and overflows near 355
    out = tmp_path / "x.csv"
    base = ["generate", "--sig", "1,1", "--steps", "10", "--out", str(out)]
    assert main([*base, "--psi-end", "360"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite residuals") and "about 355" in err
    assert "710" not in err
    assert not out.exists()
    assert main([*base, "--psi-end", "350"]) == 0
    assert np.isfinite(read_csv(out)[1]).all()


def test_generate_names_the_coarse_step_before_integrating(tmp_path, monkeypatch, capsys):
    # h*sqrt(s*r) = 100.03 is far too coarse for RK4; the curve overflows on
    # this range as well, which no step count mends, so both are named. At
    # 1e79, R4(-h*sqrt(s*r)) in floats overflowed, which once ended the run
    # with a bare "Numerical result out of range". At (2,3) and psi 1e308,
    # w*psi itself is inf, where math.sinh raises nothing: the probe once
    # warned of numpy's overflow and lost the overflow clause
    def unreachable(*args):
        raise AssertionError("integrated an unresolved grid")

    # generate integrates through the block producer only
    monkeypatch.setattr(cli, "_integrate_blocks", unreachable)
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, step, got in (
            (["--sig", "1,1", "--psi-start", "-3", "--psi-end", "10000", "--steps", "100"],
             "100.03", "10000"),
            (["--sig", "1,1", "--psi-start", "0", "--psi-end", "1e80", "--steps", "10"],
             "1e+79", "1e+80"),
            (["--sig", "2,3", "--radius", "710", "--psi-start=1e308", "--psi-end=-0.0",
              "--steps", "2"], "1.22474e+308", "inf"),
        ):
            assert main(["generate", "--mode", "integrated", *argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"h*sqrt(s*r) = {step} is too coarse" in err and err.count("\n") == 1
            assert err.endswith(f"; and the curve overflows once |psi|*sqrt(s*r) exceeds "
                                f"about 710, got {got}\n")
            assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_builds_table_once(tmp_path, monkeypatch, fmt):
    calls = []
    build = cli._sample_values

    def counted(cfg, blocks):
        calls.append(blocks)
        return build(cfg, blocks)

    monkeypatch.setattr(cli, "_sample_values", counted)
    out = tmp_path / f"traj.{fmt}"
    assert main(["generate", "--sig", "2,3", "--steps", "8", "--format", fmt,
                 "--out", str(out)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_io_error_leaves_no_file(tmp_path, monkeypatch, capsys, fmt):
    def failing(*args):
        args[-1].write("psi,t_1\n0,0\n")  # the stream comes last
        raise OSError("disk full")

    monkeypatch.setattr(cli, f"write_{fmt}", failing)
    out = tmp_path / f"traj.{fmt}"
    assert main(["generate", "--sig", "1,1", "--format", fmt, "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_file_gets_plain_open_permissions(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["generate", "--sig", "1,1", "--steps", "4", "--out", str(out)]) == 0
    plain = tmp_path / "plain"
    plain.write_text("")
    assert out.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "traj.csv"]


def test_generate_out_keeps_symlinks_and_fifos(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(["generate", "--sig", "1,1", "--steps", "4", "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text().startswith("psi,")
    # a FIFO is written in place, not replaced by a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["generate", "--sig", "1,1", "--steps", "4", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and got[0].startswith("psi,")
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_generate_unwritable_path(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "traj.csv"
    code = main(["generate", "--sig", "1,1", "--out", str(missing)])
    assert code == 2
    # the message names the path given, not the temporary file written beside it
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(missing)) in err and ".tmp" not in err
    assert not missing.parent.exists()


def test_generate_empty_out_path_writes_nothing(tmp_path, monkeypatch, capsys):
    # realpath("") is the working directory, so the table once went to
    # <cwd>.<pid>.tmp beside it and its rename over the directory failed
    cwd = tmp_path / "work"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["generate", "--sig", "1,1", "--steps", "4", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == [cwd] and list(cwd.iterdir()) == []


def test_dims_outputs(capsys):
    assert main(["dims", "4", "1"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["dims", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "16"
    assert main(["dims", "5", "3"]) == 0
    assert capsys.readouterr().out.strip() == "40"


def test_dims_errors(capsys):
    assert main(["dims", "0", "1"]) == 1
    assert main(["dims", "3", "-1"]) == 1
    assert main(["dims", "3", "700"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_small_grid_passes(capsys):
    code = main(["verify", "--max-sig", "2", "--steps", "400"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: 4/4 cells passed" in out
    table_rows = [ln for ln in out.splitlines() if ln.rstrip().endswith(" pass")]
    assert len(table_rows) == 4


@pytest.mark.parametrize("name, argv", [
    ("verify_default.txt", []),
    ("verify_max_sig_2_seed_1.txt", ["--max-sig", "2", "--seed", "1"]),
    ("verify_inject_fault_r_eff.txt", ["--inject-fault", "r-eff"]),
    # 30 of its 64 cells fail on correct code: a change that mends one shows here
    ("verify_max_sig_8.txt", ["--max-sig", "8"]),
])
def test_verify_prints_the_recorded_report(capsys, name, argv):
    # the report as the code printed it before the RK4 block sums became
    # products (the fault's, before the battery was split into its groups);
    # a change that only makes the sweep faster or smaller leaves it byte for
    # byte, and a report with a failed cell exits 3
    want = (Path(__file__).parent / "data" / name).read_bytes()
    assert main(["verify", *argv]) == (3 if b" FAIL\n" in want else 0)
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize("name, argv", [
    ("generate_sig_4_4_radius_1.3.json",
     ["--sig", "4,4", "--format", "json", "--steps", "16", "--radius", "1.3"]),
    ("generate_sig_2_3_integrated.csv", ["--sig", "2,3", "--mode", "integrated", "--steps", "16"]),
    ("generate_sig_8_8_integrated_reversed.json",
     ["--sig", "8,8", "--mode", "integrated", "--format", "json", "--psi-start", "1",
      "--psi-end", "-1", "--steps", "12"]),
    ("generate_sig_1_9_zero_length.csv", ["--sig", "1,9", "--psi-start", "0.5", "--psi-end", "0.5"]),
    ("generate_sig_1_1.csv", ["--sig", "1,1", "--steps", "8"]),
])
def test_generate_writes_the_recorded_file(tmp_path, name, argv):
    # the files as generate wrote them while it still checked each flow for
    # bitwise uniform blocks; both producers are uniform by construction, so
    # dropping the check leaves every byte
    out = tmp_path / name
    assert main(["generate", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def test_verify_defaults_are_the_library_defaults(monkeypatch, capsys):
    swept = []

    def sweep(**flags):
        swept.append(run_sweep(**flags))
        return swept[-1]

    monkeypatch.setattr(cli, "run_sweep", sweep)
    assert main(["verify", "--max-sig", "1"]) == 0
    # every cell parameter spelled out as its flag, at the library's default
    cell = {k: v for k, v in verify._CELL_DEFAULTS.items() if k != "fault_r_eff"}
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in cell.items()]
    assert main(["verify", *flags, "--max-sig", "1", "--radius", "1.0"]) == 0
    # every check, worst residual and bound included, as the library computes it
    assert swept == [run_sweep(max_sig=1)] * 2
    assert capsys.readouterr().out.count("verification: 1/1 cells passed") == 2
    # and verify has a flag for each of those parameters and for no other setting
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {"--help", "--max-sig", "--radius", "--inject-fault", *(
        f.partition("=")[0] for f in flags)}


def test_main_keeps_no_state_between_calls(monkeypatch, capsys):
    # main reuses one parser per process; a flag or an error of one call
    # must not reach the next
    swept = []

    def sweep(**flags):
        swept.append(run_sweep(**flags))
        return swept[-1]

    monkeypatch.setattr(cli, "run_sweep", sweep)
    assert main(["verify", "--max-sig", "1", "--steps", "500"]) == 0
    assert main(["verify", "--max-sig", "1", "--steps", "5x"]) == 1
    assert "invalid int value: '5x'" in capsys.readouterr().err
    assert main(["verify", "--max-sig", "1"]) == 0
    assert len(swept) == 2 and swept[0] != swept[1]
    assert swept[1] == run_sweep(max_sig=1)


def test_verify_rejects_negative_seed_before_integrating(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("integrated before the seed was validated")

    # the main run steps block values, the convergence fit whole flows
    monkeypatch.setattr(verify, "_integrate_blocks", unreachable)
    monkeypatch.setattr(ode, "integrate", unreachable)
    assert main(["verify", "--max-sig", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("fault", [[], ["--inject-fault", "r-eff"]], ids=["plain", "fault"])
@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_verify_rejects_bad_radius(capsys, radius, fault):
    assert main(["verify", "--radius", radius, *fault]) == 1
    err = capsys.readouterr().err
    assert err == f"error: radius must be positive and finite, got {float(radius)}\n"


def test_verify_rejects_zero_length_interval(capsys):
    assert main(["verify", "--psi-start", "5", "--psi-end", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "psi_start == psi_end" in err


@pytest.mark.parametrize("fault", [[], ["--inject-fault", "r-eff"]], ids=["plain", "fault"])
@pytest.mark.parametrize("radius", ["1e-300", "1e200"])
def test_verify_rejects_radius_with_unrepresentable_square(capsys, radius, fault):
    assert main(["verify", "--max-sig", "1", "--radius", radius, *fault]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[1.5e-154, 1.3e154]" in err


def test_verify_rejects_radius_whose_products_overflow(capsys):
    # R^2 is finite, but s*r*(R*cosh(2))^2 is not; the parent reported nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--max-sig", "1", "--radius", "1.3e154"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "caps the radius at 1.35335e+151" in err


def test_verify_admits_its_largest_radius(capsys):
    # 1e152 / (sqrt(s*r) * e^(sqrt(s*r)*2)) for (1,1) at the default |psi| <= 2
    largest = math.exp(math.log(1e152) - 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--max-sig", "1", "--radius", repr(largest)]) == 0
        assert main(["verify", "--max-sig", "1", "--radius", repr(largest * 1.001)]) == 1
    assert "verification: 1/1 cells passed" in capsys.readouterr().out


def test_verify_rejects_unresolved_steps(capsys):
    # h*sqrt(s*r) = 86: integrating it anyway grows the decaying mode until
    # the flow checks fail by up to 1e73 (exit 3), which hides the cause
    assert main(["verify", "--max-sig", "1", "--psi-end", "170", "--steps", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h*sqrt(s*r) = 86" in err


def test_verify_rejects_unresolved_convergence_fit(capsys):
    # --steps 20000 resolves the main flow, but the slope fit's 60 steps over
    # [-2, 170] give h*sqrt(s*r) = 2.87, which no --steps changes
    assert main(["verify", "--max-sig", "1", "--psi-end", "170", "--steps", "20000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h*sqrt(s*r) = 2.86667" in err
    assert "convergence fit's 60-step run" in err and "the psi range must narrow" in err
    assert "use more --steps" not in err


@pytest.mark.parametrize("argv, message", [
    # cell (1,1) is served up to the zero-length interval, which is rejected
    # before cell (1,2) exceeds its radius cap
    (["--psi-start", "5", "--psi-end", "5", "--radius", "1e149"],
     "a slope fit needs a step size above zero, got psi_start == psi_end == 5"),
    (["--radius", "1e150"],
     "sqrt(s*r) * R * exp(sqrt(s*r) * max(|psi|, 1)) must stay below 1e+152, so that the inner "
     "products stay finite; for (s, r) = (2, 2) and |psi| up to 2 that caps the radius at "
     "9.15782e+149, got 1e+150"),
    # 4.9e-324 over 240 steps underflows to a step of 0, whose log the fit
    # cannot take; a wrong "too coarse" once hid it
    (["--psi-start=5e-324", "--psi-end=0.0", "--steps", "1"],
     "a slope fit needs a step size above zero, got [4.94066e-324, 0] over 240 steps, "
     "whose step underflows to 0"),
    # a non-finite endpoint is named as such, not as a radius cap of 0 it implies
    (["--psi-end=-inf"], "psi_start and psi_end must be finite, got -2.0 and -inf"),
    (["--psi-start=inf"], "psi_start and psi_end must be finite, got inf and 2.0"),
    # the flow cap once multiplied this count by a float: "int too large to convert to float"
    (["--steps", _HUGE_STEPS], _STEPS_LIMIT + _HUGE_STEPS),
    (["--steps", "1000000000000000000"], _STEPS_LIMIT + "1000000000000000000"),
], ids=["zero-length", "radius-cap", "underflowing-step", "psi-end-inf", "psi-start-inf",
        "steps-past-float", "steps-past-2-53"])
def test_verify_reports_the_first_cell_error(capsys, argv, message):
    assert main(["verify", "--max-sig", "2", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# each float flag takes a value at an edge of the float range or of the curve's
# range, or an ordinary one; --steps stays at 1000 and --max-sig at 2 or below,
# so that no draw allocates much or runs long
_FLOAT = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e200",
                                    "-1e200", "1e308", "-1e308", "355", "710"]),
                   st.floats(-4.0, 4.0).map(repr))
_SHARED = {"radius": _FLOAT, "psi-start": _FLOAT, "psi-end": _FLOAT}
_STEPS = st.one_of(st.sampled_from(["-1", "0", "1", "2", "1.5"]), st.integers(3, 1000).map(str))
_ARGV = st.one_of(
    st.fixed_dictionaries(
        {"sig": st.sampled_from(["1,1", "2,3", "4,4", "0,2", "1", "a,b", "1,1,1"]),
         "steps": _STEPS},
        optional={**_SHARED, "mode": st.sampled_from(["closed_form", "integrated"]),
                  "format": st.sampled_from(["csv", "json"])},
    ).map(lambda flags: ["generate", *(f"--{k}={v}" for k, v in flags.items())]),
    st.fixed_dictionaries(
        {"max-sig": st.sampled_from(["-1", "0", "1", "2"]), "steps": _STEPS},
        optional={**_SHARED, "seed": st.sampled_from(["-1", "0", "7"]),
                  "inject-fault": st.just("r-eff")},
    ).map(lambda flags: ["verify", *(f"--{k}={v}" for k, v in flags.items())]),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@example(["generate", "--sig", "2,3", "--radius", "710", "--psi-start=1e308", "--psi-end=-0.0",
          "--steps", "2", "--mode", "integrated"])
@given(_ARGV)
def test_cli_contract_holds_on_drawn_argv(argv):
    # every exit is a contract code; a configuration error is one line of
    # stderr; nothing warns; a failed generate leaves neither its file nor a
    # temporary one behind
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "generate":
            argv = [*argv, "--out", os.path.join(tmp, "traj")]
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv)
        text = err.getvalue()
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1
        if code != 0 and argv[0] == "generate":
            assert os.listdir(tmp) == []


@pytest.mark.parametrize("command", [
    ["generate", "--sig", "1,1", "--out", "traj.csv"],
    ["verify", "--max-sig", "1"],
    ["generate", "--sig", "1,1", "--mode", "integrated", "--out", "traj.csv"],
])
def test_unallocatable_steps_is_config_error(tmp_path, monkeypatch, capsys, command):
    # numpy refuses the petabytes of the grid, the block table or the flow at
    # once, so nothing is allocated and the RK4 loop never starts
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--steps", "1000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_fault_injection_fails(capsys):
    code = main([
        "verify", "--max-sig", "2", "--steps", "1200", "--inject-fault", "r-eff",
    ])
    out = capsys.readouterr().out
    assert code == 3
    # r = 1 cells stay green, r = 2 cells must trip the quadric check
    assert "verification: 2/4 cells passed" in out
    assert "quadric" in out


@pytest.mark.parametrize("max_sig", ["8", "1"], ids=["large", "small"])
def test_closed_stdout_pipe_ends_quietly(max_sig):
    # the reader goes away before the report is written, as `head` does once
    # it has its lines: a report larger than the output buffer meets the
    # closed pipe while it is printed, a small one when it is flushed
    read_end, write_end = os.pipe()
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-m", "pseudohyp.cli", "verify", "--max-sig", max_sig],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 2


def test_missing_command_is_config_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err
    # verify's bounds and closed-form grid are fixed: no flag sets them
    for flag, value in (("--tol", "1"), ("--samples", "5")):
        assert main(["verify", flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_benchmark_tracer_sees_every_traced_layer(tmp_path):
    # the benchmark's --trace mode wraps these functions by name and reads
    # the IntegratorConfig they get first; renaming them would blind it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        for fmt, mode in (("csv", "integrated"), ("json", "closed_form")):
            assert cli.main(["generate", "--sig", "1,2", "--steps", "8", "--mode", mode,
                             "--format", fmt, "--out", str(tmp_path / f"t.{fmt}")]) == 0
        generated = len(tracer)
        assert cli.main(["verify", "--max-sig", "2"]) == 0
    # generate works on block values only, its RK4 start and overflow probe too
    made = tracer.aggregate(0, generated)
    for name in ("bundle.curve_derivative", "geometry.point_at", "geometry.inner_product"):
        assert made[name]["calls"] == 0, name
    spans = tracer.aggregate(0, len(tracer))
    for name in ("cli.write_csv", "cli.write_json", "ode.integrate",
                 "ode.closed_form_trajectory", "verify.run_cell_checks",
                 "bundle.curve_lift", "bundle.curve_derivative"):
        assert spans[name]["calls"] >= 1, name
    # the sweep still checks cell by cell, and fits each cell's convergence order
    swept = tracer.aggregate(generated, len(tracer))
    assert swept["verify.run_cell_checks"]["calls"] == 4
    assert swept["ode.convergence_order"]["calls"] == 4
    # and evaluates its isometry and boost groups on whole arrays: two applies
    # per cell and one for the (1,1) boosts, nine inner products per cell
    assert swept["transform.apply"]["calls"] <= 9
    # each psi array once, all the orders it needs from one tower: outside
    # the towers, curve_derivative serves only the velocity each cell's
    # velocity_fd checks against and the two boost grids
    assert swept["bundle.curve_derivative"]["calls"] == 4 * 1 + 2
    # one isometry_defect per cell on its whole stack of maps, while the maps
    # themselves are still built by traced generator calls: one per plane of
    # each cell, 13 in all, and the nine (1,1) boosts
    assert swept["transform.isometry_defect"]["calls"] == 4
    assert swept["transform.boost"]["calls"] + swept["transform.block_rotation"]["calls"] == 22
    assert swept["geometry.inner_product"]["calls"] <= 36
    assert swept["geometry.velocity_at"]["calls"] == 0
    # and integrates through the one traced RK4 loop in each cell's fit, at
    # 60 and 240 steps; the --steps 2000 run steps block values untraced
    assert swept["ode.integrate"]["calls"] == 8
    assert swept["ode.integrate"]["units"] == 4 * (60 + 240)
