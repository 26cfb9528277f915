"""Tests for the command-line interface and its export formats."""

import csv
import importlib.util
import json
import math
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from pseudohyp import CurveSpec, IntegratorConfig, Signature, closed_form_trajectory
from pseudohyp import cli
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
    spec = CurveSpec(Signature(2, 3), 1.7)
    traj = closed_form_trajectory(IntegratorConfig(-1.1, 0.9, 17, spec))
    assert np.array_equal(data[:, 0], traj.psi)
    assert np.array_equal(data[:, 1:6], traj.points)
    assert np.array_equal(data[:, 6:11], traj.velocities)


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
    spec = CurveSpec(Signature(1, 2), 2.0)
    traj = closed_form_trajectory(IntegratorConfig(0.0, 1.5, 12, spec))
    assert len(doc["samples"]) == 13
    for k, sample in enumerate(doc["samples"]):
        assert sample["psi"] == traj.psi[k]
        assert np.array_equal(sample["t"] + sample["x"], traj.points[k])
        assert np.array_equal(sample["dt"] + sample["dx"], traj.velocities[k])


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


def test_generate_config_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["generate", "--sig", "1,1", "--steps", "0", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["generate", "--sig", "1", "--out", str(out)]) == 1
    assert "expected S,R_COUNT (for example 1,3), got '1'" in capsys.readouterr().err
    assert main(["generate", "--sig", "0,2", "--out", str(out)]) == 1
    assert "signature needs s >= 1 and r >= 1, got (0, 2)" in capsys.readouterr().err
    assert main(["generate", "--sig", "1,1", "--radius", "0", "--out", str(out)]) == 1


@pytest.mark.parametrize("extra, message", [
    (["--radius", "inf"], "finite"),
    (["--mode", "integrated", "--psi-end", "800", "--steps", "100"], "710"),
    (["--psi-end", "800"], "710"),
    (["--psi-end", "nan"], "psi_end must be finite"),
])
def test_generate_overflow_leaves_no_file(tmp_path, capsys, extra, message):
    out = tmp_path / "traj.csv"
    assert main(["generate", "--sig", "1,1", *extra, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_builds_table_once(tmp_path, monkeypatch, fmt):
    calls = []
    build = cli._sample_values

    def counted(traj):
        calls.append(traj)
        return build(traj)

    monkeypatch.setattr(cli, "_sample_values", counted)
    out = tmp_path / f"traj.{fmt}"
    assert main(["generate", "--sig", "2,3", "--steps", "8", "--format", fmt,
                 "--out", str(out)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_io_error_leaves_no_file(tmp_path, monkeypatch, capsys, fmt):
    def failing(traj, table, stream):
        stream.write("psi,t_1\n0,0\n")
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
    assert "error" in capsys.readouterr().err


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
    code = main(["verify", "--max-sig", "2", "--samples", "30", "--steps", "400"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: 4/4 cells passed" in out
    table_rows = [ln for ln in out.splitlines() if ln.rstrip().endswith(" pass")]
    assert len(table_rows) == 4


def test_verify_defaults_are_the_library_defaults(monkeypatch, capsys):
    swept = []

    def sweep(**flags):
        swept.append(run_sweep(**flags))
        return swept[-1]

    monkeypatch.setattr(cli, "run_sweep", sweep)
    assert main(["verify", "--max-sig", "1"]) == 0
    # every check, worst residual and bound included, as the library computes it
    assert swept == [run_sweep(max_sig=1)]
    assert "verification: 1/1 cells passed" in capsys.readouterr().out


def test_verify_rejects_zero_tolerance(capsys):
    assert main(["verify", "--tol", "0"]) == 1
    assert "tolerance" in capsys.readouterr().err


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


def test_verify_fault_injection_fails(capsys):
    code = main([
        "verify", "--max-sig", "2", "--samples", "30", "--steps", "1200",
        "--inject-fault", "r-eff",
    ])
    out = capsys.readouterr().out
    assert code == 3
    # r = 1 cells stay green, r = 2 cells must trip the quadric check
    assert "verification: 2/4 cells passed" in out
    assert "quadric" in out


def test_missing_command_is_config_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


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
        assert cli.main(["verify", "--max-sig", "1"]) == 0
    spans = tracer.aggregate(0, len(tracer))
    for name in ("cli.write_csv", "cli.write_json", "ode.integrate",
                 "ode.closed_form_trajectory", "verify.run_cell_checks"):
        assert spans[name]["calls"] >= 1, name
