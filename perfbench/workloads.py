"""Benchmark workloads: the CLI arguments each one runs, and the check that
every output of an iteration is correct.

The generate checks use an oracle of the benchmark's own (numpy sinh/cosh of
the published curve formula), not the library's `point_at`, and bounds that
come from error analysis:

- closed form: each coordinate is a product of at most three rounded factors
  and one sinh/cosh of a rounded argument w*psi, so it may differ from the
  oracle by c*u*(1 + |w*psi|) times the row's scale A*cosh(w*psi);
- integrated: the `flow_deviation` bound of `pseudohyp verify`,
  1e-7 * (1 + r*R_eff*cosh(w*psi_max));
- residual columns: recomputed from the parsed coordinates, within the
  rounding bound c*u*sum(|p_i*q_i|) of an n-term dot product, so a change of
  residual kernel that stays accurate still passes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

import numpy as np

U = np.finfo(float).eps / 2  # unit roundoff of binary64

# Generated trajectories span the CLI's default psi range.
PSI_START, PSI_END = -3.0, 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "generate" or "verify"
    s: int = 0
    r: int = 0
    mode: str = ""
    fmt: str = ""
    steps: int = 0
    max_sig: int = 0  # verify: s, r in 1..max_sig at one radius

    def params(self, seed: int) -> dict:
        """Inputs of one run, drawn from the seed."""
        if self.command == "verify":
            return {"command": "verify", "seed": seed, "max_sig": self.max_sig,
                    "cells": self.max_sig**2}
        radius = 2.0 ** random.Random(seed).uniform(-1.0, 1.0)
        return {
            "command": "generate", "s": self.s, "r": self.r, "mode": self.mode,
            "format": self.fmt, "steps": self.steps, "radius": radius,
            "psi_start": PSI_START, "psi_end": PSI_END,
        }

    def argv(self, params: dict, out_path: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--max-sig", str(self.max_sig), "--seed", str(params["seed"])]
        return [
            "generate", "--sig", f"{self.s},{self.r}", "--mode", self.mode,
            "--format", self.fmt, "--steps", str(self.steps),
            "--radius", repr(params["radius"]), "--out", out_path,
        ]

    def work(self, params: dict) -> int:
        """Units of work per iteration: rows written, or cells verified."""
        return params["cells"] if self.command == "verify" else params["steps"] + 1


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate-closed-json", "generate", 4, 4, "closed_form", "json", 5_000),
        Workload("generate-integrated-csv", "generate", 2, 3, "integrated", "csv", 5_000),
        Workload("verify-sweep", "verify", max_sig=2),
    )
}


@dataclass
class Outcome:
    """Result of checking one iteration's output."""

    ok: bool
    reason: str = ""
    rows: int = 0
    bytes_written: int = 0
    accuracy: dict | None = None
    checks_passed: int = 0
    checks_total: int = 0


class CheckFailed(Exception):
    pass


def _require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _columns(s: int, r: int) -> list[str]:
    n = s + r
    return (["psi"] + [f"t_{i + 1}" for i in range(s)] + [f"x_{j + 1}" for j in range(s, n)]
            + [f"dt_{i + 1}" for i in range(s)] + [f"dx_{j + 1}" for j in range(s, n)]
            + ["form_residual", "ortho_residual"])


def oracle(psi: np.ndarray, s: int, r: int, radius: float):
    """Points and velocities of the uniform curve, straight from its formula."""
    w = math.sqrt(s * r)
    r_eff = radius / math.sqrt(r)
    sh = np.sinh(w * psi)[:, None]
    ch = np.cosh(w * psi)[:, None]
    points = np.hstack([np.repeat(math.sqrt(r / s) * r_eff * sh, s, axis=1),
                        np.repeat(r_eff * ch, r, axis=1)])
    velocities = np.hstack([np.repeat(r * r_eff * ch, s, axis=1),
                            np.repeat(w * r_eff * sh, r, axis=1)])
    return points, velocities


def _read_csv(path: str, p: dict) -> np.ndarray:
    s, r = p["s"], p["r"]
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        _require(header == ",".join(_columns(s, r)), f"bad CSV header {header[:80]!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"unparsable CSV: {exc}") from None
    _require(data.shape[1] == 2 * (s + r) + 3, f"CSV has {data.shape[1]} columns")
    return data


def _read_json(path: str, p: dict) -> np.ndarray:
    s, r = p["s"], p["r"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise CheckFailed(f"unparsable JSON: {exc}") from None
    _require(isinstance(doc, dict), "JSON document is not an object")
    _require(set(doc) == {"s", "r", "radius", "mode", "samples"},
             f"JSON keys {sorted(doc)}")
    _require((doc["s"], doc["r"], doc["radius"], doc["mode"]) == (s, r, p["radius"], p["mode"]),
             "JSON header does not echo the request")
    fields = ("psi", "t", "x", "dt", "dx", "form_residual", "ortho_residual")
    rows = []
    try:
        for sample in doc["samples"]:
            _require(tuple(sample) == fields, f"sample keys {list(sample)}")
            _require(len(sample["t"]) == s and len(sample["x"]) == r
                     and len(sample["dt"]) == s and len(sample["dx"]) == r,
                     "sample block lengths do not match the signature")
            rows.append([sample["psi"], *sample["t"], *sample["x"], *sample["dt"],
                         *sample["dx"], sample["form_residual"], sample["ortho_residual"]])
        return np.array(rows, dtype=float).reshape(len(rows), 2 * (s + r) + 3)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed sample: {exc}") from None


def check_generate(path: str, p: dict) -> Outcome:
    """Check a written trajectory against the oracle and its own residuals."""
    s, r, steps, radius = p["s"], p["r"], p["steps"], p["radius"]
    n = s + r
    data = (_read_csv if p["format"] == "csv" else _read_json)(path, p)
    _require(data.shape[0] == steps + 1, f"{data.shape[0]} rows, expected {steps + 1}")
    _require(bool(np.all(np.isfinite(data))), "non-finite value written")
    psi, pts, vel = data[:, 0], data[:, 1 : 1 + n], data[:, 1 + n : 1 + 2 * n]
    form, ortho = data[:, -2], data[:, -1]

    a, b = p["psi_start"], p["psi_end"]
    grid = a + (b - a) * (np.arange(steps + 1) / steps)
    _require(bool(np.all(np.abs(psi - grid) <= 4 * U * max(abs(a), abs(b)))),
             "psi column is not the requested grid")

    want_p, want_v = oracle(psi, s, r, radius)
    dev = np.maximum(np.max(np.abs(pts - want_p), axis=1), np.max(np.abs(vel - want_v), axis=1))
    w = math.sqrt(s * r)
    r_eff = radius / math.sqrt(r)
    if p["mode"] == "closed_form":
        scale = max(math.sqrt(r / s), 1.0, float(r), w) * r_eff * np.cosh(w * psi)
        bound = 64 * U * (1.0 + np.abs(w * psi)) * scale
    else:
        psi_max = max(abs(a), abs(b))
        bound = np.full_like(dev, 1e-7 * (1.0 + r * r_eff * math.cosh(psi_max * w)))
    bad = np.flatnonzero(~(dev <= bound))
    _require(bad.size == 0, f"{bad.size} rows off the oracle, first at row "
             f"{bad[0] if bad.size else -1}")

    signs = np.concatenate([-np.ones(s), np.ones(r)])
    form_terms = signs * pts * pts
    ortho_terms = signs * pts * vel
    c = 2 * n + 4
    form_ok = np.abs(form - (form_terms.sum(axis=1) - radius * radius)) <= (
        c * U * (np.abs(form_terms).sum(axis=1) + radius * radius))
    ortho_ok = np.abs(ortho - ortho_terms.sum(axis=1)) <= c * U * np.abs(ortho_terms).sum(axis=1)
    _require(bool(np.all(form_ok)), f"{int(np.sum(~form_ok))} form residuals disagree with the row")
    _require(bool(np.all(ortho_ok)), f"{int(np.sum(~ortho_ok))} ortho residuals disagree with the row")

    r2 = radius * radius
    return Outcome(
        ok=True,
        rows=data.shape[0],
        accuracy={
            "form_residual_max": float(np.max(np.abs(form))) / r2,
            "ortho_residual_max": float(np.max(np.abs(ortho))) / r2,
            "oracle_deviation_max": float(np.max(dev)),
        },
    )


_TABLE_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+\S+\s+(\d+)\s+\S+\s+(\S+)\s+(pass|FAIL)$", re.M)


def check_verify(code: int, stdout: str, p: dict) -> Outcome:
    """Check a `verify` run: exit 0 and every cell passed."""
    cells = _TABLE_ROW.findall(stdout)
    total = sum(int(c[2]) for c in cells)
    failed_checks = stdout.count("\nfailed: ")
    counts = {"checks_passed": total - failed_checks, "checks_total": total}
    want = f"verification: {p['cells']}/{p['cells']} cells passed"
    if code != 0 or want not in stdout.splitlines() or len(cells) != p["cells"]:
        return Outcome(ok=False, reason=f"exit {code}, expected 0 and {want!r}", **counts)
    return Outcome(ok=True, accuracy={"check_ratio_max": max(float(c[3]) for c in cells)},
                   **counts)
