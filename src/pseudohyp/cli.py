"""Command-line surface: trajectory generation with CSV/JSON export,
invariant verification sweeps, and bundle dimension queries.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bundle import bundle_dim
from .geometry import DEFAULT_TOL, CurveSpec, Signature, inner_product, point_at
from .ode import IntegratorConfig, Provenance, Trajectory, closed_form_trajectory, integrate
from .verify import DEFAULT_SEED, run_sweep

__all__ = ["RunConfig", "cmd_generate", "cmd_verify", "cmd_dims", "main"]

# Trajectory numbers are written with 17 significant decimal digits, enough
# for any binary64 value to survive a write/parse round trip bit-exactly.
_FLOAT_FMT = ".17g"


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # I/O problems, so parse errors are rerouted to exit code 1.
    def error(self, message):
        raise _ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of a `generate` run."""

    sig: Signature
    radius: float
    psi_start: float
    psi_end: float
    steps: int
    mode: Provenance
    fmt: str
    out: str | None


def _parse_sig(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected S,R_COUNT (for example 1,3), got {text!r}")
    return Signature(int(parts[0]), int(parts[1]))


def _columns(sig: Signature):
    cols = ["psi"]
    cols += [f"t_{i + 1}" for i in range(sig.s)]
    cols += [f"x_{j + 1}" for j in range(sig.s, sig.n)]
    cols += [f"dt_{i + 1}" for i in range(sig.s)]
    cols += [f"dx_{j + 1}" for j in range(sig.s, sig.n)]
    cols += ["form_residual", "ortho_residual"]
    return cols


def _sample_values(traj: Trajectory) -> np.ndarray:
    """The output table, one row per sample in the column order of `_columns`.

    Raises ValueError when a value is not finite, which happens once the
    curve overflows the float range.
    """
    p = traj.points
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        form = inner_product(p, p, traj.spec.sig) - traj.spec.radius * traj.spec.radius
        ortho = inner_product(p, traj.velocities, traj.spec.sig)
    table = np.column_stack((traj.psi, p, traj.velocities, form, ortho))
    if not np.isfinite(table).all():
        raise ValueError(
            "non-finite coordinates or residuals: the curve overflows once "
            "|psi|*sqrt(s*r) exceeds about 710, less for a large radius"
        )
    return table


def write_csv(traj: Trajectory, stream) -> None:
    """Write a trajectory as CSV, one row per sample."""
    writer = csv.writer(stream)
    writer.writerow(_columns(traj.spec.sig))
    for row in _sample_values(traj):
        writer.writerow(format(v, _FLOAT_FMT) for v in row.tolist())


def write_json(traj: Trajectory, stream) -> None:
    """Write a trajectory as JSON with named per-sample fields."""
    sig = traj.spec.sig
    samples = []
    for row in _sample_values(traj):
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
        "radius": traj.spec.radius,
        "mode": traj.provenance.value,
        "samples": samples,
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def cmd_generate(cfg: RunConfig) -> int:
    """Generate a trajectory per the run config and write it out."""
    spec = CurveSpec(cfg.sig, cfg.radius)
    icfg = IntegratorConfig(cfg.psi_start, cfg.psi_end, cfg.steps, spec)
    if cfg.mode is Provenance.CLOSED_FORM:
        traj = closed_form_trajectory(icfg)
    else:
        traj = integrate(icfg, point_at(cfg.psi_start, spec))
    # the writers refuse non-finite values; find out before the file exists
    _sample_values(traj)
    writer = write_csv if cfg.fmt == "csv" else write_json
    if cfg.out is None:
        writer(traj, sys.stdout)
    else:
        with open(cfg.out, "w", newline="") as fh:
            writer(traj, fh)
    return 0


def cmd_verify(args) -> int:
    """Run the verification sweep and print the per-cell report table."""
    if not args.tol > 0:
        raise _ConfigError(f"tolerance must be positive, got {args.tol}")
    radii = args.radius if args.radius else [1.0]
    reports = run_sweep(
        max_sig=args.max_sig,
        radii=radii,
        psi_start=args.psi_start,
        psi_end=args.psi_end,
        samples=args.samples,
        steps=args.steps,
        tol=args.tol,
        seed=args.seed,
        fault_r_eff=args.inject_fault == "r-eff",
    )
    print(f"{'s':>3} {'r':>3} {'radius':>8} {'checks':>7} "
          f"{'worst check':<28} {'worst/bound':>12} status")
    for rep in reports:
        worst = rep.worst_check
        status = "pass" if rep.passed else "FAIL"
        print(
            f"{rep.sig.s:>3} {rep.sig.r:>3} {rep.radius:>8.4g} {len(rep.checks):>7} "
            f"{worst.name:<28} {worst.ratio:>12.3e} {status}"
        )
    failed = [rep for rep in reports if not rep.passed]
    for rep in failed:
        for c in rep.failures:
            print(
                f"failed: s={rep.sig.s} r={rep.sig.r} radius={rep.radius:g} "
                f"{c.name}: worst={c.worst:.6e} bound={c.bound:.6e}"
            )
    print(f"verification: {len(reports) - len(failed)}/{len(reports)} cells passed")
    return 0 if not failed else 3


def cmd_dims(args) -> int:
    print(bundle_dim(args.n, args.p))
    return 0


def _run_generate(args) -> int:
    cfg = RunConfig(
        sig=args.sig,
        radius=args.radius,
        psi_start=args.psi_start,
        psi_end=args.psi_end,
        steps=args.steps,
        mode=Provenance(args.mode),
        fmt=args.format,
        out=args.out,
    )
    return cmd_generate(cfg)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pseudohyp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a curve and export it")
    gen.add_argument("--sig", type=_parse_sig, required=True, metavar="S,R",
                     help="signature counts, time-like,space-like")
    gen.add_argument("--radius", type=float, default=1.0, help="quadric constant R")
    gen.add_argument("--psi-start", type=float, default=-3.0)
    gen.add_argument("--psi-end", type=float, default=3.0)
    gen.add_argument("--steps", type=int, default=100, help="grid intervals")
    gen.add_argument("--mode", choices=[p.value for p in Provenance],
                     default=Provenance.CLOSED_FORM.value)
    gen.add_argument("--format", choices=["csv", "json"], default="csv")
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_run_generate)

    ver = sub.add_parser("verify", help="run the invariant sweep over a signature grid")
    ver.add_argument("--max-sig", type=int, default=4, help="check s, r in 1..max-sig")
    ver.add_argument("--radius", type=float, action="append", default=None,
                     help="quadric constant, repeatable (default 1.0)")
    ver.add_argument("--psi-start", type=float, default=-2.0)
    ver.add_argument("--psi-end", type=float, default=2.0)
    ver.add_argument("--samples", type=int, default=100, help="psi samples per cell")
    ver.add_argument("--steps", type=int, default=2000, help="integrator intervals")
    ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--inject-fault", choices=["r-eff"], default=None,
                     help="evaluate the curve with a wrong amplitude; the sweep "
                          "must fail for every cell with r >= 2 (self-test)")
    ver.set_defaults(func=cmd_verify)

    dims = sub.add_parser("dims", help="print the order-p bundle dimension 2^p * n")
    dims.add_argument("n", type=int, help="manifold dimension")
    dims.add_argument("p", type=int, help="bundle order")
    dims.set_defaults(func=cmd_dims)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_ConfigError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
