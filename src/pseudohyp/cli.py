"""Command-line surface: trajectory generation with CSV/JSON export,
invariant verification sweeps, and bundle dimension queries.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .bundle import bundle_dim
from .geometry import CurveSpec, Signature, inner_product, point_at
from .ode import IntegratorConfig, Provenance, Trajectory, closed_form_trajectory, integrate
from .verify import run_sweep

__all__ = ["cmd_generate", "cmd_verify", "cmd_dims", "main"]

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


def _parse_sig(text: str) -> Signature:
    # argparse shows an ArgumentTypeError's own message, but replaces that of
    # a ValueError with "invalid _parse_sig value"
    try:
        s, r = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected S,R_COUNT (for example 1,3), got {text!r}") from None
    try:
        return Signature(s, r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def write_csv(traj: Trajectory, table: np.ndarray, stream) -> None:
    """Write a trajectory's `_sample_values` table as CSV, one row per sample."""
    writer = csv.writer(stream)
    writer.writerow(_columns(traj.spec.sig))
    for row in table:
        writer.writerow(format(v, _FLOAT_FMT) for v in row.tolist())


def write_json(traj: Trajectory, table: np.ndarray, stream) -> None:
    """Write a trajectory's `_sample_values` table as JSON with named per-sample fields."""
    sig = traj.spec.sig
    samples = []
    for row in table:
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


def cmd_generate(args) -> int:
    """Generate a trajectory per the parsed arguments and write it out."""
    spec = CurveSpec(args.sig, args.radius)
    cfg = IntegratorConfig(args.psi_start, args.psi_end, args.steps, spec)
    if Provenance(args.mode) is Provenance.CLOSED_FORM:
        traj = closed_form_trajectory(cfg)
    else:
        traj = integrate(cfg, point_at(args.psi_start, spec))
    # raises on non-finite values, so nothing is written before the file exists
    table = _sample_values(traj)
    writer = write_csv if args.format == "csv" else write_json
    if args.out is None:
        writer(traj, table, sys.stdout)
    elif os.path.exists(args.out) and not os.path.isfile(args.out):
        # a device or FIFO, such as /dev/stdout, cannot be renamed over
        with open(args.out, "w", newline="") as fh:
            writer(traj, table, fh)
    else:
        # a file is written beside its target (through any symlink) and
        # renamed over it, so a failed write leaves no partial file
        target = os.path.realpath(args.out)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", newline="")
        try:
            with fh:
                writer(traj, table, fh)
            os.replace(tmp, target)
        except BaseException:
            os.remove(tmp)
            raise
    return 0


def cmd_verify(args) -> int:
    """Run the verification sweep and print the per-cell report table.

    Only the flags given on the command line reach `run_sweep`; the others
    keep the defaults of `run_sweep` and `run_cell_checks`, which validate them.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    fault = flags.pop("inject_fault", None)
    reports = run_sweep(**flags, fault_r_eff=fault == "r-eff")
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
    gen.set_defaults(func=cmd_generate)

    # flags left out stay out of the namespace, so the sweep's defaults apply
    ver = sub.add_parser("verify", help="run the invariant sweep over a signature grid",
                         argument_default=argparse.SUPPRESS)
    ver.add_argument("--max-sig", type=int, help="check s, r in 1..max-sig")
    ver.add_argument("--radius", type=float, action="append", dest="radii", metavar="RADIUS",
                     help="quadric constant, repeatable (default 1.0)")
    ver.add_argument("--psi-start", type=float)
    ver.add_argument("--psi-end", type=float)
    ver.add_argument("--samples", type=int, help="psi samples per cell")
    ver.add_argument("--steps", type=int, help="integrator intervals")
    ver.add_argument("--tol", type=float)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--inject-fault", choices=["r-eff"],
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
