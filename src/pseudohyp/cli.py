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
from functools import cache
from itertools import chain

import numpy as np

from .bundle import bundle_dim
from .geometry import CurveSpec, Signature, _block_inner, _block_tower
from .ode import IntegratorConfig, _closed_form_blocks, _integrate_blocks, check_resolved
from .verify import run_sweep

__all__ = ["cmd_generate", "cmd_verify", "cmd_dims", "main"]

# Table values are written with 17 significant decimal digits, enough
# for any binary64 value to survive a write/parse round trip bit-exactly.
_FLOAT_FMT = "%.17g"

# The writers format and write this many rows at a time, so the text they
# hold stays the same size however long the trajectory is.
_BLOCK_ROWS = 256


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # I/O problems, so parse errors are rerouted to exit code 1.
    def error(self, message):
        raise ValueError(message)


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
    t, x = range(1, sig.s + 1), range(sig.s + 1, sig.n + 1)
    return ["psi", *[f"t_{i}" for i in t], *[f"x_{j}" for j in x], *[f"dt_{i}" for i in t],
            *[f"dx_{j}" for j in x], "form_residual", "ortho_residual"]


def _sample_values(cfg: IntegratorConfig, blocks: np.ndarray) -> np.ndarray:
    """The output table of a (steps + 1, 4) block table [t, x, dt, dx] on
    cfg.grid(), one row per sample: psi, t, x, dt, dx, and the residuals of
    the flow that repeats each block value over its block, bit for bit.

    Raises ValueError when a value is not finite, naming the limit hit: the
    residuals square the coordinates, so they overflow the float range first.
    Run it under `np.errstate(over="ignore", invalid="ignore")` for one error
    and no numpy warning.
    """
    sig, radius = cfg.spec.sig, cfg.spec.radius
    form = _block_inner(blocks[:, :2], blocks[:, :2], sig) - radius * radius
    ortho = _block_inner(blocks[:, :2], blocks[:, 2:], sig)
    table = np.column_stack((cfg.grid(), blocks, form, ortho))
    if not np.isfinite(table).all():
        raise ValueError(
            "non-finite coordinates or residuals: the curve overflows once "
            "|psi|*sqrt(s*r) exceeds about 710, less for a large radius"
            if not np.isfinite(blocks).all() else
            "non-finite residuals: form_residual and ortho_residual square the coordinates, "
            "and overflow once |psi|*sqrt(s*r) exceeds about 355, less for a large radius"
        )
    return table


def _write_rows(sig: Signature, table: np.ndarray, fmt: str, row: str, sep: str, stream) -> None:
    # Per block of `_BLOCK_ROWS` rows, one `%` formats its distinct values column
    # by column (no float's text holds a newline), so each column's text is one
    # slice of the split, and one `%` fills `row`, a %s per column, once per row,
    # from the zip of the slices that each output column repeats.
    repeats = (1, sig.s, sig.r, sig.s, sig.r, 1, 1)
    templates = {}  # per block length, so at most two
    for i in range(0, len(table), _BLOCK_ROWS):
        block = table[i : i + _BLOCK_ROWS]
        k = len(block)
        if k not in templates:
            templates[k] = ("\n".join([fmt] * 7 * k), sep.join([row] * k))
        values, template = templates[k]
        text = (values % tuple(block.T.ravel().tolist())).split("\n")
        columns = chain.from_iterable([text[c * k : c * k + k]] * m for c, m in enumerate(repeats))
        stream.write(sep if i else "")
        stream.write(template % tuple(chain.from_iterable(zip(*columns))))


def write_csv(spec: CurveSpec, table: np.ndarray, stream) -> None:
    """Write a `_sample_values` table of the curve `spec` as CSV, one row per sample.

    The bytes are those of `csv.writer` with each block value repeated over
    the `_columns` of its block and formatted once by `_FLOAT_FMT`: no
    formatted number needs quoting, and lines end in CRLF.
    """
    header = _columns(spec.sig)
    csv.writer(stream).writerow(header)
    _write_rows(spec.sig, table, _FLOAT_FMT, ",".join(["%s"] * len(header)) + "\r\n", "", stream)


def _json_sample(sig: Signature) -> str:
    # a "samples" entry as json.dump(indent=2) lays it out, a %s per value; no key holds a 0
    sample = {"psi": 0, "t": [0] * sig.s, "x": [0] * sig.r, "dt": [0] * sig.s,
              "dx": [0] * sig.r, "form_residual": 0, "ortho_residual": 0}
    return ("\n" + json.dumps(sample, indent=2)).replace("\n", "\n    ").replace("0", "%s")


def write_json(spec: CurveSpec, mode: str, table: np.ndarray, stream) -> None:
    """Write a `_sample_values` table of the curve `spec` as JSON with named
    per-sample fields.

    The bytes are those of `json.dump(doc, stream, indent=2)` followed by a
    newline, where doc holds s, r, radius, mode (the `--mode` the table was
    made in) and one dict per sample (psi, t, x, dt, dx, form_residual,
    ortho_residual), its lists repeating a block value s or r times. Each
    value goes through `%r` once: `json` writes a float as its repr, except
    for NaN and infinities, which `_sample_values` has already rejected. The
    table has at least one row, since every psi grid has a sample.
    """
    sig = spec.sig
    stream.write('{\n  "s": %d,\n  "r": %d,\n  "radius": %r,\n  "mode": %s,\n  "samples": ['
                 % (sig.s, sig.r, spec.radius, json.dumps(mode)))
    _write_rows(sig, table, "%r", _json_sample(sig), ",", stream)
    stream.write("\n  ]\n}\n")


def cmd_generate(args) -> int:
    """Generate a trajectory per the parsed arguments and write it out."""
    spec = CurveSpec(args.sig, args.radius)
    cfg = IntegratorConfig(args.psi_start, args.psi_end, args.steps, spec)
    if args.mode == "integrated":
        try:
            check_resolved(cfg)
        except ValueError as coarse:
            # more steps cannot serve a psi range on which the curve itself overflows
            try:
                _block_tower(spec, max(abs(args.psi_start), abs(args.psi_end)), (0,))
            except OverflowError as overflow:
                raise ValueError(f"{coarse}; and {overflow}") from None
            raise
    produce = _closed_form_blocks if args.mode == "closed_form" else _integrate_blocks
    # non-finite values raise before the file exists; the block table is freed before the write
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported as one error
        table = _sample_values(cfg, produce(cfg))
    head = (spec,) if args.format == "csv" else (spec, args.mode)
    writer = write_csv if args.format == "csv" else write_json
    if args.out is None:
        writer(*head, table, sys.stdout)
    elif os.path.exists(args.out) and not os.path.isfile(args.out):
        # a device or FIFO, such as /dev/stdout, cannot be renamed over
        with open(args.out, "w", newline="") as fh:
            writer(*head, table, fh)
    else:
        # a file is written beside its target (through any symlink) and
        # renamed over it, so a failed write leaves no partial file
        target = os.path.realpath(args.out)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", newline="")
        try:
            with fh:
                writer(*head, table, fh)
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


@cache  # built once per process: parse_args keeps no state in the parser
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
    gen.add_argument("--mode", choices=["closed_form", "integrated"], default="closed_form")
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
    ver.add_argument("--steps", type=int, help="integrator intervals")
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
        code = args.func(args)
        # a report small enough to sit in the buffer meets a closed pipe here
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone, so there is no one left to tell; what is still
        # buffered for stdout goes to devnull, or the flush at exit would fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
