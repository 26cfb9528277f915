#!/usr/bin/env python3
"""Benchmark of the pseudohyp CLI, run through `pseudohyp.cli.main(argv)`.

One process, one caller, closed loop: each iteration starts only after the
previous one has finished and its output has been checked. BLAS threads are
pinned to 1. Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --repeat 10 --result base.json
    python3 perfbench/run.py --compare base.json change.json
    python3 perfbench/run.py --ab ../parent . --workload all --seed 1 --repeat 10
    python3 perfbench/run.py --self-test

`--trace 0` reports the end-to-end metrics; `--trace 1` runs half the time
untraced and half with spans recorded around the public functions of each
layer listed in tracing.TRACED, and reports the per-layer metrics named in
BENCHMARK.json.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. See README.md for the result-file schema.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child interpreter.
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Outcome, check_generate, check_verify  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SCHEMA = "perfbench.result/1"
SETUP_REPS = 11

# Metrics reported besides those in BENCHMARK.json: the median iteration
# time, whose run-to-run spread on a shared machine is too wide for a bound,
# and metrics that are 0 on correct code or defined on one kind of workload.
# The result file and the printed table carry them; the last JSON line does not.
EXTRA_METRICS = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "error_rate": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "form_residual_max": {"unit": "ratio", "better": "lower", "bound": 0.25},
    "ortho_residual_max": {"unit": "ratio", "better": "lower", "bound": 0.25},
    "oracle_deviation_max": {"unit": "1", "better": "lower", "bound": 0.25},
    "check_ratio_max": {"unit": "ratio", "better": "lower", "bound": 0.25},
}

# Import and parse-time cost, timed inside a fresh interpreter.
_SETUP_CODE = """\
import contextlib, io, time
t0 = time.perf_counter()
import pseudohyp.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        pseudohyp.cli.main(["--help"])
    except SystemExit:
        pass
print(time.perf_counter() - t0)
"""


def load_spec() -> dict:
    """Metric name -> unit, better, bound, from BENCHMARK.json plus the extras."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            spec[m["name"]] = {"unit": m["unit"], "better": m["better"],
                               "bound": m.get("bound"), "group": group}
    for name, m in EXTRA_METRICS.items():
        spec[name] = {**m, "group": "extra"}
    return spec


def import_cli():
    src = ROOT / "src"
    if not (src / "pseudohyp" / "cli.py").is_file():
        sys.exit(f"perfbench: no pseudohyp sources under {src}")
    sys.path.insert(0, str(src))
    import pseudohyp.cli

    return pseudohyp.cli


# --------------------------------------------------------------------------
# one run


@dataclasses.dataclass
class Iteration:
    wall_s: float
    rss_mb: float  # peak RSS of the process so far, read before the check runs
    outcome: Outcome
    layers: dict | None = None  # per-layer metrics of a traced iteration


def attempt(cli, wl, params, out_path, extra_argv=(), tamper=None) -> Iteration:
    """One call of `main` plus the check of everything it wrote."""
    argv = wl.argv(params, out_path) + list(extra_argv)
    buf = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed iteration, not a dead benchmark
        code, crash = None, f"main raised {exc!r}"
    it = Iteration(perf_counter() - t0,
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, Outcome(ok=False))
    if code is None:
        it.outcome.reason = crash
    elif wl.command == "verify":
        it.outcome = check_verify(code, buf.getvalue(), params)
    elif code != 0:
        it.outcome.reason = f"generate exited {code}"
    else:
        try:
            size = os.path.getsize(out_path)
            if tamper is not None:
                tamper(out_path)
            it.outcome = check_generate(out_path, params)
            it.outcome.bytes_written = size
        except (CheckFailed, OSError) as exc:
            it.outcome.reason = str(exc)
    return it


def loop(cli, wl, params, out_path, seconds, tracer=None, after=None, **kw):
    """Closed loop for `seconds` (at least one iteration); one Iteration each.

    `after(fraction)` is called between iterations with the share of
    `seconds` used so far.
    """
    done = []
    start = perf_counter()
    while not done or perf_counter() < start + seconds:
        lo = len(tracer) if tracer is not None else 0
        it = attempt(cli, wl, params, out_path, **kw)
        if tracer is not None:
            it.layers = layer_metrics(tracer.aggregate(lo, len(tracer)), it.outcome, it.wall_s)
        done.append(it)
        if after is not None:
            after((perf_counter() - start) / seconds if seconds else 1.0)
    return done


def _per(total_s, count):
    return total_s / count * 1e6 if count else 0.0


def layer_metrics(agg: dict, outcome: Outcome, wall: float) -> dict:
    """Per-layer metrics of one traced iteration from its span aggregates."""
    m = {}
    for name, a in agg.items():
        m[f"{name}.calls"] = a["calls"]
        m[f"{name}.self_s"] = a["self_s"]
    gens = [agg["transform.boost"], agg["transform.block_rotation"]]
    m["transform.generators.calls"] = sum(g["calls"] for g in gens)
    m["transform.generators.self_s"] = sum(g["self_s"] for g in gens)
    ip = agg["geometry.inner_product"]
    m["geometry.inner_product.us_per_call"] = _per(ip["total_s"], ip["calls"])
    for name, unit in (("ode.integrate", "steps"), ("ode.closed_form_trajectory", "samples")):
        m[f"{name}.{unit}"] = agg[name]["units"]
        m[f"{name}.us_per_{unit[:-1]}"] = _per(agg[name]["total_s"], agg[name]["units"])
    writers = agg["cli.write_csv"]["total_s"] + agg["cli.write_json"]["total_s"]
    m["cli.rows"] = outcome.rows
    m["cli.bytes_written"] = outcome.bytes_written
    m["cli.us_per_row"] = _per(writers, outcome.rows)
    m["verify.checks.passed"] = outcome.checks_passed
    m["verify.checks.total"] = outcome.checks_total
    m["trace.wall_s"] = wall
    return m


def measure_setup() -> float:
    """Seconds to import pseudohyp.cli and build its parser in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def summarize(values) -> dict:
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _run_metrics(wl, params, setup, untraced, traced, spec):
    """Samples of every metric of one run, by name."""
    samples = {}
    iters = untraced + traced
    timed = untraced[1:] or untraced  # the first iteration warms up
    failed = sum(not it.outcome.ok for it in iters)
    samples["error_rate"] = [failed / len(iters)]
    if setup:
        samples["setup_s"] = setup
    if not traced:
        # the first call of main, before any check has allocated anything
        samples["peak_rss_mb"] = [untraced[0].rss_mb]
    walls = [it.wall_s for it in timed]
    samples["wall_s"] = walls
    # Other tenants of a shared machine only ever add time, and they come and
    # go over minutes, so the fastest iteration is the steadiest estimate of
    # the code's own cost; the median is kept alongside it.
    samples["wall_min_s"] = [min(walls)]
    samples["work_per_s"] = [wl.work(params) / min(walls)]
    accuracy = [it.outcome.accuracy for it in iters if it.outcome.accuracy]
    for key in (accuracy[0] if accuracy else {}):
        samples[key] = [a[key] for a in accuracy]
    if traced:
        for key in traced[0].layers:
            if key in spec:
                samples[key] = [it.layers[key] for it in traced]
        samples["trace.overhead_s"] = [min(samples["trace.wall_s"]) - min(walls)]
    return samples


def check_claims(workload: str, values: dict) -> list[dict]:
    """Evaluate the layer-map claims of layers.json on this workload."""
    with open(HERE / "layers.json") as fh:
        claims = json.load(fh)["claims"]
    out = []
    for c in claims:
        if c["workload"] != workload:
            continue
        if "share_of_wall" in c:
            share = sum(values[k] for k in c["share_of_wall"]) / values["trace.wall_s"]
            out.append({**c, "value": share, "holds": share >= c["at_least"]})
        else:
            calls = {k: values[k] for k in c["zero"]}
            out.append({**c, "value": calls, "holds": not any(calls.values())})
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit of the checkout, read from its .git directory without
    running git (which would search and read outside the checkout); None when
    the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def meta(seeds, seconds, trace, runs) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seeds": list(seeds),
        "seconds": seconds,
        "trace": trace,
        "runs": runs,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_PIN,
        "setup_reps": SETUP_REPS,
    }


REQUIRED = {
    "document": ("schema", "meta", "workloads"),
    "meta": ("git_sha", "src_sha256", "seeds", "seconds", "trace", "runs", "nproc",
             "python", "numpy", "blas_threads"),
    "workload": ("params", "attempted", "failed", "metrics"),
    "metric": ("unit", "better", "median", "q1", "q3", "n", "values"),
}


def validate_result(doc: dict) -> None:
    """Raise ValueError unless `doc` has every field of the result schema."""
    def need(obj, kind, where):
        missing = [k for k in REQUIRED[kind] if k not in obj]
        if missing:
            raise ValueError(f"result {where} lacks {missing}")

    need(doc, "document", "document")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"result schema {doc['schema']!r}, expected {SCHEMA!r}")
    need(doc["meta"], "meta", "meta")
    for wname, w in doc["workloads"].items():
        need(w, "workload", wname)
        for mname, m in w["metrics"].items():
            need(m, "metric", f"{wname}.{mname}")


def _metrics_doc(samples: dict, spec: dict) -> dict:
    return {name: {"unit": spec[name]["unit"], "better": spec[name]["better"],
                   **summarize(vals)}
            for name, vals in samples.items()}


def run_one(args, spec) -> int:
    cli = import_cli()
    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    out_path = str(OUT / "tmp" / f"{wl.name}-{os.getpid()}.{params.get('format', 'txt')}")
    setup = []

    def setup_due(fraction):
        # set-up is timed between iterations, spread over the whole run
        while len(setup) < SETUP_REPS * min(fraction, 1.0):
            setup.append(measure_setup())

    try:
        half = args.seconds / 2 if args.trace else args.seconds
        if not args.trace:
            measure_setup()  # fills the file cache; not counted
        untraced = loop(cli, wl, params, out_path, half,
                        after=None if args.trace else setup_due)
        if not args.trace:
            setup_due(1.0)
        traced = []
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced = loop(cli, wl, params, out_path, half, tracer=tracer)
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            tracer.save(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz")
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
    doc = {
        "schema": SCHEMA,
        "meta": meta([args.seed], args.seconds, args.trace, 1),
        "workloads": {wl.name: workload_doc(wl, params, setup, untraced, traced, spec)},
    }
    write_result(doc, _result_path(args))
    return report(doc, args.trace, spec)


def workload_doc(wl, params, setup, untraced, traced, spec) -> dict:
    iters = untraced + traced
    doc = {
        "params": params,
        "attempted": len(iters),
        "failed": sum(not it.outcome.ok for it in iters),
        "failures": sorted({it.outcome.reason for it in iters if not it.outcome.ok}),
        "metrics": _metrics_doc(_run_metrics(wl, params, setup, untraced, traced, spec), spec),
    }
    if traced:
        values = {k: v["median"] for k, v in doc["metrics"].items()}
        doc["layer_claims"] = check_claims(wl.name, values)
    return doc


def _result_path(args) -> Path:
    return Path(args.result) if args.result else (
        OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")


# --------------------------------------------------------------------------
# several runs, and comparing them


def _child_run(root: Path, name: str, seed: int, args) -> dict:
    path = root / ".perfbench" / "results" / f"part-{os.getpid()}-{name}-{seed}.json"
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(path)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {name} seed {seed} in {root} exited {proc.returncode}")
    doc = json.loads(path.read_text())
    path.unlink()
    return doc


def collect(args, spec, roots) -> list[dict]:
    """Run the workloads `--repeat` times, each run in a child process of its
    checkout, alternating which checkout of `roots` goes first. One result
    document per checkout, whose values are the medians of the runs."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = range(args.seed, args.seed + args.repeat)
    runs = {root: [] for root in roots}
    for i, seed in enumerate(seeds):
        for name in names:
            for root in roots if i % 2 == 0 else roots[::-1]:
                runs[root].append(_child_run(root, name, seed, args))
    docs = []
    for parts in runs.values():
        workloads = {}
        for name in names:
            ws = [p["workloads"][name] for p in parts if name in p["workloads"]]
            common = [m for m in ws[0]["metrics"] if all(m in w["metrics"] for w in ws)]
            workloads[name] = {
                "params": [w["params"] for w in ws],
                "attempted": sum(w["attempted"] for w in ws),
                "failed": sum(w["failed"] for w in ws),
                "failures": sorted({f for w in ws for f in w["failures"]}),
                "metrics": _metrics_doc(
                    {m: [w["metrics"][m]["median"] for w in ws] for m in common}, spec),
            }
        run_meta = {**parts[0]["meta"], "seeds": list(seeds), "runs": args.repeat}
        docs.append({"schema": SCHEMA, "meta": run_meta, "workloads": workloads})
    return docs


def write_result(doc: dict, path: Path) -> None:
    validate_result(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"result file: {path}")


def report(doc: dict, trace: int, spec: dict) -> int:
    """Print every metric with its unit, then the JSON summary line."""
    group = "per_layer" if trace else "end_to_end"
    shown = [n for n, s in spec.items() if s["group"] in (group, "extra")]
    single = len(doc["workloads"]) == 1
    line = {}
    for wname, w in doc["workloads"].items():
        print(f"{wname}: {w['attempted']} attempted, {w['failed']} failed")
        for reason in w["failures"]:
            print(f"  failure: {reason}")
        for name in shown:
            if name not in w["metrics"]:
                continue
            m = w["metrics"][name]
            print(f"  {name:<40} {m['median']:>14.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
            if spec[name]["group"] == group:
                line[name if single else f"{wname}/{name}"] = {"value": m["median"],
                                                               "unit": m["unit"]}
        for claim in w.get("layer_claims", []):
            print(f"  layer claim {'holds' if claim['holds'] else 'DOES NOT HOLD'}: {claim}")
    attempted = sum(w["attempted"] for w in doc["workloads"].values())
    failed = sum(w["failed"] for w in doc["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": line}))
    return 0


def verdict(parent: list, change: list, better: str, bound) -> dict:
    """Judge one workload x metric by the paired-runs rule.

    improved: at least 10 pairs, the change wins 9/10 of them (ties count for
    neither side) and the medians differ by more than the parent's IQR.
    unresolved: the parent's IQR, as a share of its median, exceeds the bound
    and not every change run beats every parent run. regressed: the change's
    median is worse than the parent's by more than the bound. Otherwise
    within-bound; a metric without a bound is only ever improved or no-bound.
    """
    worse = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    won = sum(worse * (c - p) < 0 for p, c in pairs)
    lost = sum(worse * (c - p) > 0 for p, c in pairs)
    sp, sc = summarize(parent), summarize(change)
    iqr = sp["q3"] - sp["q1"]
    diff = sc["median"] - sp["median"]
    scale = abs(sp["median"])
    if scale:
        worse_by = worse * diff / scale
    else:
        worse_by = math.copysign(math.inf, worse * diff) if diff else 0.0
    spread = iqr / scale if scale else 0.0
    every_better = all(worse * (c - p) < 0 for p in parent for c in change)
    if len(pairs) >= 10 and won >= 0.9 * len(pairs) and abs(diff) > iqr and worse * diff < 0:
        status = "improved"
    elif bound is None:
        status = "no-bound"
    elif spread > bound and not every_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "within-bound"
    return {"verdict": status, "pairs": len(pairs), "won": won, "lost": lost,
            "parent_median": sp["median"], "change_median": sc["median"],
            "parent_iqr": iqr, "worse_by": worse_by, "bound": bound}


def compare(parent_path, change_path, spec) -> int:
    docs = []
    for path in (parent_path, change_path):
        with open(path) as fh:
            doc = json.load(fh)
        validate_result(doc)
        docs.append(doc)
    parent, change = docs
    rows = []
    for wname, pw in parent["workloads"].items():
        cw = change["workloads"].get(wname)
        if cw is None:
            continue
        for mname, pm in pw["metrics"].items():
            if mname not in cw["metrics"] or mname not in spec:
                continue
            v = verdict(pm["values"], cw["metrics"][mname]["values"],
                        spec[mname]["better"], spec[mname]["bound"])
            rows.append({"workload": wname, "metric": mname, **v})
            print(f"{wname:<24} {mname:<40} {v['verdict']:<13} "
                  f"{v['parent_median']:.6g} -> {v['change_median']:.6g} "
                  f"won {v['won']}/{v['pairs']}")
    print(json.dumps({"verdicts": rows}))
    return 0


# --------------------------------------------------------------------------
# self-test: the check must be able to fail


def _perturb_coordinate(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["samples"][len(doc["samples"]) // 2]["x"][0] *= 1.0 + 1e-9
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _truncate(path):
    os.truncate(path, os.path.getsize(path) * 3 // 5)


def self_test(spec) -> int:
    cli = import_cli()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    small = {name: dataclasses.replace(wl, steps=min(wl.steps, 4000))
             for name, wl in WORKLOADS.items()}
    cases = [
        ("generate-closed-json", "unchanged output", {}, True),
        ("generate-closed-json", "perturbed coordinate", {"tamper": _perturb_coordinate}, False),
        ("generate-integrated-csv", "unchanged output", {}, True),
        ("generate-integrated-csv", "truncated output file", {"tamper": _truncate}, False),
        ("verify-sweep", "verify --inject-fault r-eff",
         {"extra_argv": ["--inject-fault", "r-eff"]}, False),
    ]
    ok = True
    for name, label, kw, should_pass in cases:
        wl = small[name]
        params = wl.params(1)
        out_path = str(OUT / "tmp" / f"selftest-{os.getpid()}.{params.get('format', 'txt')}")
        try:
            iters = loop(cli, wl, params, out_path, 0.0, **kw)  # one iteration
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
        wdoc = workload_doc(wl, params, [], iters, [], spec)
        counted = (wdoc["attempted"], wdoc["failed"]) == (1, 0 if should_pass else 1)
        try:
            validate_result({"schema": SCHEMA, "meta": meta([1], 0.0, 0, 1),
                             "workloads": {name: wdoc}})
            schema = "result schema ok"
        except ValueError as exc:
            counted, schema = False, str(exc)
        ok &= counted
        reason = iters[0].outcome.reason or "passed"
        print(f"{'ok  ' if counted else 'FAIL'} {name}: {label}: {reason}; {schema}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, each in a child process with seed+i")
    ap.add_argument("--result", help="result file (default under .perfbench/results)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="judge two result files, run by run")
    ap.add_argument("--ab", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"),
                    help="collect --repeat runs in two checkouts, alternating which "
                         "goes first, then compare them")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        ap.error("--workload is required")
    if args.ab and args.repeat < 10:
        ap.error("--ab needs --repeat 10 or more")
    if args.ab:
        paths = [OUT / "results" / f"ab-{side}.json" for side in ("parent", "change")]
        for doc, path in zip(collect(args, spec, [Path(d).resolve() for d in args.ab]), paths):
            write_result(doc, path)
        return compare(*paths, spec)
    if args.workload == "all" or args.repeat > 1:
        (doc,) = collect(args, spec, [ROOT])
        write_result(doc, _result_path(args))
        return report(doc, args.trace, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
