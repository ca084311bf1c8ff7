"""maghardy benchmark: seeded closed-loop workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hardy --seed 1 --seconds 20 --trace 0

Workloads: hardy, count, vnorm, cli-cold (see workloads.py and
BENCHMARK.json).  The program is imported from ``src/`` of the checkout.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics.
Every result is checked against an independent oracle after the timed
passes.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
# End-to-end metrics in the result line.  op_s.tail and fail_ratio are
# printed above it: the tail's percentile moves with the op count, so it is
# not comparable between commits, and fail_ratio is 0 when all is well; the
# result line's "failed" and "correct" carry the failures.
GATED = ("wall_s", "op_s.p50", "peak_rss_mb", "setup_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("hardy", "count", "vnorm", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    import maghardy

    where = Path(maghardy.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: imported maghardy from {where}, not from this checkout")
    return maghardy


def setup_probe(args):
    """Import the program and build the inputs, then print the clock."""
    from perfbench import workloads

    mh = import_program()
    workloads.build(args.workload, args.seed, workloads.Context(mh, ROOT, ROOT))
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, work):
    """Median time from spawning a fresh interpreter to inputs being ready."""
    from perfbench.workloads import child_env, run_child

    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    for k in range(SETUP_SAMPLES):
        out = work / f"setup-{k}.out"
        start = time.monotonic()
        code, _wall, _rss = run_child(argv, child_env(ROOT), ROOT, out, work / f"setup-{k}.err")
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {(work / f'setup-{k}.err').read_text()}")
        samples.append(float(out.read_text().split()[-1]) - start)
    return statistics.median(samples)


def measure_probe(code_line, work):
    """Median wall time of a fresh interpreter running ``-c code_line``."""
    from perfbench.workloads import child_env, run_child

    samples = []
    for k in range(PROBE_SAMPLES):
        code, wall, _ = run_child(
            [sys.executable, "-c", code_line], child_env(ROOT), ROOT,
            work / "probe.out", work / "probe.err",
        )
        if code != 0:
            raise RuntimeError(f"probe {code_line!r} exited {code}")
        samples.append(wall)
    return statistics.median(samples)


def run_passes(ops, ctx, seconds, trace, tracer, install):
    """Closed loop over whole passes until the window is used.

    A pass starts only when it is expected to end less than half a pass
    past the window.  With tracing, passes alternate untraced and traced.
    Returns the pass records: (traced, wall, [(op index, seconds, result,
    error)]).
    """
    passes = []
    start = time.perf_counter()
    op_seq = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        restore = None
        if traced:
            restore = install(tracer)
            ctx.tracer = tracer
        records = []
        t_pass = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                tracer.op = op_seq
                op_seq += 1
                t0 = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a failed op is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                records.append((i, time.perf_counter() - t0, result, error))
        finally:
            wall = time.perf_counter() - t_pass
            if restore is not None:
                restore()
                ctx.tracer = None
        passes.append((traced, wall, records))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            break
        typical = statistics.median(w for _t, w, _r in passes)
        if elapsed + 0.5 * typical >= seconds and (not trace or len(passes) >= 2):
            break
    return passes


def judge(ops, passes):
    """Oracle failures per op, and the number of failed executions."""
    from perfbench.workloads import fingerprint

    first = {}
    for _traced, _wall, records in passes:
        for i, _dt, result, error in records:
            first.setdefault(i, (result, error))
    problems = {}
    for i, (result, error) in first.items():
        if error is not None:
            problems[i] = [error]
            continue
        try:
            msgs = ops[i].check(result)
        except Exception as exc:  # a check that cannot run fails the op
            msgs = [f"oracle raised {type(exc).__name__}: {exc}"]
        if msgs:
            problems[i] = msgs
    reference = {i: fingerprint(r) for i, (r, e) in first.items() if e is None}
    failed = 0
    for _traced, _wall, records in passes:
        for i, _dt, result, error in records:
            bad = error is not None or i in problems
            if not bad and fingerprint(result) != reference[i]:
                problems.setdefault(i, []).append("result differs from the first run of this op")
                bad = True
            failed += bad
    return problems, failed


def environment(args, mh):
    import numpy
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    kernels = sys.modules.get("maghardy._kernels")
    if kernels is not None and hasattr(kernels, "NUMBA_ENABLED"):
        env["NUMBA_ENABLED"] = bool(kernels.NUMBA_ENABLED)
    return env


def end_to_end(args, passes, setup_s, self_rss_kb):
    from perfbench import stats

    plain = [(w, recs) for traced, w, recs in passes if not traced]
    op_times = [dt for _w, recs in plain for _i, dt, _r, _e in recs]
    pct, tail_value, beyond = stats.tail(op_times)
    if args.workload == "cli-cold":
        rss_kb = max((r.maxrss_kb for _w, recs in plain for _i, _dt, r, e in recs if e is None), default=0)
    else:
        rss_kb = self_rss_kb
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(w for w, _ in plain), "s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "op_s.tail": (tail_value, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    note = f"op_s.tail is p{pct:g} of {len(op_times)} ops, {beyond} beyond it"
    if beyond < stats.MIN_BEYOND:
        note += f" (fewer than {stats.MIN_BEYOND}: no ladder percentile qualifies)"
    return metrics, note


def per_layer(args, passes, tracer, work):
    from perfbench import layers

    traced_wall = [w for traced, w, _ in passes if traced]
    plain_wall = [w for traced, w, _ in passes if not traced]
    values = layers.span_metrics(tracer.spans, tracer.counters, traced_wall)
    cli = [r for traced, _w, recs in passes if not traced for _i, _dt, r, e in recs if e is None]
    if args.workload == "cli-cold":
        values["cli.startup_s"] = statistics.median(r.wall_s - r.compute_s for r in cli)
        values["cli.compute_s"] = statistics.median(r.compute_s for r in cli)
        codes = [r.code for _t, _w, recs in passes for _i, _dt, r, e in recs if e is None]
        values["cli.nonzero_exits"] = sum(c != 0 for c in codes) / len(passes)
    else:
        values["cli.startup_s"] = values["cli.compute_s"] = values["cli.nonzero_exits"] = 0.0
    values["cli.interp_s"] = measure_probe("pass", work)
    values["cli.import_s"] = measure_probe("import maghardy", work)
    values["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(plain_wall)
    units = layers.metric_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "maghardy" / "__init__.py").is_file():
        print(f"perfbench: no maghardy sources under {ROOT / 'src'}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    mh = import_program()
    work = ROOT / "perfbench" / f".work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(mh, ROOT, work)
        ops = workloads.build(args.workload, args.seed, ctx)
        setup_s = measure_setup(args, work)
        tracer = Tracer()
        with warnings.catch_warnings():
            # maghardy reports unbounded or unresolved inputs as warnings; the
            # oracles judge the results, so the messages are not printed here
            warnings.simplefilter("ignore")
            passes = run_passes(ops, ctx, args.seconds, bool(args.trace), tracer, layers.install)
            self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            problems, failed = judge(ops, passes)
        attempted = sum(len(recs) for _t, _w, recs in passes)
        env = environment(args, mh)
        e2e, tail_note = end_to_end(args, passes, setup_s, self_rss_kb)
        if args.trace:
            metrics = per_layer(args, passes, tracer, work)
            missing = layers.absent()
        else:
            metrics, missing = {name: e2e[name] for name in GATED}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# env " + json.dumps(env, sort_keys=True))
    n_plain = sum(1 for t, _w, _r in passes if not t)
    print(f"# {args.workload}: {len(passes)} passes ({n_plain} untraced), {attempted} ops, "
          f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    for name, (value, unit) in e2e.items():
        print(f"#   {name:<14} {value:.6g} {unit}")
    print(f"#   {'fail_ratio':<14} {failed / attempted:.6g} ratio")
    print(f"#   {tail_note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"#   {name:<44} {value:.6g} {unit}")
        if missing:
            print("# absent at this commit: " + ", ".join(missing))
    for i, msgs in sorted(problems.items()):
        for msg in msgs[:5]:
            print(f"# FAIL {ops[i].name}: {msg}", file=sys.stderr)

    if args.trace:
        out_dir = ROOT / "perfbench" / "traces"
        out_dir.mkdir(exist_ok=True)
        dump = dict(tracer.dump(), env=env, metrics={k: v for k, (v, _u) in metrics.items()})
        (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
