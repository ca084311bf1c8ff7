"""Seeded operation lists for the four workloads.

Each workload is a closed loop: one client runs the ops of a pass in order
and starts the next op when the previous one returns.  Inputs come from
``numpy.random.default_rng(seed)``; ops call maghardy through module
attributes at call time, so the traced run's wrappers see every call.

Couplings of the Gaussian well are given as effective couplings
lam * depth * width^2: the mode count depends on that product, so the work
of a pass stays the same across seeds while the well's shape changes.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import oracles

WORKLOADS = ("hardy", "count", "vnorm", "cli-cold")

CLI_LINES = (
    "flux --field example1 --b0 1 --gamma 2 --r 0.1353352832",
    "identity-check --r0 e --grid 1000",
    "probe-zero --b 1.5 --alpha 0.4 --cuts 8,16,32,64",
    "probe-infinity --field bump --total-flux 1 --alpha-exp 0.5",
    "hardy --field bump --total-flux 0.5 --weight log_squared --t-min -8 --t-max 8 --grid 801",
    "count --potential vsigma --sigma 2 --lambda 20 --method inertia "
    "--t-min -400 --t-max 0.5 --grid 6000 --grid-kind auto",
    "sweep --potential vsigma --sigma 2 --lambda-min 10 --lambda-max 1e4",
    "bound --potential vsigma --sigma 2 --a 2",
)
CLI_TIMEOUT_S = 150.0


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    # Returns failure messages for the op's first result; run untimed.
    check: Callable[[object], list]


@dataclass
class Context:
    """What ops need from the runner: the package, paths and the tracer."""

    mh: object
    root: Path
    work: Path
    tracer: object = None


def fingerprint(result):
    """Canonical text of a result; repeats of an op must reproduce it."""
    if isinstance(result, CliResult):
        return f"{result.code}\n{result.stdout}"
    if hasattr(result, "as_dict"):
        result = result.as_dict()
    if isinstance(result, tuple):
        result = [np.asarray(x).tolist() for x in result]
    return json.dumps(result, sort_keys=True, default=str)


def build(workload, seed, ctx):
    rng = np.random.default_rng(seed)
    return {
        "hardy": _hardy,
        "count": _count,
        "vnorm": _vnorm,
        "cli-cold": _cli_cold,
    }[workload](rng, ctx)


def _hardy(rng, ctx):
    """Three bump-field problems and one singular problem, m in -3..3."""
    mh = ctx.mh
    ops = []
    # All three bump problems use L = 16 (L = 8 runs in cli-cold's hardy
    # line): the singular problem's time moves with gamma, and with three
    # equal problems the median op stays inside one class whichever side of
    # them the singular problem falls.
    for i, L in enumerate((16, 16, 16)):
        fld = mh.BumpField(float(rng.uniform(0.2, 0.8)))
        w = mh.LogSquaredWeight()
        grid = mh.Grid.uniform(-L, L, 100 * L + 1)
        ops.append(_hardy_op(f"bump{i}.L{L}", mh, fld, w, grid))
    # gamma >= 1.2 keeps the flux below 1/4 somewhere above select_eta_log's
    # default lower search bound -1e9 (gamma = 1.1 needs |t| ~ 1e16).
    fld = mh.LogPowerField(1.0, float(rng.uniform(1.2, 1.5)))
    w = mh.FluxAugmentedWeight(fld, mh.select_eta_log(fld))
    ops.append(_hardy_op("singular", mh, fld, w, mh.Grid.geometric(-1e8, -1e-2, 3000)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _hardy_op(name, mh, fld, w, grid):
    return Op(
        f"hardy.{name}",
        lambda: mh.spectral.hardy_constant(fld, w, grid, range(-3, 4), 1),
        lambda est: oracles.check_hardy(fld, w, grid.t, 1, est.per_mode_minima),
    )


def _count(rng, ctx):
    mh = ctx.mh
    bump = mh.BumpField(float(rng.uniform(0.2, 0.8)))
    depth, width = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.2))
    well = mh.GaussianWell(depth, width)
    lams = np.geomspace(1e2, 1e4, 5) / (depth * width * width)
    sigma = float(rng.uniform(1.5, 3.0))
    vs = mh.VSigma(sigma)
    fine = mh.Grid.uniform(-12.0, 3.0, 6001)
    coarse = mh.Grid.uniform(-12.0, 3.0, 3001)
    readme = mh.Grid.auto(-400.0, 0.5, 6000)

    def sweep(V, sig):
        return lambda res: [
            msg
            for rep in res.reports
            for msg in oracles.check_phase(bump, V, rep.lam, rep.per_mode, vsigma=sig)
        ]

    def count(V, lam, grid, method):
        return lambda: mh.counting.count_total(bump, V, lam, grid, method=method)

    ops = [
        Op(
            "count.gauss.phase_sweep",
            lambda: mh.counting.sweep_exponent(bump, well, lams, method="phase"),
            sweep(well, None),
        )
    ]
    for k, lam in enumerate(lams):
        ops.append(
            Op(
                f"count.gauss.inertia{k}",
                count(well, lam, fine, "inertia"),
                lambda rep, lam=lam: oracles.check_inertia(bump, well, lam, fine.t, rep.per_mode),
            )
        )
    ops.append(
        Op(
            "count.gauss.prufer",
            count(well, lams[0], coarse, "prufer"),
            lambda rep: oracles.check_prufer(bump, well, lams[0], coarse.t, rep.per_mode),
        )
    )
    vs_lams = np.geomspace(10.0, 1e4, 7)
    ops.append(
        Op(
            "count.vsigma.phase_sweep",
            lambda: mh.counting.sweep_exponent(bump, vs, vs_lams, method="phase"),
            sweep(vs, sigma),
        )
    )
    ops.append(
        Op(
            "count.vsigma.inertia",
            count(vs, 50.0, readme, "inertia"),
            lambda rep: oracles.check_inertia(bump, vs, 50.0, readme.t, rep.per_mode),
        )
    )
    return ops


def _vnorm(rng, ctx):
    mh = ctx.mh
    sigma = float(rng.uniform(1.5, 3.0))
    V = mh.VSigma(sigma)
    well = mh.GaussianWell(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.2)))
    scale = float(rng.uniform(2.0, 8.0))  # the homogeneity check's lambda
    bump = mh.BumpField(0.5)
    ladder = np.geomspace(10.0, 1e4, 7)

    def vnorm(name, pot, a, doublings, schedule="double"):
        def run(p):
            return mh.weights.v_norm_a(p, a, -100.0, doublings, cap_schedule=schedule)

        return Op(
            f"vnorm.{name}",
            lambda: run(pot),
            lambda res: oracles.check_homogeneity(
                res.value, run(mh.ScaledPotential(pot, scale)).value, scale
            ),
        )

    def verify_check(table):
        bad = []
        for row in table["rows"]:
            bad += oracles.check_phase_total(bump, sigma, row["lambda"], row["N"])
        return bad

    return [
        vnorm("vsigma.a_sigma", V, sigma, 3),
        vnorm("vsigma.square", V, 0.75 * sigma, 2, "square"),
        vnorm("gauss", well, sigma, 1),
        Op(
            "vnorm.threshold_curve",
            lambda: mh.weights.threshold_curve(V, sigma),
            lambda res: oracles.check_curve_homogeneity(
                res, mh.weights.threshold_curve(mh.ScaledPotential(V, scale), sigma), scale, sigma
            ),
        ),
        Op(
            "vnorm.bound_jst",
            lambda: mh.counting.bound_jst(V),
            lambda res: oracles.check_bound(V, res.cap_sequence),
        ),
        Op(
            "vnorm.verify_counting_bound",
            lambda: mh.counting.verify_counting_bound(bump, V, sigma, ladder),
            verify_check,
        ),
    ]


# ---------------------------------------------------------------------------
# cli-cold: each README line in a fresh interpreter
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    compute_s: float  # the report's own wall_clock_s
    wall_s: float
    maxrss_kb: int


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd, stdout_path, stderr_path, timeout=CLI_TIMEOUT_S):
    """Run a child to completion; returns (exit code, wall s, peak RSS kB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _cli_cold(rng, ctx):
    env = child_env(ctx.root)
    shim = ctx.root / "perfbench" / "cli_child.py"
    ops = []
    for i, line in enumerate(CLI_LINES):
        sub, *rest = line.split()
        out_dir = ctx.work / f"cli-out-{i}"

        def call(sub=sub, rest=rest, out_dir=out_dir, i=i):
            args = [sub, "--out", str(out_dir), *rest]
            trace_file = ctx.work / f"cli-trace-{i}.json"
            if ctx.tracer is None:
                argv = [sys.executable, "-m", "maghardy.cli", *args]
            else:
                argv = [sys.executable, str(shim), str(trace_file), *args]
            so, se = ctx.work / f"cli-{i}.out", ctx.work / f"cli-{i}.err"
            code, wall, rss = run_child(argv, env, ctx.work, so, se)
            if ctx.tracer is not None and trace_file.exists():
                ctx.tracer.merge(json.loads(trace_file.read_text()))
                trace_file.unlink()
            stdout = so.read_text()
            compute = 0.0
            for text in se.read_text().splitlines():
                if text.startswith("report: "):
                    report = json.loads(Path(text[len("report: "):]).read_text())
                    compute = float(report["wall_clock_s"])
            return CliResult(code, stdout, compute, wall, rss)

        ops.append(
            Op(
                f"cli.{sub}",
                call,
                lambda res: oracles.check_cli(res.code, res.stdout),
            )
        )
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
