"""airsplit benchmark: train-step, eval and regret timings, plus a layer trace.

Usage::

    python3 perfbench/run.py --workload {massive64,designs16,regret} \\
        --seed N --seconds S --trace {0,1}

One process, one caller, closed loop: each ``train_batch`` starts when the
previous one returned, and BLAS runs on one thread.  A run repeats whole
passes of the workload (one ``run_experiment`` per config, or one
``regret_experiment``) for ``--seconds`` after one warm-up pass, and checks
every pass's outputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times untraced
passes for half the time, then runs two traced passes and prints per-layer
metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; any failed check
makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median, quantiles

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread for the closed loop's single caller.  On a shared 2-vCPU
# host a second OpenBLAS thread spins on the other vCPU and widened the
# massive64 step tail (p90 54-63 ms against 41-45 ms with one thread, runs
# interleaved) without lowering the median.  Set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

try:
    import tracer
    import workloads
except ImportError as exc:           # e.g. no airsplit sources next to us
    sys.exit(f"error: {exc}")

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TRACED_PASSES = 2
PROBE_TIMEOUT_S = 120
TRAIN_STEP = "runtime.SplitSystem.train_batch"
EVALUATE = "runtime.SplitSystem.evaluate"

# The metrics BENCHMARK.json bounds.  step_ms_p90 is printed but not bounded:
# on a shared host its run-to-run spread reached 0.56 of its median.
END_TO_END = {"setup_s": "s", "step_ms_p50": "ms", "run_s": "s", "peak_rss_mb": "MB"}


def git_commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    np = workloads.np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        libs = {"blas": "unknown", "lapack": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__, **libs,
            "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit()}


def p90(xs):
    return quantiles(xs, n=10)[-1]


def step_p50(passes) -> float:
    """Median over passes of each pass's mean step latency.

    Step latency on a shared host switches between a fast and a slow state
    for seconds at a time, so the median of single steps jumps between the
    two; a pass mean moves smoothly with the share of time spent slow.
    """
    return median([fmean(p[2]) for p in passes])


class Checks:
    """Counts checks made and keeps the message of every failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def extend(self, count: int, failures) -> None:
        self.attempted += count
        self.failures.extend(failures)


def setup_seconds(args, checks: Checks) -> list:
    """Cold set-up time of the workload, measured in fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), "1" if args.tiny else "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        checks.add(proc.returncode == 0, f"setup probe failed: {proc.stderr.strip()}")
        if proc.returncode == 0:
            out.append(float(proc.stdout.strip()))
    return out


class Runner:
    """Runs passes of one workload and keeps the digest of each."""

    def __init__(self, args, out_dir: Path):
        self.args = args
        self.out_dir = out_dir
        self.steps = workloads.steps_per_pass(args.workload, args.seed, args.tiny)
        self.digests: list = []

    def run(self, checks: Checks, spans):
        """One pass: (pass result, wall seconds, step and eval samples in ms)."""
        spans.clear()
        t0 = time.perf_counter()
        res = workloads.run_pass(self.args.workload, self.args.seed, self.out_dir,
                                 self.args.tiny)
        wall = time.perf_counter() - t0
        checks.extend(res.checks, res.failures)
        self.digests.append(res.digest)
        if self.args.workload == "regret":
            steps = [1e3 * wall / self.steps]
        else:
            steps = spans.durations_ms(TRAIN_STEP)
        return res, wall, steps, spans.durations_ms(EVALUATE)

    def timed(self, checks: Checks, spans, seconds: float) -> list:
        """A warm-up pass, then passes until ``seconds`` ran (at least two)."""
        self.run(checks, spans)
        passes = []
        t0 = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - t0 < seconds:
            passes.append(self.run(checks, spans))
        return passes

    def check_digests(self, checks: Checks) -> None:
        checks.add(len(set(self.digests)) == 1,
                   f"{len(set(self.digests))} different output digests "
                   f"over {len(self.digests)} passes of one seed")


def measure(args, runner: Runner, checks: Checks):
    """End-to-end metrics, tracing off except the train-step and eval timers."""
    setup = setup_seconds(args, checks)
    with tracer.Tracer(only=tracer.ROOTS) as timer:
        passes = runner.timed(checks, timer, args.seconds)
    runner.check_digests(checks)
    steps = [s for p in passes for s in p[2]]
    evals = [e for p in passes for e in p[3]]
    metrics = {
        "setup_s": median(setup) if setup else float("nan"),
        "step_ms_p50": step_p50(passes),
        "run_s": median([p[1] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    last = passes[-1][0]
    per = "per regret step, " if args.workload == "regret" else ""
    report = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(setup)} cold set-ups"),
        "step_ms_p50": (metrics["step_ms_p50"], "ms",
                        f"{per}median of {len(passes)} pass means, n={len(steps)}"),
        "step_ms_p90": (p90(steps), "ms", f"{per}n={len(steps)}"),
        "eval_ms_p50": (median(evals) if evals else None, "ms", f"n={len(evals)}"),
        "run_s": (metrics["run_s"], "s", f"median of {len(passes)} passes"),
        "eval_accuracy": (None if args.workload == "regret" else last.accuracy,
                          "fraction", "mean final test accuracy"),
        "regret_slope": (last.regret_slope if args.workload == "regret" else None,
                         "1", "worst log-log slope over sigmas"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "ru_maxrss"),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, report


def predictions(workload: str, calls: dict) -> list:
    """(holds, description) for the trace's bypass and mechanism predictions."""
    def n(prefix):
        return sum(c for name, c in calls.items() if name.startswith(prefix))

    if workload == "massive64":
        return [(n("runtime.comm_loss_gradients") > 0, "comm loss runs"),
                (n("linalg.svd") > 0, "svd runs"),
                (n("channel.evolve_channel") == 0, "no channel drift")]
    if workload == "designs16":
        out = [(n("runtime.comm_loss_gradients") == 0, "no comm loss"),
               (n("linalg.svd") == 0, "no svd"),
               (n("channel.evolve_channel") > 0, "channel drifts")]
        for tag in tracer.DESIGN_TAGS:
            out.append((n(f"oac.OacLayer.forward.{tag}") > 0, f"design {tag} runs"))
        return out
    return [(n("nn.") + n("oac.") + n("channel.") == 0, "no nn, oac or channel calls"),
            (n("runtime.regret_experiment") > 0, "regret_experiment runs")]


def trace(args, runner: Runner, checks: Checks):
    """Per-layer metrics from traced passes, plus the tracing overhead."""
    with tracer.Tracer(only=tracer.ROOTS) as timer:
        untraced = runner.timed(checks, timer, args.seconds / 2)
    root = "runtime.regret_experiment" if args.workload == "regret" else TRAIN_STEP
    totals, traced = [], []
    with tracer.Tracer() as spans:
        for _ in range(TRACED_PASSES):
            traced.append(runner.run(checks, spans))
            totals.append(spans.layer_totals())
            bad = spans.step_sum_mismatches(root)
            checks.add(bad == 0, f"{bad} traced steps whose self times miss the step span")
    runner.check_digests(checks)
    calls = [{k: v["calls"] for k, v in t.items()} for t in totals]
    checks.add(all(c == calls[0] for c in calls[1:]),
               "call counts differ between traced passes")
    for holds, what in predictions(args.workload, calls[0]):
        checks.add(holds, f"trace prediction failed: {what}")
    steps = runner.steps
    metrics = {}
    for name in tracer.layer_names():
        got = [t.get(name, {"calls": 0, "self_ns": 0, "bytes": 0}) for t in totals]
        metrics[f"{name}.calls"] = (got[0]["calls"] / steps, "1/step")
        metrics[f"{name}.self_ms"] = (
            fmean(g["self_ns"] for g in got) / 1e6 / steps, "ms/step")
        if name == "linalg.crandn":
            metrics["linalg.crandn.mb"] = (got[0]["bytes"] / 2**20 / steps, "MB/step")
    metrics["trace_overhead_ms"] = (step_p50(traced) - step_p50(untraced), "ms")
    report = {k: (v, u, "") for k, (v, u) in metrics.items()}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test; timings meaningless")
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    checks = Checks()
    checks.extend(4 if args.workload in workloads.TRAINING else 0,
                  workloads.equivalence_failures(args.workload, args.seed, args.tiny))
    out_dir = workloads.ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        run = trace if args.trace else measure
        metrics, report = run(args, Runner(args, out_dir), checks)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    for name, (value, unit, note) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:10s} {name:58s} {shown:>12s} {unit:9s} {note}")
    error_rate = len(checks.failures) / max(checks.attempted, 1)
    print(f"{args.workload:10s} {'error_rate':58s} {error_rate:12.6g} fraction  "
          f"{len(checks.failures)} of {checks.attempted} checks failed")
    for message in checks.failures:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
