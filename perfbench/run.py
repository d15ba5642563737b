#!/usr/bin/env python3
"""lieform benchmark: run one workload for a fixed time and report metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vortex-weno7 --seed 1 \
        --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
is the separate traced run: it times untraced and traced repeats, wraps
lieform's public functions in spans and reports the per-layer metrics.
Metric names, units and directions are declared in BENCHMARK.json at the
checkout root; perfbench/README.md explains each one. Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full record of
the run, spans included, goes to .perfbench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported; the
# set-up probes inherit the same environment.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPEATS = 3
# p95 is taken within each repeat and needs at least 10 samples beyond
# it, so every repeat must time at least 200 steps.
MIN_STEP_SAMPLES = 200
WARMUP_STEPS = 10       # per leg; the first WENO call runs ~40% slow
ALLOC_STEPS = 4         # per leg, for the tracemalloc pass
SETUP_PROBES = 9        # timed fresh interpreters per run, after one warm-up
TRACE_SETUP_PROBES = 3
# Share of traced run_s that the layer spans may leave unaccounted for.
MAX_UNATTRIBUTED = 0.05
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    from inputs import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def probe_setup(name: str, seed: int) -> dict:
    """Time set-up once in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)]
    done = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_scipy_import_s() -> float:
    """Cumulative import time of the outermost scipy modules under
    `python -X importtime -c 'import lieform'`."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lieform"],
        env=child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)
    # Lines come in post-order: a module's imports precede it, indented
    # two spaces deeper. Pop finished children to find each one's parent.
    stack = []          # (depth, name, cumulative_us)
    total_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self_us, cum, raw = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue            # the column header
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        name = raw.strip()
        while stack and stack[-1][0] > depth:
            child = stack.pop()
            if child[1].split(".")[0] == "scipy" and name.split(".")[0] != "scipy":
                total_us += child[2]
        stack.append((depth, name, int(cum)))
    total_us += sum(c for _, n, c in stack if n.split(".")[0] == "scipy")
    return total_us / 1e6


@dataclasses.dataclass
class Repeat:
    """One timed repeat. The outcome itself is dropped after its check, so
    that memory does not grow with the number of repeats."""

    wall_s: float
    cpu_s: float      # process CPU time: wall minus this is time not run
    problems: list
    step_s: list      # per-step wall times of this repeat
    l1: float = float("nan")
    bytes_written: int = 0


def timed_repeat(wl, tracer=None) -> Repeat:
    """Run the workload once. Only the run is timed; the output check
    follows after the clock stops."""
    from workloads import StepClock
    wl.reset()
    clock = StepClock()
    scope = tracer.root("bench.repeat") if tracer else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with scope:
            outcome = wl.run(clock)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = wl.check(outcome)
        return Repeat(wall, cpu, problems, clock.samples, outcome.l1,
                      outcome.bytes_written)
    except Exception:   # a failing repeat is counted, not fatal
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Repeat(wall, cpu, [traceback.format_exc()], clock.samples)


def measure(wl, seconds: float, between) -> list[Repeat]:
    """Repeat the workload until `seconds` have passed, at least
    MIN_REPEATS times; `between(elapsed_share)` runs before each repeat."""
    repeats = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(repeats) >= MIN_REPEATS:
            return repeats
        between(elapsed / seconds)
        repeats.append(timed_repeat(wl))


def ok_repeats(repeats) -> list[Repeat]:
    return [r for r in repeats if not r.problems]


def median_wall(repeats) -> float:
    walls = [r.wall_s for r in ok_repeats(repeats)]
    return statistics.median(walls) if walls else float("nan")


def best_step_s(repeats):
    """Each step's fastest wall time over the run's passing repeats.

    Every repeat runs the same steps in the same order, so step k of one
    repeat does the same work as step k of another. Load from other
    tenants of a shared host only ever adds time to a step, and on a
    2-vCPU virtual machine it slowed the same step by up to 1.5x from
    one second to the next. The fastest of a step's repeats is the best
    estimate of lieform's own cost for that step.
    """
    import numpy as np
    samples = [r.step_s for r in ok_repeats(repeats) if r.step_s]
    if not samples or len({len(s) for s in samples}) != 1:
        return None
    return np.min(samples, axis=0)


def end_to_end(wl, repeats, setup_runs) -> dict:
    """The end-to-end metrics. The step-time percentiles are taken over
    the steps of one repeat, each step timed as its fastest over the
    run's repeats (`best_step_s`). run_s adds up those step times and the
    shortest time a repeat spent outside its timed steps."""
    import numpy as np
    ok = ok_repeats(repeats)
    best = best_step_s(repeats)
    if best is None:
        run_s = p50 = p95 = float("nan")
    else:
        outside = min(r.wall_s - sum(r.step_s) for r in ok)
        run_s = float(best.sum()) + outside
        p50, p95 = np.percentile(best, [50, 95]) * 1e9 / wl.cells
    return {
        "setup_s": (statistics.median(r["total"] for r in setup_runs), "s"),
        "run_s": (run_s, "s"),
        "ns_per_cell_step.p50": (float(p50), "ns"),
        "ns_per_cell_step.p95": (float(p95), "ns"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "l1_error": (ok[0].l1 if ok else float("nan"), "1"),
    }


def consistency_problems(repeats) -> list[str]:
    """Every repeat of one run must produce the same bits and time the
    same number of steps."""
    ok = ok_repeats(repeats)
    problems = []
    l1s = {r.l1 for r in ok}
    if len(l1s) > 1:
        problems.append(f"l1 differs between repeats: {sorted(l1s)}")
    counts = {len(r.step_s) for r in ok}
    if len(counts) > 1:
        problems.append(f"repeats timed different step counts: {sorted(counts)}")
    return problems


def run_traced(wl, args) -> tuple[dict, list, dict, list]:
    import tracing
    from workloads import CliWorkload, StepClock

    setup_runs = [probe_setup(args.workload, args.seed)
                  for _ in range(TRACE_SETUP_PROBES)]
    # Untraced and traced repeats alternate, so that both see the same
    # machine load and their ratio is the cost of tracing.
    tracer = tracing.Tracer()
    untraced: list[Repeat] = []
    traced: list[Repeat] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(traced) < MIN_REPEATS):
        untraced.append(timed_repeat(wl))
        with tracer.installed():
            traced.append(timed_repeat(wl, tracer))
    allocs: list[int] = []
    wl.reset()
    with tracing.reconstruct_peak_alloc(allocs):
        wl.run(StepClock(), steps=ALLOC_STEPS)

    spans = tracer.spans
    agg = tracing.summarize(spans)
    ok_bytes = [r.bytes_written for r in ok_repeats(traced)]
    metrics = tracing.per_layer_metrics(
        spans, agg,
        traced_total_s=agg["bench.repeat"]["total_s"],
        peak_alloc_bytes=max(allocs, default=0),
        bytes_written=statistics.median(ok_bytes) if ok_bytes else 0,
        setup_runs=setup_runs,
        builds_in_scenarios=isinstance(wl, CliWorkload),
        import_scipy_s=probe_scipy_import_s(),
        overhead_ratio=median_wall(traced) / median_wall(untraced))
    detail = {"spans": spans, "span_summary": agg,
              "untraced_run_s": [r.wall_s for r in untraced],
              "traced_run_s": [r.wall_s for r in traced],
              "reconstruct_peak_alloc_bytes": allocs,
              "setup_runs": setup_runs}
    unattributed = metrics["trace.unattributed_share"][0]
    problems = []
    if not unattributed <= MAX_UNATTRIBUTED:
        problems.append(f"layer spans leave {unattributed:.1%} of traced "
                        f"run_s unaccounted for (limit {MAX_UNATTRIBUTED:.0%})")
    return metrics, untraced + traced, detail, problems


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lieform" / "__init__.py").is_file():
        print(f"error: no lieform sources at {SRC}; run from the root of a "
              "lieform checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    context = machine_context()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {json.dumps(context, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT / "work")
    # Warm up: write bytecode caches for the set-up probes and run the
    # kernels once, since the first WENO call at 128^2 runs ~40% slow.
    probe_setup(args.workload, args.seed)
    wl.reset()
    wl.run(workloads.StepClock(), steps=WARMUP_STEPS)

    problems: list[str] = []
    if args.trace:
        metrics, repeats, detail, problems = run_traced(wl, args)
    else:
        setup_runs: list[dict] = []

        def probe_due(share: float) -> None:
            # Spread the set-up probes over the run, so that they see the
            # same machine load as the repeats.
            while len(setup_runs) < SETUP_PROBES * min(share, 1.0):
                setup_runs.append(probe_setup(args.workload, args.seed))

        repeats = measure(wl, args.seconds, between=probe_due)
        probe_due(1.0)
        metrics = end_to_end(wl, repeats, setup_runs)
        counts = [len(r.step_s) for r in ok_repeats(repeats)]
        detail = {"setup_runs": setup_runs,
                  "run_s": [r.wall_s for r in repeats],
                  "run_cpu_s": [r.cpu_s for r in repeats],
                  "steps_per_repeat": counts}
        if min(counts, default=0) < MIN_STEP_SAMPLES:
            problems.append(f"a repeat timed fewer than {MIN_STEP_SAMPLES} "
                            f"steps: {counts}")
    wl.reset()
    failed = sum(1 for r in repeats if r.problems)
    problems += consistency_problems(repeats)
    for r in repeats:
        problems += r.problems

    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        raise SystemExit(f"error: metrics {sorted(emitted.items())} do not "
                         f"match BENCHMARK.json {sorted(declared.items())}")
    correct = not problems and all(v == v for v, _ in metrics.values())

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context, "correct": correct,
        "attempted": len(repeats), "failed": failed,
        "fail_ratio": failed / len(repeats) if repeats else 1.0,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    } | detail
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n")

    for problem in problems:
        print(f"! {problem.strip()}")
    if not args.trace:
        counts = detail["steps_per_repeat"]
        print(f"repeats: {len(repeats)}  steps timed per repeat: "
              f"{min(counts, default=0)}..{max(counts, default=0)}  "
              f"set-up probes: {len(detail['setup_runs'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<58} {record['fail_ratio']:>14.6g} 1")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(repeats), "failed": failed,
        "metrics": {k: {"value": v if v == v else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
