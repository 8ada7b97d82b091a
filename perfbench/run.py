"""perfbench: the repo's one layered SSRQ benchmark.

    python3 perfbench/run.py [--seed 7] [--workload NAME] [--out results.json]
                             [--no-trace] [--smoke] [--repeat N]

runs every workload (or one), each in a fresh process: an untraced pass
for the end-to-end metrics, a traced pass for the per-layer metrics, an
answer check, and prints every metric by name with its unit.  Timings
are in reference-speed seconds (``perfbench/hostspeed.py``): divided by
the host's time dilation, measured beside every op.

The benchmark driver calls the same file as

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics
for ``--trace 1``).
"""

from __future__ import annotations

import sys
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: replace the script directory on the path, so that
    # perfbench/trace.py cannot shadow the standard library's ``trace``
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench import spec

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), help="default: all four")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="seconds one timed phase lasts on the reference box "
                             "(sets the op counts; default %(default)s)")
    parser.add_argument("--out", help="write the results JSON here")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass and the layer probes")
    parser.add_argument("--smoke", action="store_true", help=f"tiny run at n={spec.SMOKE_N} (tests)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N fresh processes, print median and quartiles per metric")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one workload, result as the last stdout line")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace (driver mode) needs --workload")
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    return args


# -- reporting ------------------------------------------------------------------


def print_measurement(m) -> None:
    from perfbench import spec
    from perfbench.compare import fmt

    print(f"\n== {m.workload}: {spec.WORKLOADS[m.workload]}")
    print(f"   ops attempted {m.ops_attempted}, failed {m.ops_failed} "
          f"(failed_share {m.ops_failed / max(1, m.ops_attempted):.4f})")
    for metric in spec.END_TO_END:
        if metric.name in m.metrics:
            print(f"   {metric.name:<28} {fmt(m.metrics[metric.name]):>12} {metric.unit:<6} "
                  f"n={m.samples.get(metric.name, 1):<5} {metric.better} is better, bound {metric.bound:.0%}")
    for metric in spec.LAYER:
        if metric.name in m.layer_metrics:
            print(f"     {metric.name:<30} {fmt(m.layer_metrics[metric.name]):>12} {metric.unit}")
    for name, count in m.counters.items():
        print(f"     count {name:<24} {count:>12}")
    for problem in m.problems:
        print(f"   PROBLEM: {problem}")


def measurement_payload(m) -> dict:
    return {
        "metrics": m.metrics,
        "layer_metrics": m.layer_metrics,
        "samples": m.samples,
        "counters": m.counters,
        "ops_attempted": m.ops_attempted,
        "ops_failed": m.ops_failed,
        "spans_file": m.spans_file,
        "problems": m.problems,
    }


def driver_line(m, traced: bool) -> str:
    """The result object of the driver contract."""
    from perfbench import spec

    if traced:
        values = {**m.layer_metrics, **m.metrics}
        # a layer this workload does not exercise did no work: 0
        metrics = {
            metric.name: {"value": values.get(metric.name, 0.0), "unit": metric.unit}
            for metric in spec.DRIVER_PER_LAYER
        }
    else:
        metrics = {
            metric.name: {"value": m.metrics[metric.name], "unit": metric.unit}
            for metric in spec.GATED
        }
    return json.dumps(
        {
            "correct": m.correct,
            "attempted": m.ops_attempted,
            "failed": m.ops_failed,
            "metrics": metrics,
        }
    )


# -- several measurements: one fresh process each ---------------------------------


def run_children(args, names: list) -> int:
    """One fresh process of this script per (repeat, workload), as the
    driver runs it: peak RSS, import time and the planner's learned
    state then belong to that workload alone.  Merges the children's
    results; with ``--repeat`` prints median and quartiles per metric."""
    from perfbench import harness
    from perfbench.compare import fmt, spread

    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    out = harness.WORK_DIR / f"child-{os.getpid()}.json"
    base = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", str(out)]
    base += ["--no-trace"] * args.no_trace + ["--smoke"] * args.smoke
    runs, status = [], 0
    for i in range(args.repeat):
        run: dict = {}
        if args.repeat > 1:
            print(f"-- run {i + 1}/{args.repeat}", flush=True)
        for name in names:
            quiet = subprocess.DEVNULL if args.repeat > 1 else None
            status |= subprocess.run(base + ["--workload", name], stdout=quiet).returncode
            if out.exists():
                child = json.loads(out.read_text())
                out.unlink()
                child["workloads"] = {**run.get("workloads", {}), **child["workloads"]}
                run = child
        runs.append(run)
    if args.repeat > 1:
        summary: dict = {}
        for run in runs:
            for workload, payload in run.get("workloads", {}).items():
                for kind in ("metrics", "layer_metrics"):
                    for name, value in payload[kind].items():
                        summary.setdefault(workload, {}).setdefault(name, []).append(value)
        print(f"\n{'workload':<12} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
        for workload, metrics in summary.items():
            for name, values in metrics.items():
                q1, mid, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                print(f"{workload:<12} {name:<30} {fmt(mid):>12} {fmt(q1):>12} {fmt(q3):>12} "
                      f"{spread(values) or 0.0:>10.3f}")
    if args.out:
        payload = {"runs": runs} if args.repeat > 1 else runs[0]
        Path(args.out).write_text(json.dumps(payload, indent=1))
    return status


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.workload is None or args.repeat > 1:
        from perfbench import spec

        return run_children(args, [args.workload] if args.workload else list(spec.WORKLOADS))

    import numpy

    import repro  # noqa: F401  (its import time is part of setup_s)
    from perfbench import measure, probes, spec
    from perfbench.hostspeed import HostSpeed

    import_s = time.perf_counter() - _PROCESS_START
    after_imports = HostSpeed()
    after_imports.burst(20)
    import_s /= after_imports.mean_dilation()     # reference-speed seconds
    driver = args.trace is not None
    plan = measure.Plan(
        seed=args.seed,
        seconds=args.seconds,
        n=spec.SMOKE_N if args.smoke else spec.N_USERS,
        traced=bool(args.trace) if driver else not args.no_trace,
        smoke=args.smoke,
        import_s=import_s,
    )
    m = measure.measure(args.workload, plan)
    print_measurement(m)
    if args.out:
        payload = {
            "schema_version": spec.SCHEMA_VERSION,
            "seed": args.seed,
            "seconds": args.seconds,
            "n": plan.n,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            **probes.host_calibration(),
            "workloads": {args.workload: measurement_payload(m)},
        }
        Path(args.out).write_text(json.dumps(payload, indent=1))
    if driver:
        print(driver_line(m, plan.traced), flush=True)
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())
