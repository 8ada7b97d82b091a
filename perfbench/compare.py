"""Compare two perfbench results.

    python3 perfbench/compare.py BASE.json HEAD.json

Each file is what ``run.py --out`` wrote: one run, or the ``runs`` of
``--repeat N``.  The first table has one row per (workload, end-to-end
metric): base median, head median, head/base, and a verdict from the
bound pinned in ``spec.py``:

- ``regressed`` / ``improved``: the medians differ by more than the bound;
- ``unchanged``: they do not;
- ``unresolved``: either side's own spread (inter-quartile range over
  its median, needs ``--repeat``) exceeds the bound, so the runs cannot
  tell.

``failed_share`` regresses on any increase.  The second table lists the
per-layer metrics, grouped by the end-to-end metric each is declared to
move, so a moved end-to-end number can be read against its layers.
Exit status is 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0:1] = [str(ROOT)]     # run as a script

from perfbench import spec  # noqa: E402


def load_runs(path: str) -> list:
    payload = json.loads(Path(path).read_text())
    return payload["runs"] if "runs" in payload else [payload]


def collect(runs: list) -> dict:
    """``{workload: {metric: [values]}}`` over end-to-end and layer
    metrics, plus the synthetic ``failed_share``."""
    out: dict = {}
    for run in runs:
        for workload, payload in run["workloads"].items():
            values = out.setdefault(workload, {})
            for kind in ("metrics", "layer_metrics"):
                for name, value in payload[kind].items():
                    values.setdefault(name, []).append(value)
            share = payload["ops_failed"] / max(1, payload["ops_attempted"])
            values.setdefault("failed_share", []).append(share)
    return out


def spread(values: list) -> "float | None":
    """Inter-quartile range over the median; ``None`` for one run."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def verdict(metric: spec.Metric, base: list, head: list) -> str:
    b, h = statistics.median(base), statistics.median(head)
    spreads = [s for s in (spread(base), spread(head)) if s is not None]
    if spreads and max(spreads) > metric.bound:
        return "unresolved"
    if not b:
        return "unchanged" if not h else "regressed"
    worse = (h - b) / b if metric.better == "lower" else (b - h) / b
    if worse > metric.bound:
        return "regressed"
    if worse < -metric.bound:
        return "improved"
    return "unchanged"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def _ratio(base: float, head: float) -> str:
    return f"{head / base:.3f}x of {fmt(base)}" if base else "n/a"


def end_to_end_rows(base: dict, head: dict) -> list:
    rows = []
    for workload in spec.WORKLOADS:
        b, h = base.get(workload, {}), head.get(workload, {})
        for metric in spec.END_TO_END:
            if metric.name in b and metric.name in h:
                rows.append(
                    (workload, metric.name, metric.unit, statistics.median(b[metric.name]),
                     statistics.median(h[metric.name]), verdict(metric, b[metric.name], h[metric.name]))
                )
        if "failed_share" in b and "failed_share" in h:
            fb, fh = statistics.median(b["failed_share"]), statistics.median(h["failed_share"])
            rows.append((workload, "failed_share", "share", fb, fh,
                         "regressed" if fh > fb else "unchanged"))
    return rows


def layer_rows(base: dict, head: dict) -> list:
    """One row per (layer metric, workload it was measured on), sorted
    by the end-to-end metric it is declared to move."""
    order = {m.name: i for i, m in enumerate(spec.END_TO_END)}
    rows = []
    for metric in spec.LAYER:
        for workload in metric.workloads:
            b, h = base.get(workload, {}).get(metric.name), head.get(workload, {}).get(metric.name)
            if not b or not h:
                continue
            # the first declared target on this workload is the main one
            target = next((t for t in metric.moves if t[1] == workload), metric.moves[0])
            rows.append((order[target[0]], f"{target[0]} -> {target[1]}", metric.name, workload,
                         metric.unit, statistics.median(b), statistics.median(h)))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base_runs, head_runs = load_runs(argv[0]), load_runs(argv[1])
    base, head = collect(base_runs), collect(head_runs)
    print(f"base: {argv[0]} ({len(base_runs)} run(s))   head: {argv[1]} ({len(head_runs)} run(s))")
    if len(base_runs) < 2 or len(head_runs) < 2:
        print("note: a side with one run has no spread; its verdicts rest on the bound alone")
    print(f"\n{'workload':<11} {'metric':<17} {'base':>12} {'head':>12} {'head/base':<24} verdict")
    regressed = False
    for workload, name, unit, b, h, result in end_to_end_rows(base, head):
        regressed |= result == "regressed"
        print(f"{workload:<11} {name:<17} {fmt(b):>12} {fmt(h):>12} {_ratio(b, h):<24} {result}  [{unit}]")
    print(f"\n{'declared to move':<28} {'layer metric':<30} {'workload':<11} {'base':>12} {'head':>12} head/base")
    for _order, target, name, workload, unit, b, h in layer_rows(base, head):
        print(f"{target:<28} {name:<30} {workload:<11} {fmt(b):>12} {fmt(h):>12} {_ratio(b, h)}  [{unit}]")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
