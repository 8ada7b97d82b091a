"""One workload, measured: an untraced pass for the end-to-end metrics,
then (when asked) a traced pass and direct probes for the layers.

Every function here returns or fills a :class:`Measurement`; metric
names are exactly those declared in :mod:`perfbench.spec`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from statistics import median

from perfbench import harness, loadgen, probes, spec, trace, workloads
from perfbench.harness import delta, percentile
from perfbench.hostspeed import HostSpeed, bracketed


@dataclass
class Plan:
    """What one invocation measures."""

    seed: int
    seconds: float
    n: int = spec.N_USERS
    traced: bool = True
    smoke: bool = False
    #: process-start -> imports done, charged to setup_s
    import_s: float = 0.0


@dataclass
class Measurement:
    workload: str
    metrics: dict = field(default_factory=dict)         # end-to-end
    layer_metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)         # metric -> sample count
    counters: dict = field(default_factory=dict)        # raw result-cache counts
    ops_attempted: int = 0
    ops_failed: int = 0
    mismatches: int = 0
    spans_file: "str | None" = None
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.ops_failed == 0


def timed_ops(workload: str, plan: Plan) -> int:
    if plan.smoke:
        return spec.SMOKE_TIMED_OPS[workload]
    return max(3, round(spec.OPS_PER_SECOND[workload] * plan.seconds))


def setup_repeats(plan: Plan) -> int:
    return 1 if plan.smoke else spec.SETUP_REPEATS


def warmup_ops(workload: str, plan: Plan) -> int:
    return (spec.SMOKE_WARMUP_OPS if plan.smoke else spec.WARMUP_OPS)[workload]


def canonical_streams(inputs) -> dict:
    """Fixed-length streams behind the input fingerprint (independent
    of ``--seconds``)."""
    return {
        spec.COLD: workloads.cold_ops(inputs, 200),
        spec.HOT: workloads.hot_ops(inputs, 200),
        spec.MIXED: workloads.mixed_ops(inputs, 0, 200),
    }


def check_fingerprint(inputs, plan: Plan) -> None:
    pinned = spec.FINGERPRINT.get((plan.seed, plan.n))
    if pinned is None:
        return
    actual = workloads.fingerprint(inputs, canonical_streams(inputs))
    if actual != pinned:
        raise SystemExit(
            f"perfbench: generated inputs for seed {plan.seed}, n {plan.n} have fingerprint "
            f"{actual}, pinned {pinned}: the dataset or op generators changed, so numbers "
            "would not be comparable. Re-pin spec.FINGERPRINT in a change of its own."
        )


# -- shared derivations ---------------------------------------------------------


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_metrics(before: dict, after: dict, queries: int) -> "tuple[dict, dict]":
    """Layer metrics that are deltas of the public stats snapshots over
    the timed phase, plus the raw result-cache counts.  (With one
    client those repeat exactly on ``cold_exact``; elsewhere they move
    by a few percent between runs, because the result cache is keyed on
    the planner's *resolved* method and the planner explores on wall
    time: a repeat resolved to another method is a miss.)"""
    out, exact = {}, {}
    social = delta(after, before, "cache", "social")
    lookups = social.get("hits", 0) + social.get("resumes", 0) + social.get("misses", 0)
    out["social.full_hit_share"] = _share(social.get("hits", 0), lookups)
    out["social.resume_share"] = _share(social.get("resumes", 0), lookups)
    out["social.miss_share"] = _share(social.get("misses", 0), lookups)
    out["social.evictions"] = social.get("evictions", 0)
    out["social.bytes"] = after["cache"].get("social", {}).get("bytes", 0)
    hits = delta(after, before, "service", "cache_hits")
    executed = delta(after, before, "service", "executed")
    out["service.result_hit_share"] = _share(hits, queries)
    out["service.result_evictions"] = delta(after, before, "cache", "evictions")
    out["service.executed"] = executed
    per_method = delta(after, before, "service", "per_method")
    for method in ("sfa", "spa", "tsa", "tsa-qc", "bruteforce"):
        out[f"plan.share.{method}"] = _share(per_method.get(method, 0), executed)
    exact.update(
        result_hits=hits,
        result_misses=delta(after, before, "service", "cache_misses"),
        result_evictions=out["service.result_evictions"],
        executed=executed,
    )
    if "stream" in after:
        marks = {
            key: delta(after, before, "stream", key)
            for key in ("noops", "repair_marks", "recompute_marks")
        }
        total = sum(marks.values())
        out["stream.noop_share"] = _share(marks["noops"], total)
        out["stream.repair_share"] = _share(marks["repair_marks"], total)
        out["stream.recompute_share"] = _share(marks["recompute_marks"], total)
        out["service.full_invalidations"] = delta(after, before, "service", "full_invalidations")
    return out, exact


def span_metrics(table: trace.SpanTable, queries: int, moves: int) -> dict:
    """Layer metrics read off the traced pass's spans."""
    out = {}
    per_query = 1.0 / queries if queries else 0.0
    out["backend.calls_per_query"] = table.count_by_layer.get("backend", 0) * per_query
    out["backend.self_ms"] = table.self_by_layer.get("backend", 0.0) * per_query * 1e3
    out["core.engine_query_ms"] = table.mean("core.engine_query") * 1e3
    core_query_self = table.self_by_layer.get("core", 0.0) - table.self_of("core.move_user")
    out["core.self_ms"] = core_query_self * per_query * 1e3
    out["plan.resolve_us"] = table.mean("plan.resolve") * 1e6
    out["social.acquire_us"] = table.mean("social.acquire") * 1e6
    out["service.overhead_us"] = (
        table.self_of("service.query", "service.query_many") * per_query * 1e6
    )
    if moves:
        out["core.move_us"] = table.self_of("core.move_user") / moves * 1e6
        out["service.move_self_us"] = (
            table.self_of("service.move_user", "service.cache_screen") / moves * 1e6
        )
        out["stream.flush_ms"] = table.mean("stream.flush") * 1e3
    return out


def _latency_metrics(m: Measurement, prefix: str, values: list, quantiles=(50, 95)) -> None:
    """``values``: reference-speed seconds per op."""
    for q in quantiles:
        m.metrics[f"{prefix}_p{q}_ms"] = percentile(values, q / 100) * 1e3
        m.samples[f"{prefix}_p{q}_ms"] = len(values)


def _relative(path) -> str:
    """``path`` as recorded in results: relative to the checkout."""
    return str(path.relative_to(harness.WORK_DIR.parent.parent))


def _spans_path(workload: str, plan: Plan):
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    return harness.WORK_DIR / f"spans-{workload}-seed{plan.seed}-{os.getpid()}.json"


# -- in-process workloads -------------------------------------------------------


def _streams(workload: str, inputs, plan: Plan) -> "tuple[list, list]":
    warm, count = warmup_ops(workload, plan), timed_ops(workload, plan)
    if workload == spec.COLD:
        ops = workloads.cold_ops(inputs, warm + count)
    elif workload == spec.HOT:
        ops = workloads.hot_ops(inputs, warm + count)
    else:
        ops = workloads.mixed_ops(inputs, warm, count)
    return ops[:warm], ops[warm:]


def measure_inprocess(workload: str, plan: Plan) -> Measurement:
    m = Measurement(workload)
    stack, build_times, _ = harness.build_stack_repeated(plan.n, setup_repeats(plan))
    inputs = workloads.inputs_from_dataset(stack.dataset, plan.seed)
    check_fingerprint(inputs, plan)
    warm, timed = _streams(workload, inputs, plan)
    subscribe_s = 0.0
    if workload == spec.MIXED:
        _, subscribe_s = bracketed(lambda: harness.subscribe_hot_users(stack, inputs))

    # pass A: untraced, the end-to-end numbers
    a = harness.run_pass(stack, warm, timed)
    timed = timed[: a.executed]
    m.ops_attempted = len(timed)
    m.metrics["setup_s"] = plan.import_s + median(build_times) + subscribe_s + a.warmup_s
    m.samples["setup_s"] = len(build_times)
    m.metrics["ops_per_s"] = len(timed) / a.busy_s
    m.samples["ops_per_s"] = len(timed)
    _latency_metrics(m, "query", a.latencies["q"], (50, 90, 95))
    if workload == spec.MIXED:
        _latency_metrics(m, "move", a.latencies["m"])
        _latency_metrics(m, "edge", a.latencies["e"], (50,))
    m.metrics["peak_rss_mb"] = a.peak_rss_mb
    m.samples["peak_rss_mb"] = 1
    layer, m.counters = counter_metrics(a.before, a.after, len(a.latencies["q"]))
    m.layer_metrics.update(layer)
    m.layer_metrics["host.dilation"] = a.dilation
    unseen = _unseen_users(inputs, warm + timed)
    if workload == spec.COLD and plan.traced:
        # (the driver reads warm_start_s from traced runs only, and
        # five restarts cost as much as a third of the timed ops)
        restart = harness.measure_restart(stack, (unseen[0], 10, 0.3))
        m.metrics["warm_start_s"] = restart["warm_start_s"]
        m.samples["warm_start_s"] = restart["samples"]
        m.mismatches += restart["mismatches"]
        for name in ("store.save_s", "store.load_s", "store.bytes_per_user"):
            m.layer_metrics[name] = restart[name]
    stack.close()

    if plan.traced:
        _traced_inprocess(m, workload, plan, inputs, warm, timed, a, unseen)

    mirror = harness.build_mirror(plan.n)
    m.mismatches += harness.verify(mirror, warm + timed, a.samples)
    m.ops_failed = a.failed + m.mismatches
    if m.mismatches:
        m.problems.append(f"{m.mismatches} answers differ from bruteforce on the mirror engine")
    return m


def _unseen_users(inputs, ops: list) -> list:
    """Located users no op of this run touches, coldest Zipf rank
    first (the probes must not meet a cached column or result)."""
    touched = {op[1] for op in ops} | {op[2] for op in ops if op[0] == "e"}
    return [u for u in reversed(inputs.ranked) if u not in touched]


def _traced_inprocess(m, workload, plan, inputs, warm, timed, a, unseen) -> None:
    """Pass B: a fresh stack with the trace installed replays the
    warm-up and the first third of the timed ops."""
    third = timed[: max(1, len(timed) // 3)]
    stack = harness.build_stack(plan.n)
    if workload == spec.MIXED:
        harness.subscribe_hot_users(stack, inputs)
    tracer = trace.Tracer()
    tracer.install(stack.service, stack.registry)
    try:
        b = harness.run_pass(stack, warm, third, tracer)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans() if s["start"] >= b.timed_start]
    path = _spans_path(workload, plan)
    with open(path, "w") as handle:
        json.dump(spans, handle)
    m.spans_file = _relative(path)
    # the file holds clock times; the metrics read off it are brought
    # to reference speed by the traced pass's own mean dilation
    table = trace.SpanTable(spans, scale=1.0 / b.dilation)
    queries, moves = len(b.latencies["q"]), len(b.latencies["m"])
    m.layer_metrics.update(span_metrics(table, queries, moves))
    if workload == spec.MIXED and tracer.screen["moves"]:
        screened = tracer.screen["moves"]
        m.layer_metrics["service.invalidated_per_move"] = tracer.screen["invalidated"] / screened
        m.layer_metrics["service.reused_per_move"] = tracer.screen["reused"] / screened
    m.layer_metrics["trace.overhead_pct"] = (b.busy_s / a.third_busy_s - 1.0) * 100.0
    m.layer_metrics.update(probes.host_calibration())
    if workload == spec.COLD:
        engine = stack.engine
        m.layer_metrics.update(probes.graph_probes(engine, unseen))
        m.layer_metrics.update(probes.build_probes(engine))
        m.layer_metrics.update(probes.backend_probes(engine, unseen[0]))
        sample = spec.SMOKE_FIXED_SAMPLE_USERS if plan.smoke else spec.FIXED_SAMPLE_USERS
        m.layer_metrics.update(probes.fixed_method_sample(engine, unseen, sample))
    stack.close()


# -- http_open ------------------------------------------------------------------


def _rung_report(records: list, duration: float) -> dict:
    ok = [r for r in records if r.ok]
    last = records[-1]
    # a backlogged rung takes longer than its schedule to complete
    duration = max(duration, loadgen.wall_seconds(records))
    return {
        "sent": len(records),
        "ok": len(ok),
        "p95_ms": percentile([r.latency for r in ok], 0.95) * 1e3,
        "achieved_rps": len(ok) / duration,
        #: how long after it was due the rung's last request left
        "backlog_ms": (last.sent - last.ref) * 1e3,
    }


def rung_passes(report: dict) -> bool:
    return (
        report["p95_ms"] <= spec.HTTP_P95_LIMIT_MS
        and report["ok"] >= spec.HTTP_COMPLETED_SHARE * report["sent"]
        and report["backlog_ms"] <= spec.HTTP_P95_LIMIT_MS
    )


def max_rate_ok(reports: list) -> float:
    """Highest rung with every lower rung passing (0 when the first
    rung fails)."""
    best = 0.0
    for rate, report in zip(spec.HTTP_LADDER_RPS, reports):
        if not rung_passes(report):
            break
        best = rate
    return best


def _collect_answers(records: list, offset: int, ops: list) -> list:
    return [
        (offset + i, ops[i][1:], *r.answer)
        for i, r in enumerate(records)
        if r.answer is not None
    ]


def _reference_latencies(records: list, speed: HostSpeed) -> list:
    """Each closed-loop request's latency in reference-speed seconds,
    by the slices the generator ran between requests."""
    middles = [(r.ref + r.done) / 2 for r in records]
    return [r.latency / x for r, x in zip(records, speed.dilations(middles))]


def measure_http(plan: Plan) -> Measurement:
    m = Measurement(spec.HTTP)
    warm_count, count = warmup_ops(spec.HTTP, plan), timed_ops(spec.HTTP, plan)
    rung_s = spec.SMOKE_RUNG_SECONDS if plan.smoke else spec.HTTP_RUNG_SHARE * plan.seconds
    rungs = [(rate, rung_s) for rate in spec.HTTP_LADDER_RPS] if plan.traced else []
    schedule = workloads.poisson_schedule(plan.seed, rungs)

    inputs = workloads.inputs_from_dataset(workloads.make_dataset(plan.n), plan.seed)
    check_fingerprint(inputs, plan)
    stream = workloads.hot_ops(inputs, warm_count + count + sum(len(due) for due in schedule))
    warm, timed = stream[:warm_count], stream[warm_count:warm_count + count]
    cursor = warm_count + count

    around_boot = HostSpeed()
    around_boot.burst(10)
    with loadgen.ServerProcess(plan.n, builds=setup_repeats(plan)) as server:
        around_boot.burst(10)       # slices either side of the server's boot
        port = server.port
        warm_speed = HostSpeed()
        warm_records = loadgen.drive(port, warm, 1, speed=warm_speed)
        warmup_s = sum(_reference_latencies(warm_records, warm_speed))
        rtt_floor_ms = loadgen.healthz_p50_ms(port)

        # the bounded numbers: closed loop, one connection
        before = loadgen.get_stats(port)
        speed = HostSpeed()
        closed = loadgen.drive(port, timed, 1, speed=speed)
        after = loadgen.get_stats(port)
        timed = timed[: len(closed)]
        samples = _collect_answers(closed, warm_count, timed)
        sent = list(closed)

        # the open-loop ladder (traced runs): layer metrics
        reports = []
        ladder_connections = min(os.cpu_count() or 1, spec.HTTP_LADDER_CONNECTIONS)
        for (_rate, duration), due in zip(rungs, schedule):
            ops = stream[cursor:cursor + len(due)]
            records = loadgen.drive(port, ops, ladder_connections, due)
            samples += _collect_answers(records, cursor, ops)
            cursor += len(due)
            reports.append((_rung_report(records, duration), records))
            sent += records
        after_ladder = loadgen.get_stats(port)
        exit_report = server.stop()
        ready, boot_s = server.ready, server.boot_s

    m.ops_attempted = len(sent)
    failed = sum(1 for r in sent if not r.ok)
    # spawn + import (clock time, brought to reference speed by the
    # bracket around the boot) + the median build + the warm-up
    builds = ready["build_s"]
    spawn_import_s = (boot_s - sum(ready["build_raw_s"])) / around_boot.mean_dilation()
    m.metrics["setup_s"] = spawn_import_s + median(builds) + warmup_s
    m.samples["setup_s"] = len(builds)
    latencies = _reference_latencies(closed, speed)
    m.metrics["ops_per_s"] = len(closed) / sum(latencies)
    m.samples["ops_per_s"] = len(closed)
    _latency_metrics(m, "query", [x for r, x in zip(closed, latencies) if r.ok], (50, 90, 95))
    m.metrics["peak_rss_mb"] = exit_report["peak_rss_mb"]
    m.samples["peak_rss_mb"] = 1
    layer, m.counters = counter_metrics(before, after, len(closed))
    m.layer_metrics.update(layer)
    m.layer_metrics["host.dilation"] = speed.mean_dilation()
    m.layer_metrics["server.rtt_floor_ms"] = rtt_floor_ms

    if plan.traced:
        _ladder_metrics(m, plan, reports, after, after_ladder)
        _traced_http(m, plan, warm, timed, latencies)

    mirror = harness.build_mirror(plan.n)
    m.mismatches = harness.verify(mirror, stream, samples)
    m.ops_failed = failed + m.mismatches
    if m.mismatches:
        m.problems.append(f"{m.mismatches} answers differ from bruteforce on the mirror engine")
    if failed:
        m.problems.append(f"{failed} requests did not return 200")
    return m


def _ladder_metrics(m, plan, reports, before: dict, after: dict) -> None:
    ladder_sent = sum(report["sent"] for report, _ in reports)
    for i, (report, _records) in enumerate(reports):
        m.layer_metrics[f"server.p95_ms.r{i + 1}"] = report["p95_ms"]
        m.layer_metrics[f"server.achieved_rps.r{i + 1}"] = report["achieved_rps"]
        m.samples[f"server.p95_ms.r{i + 1}"] = report["ok"]
    m.layer_metrics["max_rate_ok_rps"] = max_rate_ok([report for report, _ in reports])
    server_stats = delta(after, before, "server")
    operating = reports[spec.HTTP_OPERATING_RUNG][1]
    idle = [r for r in operating if r.idle]
    lag_p95_ms = percentile([r.sent - r.ref for r in idle], 0.95) * 1e3
    m.layer_metrics.update(
        {
            "server.coalesced_share": _share(server_stats["coalesced_requests"], ladder_sent),
            "server.batch_mean": _share(
                server_stats["coalesced_requests"], server_stats["coalesced_batches"]
            ),
            "service.dedup_share": _share(
                delta(after, before, "service", "deduplicated"), ladder_sent
            ),
            "server.shed": server_stats["shed"],
            "server.deadline_expired": server_stats["deadline_expired"],
            "loadgen.lag_p95_ms": lag_p95_ms,
            "loadgen.conn_busy_share": 1.0 - _share(len(idle), len(operating)),
        }
    )
    if lag_p95_ms > spec.LOADGEN_MAX_LAG_P95_MS and not plan.smoke:
        m.problems.append(
            f"load generator lag p95 {lag_p95_ms:.2f} ms exceeds the pinned "
            f"{spec.LOADGEN_MAX_LAG_P95_MS} ms: the open-loop numbers are not trusted"
        )


def _traced_http(m, plan, warm, timed, untraced) -> None:
    """A second server with the trace installed replays the warm-up and
    the first third of the timed requests."""
    third = max(1, len(timed) // 3)
    path = _spans_path(spec.HTTP, plan)
    speed = HostSpeed()
    with loadgen.ServerProcess(plan.n, spans=path) as server:
        loadgen.drive(server.port, warm, 1)
        records = loadgen.drive(server.port, timed[:third], 1, speed=speed)
    # perf_counter is CLOCK_MONOTONIC on Linux: one timeline for both
    # processes, so the generator's clock can cut the server's spans
    since = min(r.sent for r in records)
    with open(path) as handle:
        spans = [s for s in json.load(handle) if s["start"] >= since]
    with open(path, "w") as handle:
        json.dump(spans, handle)
    m.spans_file = _relative(path)
    scale = 1.0 / speed.mean_dilation()
    table = trace.SpanTable(spans, scale=scale)
    m.layer_metrics.update(span_metrics(table, len(records), 0))
    roots = [(s["end"] - s["start"]) * scale for s in table.roots()]
    traced = _reference_latencies(records, speed)
    client_p50 = percentile([x for r, x in zip(records, traced) if r.ok], 0.50)
    m.layer_metrics["server.query_overhead_ms"] = (client_p50 - percentile(roots, 0.50)) * 1e3
    m.layer_metrics["trace.overhead_pct"] = (sum(traced) / sum(untraced[:third]) - 1.0) * 100.0
    m.layer_metrics.update(probes.host_calibration())


def measure(workload: str, plan: Plan) -> Measurement:
    if workload == spec.HTTP:
        m = measure_http(plan)
    else:
        m = measure_inprocess(workload, plan)
    expected = [e.name for e in spec.END_TO_END if workload in e.workloads]
    if plan.traced:
        expected += [l.name for l in spec.LAYER if workload in l.workloads]
    else:
        expected = [name for name in expected if name != "warm_start_s"]   # measured when traced
    values = {**m.layer_metrics, **m.metrics}
    for name in expected:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            m.problems.append(f"metric {name} is missing or not finite ({value!r})")
    return m
