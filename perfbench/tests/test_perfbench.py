"""The benchmark's own checks (collected by tier-1; a few seconds).

They pin the declarations (``spec.py`` <-> ``BENCHMARK.json``), prove
each workload emits every metric it declares on a smoke-sized run, and
exercise the three measuring devices where a silent bug would corrupt
numbers: span self times, the answer check, and the open-loop clock.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, hostspeed, loadgen, measure, run, spec, trace, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- declarations -------------------------------------------------------


def test_declared_names_and_limits():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.GATED) <= 16
    assert len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.DRIVER_PER_LAYER) <= 128
    names = [m.name for m in spec.END_TO_END + spec.LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec.END_TO_END + spec.LAYER:
        assert metric.better in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric.unit
        assert set(metric.workloads) <= set(spec.WORKLOADS)
    for metric in spec.GATED:
        assert 0 < metric.bound <= 0.25
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in spec.GATED)
    assert max(spec.GATED, key=lambda m: m.bound).name == "setup_s"


def test_every_layer_metric_declares_what_it_moves():
    e2e = {m.name: m for m in spec.END_TO_END}
    for metric in spec.LAYER:
        assert metric.moves, f"{metric.name} declares no end-to-end metric it should move"
        for name, workload in metric.moves:
            assert workload in e2e[name].workloads, (metric.name, name, workload)


def test_manifest_matches_benchmark_json():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


# -- inputs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    dataset = workloads.make_dataset(spec.SMOKE_N)
    return dataset, workloads.inputs_from_dataset(dataset, 3)


def test_inputs_are_a_function_of_the_seed(small):
    dataset, inputs = small
    again = workloads.inputs_from_dataset(workloads.make_dataset(spec.SMOKE_N), 3)
    streams = measure.canonical_streams(inputs)
    assert workloads.fingerprint(inputs, streams) == workloads.fingerprint(
        again, measure.canonical_streams(again)
    )
    other = workloads.inputs_from_dataset(dataset, 4)
    assert workloads.fingerprint(other, measure.canonical_streams(other)) != workloads.fingerprint(
        inputs, streams
    )
    # a longer stream extends a shorter one: op counts never reshuffle inputs
    assert workloads.hot_ops(inputs, 50) == workloads.hot_ops(inputs, 80)[:50]
    cold = workloads.cold_ops(inputs, 60)
    assert len({op[1] for op in cold}) == 60, "cold query users must be distinct"
    mixed = workloads.mixed_ops(inputs, 20, 200)
    assert all(op[0] == "q" for op in mixed[:20])
    kinds = {kind: sum(1 for op in mixed[20:] if op[0] == kind) for kind in "qme"}
    assert kinds["m"] > kinds["e"] > 0 and kinds["q"] > kinds["m"]
    schedule = workloads.poisson_schedule(3, [(40.0, 0.5), (80.0, 0.5)])
    assert [len(r) for r in schedule] == [20, 40]
    assert all(r == sorted(r) and 0 <= r[0] and r[-1] < 0.5 for r in schedule)


def test_changed_inputs_fail_fast(small, monkeypatch):
    _dataset, inputs = small
    monkeypatch.setitem(spec.FINGERPRINT, (3, spec.SMOKE_N), "0" * 64)
    with pytest.raises(SystemExit, match="fingerprint"):
        measure.check_fingerprint(inputs, measure.Plan(seed=3, seconds=1, n=spec.SMOKE_N))


# -- every workload emits what it declares ---------------------------------


@pytest.fixture(scope="module")
def smoke_runs():
    plan = measure.Plan(seed=spec.DEFAULT_SEED, seconds=1.0, n=spec.SMOKE_N, traced=True, smoke=True)
    return {name: measure.measure(name, plan) for name in spec.WORKLOADS}


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(smoke_runs, workload):
    m = smoke_runs[workload]
    assert m.problems == [] and m.ops_failed == 0 and m.ops_attempted > 0
    for metric in spec.END_TO_END:
        if workload in metric.workloads:
            assert math.isfinite(m.metrics[metric.name]), metric.name
            assert m.samples[metric.name] >= 1, metric.name
        else:
            assert metric.name not in m.metrics
    for metric in spec.LAYER:
        if workload in metric.workloads:
            assert math.isfinite(m.layer_metrics[metric.name]), metric.name
    assert m.spans_file and json.loads((ROOT / m.spans_file).read_text())


def test_cold_workload_bypasses_both_caches(smoke_runs):
    layer = smoke_runs[spec.COLD].layer_metrics
    assert layer["service.result_hit_share"] == 0
    assert layer["social.full_hit_share"] == 0
    assert smoke_runs[spec.HOT].layer_metrics["service.result_hit_share"] > 0


def _check_contract_line(line: str, declared) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_driver_lines_carry_every_declared_metric(smoke_runs, workload):
    m = smoke_runs[workload]
    _check_contract_line(run.driver_line(m, traced=True), spec.DRIVER_PER_LAYER)
    untraced = run.driver_line(m, traced=False)
    _check_contract_line(untraced, spec.GATED)
    assert all(entry["value"] > 0 for entry in json.loads(untraced)["metrics"].values())


def test_driver_mode_from_the_command_line():
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", spec.HOT,
            "--seed", "5", "--seconds", "1", "--smoke", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    _check_contract_line(done.stdout.splitlines()[-1], spec.GATED)


# -- the measuring devices ---------------------------------------------------


@pytest.fixture(scope="module")
def traced_stack(small):
    _dataset, inputs = small
    stack = harness.build_stack(spec.SMOKE_N)
    harness.subscribe_hot_users(stack, inputs)
    tracer = trace.Tracer()
    tracer.install(stack.service, stack.registry)
    ops = workloads.mixed_ops(inputs, 0, 60)
    result = harness.run_pass(stack, [], ops, tracer)
    tracer.uninstall()
    yield stack, tracer, ops, result
    stack.close()


def test_span_self_times_sum_to_the_root_span(traced_stack):
    _stack, tracer, ops, _result = traced_stack
    spans = tracer.spans()
    roots = [s for s in spans if s["parent"] < 0]
    assert [r["name"] for r in roots] == [
        {"q": "op.query", "m": "op.move", "e": "op.edge"}[op[0]] for op in ops
    ]
    by_op: dict = {}
    for span in spans:
        by_op.setdefault(span["op"], []).append(span)
    for root in roots:
        members = by_op[root["op"]]
        assert sum(s["self"] for s in members) == pytest.approx(root["end"] - root["start"], abs=1e-9)
        assert all(s["self"] >= -1e-9 for s in members)
    layers = {trace.layer_of(s["name"]) for s in spans}
    assert {"op", "service", "core", "plan", "backend", "stream"} <= layers


def test_uninstall_leaves_no_wrapper(traced_stack):
    stack, _tracer, _ops, _result = traced_stack
    for obj in (stack.service, stack.engine, stack.engine.planner, stack.engine.kernels):
        assert not [k for k, v in vars(obj).items() if getattr(v, "__wrapped__", None)]


def test_answer_check_catches_a_corrupted_response(traced_stack):
    _stack, _tracer, ops, result = traced_stack
    assert result.samples
    assert harness.verify(harness.build_mirror(spec.SMOKE_N), ops, result.samples) == 0
    index, key, ids, scores = result.samples[0]
    swapped = [(index, key, [ids[1], ids[0]] + ids[2:], scores)] + result.samples[1:]
    assert harness.verify(harness.build_mirror(spec.SMOKE_N), ops, swapped) == 1
    nudged = [(index, key, ids, [scores[0] + 1e-6] + scores[1:])] + result.samples[1:]
    assert harness.verify(harness.build_mirror(spec.SMOKE_N), ops, nudged) == 1


def test_an_op_is_read_at_the_speed_the_host_had_beside_it():
    speed = hostspeed.HostSpeed()
    compute, memory = hostspeed.REFERENCE_COMPUTE_S, hostspeed.REFERENCE_MEMORY_S
    # a host at reference speed for a second, then twice as slow at
    # compute and four times as slow at memory
    speed.starts = [i * 0.05 for i in range(40)]
    speed.compute = [compute] * 20 + [2 * compute] * 20
    speed.memory = [memory] * 20 + [4 * memory] * 20
    slow = 2 ** hostspeed.COMPUTE_EXPONENT * 4 ** hostspeed.MEMORY_EXPONENT
    early, late = speed.dilations([0.3, 1.7])
    assert early == pytest.approx(1.0) and late == pytest.approx(slow)
    # one stalled slice counts as STALL_CLIP median slices (the median
    # is 2 x the reference here), not as what it took
    speed.compute[5] = 500 * compute
    near = sum(1 for start in speed.starts if abs(start - 0.25) <= hostspeed.WINDOW_S)
    clipped = (near - 1 + 2 * hostspeed.STALL_CLIP) / near
    assert speed.dilations([0.25])[0] == pytest.approx(clipped ** hostspeed.COMPUTE_EXPONENT)


def test_timed_loop_interleaves_slices_and_reports_reference_seconds(traced_stack, monkeypatch):
    stack, _tracer, ops, _result = traced_stack
    reads = [op for op in ops if op[0] == "q"]
    real = harness.run_pass(stack, [], reads)
    assert real.executed == len(reads) and real.dilation > 0
    assert real.busy_s == pytest.approx(sum(real.latencies["q"]))
    # the same pass on a "host" whose slices all take twice the reference
    # reports the clock time over the dilation that stands for
    monkeypatch.setattr(hostspeed, "_slice", lambda: (
        time.perf_counter(), 2 * hostspeed.REFERENCE_COMPUTE_S, 2 * hostspeed.REFERENCE_MEMORY_S
    ))
    twice = 2 ** (hostspeed.COMPUTE_EXPONENT + hostspeed.MEMORY_EXPONENT)
    slowed = harness.run_pass(stack, [], reads)
    assert slowed.dilation == pytest.approx(twice)
    assert slowed.busy_s == pytest.approx(slowed.raw_busy_s / twice)


class _StalledClient:
    """A fake server that takes 50 ms per query, whatever the schedule."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def request(self, method, path, body=None):
        if method == "POST":
            time.sleep(0.05)
        return 200, {}, {"result": {"users": [], "neighbors": []}}


def test_open_loop_charges_a_stall_from_the_scheduled_time():
    ops = [("q", 1, 10, 0.3)] * 4
    due = [0.0, 0.01, 0.02, 0.03]
    records = loadgen.drive(0, ops, 1, due, client_factory=_StalledClient)
    latencies = [r.latency for r in records]
    # one connection, 50 ms service: request i completes 50 ms * (i + 1)
    # after the start but was due at 10 ms * i
    for i, latency in enumerate(latencies):
        assert latency >= 0.05 * (i + 1) - due[i] - 0.005, latencies
    assert records[0].idle and not any(r.idle for r in records[1:])
    # a closed loop on the same server sees only the service time
    closed = loadgen.drive(0, ops, 1, None, client_factory=_StalledClient)
    assert all(r.latency < 0.08 for r in closed)


def test_rung_verdicts():
    ok = {"sent": 100, "ok": 100, "p95_ms": spec.HTTP_P95_LIMIT_MS * 0.5, "backlog_ms": 1.0}
    slow = dict(ok, p95_ms=spec.HTTP_P95_LIMIT_MS * 2)
    dropped = dict(ok, ok=90)
    assert measure.rung_passes(ok) and not measure.rung_passes(slow) and not measure.rung_passes(dropped)
    rates = spec.HTTP_LADDER_RPS
    assert measure.max_rate_ok([ok, ok, slow, ok]) == rates[1], "a pass above a failed rung does not count"
    assert measure.max_rate_ok([slow, ok, ok, ok]) == 0.0


# -- compare.py ----------------------------------------------------------------


def _fake_run(ops_per_s: float, failed: int = 0) -> dict:
    return {"workloads": {spec.COLD: {
        "metrics": {"ops_per_s": ops_per_s, "query_p90_ms": 40.0},
        "layer_metrics": {"graph.full_column_ms": 30.0},
        "ops_attempted": 100, "ops_failed": failed,
    }}}


def test_compare_verdicts():
    from perfbench import compare

    ops = spec.END_TO_END[1]
    assert ops.name == "ops_per_s" and ops.better == "higher"
    steady = [50.0, 50.5, 49.5, 50.2, 49.8]
    assert compare.verdict(ops, steady, [v * 0.6 for v in steady]) == "regressed"
    assert compare.verdict(ops, steady, [v * 1.5 for v in steady]) == "improved"
    assert compare.verdict(ops, steady, [v * 1.05 for v in steady]) == "unchanged"
    assert compare.verdict(ops, steady, [30.0, 50.0, 70.0, 40.0, 60.0]) == "unresolved"
    base = compare.collect([_fake_run(50.0)])
    head = compare.collect([_fake_run(30.0, failed=1)])
    rows = {(w, name): result for w, name, _u, _b, _h, result in compare.end_to_end_rows(base, head)}
    assert rows[(spec.COLD, "ops_per_s")] == "regressed"
    assert rows[(spec.COLD, "query_p90_ms")] == "unchanged"
    assert rows[(spec.COLD, "failed_share")] == "regressed"
    layer = compare.layer_rows(base, head)
    assert [(row[1], row[2]) for row in layer] == [("query_p90_ms -> cold_exact", "graph.full_column_ms")]
