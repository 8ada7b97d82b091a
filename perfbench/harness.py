"""Building the stack under test and driving the in-process workloads.

One *stack* is what the issue's common set-up describes: dataset ->
``GeoSocialEngine.from_dataset`` (library defaults) ->
``QueryService(engine, max_workers=1)`` (library defaults), with the
planner calibrated eagerly so the first timed ``auto`` query does not
pay for it.  Every query names ``method="auto"`` and no budget.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from perfbench import spec, workloads
from perfbench.hostspeed import Bracket, HostSpeed, ballast_mb

WORK_DIR = Path(__file__).resolve().parent / ".work"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak resident set, without the calibration data
    the benchmark itself keeps there.  ``VmHWM`` rather than
    ``ru_maxrss``: the latter survives fork + exec, so a child would
    report at least its parent's size."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak - ballast_mb()


# -- the stack ------------------------------------------------------------


@dataclass
class Stack:
    dataset: object
    engine: object
    service: object
    build_s: float          # reference-speed seconds
    build_raw_s: float      # on the clock
    registry: object = None

    def close(self) -> None:
        if self.registry is not None:
            self.registry.close()
        self.service.close()
        self.engine.close()


def build_stack(n: int) -> Stack:
    """One build; ``build_s`` is in reference-speed seconds."""
    from repro import GeoSocialEngine, QueryService

    with Bracket() as step:
        dataset = workloads.make_dataset(n)
        engine = GeoSocialEngine.from_dataset(dataset)
        service = QueryService(engine, max_workers=1)
        engine.planner.calibrate(engine)
    return Stack(dataset, engine, service, step.seconds, step.raw_seconds)


def build_stack_repeated(n: int, repeats: int) -> "tuple[Stack, list, list]":
    """Build ``repeats`` times, keep the last; returns the build times
    (reference-speed, clock) so ``setup_s`` can charge the median one."""
    times, raw = [], []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        stack = build_stack(n)
        times.append(stack.build_s)
        raw.append(stack.build_raw_s)
    return stack, times, raw


def build_mirror(n: int):
    """The checking engine: same dataset, no social column cache, only
    ever asked ``bruteforce`` — so checking never warms what is
    measured."""
    from repro import GeoSocialEngine

    return GeoSocialEngine.from_dataset(workloads.make_dataset(n), social_cache_bytes=0)


def subscribe_hot_users(stack: Stack, inputs) -> None:
    from repro import SubscriptionRegistry

    stack.registry = SubscriptionRegistry(stack.service)
    for user in workloads.subscription_users(inputs):
        stack.registry.subscribe(
            user, k=workloads.SUBSCRIPTION_K, alpha=workloads.SUBSCRIPTION_ALPHA, method="auto"
        )


# -- one pass over an op stream ---------------------------------------------


def counters(stack: Stack) -> dict:
    """The public stats snapshots the layer metrics are deltas of."""
    snap = {
        "cache": stack.service.cache_info(),
        "service": stack.service.stats.snapshot(),
        "planner": stack.engine.planner.stats.snapshot(),
    }
    if stack.registry is not None:
        snap["stream"] = stack.registry.stats.snapshot()
    return snap


def delta(after: dict, before: dict, *path: str):
    """``after[path] - before[path]`` for a counter (dict leaves: per-key)."""
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    if isinstance(a, dict):
        return {k: a[k] - b.get(k, 0) for k in a}
    return a - (b or 0)


@dataclass
class PassResult:
    """One pass over an op stream.  Every duration is in
    reference-speed seconds (see :mod:`perfbench.hostspeed`) unless its
    name says ``raw``."""

    #: sum of the timed ops' durations
    busy_s: float = 0.0
    #: the same over the first third of the ops
    third_busy_s: float = 0.0
    warmup_s: float = 0.0
    #: sum of the timed ops' durations on the clock
    raw_busy_s: float = 0.0
    #: perf_counter() when the timed phase began (spans before it are warm-up)
    timed_start: float = 0.0
    latencies: dict = field(default_factory=lambda: {"q": [], "m": [], "e": []})
    #: timed ops run (all of them, unless the host was so slow that the
    #: loop gave up at ``spec.MAX_LOOP_WALL_S``)
    executed: int = 0
    failed: int = 0
    #: (op index, (user, k, alpha), ids, scores) of every checked query
    samples: list = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: the host's mean time dilation over the timed phase
    dilation: float = 1.0


def make_runner(stack: Stack, tracer=None):
    """``run(op)`` executing one workload op through the service's
    public surface; in a traced pass each op is one root span."""
    service, registry = stack.service, stack.registry

    def run(op):
        kind = op[0]
        if kind == "q":
            return service.query(op[1], k=op[2], alpha=op[3], method="auto")
        if kind == "m":
            service.move_user(op[1], op[2], op[3])
        else:
            service.update_edge(op[1], op[2], op[3])
        # the flush is charged to the write that made it necessary
        registry.flush()
        return None

    if tracer is None:
        return run
    names = {"q": "op.query", "m": "op.move", "e": "op.edge"}

    def traced(op):
        with tracer.span(names[op[0]]):
            return run(op)

    return traced


def _timed_loop(run, ops: list, on_response=None) -> "tuple[list, list, HostSpeed, int]":
    """Run ``ops`` one after the other with calibration slices between
    them; returns each op's midpoint on the clock, its raw duration,
    the slices, and how many ops raised.  Stops early (fewer durations
    than ops) only when the loop has held the clock for
    ``spec.MAX_LOOP_WALL_S``: a host several times slower than the
    reference must not push a run past the driver's time limit."""
    speed = HostSpeed()
    clock = time.perf_counter
    middles, durations, failed = [], [], 0
    speed.burst(3)
    give_up = clock() + spec.MAX_LOOP_WALL_S
    for index, op in enumerate(ops):
        begin = clock()
        if begin > give_up:
            break
        try:
            response = run(op)
        except Exception:  # a failed op is a measurement, not a crash
            failed += 1
            response = None
        end = clock()
        middles.append((begin + end) / 2)
        durations.append(end - begin)
        if response is not None and on_response is not None:
            on_response(index, op, response)
        if speed.due(end):
            speed.sample()
    speed.burst(3)
    return middles, durations, speed, failed


def run_pass(stack: Stack, warmup: list, timed: list, tracer=None) -> PassResult:
    run = make_runner(stack, tracer)
    result = PassResult()
    middles, durations, speed, _ = _timed_loop(run, warmup)
    result.warmup_s = sum(d / x for d, x in zip(durations, speed.dilations(middles)))
    gc.collect()
    result.before = counters(stack)
    queries = [0]

    def sample_answer(index, op, response) -> None:
        if queries[0] % spec.CHECK_EVERY == 0:
            answer = response.result
            result.samples.append(
                (len(warmup) + index, op[1:], list(answer.users), list(answer.scores))
            )
        queries[0] += 1

    result.timed_start = time.perf_counter()
    middles, durations, speed, result.failed = _timed_loop(run, timed, sample_answer)
    result.after = counters(stack)
    result.peak_rss_mb = peak_rss_mb()
    result.executed = len(durations)
    third = max(1, result.executed // 3)
    normalised = [d / x for d, x in zip(durations, speed.dilations(middles))]
    for op, seconds in zip(timed, normalised):
        result.latencies[op[0]].append(seconds)
    result.busy_s = sum(normalised)
    result.raw_busy_s = sum(durations)
    result.third_busy_s = sum(normalised[:third])
    result.dilation = speed.mean_dilation()
    return result


# -- answer check -------------------------------------------------------------


def answers_match(ids, scores, expected) -> bool:
    """Ids and tie-breaks exact, scores within 1e-9."""
    return list(ids) == list(expected.users) and all(
        abs(a - b) <= spec.SCORE_TOLERANCE for a, b in zip(scores, expected.scores)
    )


def verify(mirror, ops: list, samples: list) -> int:
    """Replay the moves of ``ops`` on ``mirror`` and compare every
    sampled answer with ``bruteforce`` at the moment it was given.
    Returns the number of mismatches.  (Edge updates are absent on
    purpose: the service batches them until ``rebuild_engine``, so
    served answers stay exact for the indexed graph.)"""
    wanted = {index: (key, ids, scores) for index, key, ids, scores in samples}
    mismatches = 0
    for index, op in enumerate(ops):
        if op[0] == "m":
            mirror.move_user(op[1], op[2], op[3])
        elif index in wanted:
            (user, k, alpha), ids, scores = wanted[index]
            expected = mirror.query(user, k=k, alpha=alpha, method="bruteforce")
            if not answers_match(ids, scores, expected):
                mismatches += 1
    return mismatches


# -- restart ------------------------------------------------------------------


def measure_restart(stack: Stack, probe: tuple) -> dict:
    """``save_engine`` once, then ``RESTART_REPEATS`` x (``load_engine``
    with mmap + the first answered ``auto`` query, which pays the fresh
    planner's calibration), each checked bit-identical against the
    pre-snapshot answer.  Reference-speed seconds throughout."""
    from repro import load_engine, save_engine

    user, k, alpha = probe
    expected = stack.engine.query(user, k=k, alpha=alpha, method="auto")
    root = WORK_DIR / f"snap-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        with Bracket() as save:
            path = save_engine(stack.engine, root / "engine")
        size = sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())
        loads, totals, mismatches = [], [], 0
        for _ in range(spec.RESTART_REPEATS):
            with Bracket() as load:
                engine = load_engine(path, mmap=True)
            with Bracket() as first:
                answer = engine.query(user, k=k, alpha=alpha, method="auto")
            loads.append(load.seconds)
            totals.append(load.seconds + first.seconds)
            if answer.users != expected.users or answer.scores != expected.scores:
                mismatches += 1
            engine.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "warm_start_s": median(totals),
        "store.save_s": save.seconds,
        "store.load_s": median(loads),
        "store.bytes_per_user": size / stack.engine.graph.n,
        "mismatches": mismatches,
        "samples": len(totals),
    }
