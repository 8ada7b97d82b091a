"""The HTTP side of ``http_open``: the server subprocess and the load
generator driving it from this process.

Load comes from ``connections`` keep-alive connections, one thread
each.  A *closed* loop sends a connection's next request when its last
one completed.  An *open* loop sends request ``i`` at its pre-drawn due
time whatever the server is doing, and charges latency **from the due
time**: when both connections are still busy the request waits in the
generator and that wait counts, which is how a stalled server is
charged for the queue it causes.  A request taken by a thread that was
already idle before its due time measures the generator's own lateness
(``lag``); one taken after its due time found every connection busy.
"""

from __future__ import annotations

import itertools
import json
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import spec

_clock = time.perf_counter
SERVER_MAIN = Path(__file__).resolve().parent / "server_main.py"
HOST = "127.0.0.1"


class ServerProcess:
    """Owns the server subprocess; always reaps it."""

    def __init__(self, n: int, *, builds: int = 1, spans=None, boot_timeout: float = 120.0):
        self.argv = [
            sys.executable, str(SERVER_MAIN),
            "--n", str(n),
            "--workers", str(spec.HTTP_SERVER_WORKERS), "--builds", str(builds),
        ]
        if spans is not None:
            self.argv += ["--spans", str(spans)]
        self.boot_timeout = boot_timeout
        self.proc = None
        self.port = 0
        self.ready: dict = {}
        self.exit: dict = {}
        self.boot_s = 0.0

    def _read_event(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server subprocess gave no answer within {timeout:.0f}s "
                f"(exit code {self.proc.poll()})"
            )
        return json.loads(line)

    def __enter__(self) -> "ServerProcess":
        start = _clock()
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self._read_event(self.boot_timeout)
        except BaseException:
            self._reap()
            raise
        self.boot_s = _clock() - start
        self.port = self.ready["port"]
        return self

    def stop(self) -> dict:
        """Ask for a drained shutdown; returns the server's exit report."""
        if self.proc.poll() is None and not self.exit:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.flush()
            self.exit = self._read_event(60.0)
        return self.exit

    def _reap(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            proc.stdin.close()           # EOF: the server exits on its own
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __exit__(self, *exc) -> None:
        try:
            if exc[0] is None:
                self.stop()
        finally:
            self._reap()


@dataclass
class Sent:
    """One request as the generator saw it."""

    ref: float          # when latency starts: due time (open) or send time (closed)
    sent: float
    done: float
    ok: bool
    #: open loop: a thread was idle before the due time
    idle: bool
    answer: "tuple | None" = None    # (ids, scores) when sampled

    @property
    def latency(self) -> float:
        return self.done - self.ref


def _body(op: tuple) -> dict:
    return {"user": op[1], "k": op[2], "alpha": op[3], "method": "auto"}


def drive(port: int, ops: list, connections: int, due: "list | None" = None,
          client_factory=None, speed=None) -> list:
    """Send ``ops`` (query ops) over ``connections`` keep-alive
    connections; closed loop when ``due`` is ``None``, else open loop on
    those offsets.  Returns one :class:`Sent` per op, in op order.

    ``speed`` (a :class:`perfbench.hostspeed.HostSpeed`; one connection
    only) gets a calibration slice between requests, while the server
    is idle.  A closed loop that has held the clock for
    ``spec.MAX_LOOP_WALL_S`` sends no more: the list is then shorter
    than ``ops``."""
    if speed is not None and connections != 1:
        raise ValueError("calibration slices need the one-connection loop")
    if client_factory is None:
        from repro.server import ServerClient

        client_factory = lambda: ServerClient(HOST, port)  # noqa: E731
    records: list = [None] * len(ops)
    counter = itertools.count()
    origin = [0.0]

    def arm() -> None:
        origin[0] = _clock() + 0.02

    barrier = threading.Barrier(connections, action=arm)
    errors: list = []

    def worker() -> None:
        try:
            with client_factory() as client:
                client.request("GET", "/healthz")     # connect before the clock matters
                barrier.wait()
                t0 = origin[0]
                give_up = t0 + spec.MAX_LOOP_WALL_S
                while True:
                    i = next(counter)
                    if i >= len(ops) or (due is None and _clock() > give_up):
                        return
                    idle = True
                    if due is not None:
                        ref = t0 + due[i]
                        idle = _clock() < ref
                        while True:
                            wait = ref - _clock()
                            if wait <= 0:
                                break
                            time.sleep(wait)
                    sent = _clock()
                    if due is None:
                        ref = sent
                    try:
                        status, _headers, payload = client.request("POST", "/query", _body(ops[i]))
                    except Exception:  # a refused or broken request is a failed op
                        status, payload = 0, None
                    done = _clock()
                    answer = None
                    if status == 200 and i % spec.CHECK_EVERY == 0:
                        result = payload["result"]
                        answer = (result["users"], [nb["score"] for nb in result["neighbors"]])
                    records[i] = Sent(ref, sent, done, status == 200, idle, answer)
                    if speed is not None and speed.due(done):
                        speed.sample()
        except Exception as err:  # surfaced by the caller after join
            errors.append(err)
            barrier.abort()

    threads = [threading.Thread(target=worker, name=f"loadgen-{c}") for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [r for r in records if r is not None]


def wall_seconds(records: list) -> float:
    return max(r.done for r in records) - min(r.ref for r in records)


def healthz_p50_ms(port: int, count: int = 50) -> float:
    from statistics import median

    from repro.server import ServerClient

    times = []
    with ServerClient(HOST, port) as client:
        for _ in range(count):
            start = _clock()
            client.request("GET", "/healthz")
            times.append(_clock() - start)
    return median(times) * 1e3


def get_stats(port: int) -> dict:
    from repro.server import ServerClient

    with ServerClient(HOST, port) as client:
        return client.stats()
