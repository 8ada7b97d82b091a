"""The server process of ``http_open``: engine -> service -> ServerThread.

Runs as a subprocess of ``run.py`` so the load generator and the server
do not share an interpreter lock.  Protocol, one JSON object per line:

- stdout ``{"event": "ready", "port", "import_s", "build_s": [...],
  "build_raw_s": [...]}`` once the socket is bound (builds in
  reference-speed and in clock seconds);
- stdin ``quit`` (or EOF, i.e. the parent died) drains and stops the
  server, writes the spans of a traced run, and answers
  ``{"event": "exit", "peak_rss_mb"}``.

Blocking on the parent's pipe is what guarantees no orphan: however
the parent ends, this process sees EOF and exits.
"""

from __future__ import annotations

import sys
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: replace the script directory on the path, so that
    # perfbench/trace.py cannot shadow the standard library's ``trace``
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--builds", type=int, default=1)
    parser.add_argument("--spans", help="trace the stack and write its spans here on exit")
    args = parser.parse_args(argv)

    from perfbench import harness, trace
    from repro.server import ServerThread

    import_s = time.perf_counter() - _PROCESS_START
    stack, build_times, raw_times = harness.build_stack_repeated(args.n, args.builds)
    tracer = None
    if args.spans:
        tracer = trace.Tracer()
        tracer.install(stack.service)
    handle = ServerThread(stack.service, workers=args.workers).start()
    try:
        print(
            json.dumps(
                {"event": "ready", "port": handle.port, "import_s": import_s,
                 "build_s": build_times, "build_raw_s": raw_times}
            ),
            flush=True,
        )
        for line in sys.stdin:
            if line.strip() == "quit":
                break
    finally:
        handle.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)
        stack.close()
    print(json.dumps({"event": "exit", "peak_rss_mb": harness.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
