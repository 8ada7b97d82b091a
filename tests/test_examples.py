"""The example scripts must run cleanly end-to-end.

Examples are documentation that executes; a broken example is a broken
promise to the first user.  The heavyweight scripts are exercised at
reduced scale via their module-level structure where possible, and the
light ones as real subprocesses.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


def test_examples_exist():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "companion_recommendation.py",
        "location_updates.py",
        "algorithm_comparison.py",
        "service_quickstart.py",
        "stream_quickstart.py",
        "store_quickstart.py",
        "server_quickstart.py",
    } <= present


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "top-10 companions" in out
    assert "alpha=0.9 (social) top-5" in out


def test_companion_recommendation_runs():
    out = run_example("companion_recommendation.py")
    assert "Pure spatial k-NN" in out
    assert "SSRQ (alpha = 0.5)" in out
    # The story of the paper's Figure 1: SSRQ surfaces the social circle.
    line = next(l for l in out.splitlines() if "social-circle members" in l)
    assert "SSRQ 0/5" not in line


def test_location_updates_runs():
    out = run_example("location_updates.py")
    assert "matches brute force: True" in out
    assert "disabled location sharing" in out


def test_service_quickstart_runs():
    out = run_example("service_quickstart.py")
    assert "cache hit rate" in out
    assert "batched rankings identical to sequential engine.query: True" in out
    assert "verified against brute force: True" in out
    assert "full cache flush" in out and "full_invalidations 1" in out


def test_stream_quickstart_runs():
    out = run_example("stream_quickstart.py")
    assert "standing queries" in out
    assert "maintained results identical to fresh recompute: True" in out
    assert "repaired" in out and "NO-OP" in out


def test_server_quickstart_runs():
    out = run_example("server_quickstart.py")
    assert "HTTP answer identical to in-process engine.query: True" in out
    assert "400 invalid_argument" in out
    assert "['snapshot', 'delta']" in out
    assert "drained cleanly: True" in out


def test_store_quickstart_runs():
    out = run_example("store_quickstart.py")
    assert "bit-identical answers after restart: True" in out
    assert "restored engine serves the folded edge: True" in out
    assert "damaged snapshot refused: checksum mismatch" in out
