"""Smoke test of the benchmark harness: output schema and failure counting.

    python3 -m pytest perfbench/test_smoke.py

It makes no timing assertions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hermstab  # noqa: E402
import hermstab.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_schema(doc, spec):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in spec}
    units = {m["name"]: m["unit"] for m in spec}
    for name, metric in doc["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric():
    doc = _bench("--workload", "queries", "--seed", "5", "--seconds", "1", "--trace", "0")
    _check_schema(doc, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    doc = _bench("--workload", "examples", "--seed", "5", "--seconds", "1", "--trace", "1")
    _check_schema(doc, BENCH["per_layer"])
    assert doc["metrics"]["splitting.verify_certificate.calls"]["value"] > 0


def _corrupting_cli():
    """cli.main whose JSON output is wrong for some commands."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hermstab.cli.main(argv)
        doc = json.loads(buf.getvalue())
        if argv[1] == "nil":
            doc["nil"], doc["non_nil"] = doc["non_nil"], doc["nil"]
        elif argv[1] == "orderings":
            doc["count"] += 1
        elif argv[1] == "signature":
            raise RuntimeError("escaped the CLI")
        print(json.dumps(doc, sort_keys=True, indent=2))
        return code

    return types.SimpleNamespace(main=main)


def test_corrupted_output_makes_failed_ratio_nonzero():
    rounds = worker.QueryRounds(5, hermstab)
    rounds.cli = _corrupting_cli()
    latencies, check = rounds.run(None, time.perf_counter)
    errors = check()
    tally = run.Tally()
    tally.add(len(latencies), errors)
    assert 0 < tally.failed < tally.attempted
    assert any("exit code RuntimeError" in e for e in errors)


def test_examples_check_rejects_a_changed_byte():
    code, out, _ = worker._call_cli(hermstab.cli.main, ["--json", "examples"])
    assert code == 0 and workloads.check_examples(out) is None
    assert workloads.check_examples(out.replace('"st": 1', '"st": 2', 1)) is not None
    assert workloads.check_examples(out + " ") is not None
