#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Checks that BENCHMARK.json and bench/run.py agree on every workload and on
every metric's unit and direction; runs each workload at ``--size tiny`` with
``--trace 0`` and ``--trace 1`` and checks that the last line is the result
object, that every output check passed and that every metric BENCHMARK.json
names is emitted with its unit; and checks that a directory holding only
BENCHMARK.json and bench/ makes run.py fail without printing a result.
Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_cmd(workload: str, trace: int) -> list:
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]


def check_tables(spec: dict) -> list[str]:
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        for name in sorted(set(declared) | set(table)):
            if declared.get(name) != table.get(name):
                failures.append(f"{kind} {name}: BENCHMARK.json {declared.get(name)} != run.py {table.get(name)}")
    return failures


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(bench_cmd(workload, trace), cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"{label}: result keys {sorted(result)}"]
    failures = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']}: "
                        f"{proc.stderr.strip()[-300:]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if not got or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            failures.append(f"{label}: {metric['name']} missing or wrong unit: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        failures.append(f"{label}: undeclared metrics {sorted(extra)}")
    return failures


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(bench_cmd("matrix_default", 0), cwd=bare, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_tables(spec)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            failures += check_run(spec, workload, trace)
    failures += check_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
