#!/usr/bin/env python3
"""Quick self-check of the benchmark's own code (about a minute).

    python3 perfbench/selfcheck.py

Checks ``BENCHMARK.json`` against the limits the benchmark format sets,
runs every workload at a tiny size with tracing off and on, and checks
each result line: its keys, no failed operation, every declared metric
present once with its declared unit, and every end-to-end value finite and
above zero.  Last, it copies only ``BENCHMARK.json`` and ``perfbench/``
into an empty directory and checks that the benchmark refuses to run
there, printing no result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("needs 2 to 8 workloads")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = [w["name"] for w in spec["workloads"]]
    for group, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in spec[group]:
            names.append(metric["name"])
            if set(metric) != keys:
                problems.append(f"{metric['name']}: keys {sorted(metric)}")
            if not UNIT.match(metric["unit"]):
                problems.append(f"{metric['name']}: bad unit")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{metric['name']}: bad direction")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{metric['name']}: bound out of range")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is missing")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} trace={trace}"
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: {proc.stdout[-800:]}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"].get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {metric['name']} = {value}")
        elif not trace and value <= 0:
            problems.append(f"{label}: {metric['name']} = {value} (not > 0)")
    return problems


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = ROOT / ".bench_state" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["runs without a program to measure"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_refuses_without_program(spec)
    for problem in problems:
        print(f"problem: {problem}")
    print("self-check", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
