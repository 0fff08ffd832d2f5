#!/usr/bin/env python3
"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout.  This file imports nothing from the
program: it builds a hermetic environment (``REPRO_*`` settings cleared,
``PYTHONPATH=src``, bytecode cached under ``.bench_state/`` in a state this
script creates itself), times the interpreter start-up plus imports the
workload needs (median of several fresh interpreters), then runs the
workload in a child interpreter (``perfbench/worker.py``) and prints the
child's result as the last line of standard output::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload with the benchmark's own spans around each layer and reports the
per-layer metrics instead.  Exits non-zero, printing no result, when the
checkout holds no program to measure or the workload cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
WORKLOADS = ("fig2-sweep", "synth-large", "serve-http")

#: Modules each workload's working process imports before its first
#: timed operation (the server of ``serve-http`` imports the CLI).
IMPORTS = {
    "fig2-sweep": "repro.experiments.runner, repro.experiments.checkpoint",
    "synth-large": "repro.core, repro.workloads.synthetic",
    "serve-http": "repro.cli, repro.service.http_server",
}

IMPORT_SAMPLES = 3
#: Wall-clock ceiling for the child, inside the 180 s a run may take.
CHILD_TIMEOUT_S = 165.0


def hermetic_env(state: pathlib.Path) -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` setting (store,
    chaos plan, trace sink, worker count, solver, retries, task timeout —
    the workloads pass each explicitly) or ``PYTHON*`` setting."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(state / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def time_interpreter(code: str, env: dict[str, str]) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the "
                             "benchmark's own self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    state = ROOT / ".bench_state"
    state.mkdir(exist_ok=True)
    workdir = state / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    env = hermetic_env(state)
    try:
        imports = f"import {IMPORTS[args.workload]}"
        # The first import compiles bytecode into the benchmark's own cache
        # (untimed), so every timed start-up reads compiled bytecode no
        # matter what ran in this checkout before.
        time_interpreter(imports, env)
        import_s = statistics.median(
            time_interpreter(imports, env) for _ in range(IMPORT_SAMPLES)
        )
        extra = {"import_s": import_s}
        if args.trace:
            # scipy.optimize's own share of start-up, over numpy's (which
            # the program imports anyway).
            numpy_s, scipy_s = (
                statistics.median(
                    time_interpreter(code, env) for _ in range(IMPORT_SAMPLES)
                )
                for code in ("import numpy", "import numpy, scipy.optimize")
            )
            extra["scipy_s"] = max(0.0, scipy_s - numpy_s)
        # Its own session, so a timeout can stop the workload together with
        # every process it started (pool workers, servers).
        child = subprocess.Popen(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--workdir", str(workdir),
                "--extra", json.dumps(extra),
            ],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print("error: workload did not finish in time", file=sys.stderr)
            return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: start-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"error: workload exited with {child.returncode}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
