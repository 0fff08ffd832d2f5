"""``serve-http``: ``repro serve --journal`` in a subprocess, driven over
real sockets by two client threads in a closed loop (each sends its next
request when the previous one returns).

Requests are certified alignments (``method: tsp``, ``bound: true``) of a
Figure-2 program (``eqn``, profiled on its ``ip`` data set), each with its
edge counts scaled by per-edge factors drawn from the seed, so no two
distinct requests share an instance.  Each client sends whole rounds of
six: five distinct requests, then a verbatim repeat of one of its earlier
payloads, which the journal's idempotency keys answer without solving.
The one-in-six share is a choice, not a measured traffic mix: it sends
enough repeats to time the dedup path while keeping the run's work in
solves (see README.md).  Latency percentiles cover the distinct requests
only; repeats are reported apart, so no percentile mixes a solve with a
cache read.  At the end the server is restarted on the same journal,
which it replays (re-verifying every record) before it is ready.
An operation is one request.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench import Ledger, close, median, nearest_rank, peak_rss_mb
from checks import permutation_error

HERE = Path(__file__).resolve().parent
PROGRAM = ("eqn", "ip")
CLIENTS = 2
#: Every sixth request is a verbatim repeat (an arbitrary share; README.md).
REPEAT_EVERY = 6
#: Per-edge count factors are drawn uniformly from this interval, which is
#: symmetric on a log scale (0.8 = 1 / 1.25): wide enough that no two
#: requests share a key or a cost matrix, narrow enough that every request
#: keeps the recorded profile's shape.  The width is a choice (README.md).
FACTOR = (0.8, 1.25)
#: Requests per second this workload sustains on the reference host (see
#: README.md).  The load is a fixed number of whole rounds, sized from it so
#: that it lasts about ``--seconds`` there: every run and every commit then
#: sends the same requests, and recovery replays a journal of the same size.
NOMINAL_RATE = 22.0
#: Responses per "pass" of the request stream (pass_s).
PASS_RESPONSES = 24
STARTS = 3
PREPARE_SAMPLES = 3
#: A load stops sending after this many times ``--seconds``; the requests
#: it did not send count as failed operations.  A server a few times
#: slower then shows in the metrics and the failed count, and a traced run
#: (two loads and a replay) still ends inside run.py's time limit.
LOAD_BUDGET = 3
CYCLE_SAMPLES = 8
SERVER_FLAGS = [
    "--host", "127.0.0.1", "--port", "0", "--jobs", "1", "--capacity", "16",
    "--retries", "2", "--breaker-threshold", "3", "--breaker-cooldown", "5",
    "--store", "off",
]


class Server:
    """One ``repro serve`` process: started, waited on until ready, stopped
    with SIGTERM (a graceful drain) and reaped."""

    def __init__(self, journal: Path, trace: Path | None, log: Path):
        script = (
            [str(HERE / "traced_serve.py")] if trace
            else ["-m", "repro.cli"]
        )
        self.cmd = [
            sys.executable, "-u", *script, "serve", *SERVER_FLAGS,
            "--journal", str(journal), "--trace", str(trace or "off"),
        ]
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 120.0) -> float:
        """Start and wait for ``/readyz`` to answer 200; returns seconds."""
        begin = time.perf_counter()
        with open(self.log, "a") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdout=subprocess.PIPE, stderr=log, text=True
            )
        announce = self.proc.stdout.readline()
        found = re.search(r"http://[\d.]+:\d+", announce)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not announce a port: {announce!r}")
        self.url = found.group(0)
        while time.perf_counter() - begin < timeout:
            if self.get("/readyz")[0] == 200:
                return time.perf_counter() - begin
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never became ready")

    def get(self, path: str) -> tuple[int, dict]:
        from repro.service.client import get_json

        try:
            return get_json(self.url + path, timeout=10)
        except OSError:
            return 0, {}

    def stop(self) -> int | None:
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        return code


def perturbed(base, rng):
    """A copy of ``base`` with every edge count scaled by its own factor."""
    from repro.profiles.edge_profile import EdgeProfile, ProgramProfile

    return ProgramProfile(
        procedures={
            name: EdgeProfile(counts={
                edge: max(1, round(count * rng.uniform(*FACTOR)))
                for edge, count in edges.counts.items()
            })
            for name, edges in base.procedures.items()
        },
        call_counts=dict(base.call_counts),
        call_pairs=dict(base.call_pairs),
    )


def run(**kwargs):
    """Run the workload; every server it started is stopped on the way
    out, whatever happened."""
    servers: list[Server] = []
    try:
        return _run(servers=servers, **kwargs)
    finally:
        for server in servers:
            server.stop()


def _run(*, seed, seconds, traced, tiny, workdir, ledger: Ledger, import_s,
         servers: list[Server]):
    from repro import obs
    from repro.core import (
        evaluate_program,
        exttsp_program_score,
        original_program_layout,
    )
    from repro.core.layout import Layout, ProgramLayout
    from repro.experiments.runner import profiled_run
    from repro.machine.models import ALPHA_21164
    from repro.machine.timing import simulate_timing
    from repro.service.client import request_alignment
    from repro.workloads.suite import compile_benchmark, get_benchmark

    import layers

    # At 15 s: 28 rounds a client, 280 distinct requests — at least ten
    # beyond the 95th percentile.
    rounds = max(2, round(seconds * NOMINAL_RATE / (CLIENTS * REPEAT_EVERY)))
    per_client = rounds * (REPEAT_EVERY - 1)

    # -- set-up: profile the program and build the payloads, then start the
    # server (each the median of several samples; every start on an empty
    # journal) ------------------------------------------------------------
    def prepare(events):
        compile_benchmark.cache_clear()
        profiled_run.cache_clear()
        with obs.collect() if events else contextlib.nullcontext([]) as got:
            program = compile_benchmark(PROGRAM[0]).program
            recorded = profiled_run(*PROGRAM)
        source = get_benchmark(PROGRAM[0]).source
        profiles = [[None] * per_client for _ in range(CLIENTS)]
        payloads = [[None] * per_client for _ in range(CLIENTS)]
        for client in range(CLIENTS):
            for i in range(per_client):
                rng = random.Random(f"{seed}/{client}/{i}")
                profile = perturbed(recorded.profile, rng)
                profiles[client][i] = profile
                payloads[client][i] = {
                    "source": source, "profile": profile.to_json(),
                    "method": "tsp", "bound": True, "seed": 0,
                    "model": "alpha21164", "effort": "default",
                }
        return program, recorded, profiles, payloads, got

    prepares = []
    for index in range(PREPARE_SAMPLES):
        begin = time.perf_counter()
        # The last sample's events feed the traced set-up layers.
        program, recorded, profiles, payloads, setup_events = prepare(
            traced and index == PREPARE_SAMPLES - 1
        )
        prepares.append(time.perf_counter() - begin)

    def fresh_server(name: str, trace: Path | None) -> Server:
        journal = workdir / name
        journal.mkdir()
        servers.append(
            Server(journal / "journal.jsonl", trace, workdir / "server.log")
        )
        return servers[-1]

    starts = []
    for index in range(STARTS - 1):
        server = fresh_server(f"start{index}", None)
        starts.append(server.start())
        ledger.check(server.stop() == 0, "setup", "server drains cleanly")

    def load(server: Server):
        """Every client sends its rounds in a closed loop; returns the
        samples and the load's wall time."""
        samples: list[dict] = []
        lock = threading.Lock()

        def client(index: int) -> None:
            rng = random.Random(f"{seed}/client/{index}")
            done: list[int] = []
            for number in range(rounds * REPEAT_EVERY):
                repeat = number % REPEAT_EVERY == REPEAT_EVERY - 1
                slot = rng.choice(done) if repeat else len(done)
                begin = time.perf_counter()
                sent = begin <= cutoff
                if not sent:
                    status, response = 0, {"error": "not sent: load budget"}
                else:
                    try:
                        status, response = request_alignment(
                            server.url, payloads[index][slot], timeout=30
                        )
                    except OSError as exc:
                        status, response = 0, {"error": str(exc)}
                end = time.perf_counter()
                if not repeat:
                    done.append(slot)
                with lock:
                    samples.append({
                        "client": index, "slot": slot, "repeat": repeat,
                        "sent": sent, "status": status, "response": response,
                        "latency_ms": (end - begin) * 1000.0, "end": end,
                    })

        start = time.perf_counter()
        cutoff = start + LOAD_BUDGET * seconds
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        ledger.attempt(CLIENTS * rounds * REPEAT_EVERY)
        ledger.check(
            len(samples) == CLIENTS * rounds * REPEAT_EVERY, "load",
            "every client sent all its rounds", f"{len(samples)} responses",
        )
        return samples, elapsed

    def distinct_p50(samples) -> float:
        return median(s["latency_ms"] for s in samples if not s["repeat"])

    untraced_p50 = 0.0
    if traced:
        # The traced run also loads an untraced server first, so the
        # tracing overhead compares like with like inside one run.
        server = fresh_server("untraced", None)
        server.start()
        plain_samples, _ = load(server)
        for s in plain_samples:
            ledger.check(
                s["status"] == 200 and s["response"].get("status") == "ok",
                f"untraced-{s['client']}-{s['slot']}", "response ok",
            )
        ledger.check(server.stop() == 0, "untraced", "server drains cleanly")
        untraced_p50 = distinct_p50(plain_samples)

    trace_path = workdir / "serve-trace.jsonl" if traced else None
    server = fresh_server("journal", trace_path)
    starts.append(server.start())
    setup_s = import_s + median(prepares) + median(starts)

    samples, load_s = load(server)
    _, counters = server.get("/counters")
    server_rss = peak_rss_mb(server.proc.pid)
    ledger.check(server.stop() == 0, "load", "server drains cleanly")

    # -- recovery: restart on the same journal ----------------------------
    recovering = Server(workdir / "journal" / "journal.jsonl", None,
                        workdir / "server.log")
    servers.append(recovering)
    recovery_s = recovering.start()
    _, after = recovering.get("/counters")
    first = next(
        (s for s in samples
         if not s["repeat"] and s["response"].get("status") == "ok"),
        samples[0],
    )
    ledger.attempt()
    status, replayed = request_alignment(
        recovering.url, payloads[first["client"]][first["slot"]], timeout=30
    )
    ledger.check(recovering.stop() == 0, "recovery", "server drains cleanly")

    # -- checks -----------------------------------------------------------
    def layouts_of(response) -> ProgramLayout:
        layouts = ProgramLayout()
        for name, order in response["layouts"].items():
            layouts[name] = Layout(tuple(order))
        return layouts

    first_layouts = {}
    served = []
    for s in samples:
        op = f"{'repeat' if s['repeat'] else 'request'}-{s['client']}-{s['slot']}"
        response = s["response"]
        ok = ledger.check(
            s["status"] == 200 and response.get("status") == "ok"
            and response.get("verified") is True,
            op, "response ok and verified",
            f"{s['status']} {response.get('status')} {response.get('error')}",
        )
        if not ok:
            continue
        key = (s["client"], s["slot"])
        if s["repeat"]:
            ledger.check(response["layouts"] == first_layouts.get(key), op,
                         "repeat returns its first occurrence's layouts")
            continue
        first_layouts[key] = response["layouts"]
        profile = profiles[s["client"]][s["slot"]]
        layouts = layouts_of(response)
        for proc in program:
            error = permutation_error(proc.cfg, layouts[proc.name])
            ledger.check(error is None, op, f"{proc.name} permutation", error)
        penalty = evaluate_program(program, layouts, profile, ALPHA_21164)
        costs, bounds = response["costs"], response["bounds"]
        ledger.check(
            close(sum(costs.values()), penalty.total)
            and close(response["penalty"]["total"], penalty.total),
            op, "cost = penalty",
            f"{sum(costs.values())} / {response['penalty']['total']} vs "
            f"{penalty.total}",
        )
        ledger.check(
            all(costs[p] >= bounds[p] - 1e-6 for p in costs), op,
            "cost >= bound",
        )
        served.append((s, layouts, profile, penalty.total))

    records = (after.get("recovery") or {})
    ledger.check(
        records.get("replayed_completed") == len(served)
        and records.get("reverify_failed") == 0,
        "recovery", "every completed record recovered, none rejected",
        json.dumps(records),
    )
    ledger.check(
        status == 200 and replayed.get("served_from") == "journal"
        and replayed.get("layouts") == first_layouts.get(
            (first["client"], first["slot"])),
        "recovery", "a repeat is served from the journal unchanged",
    )

    # -- metrics -----------------------------------------------------------
    original = [
        (original_program_layout(program), profile)
        for _, _, profile, _ in served
    ]
    tsp_total = sum(total for *_, total in served)
    original_total = sum(
        evaluate_program(program, layouts, profile, ALPHA_21164).total
        for layouts, profile in original
    )
    sampled = random.Random(seed).sample(
        range(len(served)), min(CYCLE_SAMPLES, len(served))
    )

    def cycles(i, layouts):
        return simulate_timing(
            program, layouts, served[i][2], recorded.trace, ALPHA_21164
        ).total_cycles

    distinct = [s["latency_ms"] for s, *_ in served]
    answered = [s for s in samples if s["sent"]]
    ends = sorted(s["end"] for s in answered)
    marks = ends[PASS_RESPONSES - 1::PASS_RESPONSES]
    windows = [b - a for a, b in zip(marks, marks[1:])] or [load_s]
    end_to_end = {
        "setup_s": setup_s,
        "pass_s": median(windows),
        "req_per_s": len(answered) / load_s,
        "p50_ms": median(distinct),
        "p95_ms": nearest_rank(distinct, 0.95),
        "recovery_s": recovery_s,
        "peak_rss_mb": server_rss,
        "tsp_penalty_ratio": tsp_total / original_total,
        "tsp_bound_gap": tsp_total / sum(
            sum(s["response"]["bounds"].values()) for s, *_ in served
        ),
        "tsp_cycles_ratio": sum(cycles(i, served[i][1]) for i in sampled)
        / sum(cycles(i, original[i][0]) for i in sampled),
        "exttsp_score_ratio": sum(
            exttsp_program_score(program, layouts, profile)
            for _, layouts, profile, _ in served
        ) / sum(
            exttsp_program_score(program, layouts, profile)
            for layouts, profile in original
        ),
    }

    per_layer = {}
    if traced:
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        summary = layers.summarize(events)
        solved = len(served)
        per_layer = layers.batch_metrics(
            layers.summarize(setup_events), summary, solved
        )
        for layer in ("key", "parse", "compile", "align", "bound",
                      "evaluate", "verify", "journal"):
            per_layer[f"serve.{layer}_ms"] = (
                summary["spans"].get(f"serve.{layer}", {}).get("ms", 0.0)
                / solved
            )
        per_layer["lang.compile_ms"] = (
            summary["spans"].get("lang.compile", {}).get("ms", 0.0) / solved
        )
        per_layer["serve.wait_ms"] = median(
            s["latency_ms"] - s["response"]["elapsed_ms"] for s, *_ in served
        )
        per_layer["serve.solved"] = solved
        per_layer["serve.deduped"] = counters.get("deduped", 0)
        per_layer["serve.shed"] = (counters.get("gate") or {}).get("shed", 0)
        repeats = [s["latency_ms"] for s in samples if s["repeat"]]
        per_layer["serve.dedup_p50_ms"] = median(repeats) if repeats else 0.0
        per_layer["recovery.records"] = records.get("replayed_completed", 0)
        per_layer["recovery.ms_per_record"] = (
            records.get("replay_ms", 0.0)
            / max(1, records.get("replayed_completed", 0))
        )
        per_layer["trace.pass_s"] = end_to_end["pass_s"]
        per_layer["trace.overhead_pct"] = (
            100.0 * (distinct_p50(samples) - untraced_p50) / untraced_p50
        )
    return end_to_end, per_layer
