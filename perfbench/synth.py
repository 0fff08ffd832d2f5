"""``synth-large``: a synthetic program of large procedures, aligned by every
method, with Held–Karp floors, at ``jobs=2``.

The program comes from :mod:`repro.workloads.synthetic` with a fixed
generator seed and a fixed ladder of procedure sizes (20 to 100 blocks),
so every run and every seed times the same instances: floors cost from
milliseconds to seconds per procedure, and drawing a new program per seed
would measure the draw, not the code.  ``--seed`` sets the TSP solver's
seed.  Each timed pass starts with cold artifact caches and a fresh
worker pool (workers cache cost matrices per process), and runs, for
each method, ``align_program`` and ``evaluate_program``, then
``lower_bound_program``; no trace is replayed inside a pass.  An
operation is one procedure of one pass (all methods and its floor).
"""

from __future__ import annotations

import gc
import random
import time

from bench import Ledger, children_peak_rss_mb, median, nearest_rank, peak_rss_mb
from checks import (
    bound_order_error,
    exact_optimum,
    penalty_match_error,
    permutation_error,
)

PROGRAM_SEED = 1997
SIZES = (20, 30, 40, 50, 60, 70, 85, 100)
TINY_SIZES = (12, 20)
JOBS = 2
SETUP_SAMPLES = 3
#: Store restarts timed after each pass (each takes milliseconds).
RESTART_SAMPLES = 5


def build_program(sizes):
    """The synthetic program and a Markov-walk profile over it (as
    :func:`repro.workloads.synthetic.synthetic_workload` builds one, with
    fixed procedure sizes), plus the walks' block trace."""
    from repro.cfg.graph import Program
    from repro.profiles.synthesize import synthesize_profile
    from repro.profiles.trace import CompactTrace, TraceBuilder
    from repro.workloads.synthetic import (
        GeneratorConfig,
        random_biases,
        random_procedure,
    )

    rng = random.Random(PROGRAM_SEED)
    program = Program(main="proc0")
    for index, size in enumerate(sizes):
        program.add(random_procedure(
            f"proc{index}", rng, GeneratorConfig(target_blocks=size)
        ))
    builder = TraceBuilder()
    profile = synthesize_profile(
        program, random_biases(program, PROGRAM_SEED + 1),
        seed=PROGRAM_SEED + 2, walks_per_procedure=12, max_steps=4000,
        trace_builder=builder,
    )
    return program, profile, CompactTrace(builder.trace)


def run(*, seed, seconds, traced, tiny, workdir, ledger: Ledger, import_s):
    from repro import core, obs
    from repro.core import AlignmentReport, build_alignment_instance
    from repro.core.exttsp import exttsp_score
    from repro.experiments.runner import DEFAULT_METHODS
    from repro.machine.models import ALPHA_21164
    from repro.machine.timing import simulate_timing
    from repro.pipeline.artifacts import reset_artifact_cache, set_default_store
    from repro.pipeline.executor import shutdown_pool

    import layers

    sizes = TINY_SIZES if tiny else SIZES
    model = ALPHA_21164

    # -- set-up: build the inputs (median of several builds), then one
    # untimed warm-up pass --------------------------------------------------
    builds = []
    for _ in range(SETUP_SAMPLES):
        begin = time.perf_counter()
        program, profile, trace = build_program(sizes)
        builds.append(time.perf_counter() - begin)

    def one_pass():
        # Workers keep per-process caches (cost matrices) across calls, so
        # a cold pass also starts a fresh pool, as a new process would.
        shutdown_pool()
        reset_artifact_cache()
        gc.collect()  # no pass pays for garbage an earlier one left
        begin = time.perf_counter()
        outcome = {}
        for method in DEFAULT_METHODS:
            report = AlignmentReport()
            layouts = core.align_program(
                program, profile, method=method, model=model, seed=seed,
                jobs=JOBS, report=report,
            )
            penalty = core.evaluate_program(program, layouts, profile, model)
            outcome[method] = (layouts, report, penalty)
        floors = core.lower_bound_program(
            program, profile, model=model, jobs=JOBS
        ).per_procedure
        elapsed = time.perf_counter() - begin
        ledger.attempt(len(program.procedures))
        return elapsed, outcome, floors

    # The warm-up pass also fills an on-disk artifact store (``--store``),
    # which recovery restarts from; timed passes run without it.
    store = workdir / "store"
    begin = time.perf_counter()
    set_default_store(store)
    try:
        _, _, warm_floors = one_pass()
    finally:
        set_default_store(None)
    setup_s = import_s + median(builds) + time.perf_counter() - begin

    def check_pass(label, outcome, floors):
        for proc in program:
            op = f"{label}:{proc.name}"
            edges = profile.profile(proc.name)
            floor = floors.get(proc.name, 0.0)
            for method, (layouts, report, penalty) in outcome.items():
                layout = layouts[proc.name]
                error = permutation_error(proc.cfg, layout)
                ledger.check(error is None, op, f"{method} permutation", error)
                paid = penalty.per_procedure[proc.name].total
                if proc.name in report.costs:
                    error = penalty_match_error(report.costs[proc.name], paid)
                    ledger.check(error is None, op,
                                 f"{method} cost = penalty", error)
                ledger.check(paid >= floor - 1e-6, op,
                             f"{method} penalty above floor",
                             f"{paid} < {floor}")
            tsp = outcome["tsp"][2].per_procedure[proc.name].total
            original = outcome["original"][2].per_procedure[proc.name].total
            ledger.check(tsp <= original + 1e-6, op,
                         "tsp penalty <= original penalty",
                         f"{tsp} > {original}")
            ext = exttsp_score(proc.cfg, outcome["exttsp"][0][proc.name],
                               edges)
            merge = exttsp_score(
                proc.cfg, outcome["chain-merge"][0][proc.name], edges
            )
            ledger.check(ext >= merge - 1e-9, op,
                         "exttsp score >= chain-merge", f"{ext} < {merge}")
            tsp_costs = outcome["tsp"][1].costs
            if proc.name in tsp_costs:
                exact = exact_optimum(
                    build_alignment_instance(proc.cfg, edges, model)
                )
                if exact is not None:
                    error = bound_order_error(
                        floor, exact, tsp_costs[proc.name]
                    )
                    ledger.check(error is None, op, "exact DP order", error)

    # Recovery: what a rerun with ``--store`` does after a crash, in this
    # process (setup.import_s already times an interpreter's start-up): with
    # empty in-memory caches and no pool, every alignment and floor is
    # served from the store the warm-up pass filled.  Samples are spread
    # between the passes, so they see the host as the passes do.
    resumes: list[float] = []

    def restart(label, outcome) -> None:
        ledger.attempt()
        expected = {
            method: layouts.layouts for method, (layouts, _, _) in outcome.items()
        }
        set_default_store(store)
        try:
            for _ in range(RESTART_SAMPLES):
                shutdown_pool()
                reset_artifact_cache()
                begin = time.perf_counter()
                got = {
                    method: core.align_program(
                        program, profile, method=method, model=model,
                        seed=seed, jobs=JOBS,
                    ).layouts
                    for method in DEFAULT_METHODS
                }
                floors = core.lower_bound_program(
                    program, profile, model=model, jobs=JOBS
                ).per_procedure
                resumes.append(time.perf_counter() - begin)
        finally:
            set_default_store(None)
        ledger.check(
            got == expected and floors == warm_floors, f"{label}:restart",
            "store restart serves the same layouts and floors",
        )

    plain: list[float] = []
    spanned: list[float] = []
    pass_events: list[dict] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        label = f"pass{index}"
        if traced and index % 2 == 1:
            with obs.collect() as events:
                elapsed, outcome, floors = one_pass()
            pass_events.extend(events)
            spanned.append(elapsed)
        else:
            elapsed, outcome, floors = one_pass()
            plain.append(elapsed)
        rss = max(rss, peak_rss_mb() + children_peak_rss_mb())
        check_pass(label, outcome, floors)
        restart(label, outcome)
        index += 1
        enough = len(spanned) >= 2 if traced else len(plain) >= 1
        if enough and time.perf_counter() >= deadline:
            break

    shutdown_pool()

    # -- metrics -----------------------------------------------------------
    def total(method):
        return outcome[method][2].total

    def score(method):
        return sum(
            exttsp_score(p.cfg, outcome[method][0][p.name],
                         profile.profile(p.name))
            for p in program
        )

    def cycles(method):
        return simulate_timing(
            program, outcome[method][0], profile, trace, model
        ).total_cycles

    pass_s = median(plain)
    end_to_end = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "req_per_s": len(program.procedures) / pass_s,
        "p50_ms": pass_s * 1000.0,
        "p95_ms": nearest_rank(plain, 0.95) * 1000.0,
        "recovery_s": median(resumes),
        "peak_rss_mb": rss,
        "tsp_penalty_ratio": total("tsp") / total("original"),
        "tsp_bound_gap": total("tsp") / sum(floors.values()),
        "tsp_cycles_ratio": cycles("tsp") / cycles("original"),
        "exttsp_score_ratio": score("exttsp") / score("original"),
    }
    per_layer = {}
    if traced:
        per_layer = layers.batch_metrics(
            layers.summarize([]), layers.summarize(pass_events), len(spanned)
        )
        per_layer["trace.overhead_pct"] = (
            100.0 * (median(spanned) - median(plain)) / median(plain)
        )
        per_layer["trace.pass_s"] = sum(spanned) / len(spanned)
    return end_to_end, per_layer
