"""``fig2-sweep``: the paper's Figure-2 configuration, run as ``repro suite``
runs it — every case of the suite (train = test), the runner's default
methods, the Held–Karp floor per case, one worker (``jobs=1``).

Set-up profiles every case in the VM.  Each timed pass then starts with
cold artifact and bound caches and fresh trace objects (so the timing
simulator's per-trace memo is rebuilt), and runs the cases in an order
drawn from the seed.  The solver seed stays 0, as ``repro suite`` uses it,
so every pass does the same work.  An operation is one case of one pass.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import random
import time

from bench import Ledger, children_peak_rss_mb, median, nearest_rank, peak_rss_mb
from checks import (
    bound_order_error,
    exact_optimum,
    icache_reference,
    penalty_match_error,
    permutation_error,
)

#: (case, method) pairs replayed event by event against the I-cache.
ICACHE_PAIRS = 2
#: Checkpoint resumes timed after each pass (each takes milliseconds).
RESUME_SAMPLES = 5


def run(*, seed, seconds, traced, tiny, workdir, ledger: Ledger, import_s):
    from repro import obs
    from repro.core import build_alignment_instance, train_predictors
    from repro.core.exttsp import exttsp_score
    from repro.experiments.checkpoint import CaseKey, ExperimentCheckpoint
    from repro.experiments.runner import (
        DEFAULT_METHODS,
        case_lower_bound,
        profiled_run,
        run_cases,
    )
    from repro.machine.icache import DirectMappedICache
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.artifacts import reset_artifact_cache
    from repro.tsp.solve import DEFAULT
    from repro.workloads.suite import all_cases, compile_benchmark

    import layers

    rng = random.Random(seed)
    cases = all_cases()
    if tiny:
        cases = [("dod", "sm"), ("su2", "sh"), ("xli", "ne")]

    # -- set-up: profile every case; keep pristine traces ------------------
    started = time.perf_counter()
    with obs.collect() if traced else contextlib.nullcontext([]) as setup_events:
        pristine = {}
        for case in cases:
            compile_benchmark(case[0])
            pristine[case] = copy.copy(profiled_run(*case).trace)
    setup_s = import_s + time.perf_counter() - started

    def one_pass(label: str):
        reset_artifact_cache()
        gc.collect()  # no pass pays for garbage an earlier one left
        case_lower_bound.cache_clear()
        for case, trace in pristine.items():
            profiled_run(*case).trace = copy.copy(trace)
        order = list(cases)
        rng.shuffle(order)
        begin = time.perf_counter()
        sweep = run_cases([(b, d) for b, d in order], jobs=1)
        elapsed = time.perf_counter() - begin
        ledger.attempt(len(order))
        for skip in sweep.skipped:
            ledger.check(False, f"{label}:{skip.label}", "case skipped",
                         skip.error)
        return elapsed, sweep.cases

    # Per-case material the checks reuse across passes.
    materials: dict[tuple, dict] = {}

    def case_material(case):
        if (case.benchmark, case.dataset) not in materials:
            program = compile_benchmark(case.benchmark).program
            profile = profiled_run(case.benchmark, case.dataset).profile
            predictors = train_predictors(program, profile)
            materials[case.benchmark, case.dataset] = {
                "program": program,
                "profile": profile,
                "predictors": predictors,
                "instances": {
                    proc.name: build_alignment_instance(
                        proc.cfg, profile.profile(proc.name), ALPHA_21164,
                        predictor=predictors[proc.name],
                    )
                    for proc in program
                },
            }
        return materials[case.benchmark, case.dataset]

    def check_pass(label, results):
        for case in results:
            op = f"{label}:{case.label}"
            got = case_material(case)
            program, profile = got["program"], got["profile"]
            for method, outcome in case.methods.items():
                cost = 0.0
                for proc in program:
                    layout = outcome.layouts[proc.name]
                    error = permutation_error(proc.cfg, layout)
                    ledger.check(error is None, op,
                                 f"{method} {proc.name} permutation", error)
                    if error is None:
                        cost += got["instances"][proc.name].layout_cost(layout)
                error = penalty_match_error(cost, outcome.penalty)
                ledger.check(error is None, op, f"{method} cost = penalty",
                             error)
                ledger.check(
                    outcome.penalty >= case.lower_bound - 1e-6, op,
                    f"{method} penalty above floor",
                    f"{outcome.penalty} < {case.lower_bound}",
                )
            ledger.check(
                case.methods["tsp"].penalty
                <= case.methods["original"].penalty + 1e-6,
                op, "tsp penalty <= original penalty",
            )
            for proc in program:
                edges = profile.profile(proc.name)
                ext = exttsp_score(
                    proc.cfg, case.methods["exttsp"].layouts[proc.name], edges
                )
                merge = exttsp_score(
                    proc.cfg, case.methods["chain-merge"].layouts[proc.name],
                    edges,
                )
                ledger.check(ext >= merge - 1e-9, op,
                             f"exttsp score >= chain-merge ({proc.name})",
                             f"{ext} < {merge}")

    # One untimed pass warms the code paths; it belongs to set-up.
    warm_started = time.perf_counter()
    _, warm = one_pass("warmup")
    setup_s += time.perf_counter() - warm_started

    # Recovery: what ``repro suite … --checkpoint --resume`` does after a
    # crash, in this process (setup.import_s already times an interpreter's
    # start-up): reload a checkpoint of the whole sweep and serve every case
    # from it.  Samples are spread between the passes, so they see the host
    # as the passes do.
    path = workdir / "fig2-checkpoint.jsonl"
    writer = ExperimentCheckpoint(path, resume=False)
    for case in warm:
        writer.record(CaseKey.for_case(
            case.benchmark, case.dataset, None, methods=tuple(DEFAULT_METHODS),
            model=ALPHA_21164, effort=DEFAULT, seed=0,
        ), case)
    expected = {
        case.label: {m: o.penalty for m, o in case.methods.items()}
        for case in warm
    }
    resumes: list[float] = []

    def resume(label: str) -> None:
        ledger.attempt()
        for _ in range(RESUME_SAMPLES):
            begin = time.perf_counter()
            sweep = run_cases(
                cases, jobs=1, checkpoint=ExperimentCheckpoint(path)
            )
            resumes.append(time.perf_counter() - begin)
        got = {
            case.label: {m: o.penalty for m, o in case.methods.items()}
            for case in sweep.cases
        }
        ledger.check(
            sweep.from_checkpoint == len(cases) and got == expected,
            f"{label}:resume", "checkpoint resume serves every case unchanged",
            f"{sweep.from_checkpoint} of {len(cases)} from the checkpoint",
        )

    plain: list[float] = []
    spanned: list[float] = []
    pass_events: list[dict] = []
    results = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        trace_this = traced and index % 2 == 1
        label = f"pass{index}"
        if trace_this:
            with obs.collect() as events:
                elapsed, results = one_pass(label)
            pass_events.extend(events)
            spanned.append(elapsed)
        else:
            elapsed, results = one_pass(label)
            plain.append(elapsed)
        check_pass(label, results)
        resume(label)
        index += 1
        enough = len(spanned) >= 2 if traced else len(plain) >= 1
        if enough and time.perf_counter() >= deadline:
            break

    # -- once-per-run checks on the last pass ------------------------------
    last = f"pass{index - 1}"
    from repro.core import lower_bound_program

    for case in results:
        op = f"{last}:{case.label}"
        got = case_material(case)
        floors = lower_bound_program(
            got["program"], got["profile"], model=ALPHA_21164, jobs=1
        ).per_procedure
        tsp = case.methods["tsp"].layouts
        for proc in got["program"]:
            instance = got["instances"][proc.name]
            exact = exact_optimum(instance)
            if exact is None or proc.name not in floors:
                continue
            error = bound_order_error(
                floors[proc.name], exact, instance.layout_cost(tsp[proc.name])
            )
            ledger.check(error is None, op, f"exact DP order ({proc.name})",
                         error)
    pairs = [(case, m) for case in results for m in DEFAULT_METHODS]
    for case, method in rng.sample(pairs, ICACHE_PAIRS):
        got = case_material(case)
        outcome = case.methods[method]
        accesses, misses = icache_reference(
            got["program"], outcome.layouts, got["predictors"],
            profiled_run(case.benchmark, case.dataset).trace,
            DirectMappedICache(8192, 32),
        )
        ledger.check(
            (accesses, misses)
            == (outcome.timing.icache_accesses, outcome.timing.icache_misses),
            f"{last}:{case.label}", f"{method} I-cache = per-event fetch",
            f"({accesses}, {misses}) != ({outcome.timing.icache_accesses}, "
            f"{outcome.timing.icache_misses})",
        )

    # -- metrics -----------------------------------------------------------
    def total(method, field):
        return sum(getattr(c.methods[method], field) for c in results)

    pass_s = median(plain)
    end_to_end = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "req_per_s": len(cases) / pass_s,
        "p50_ms": pass_s * 1000.0,
        "p95_ms": nearest_rank(plain, 0.95) * 1000.0,
        "recovery_s": median(resumes),
        "peak_rss_mb": peak_rss_mb() + children_peak_rss_mb(),
        "tsp_penalty_ratio": total("tsp", "penalty")
        / total("original", "penalty"),
        "tsp_bound_gap": total("tsp", "penalty")
        / sum(c.lower_bound for c in results),
        "tsp_cycles_ratio": total("tsp", "cycles") / total("original", "cycles"),
        "exttsp_score_ratio": total("exttsp", "exttsp")
        / total("original", "exttsp"),
    }
    per_layer = {}
    if traced:
        per_layer = layers.batch_metrics(
            layers.summarize(setup_events), layers.summarize(pass_events),
            len(spanned),
        )
        per_layer["trace.overhead_pct"] = (
            100.0 * (median(spanned) - median(plain)) / median(plain)
        )
        per_layer["trace.pass_s"] = sum(spanned) / len(spanned)
    return end_to_end, per_layer

