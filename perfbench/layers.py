"""The benchmark's own spans around calls into each layer of the program.

:func:`install` replaces the public functions the workloads reach — in the
namespaces that call them — with thin wrappers that open a
``repro.obs`` span named ``bench:<layer>`` while a trace is being
collected, and call straight through otherwise.  Using the program's own
span machinery means spans opened in executor worker processes travel back
with the results (the executor captures each task's events), so the
per-layer figures cover work done in the pool too.  The program itself
gains no new tracing.

:func:`summarize` folds a list of trace events into per-layer totals: time
(ms), calls, and the summed ``n`` attribute (procedures, events, …).
"""

from __future__ import annotations

import functools

PREFIX = "bench:"


def _wrap(owner, attr: str, layer: str, size=None, attrs=None) -> None:
    from repro import obs

    original = getattr(owner, attr)

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        tracer = obs.tracer()
        if not tracer.active:
            return original(*args, **kwargs)
        extra = attrs(args, kwargs) if attrs else {}
        with tracer.span(PREFIX + layer, **extra) as sp:
            result = original(*args, **kwargs)
            if size is not None:
                sp["n"] = size(args, kwargs, result)
            return result

    setattr(owner, attr, spanned)


def _procedures(args, kwargs, result) -> int:
    return len(args[0].procedures)


def _method(args, kwargs) -> dict:
    return {"method": kwargs.get("method", "tsp")}


def install() -> None:
    """Wrap every layer entry point the three workloads call.  Call once,
    before the executor's pool starts, so forked workers inherit it."""
    import repro.core
    import repro.experiments.runner as runner
    import repro.lang
    import repro.machine.timing as timing
    import repro.pipeline.stages as stages
    import repro.service.core as service
    import repro.workloads.suite as suite
    from repro.service.journal import RequestJournal

    # repro.lang: profiling runs and front-end compilation.  The journal's
    # request keying imports ``compile_source`` from ``repro.lang`` at call
    # time, so ``lang.compile`` covers keying and solving alike.
    _wrap(runner, "run_and_profile", "lang.vm",
          size=lambda a, k, r: r[0].blocks_executed)
    for owner in (repro.lang, suite, service):
        _wrap(owner, "compile_source", "lang.compile")

    # repro.core: aligners (per method), evaluation, cost matrices.
    for owner in (runner, repro.core):
        _wrap(owner, "align_program", "align", size=_procedures,
              attrs=_method)
        _wrap(owner, "evaluate_program", "evaluate")
    _wrap(stages, "build_alignment_instance", "costmatrix")

    # repro.tsp through the pipeline: one Held–Karp/B&B floor per call.
    _wrap(stages, "alignment_lower_bound", "bound")
    _wrap(repro.core, "lower_bound_program", "bound.program")

    # repro.pipeline: executor batches (pool or serial).
    _wrap(stages, "run_tasks_supervised", "executor.batch")

    # repro.machine: the timing simulator and its layout materialization.
    _wrap(runner, "simulate_timing", "timing",
          size=lambda a, k, r: len(a[3]))
    _wrap(timing, "materialize_program", "timing.materialize")

    # repro.service: each step of a request, in the server process.
    for attr, layer in (
        ("request_key", "serve.key"),
        ("parse_request", "serve.parse"),
        ("compile_source", "serve.compile"),
        ("align_program", "serve.align"),
        ("lower_bound_program", "serve.bound"),
        ("evaluate_program", "serve.evaluate"),
        ("verify_layouts", "serve.verify"),
    ):
        _wrap(service, attr, layer)
    for attr in ("admitted", "completed", "failed"):
        _wrap(RequestJournal, attr, "serve.journal")


def summarize(events: list[dict]) -> dict:
    """Per-layer totals from trace events: ``{"spans": {layer: {"ms",
    "calls", "n"}}, "counters": {name: value}}``.  Aligner spans are keyed
    ``align.<method>``."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for event in events:
        kind = event.get("type")
        if kind == "counter":
            counters[event["name"]] = (
                counters.get(event["name"], 0) + event.get("value", 0)
            )
        elif kind == "span" and event.get("name", "").startswith(PREFIX):
            layer = event["name"][len(PREFIX):]
            attrs = event.get("attrs") or {}
            if layer == "align":
                layer = f"align.{attrs.get('method')}"
            total = spans.setdefault(layer, {"ms": 0.0, "calls": 0, "n": 0})
            total["ms"] += float(event.get("dur_ms", 0.0))
            total["calls"] += 1
            total["n"] += int(attrs.get("n", 0))
    return {"spans": spans, "counters": counters}


METHODS = ("original", "greedy", "tsp", "exttsp", "chain-merge")

#: Counters ``repro.obs`` already keeps, reported per pass.
COUNTERS = (
    "tsp.runs", "tsp.kicks", "tsp.improving_moves", "tsp.or_opt_moves",
    "exttsp.merges", "exttsp.splits", "exttsp.refine_moves",
    "executor.retried", "executor.quarantined", "executor.worker_crashes",
    *(f"cache.{kind}.{what}" for kind in ("instance", "align", "bound")
      for what in ("hits", "misses")),
)


def batch_metrics(setup: dict, passes: dict, count: int) -> dict[str, float]:
    """Per-layer metrics of a batch workload: set-up layers (profiling,
    compilation) as run totals, everything else per traced pass, from
    :func:`summarize` of the set-up events and of all traced passes."""
    def span(summary, layer, field="ms"):
        return summary["spans"].get(layer, {}).get(field, 0)

    out = {
        "lang.vm_s": span(setup, "lang.vm") / 1000.0,
        "lang.vm_events": span(setup, "lang.vm", "n"),
        "lang.compile_ms": span(setup, "lang.compile"),
        "costmatrix.ms": span(passes, "costmatrix") / count,
        "costmatrix.builds": span(passes, "costmatrix", "calls") / count,
        "align.procs": sum(
            span(passes, f"align.{m}", "n") for m in METHODS
        ) / count,
        "evaluate.ms": span(passes, "evaluate") / count,
        "bound.ms": span(passes, "bound") / count,
        "bound.procs": span(passes, "bound", "calls") / count,
        "bound.wall_ms": span(passes, "bound.program") / count,
        "timing.ms": span(passes, "timing") / count,
        "timing.materialize_ms": span(passes, "timing.materialize") / count,
        "timing.events": span(passes, "timing", "n") / count,
        "executor.batches": span(passes, "executor.batch", "calls") / count,
    }
    for method in METHODS:
        out[f"align.{method}.ms"] = span(passes, f"align.{method}") / count
    for name in COUNTERS:
        out[name] = passes["counters"].get(name, 0) / count
    return out
