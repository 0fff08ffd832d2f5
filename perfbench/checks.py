"""Output checks that rest on properties and on independent code paths.

None of these compares against a saved copy of earlier output.  Each
returns ``None`` when the property holds, else a one-line reason.
"""

from __future__ import annotations

from bench import close


def permutation_error(cfg, layout) -> str | None:
    """A layout must hold each block of its procedure once, entry first."""
    order = list(layout.order)
    if sorted(order) != sorted(cfg.block_ids):
        return "layout is not a permutation of the procedure's blocks"
    if order[0] != cfg.entry:
        return f"layout starts at block {order[0]}, not the entry"
    return None


def bound_order_error(floor: float, exact: float, tsp: float) -> str | None:
    """Floor ≤ exact optimum ≤ TSP cost (a small relative slack absorbs
    floating-point summation order)."""
    slack = 1e-6 * max(1.0, abs(tsp))
    if floor > exact + slack:
        return f"floor {floor:.6g} above the exact optimum {exact:.6g}"
    if exact > tsp + slack:
        return f"exact optimum {exact:.6g} above the TSP cost {tsp:.6g}"
    return None


def exact_optimum(instance) -> float | None:
    """The exact DP's optimum for an instance small enough, else ``None``."""
    from repro.tsp.exact import MAX_EXACT_CITIES, exact_tour

    if instance.n > MAX_EXACT_CITIES:
        return None
    return exact_tour(instance.matrix)[1]


def icache_reference(program, layouts, predictors, trace, icache) -> tuple[int, int]:
    """I-cache accesses and misses from one ``DirectMappedICache.fetch`` per
    fetched block, walking the trace event by event.  A fixup jump is
    fetched between two events of one procedure when the first block's
    fixup leads to the second — written here from the layout's
    materialization, not from the simulator's vectorized replay."""
    from repro.core.materialize import materialize_program

    materialized = materialize_program(program, layouts, predictors)
    last_proc = None
    last_block = None
    for proc_name, block_id in trace:
        physical = materialized[proc_name]
        if proc_name == last_proc:
            previous = physical.block_for(last_block)
            if previous.fixup_target == block_id:
                fixup = physical.fixup_after(last_block)
                if fixup is not None:
                    icache.fetch(fixup.address, fixup.words)
        block = physical.block_for(block_id)
        icache.fetch(block.address, block.words)
        last_proc, last_block = proc_name, block_id
    return icache.stats.accesses, icache.stats.misses


def penalty_match_error(cost: float, penalty: float) -> str | None:
    if close(cost, penalty):
        return None
    return f"tour cost {cost:.9g} != evaluated penalty {penalty:.9g}"
