"""Runs one workload in the hermetic interpreter ``run.py`` starts.

Prints any failed operations, then one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from bench import Ledger, metric_catalogue


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--extra", default="{}",
                        help="start-up figures measured by run.py (JSON)")
    args = parser.parse_args(argv)
    extra = json.loads(args.extra)
    traced = bool(args.trace)
    if traced:
        import layers

        layers.install()

    if args.workload == "fig2-sweep":
        from fig2 import run
    elif args.workload == "synth-large":
        from synth import run
    elif args.workload == "serve-http":
        from serve import run
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    ledger = Ledger()
    end_to_end, per_layer = run(
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        tiny=args.scale == "tiny",
        workdir=args.workdir,
        ledger=ledger,
        import_s=extra["import_s"],
    )
    per_layer["setup.import_s"] = extra["import_s"]
    per_layer["setup.scipy_s"] = extra.get("scipy_s", 0.0)

    declared_e2e, declared_layers = metric_catalogue()
    declared = declared_layers if traced else declared_e2e
    # A layer a workload never reaches reads 0; an end-to-end metric has
    # no such default.
    produced = (
        {**dict.fromkeys(declared_layers, 0.0), **per_layer}
        if traced else end_to_end
    )
    missing = sorted(set(declared) - set(produced))
    if missing:
        raise SystemExit(f"workload did not report: {', '.join(missing)}")
    for line in ledger.report_lines():
        print(line)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(produced[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
