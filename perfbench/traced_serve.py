"""``repro serve`` with the benchmark's layer spans installed.

    python perfbench/traced_serve.py serve --port 0 --journal J --trace T ...

Takes the ``repro`` command line unchanged; the spans land in the JSONL
trace named by ``--trace``, next to the program's own spans and counters.
"""

from __future__ import annotations

import sys

import layers

if __name__ == "__main__":
    layers.install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
