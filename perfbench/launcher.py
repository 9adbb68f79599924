"""Start ``bingo-sim`` with the benchmark's tracing installed.

    PERFBENCH_SPAN_DIR=<dir> python3 perfbench/launcher.py serve --workers 2 ...

Installs the :class:`perfbench.tracing.Tracer` wrappers, then hands the
remaining arguments to ``repro.cli.main`` unchanged.  Every process of
the daemon or agent (including forked job children, which also sample
their stacks for the length of each job) appends its spans to
``<dir>/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import SpanRecorder, Tracer

    Tracer(SpanRecorder(os.environ["PERFBENCH_SPAN_DIR"]), sample_execute=True).install()
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
