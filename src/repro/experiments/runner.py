"""CLI: regenerate the paper's figures.

Usage::

    python -m repro.experiments fig20           # one figure, small scale
    python -m repro.experiments all --scale full
    repro-experiments fig16 fig17
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.experiments.base import SCALES
from repro.experiments.registry import get_experiment
from repro.registry import names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation figures of the VM-deflation paper.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help=f"figure ids ({', '.join(names('experiment'))}) or 'all'",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument(
        "--engine",
        default=None,
        help="execution backend for engine-aware experiments (fig20-22), "
        "by registered name — e.g. 'sharded' replays the grid on the "
        "scale-out engine (partitioned variant; see docs/engines.md). "
        "Experiments without an engine knob ignore this with a warning.",
    )
    args = parser.parse_args(argv)

    ids = names("experiment") if "all" in args.figures else args.figures
    for figure_id in ids:
        runner = get_experiment(figure_id)
        kwargs = {}
        if args.engine is not None:
            if "engine" in inspect.signature(runner).parameters:
                kwargs["engine"] = args.engine
            else:
                print(
                    f"warning: {figure_id} has no engine knob; "
                    f"ignoring --engine {args.engine}",
                    file=sys.stderr,
                )
        start = time.perf_counter()
        result = runner(args.scale, **kwargs)
        elapsed = time.perf_counter() - start
        result.print_table()
        print(f"[{figure_id} regenerated in {elapsed:.1f}s at scale={args.scale}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
