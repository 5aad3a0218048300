"""Regenerate every paper figure and export the series as CSV files.

Run with::

    python examples/export_figures.py [output_dir]

Produces one ``<figure-id>.csv`` per experiment (plus the four ablations)
under ``output_dir`` (default: ``./figures``) — ready for the plotting tool
of your choice.
"""

import sys
import time
from pathlib import Path

from repro.experiments.ablations import ABLATIONS
from repro.experiments.registry import get_experiment
from repro.registry import names


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(name, get_experiment(name)) for name in names("experiment")] + [
        (f"ablation-{name}", fn) for name, fn in ABLATIONS.items()
    ]
    for figure_id, runner in jobs:
        start = time.perf_counter()
        result = runner("small")
        path = out_dir / f"{figure_id}.csv"
        result.to_csv(path)
        print(f"{figure_id:>22} -> {path}  ({time.perf_counter() - start:.1f}s, "
              f"{len(result.rows)} rows)")
    print(f"\nwrote {len(jobs)} CSV files to {out_dir}/")


if __name__ == "__main__":
    main()
