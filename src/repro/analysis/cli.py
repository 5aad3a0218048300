"""The ``repro-lint`` command line (also ``python -m repro.analysis``).

Usage::

    repro-lint [paths ...]            # default: src examples, from the root
    repro-lint --list-rules
    repro-lint --format json src
    repro-lint --select rng-taint,golden-freeze src
    repro-lint --update-baseline src examples

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE, BaselineError, write_baseline
from repro.analysis.report import format_json, format_text
from repro.analysis.runner import build_rules, detect_root, run_lint
from repro.errors import UnknownComponentError


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro codebase: statically "
            "enforces the determinism, registry, golden-freeze, merge-"
            "discipline and docs contracts."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples"],
        help="files/directories to lint (default: src examples)",
    )
    p.add_argument(
        "--root",
        default=None,
        help="repo root (default: auto-detected from the first path)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only these rules (default: the whole pack)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            f"baseline file of grandfathered findings (default: "
            f"<root>/{DEFAULT_BASELINE} when it exists)"
        ),
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report everything)",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan the per-file phase out over N worker processes via "
            "supervised_map (findings are bit-identical to a serial run); "
            "default: serial"
        ),
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list baselined findings in text output",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule in build_rules():
            print(f"{rule.name} [{rule.scope}]")
            print(f"    {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    root = Path(args.root).resolve() if args.root else detect_root(paths)
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]

    baseline_path: Path | None
    if args.no_baseline:
        baseline_path = None
    elif args.baseline:
        baseline_path = Path(args.baseline)
    else:
        candidate = root / DEFAULT_BASELINE
        baseline_path = candidate if candidate.exists() else None

    try:
        if args.update_baseline:
            # Rebuild the baseline from a baseline-free run, keeping notes
            # attached to entries that survive.
            report = run_lint(paths, root=root, select=select, baseline_path=None)
            target = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
            notes: dict[str, str] = {}
            if target.exists():
                from repro.analysis.baseline import load_baseline

                notes = {
                    fp: entry["note"]
                    for fp, entry in load_baseline(target).items()
                    if "note" in entry
                }
            grandfatherable = [f for f in report.findings if f.suppressible]
            write_baseline(target, grandfatherable, notes)
            hard = [f for f in report.findings if not f.suppressible]
            for f in hard:
                print(f.format(), file=sys.stderr)
            print(
                f"wrote {target} with {len(grandfatherable)} entries"
                + (f" ({len(hard)} non-baselinable findings remain)" if hard else "")
            )
            return 1 if hard else 0
        report = run_lint(
            paths,
            root=root,
            select=select,
            baseline_path=baseline_path,
            jobs=args.jobs,
        )
    except (UnknownComponentError, BaselineError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report, verbose=args.verbose))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
