"""Compare two suite reports of the end-to-end benchmark.

    python benchmarks/e2e/compare.py A.json B.json

For every end-to-end metric and workload it prints each side's median and
quartiles and B's median as a change against A's.  A row is flagged when
the medians differ by more than the metric's bound in ``BENCHMARK.json``;
the flag reads ``unresolved`` instead of ``DIFFERS`` when either side's
spread (q3 - q1, over its median) is wider than the bound, because such a
difference cannot be told from run-to-run noise.  ``failed_frac`` is
flagged on any increase.  Per-layer metrics, which have no bound, follow
unflagged.  Exits 1 when any row reads ``DIFFERS``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of rows that differ beyond their bound."""
    lines = [
        f"{'workload':<12} {'metric':<14} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8}  verdict"
    ]
    differs = 0
    for name, ea in a["workloads"].items():
        eb = b["workloads"].get(name)
        if eb is None:
            lines.append(f"{name:<12} missing from B")
            differs += 1
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sa, sb = ea["end_to_end"].get(key), eb["end_to_end"].get(key)
            if sa is None or sb is None:
                lines.append(f"{name:<12} {key:<14} missing")
                differs += 1
                continue
            change = sb["median"] / sa["median"] - 1.0
            worse = change > 0 if metric["better"] == "lower" else change < 0
            verdict = ""
            if abs(change) > bound:
                verdict = "unresolved" if max(_spread(sa), _spread(sb)) > bound else "DIFFERS"
                verdict += " (worse)" if worse else " (better)"
                differs += verdict.startswith("DIFFERS")
            lines.append(
                f"{name:<12} {key:<14} "
                f"{sa['median']:>12.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] "
                f"{sb['median']:>12.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] "
                f"{change:>+7.1%}  {verdict}"
            )
        fa, fb = ea["failed_frac"], eb["failed_frac"]
        verdict = "DIFFERS (worse)" if fb > fa else ""
        differs += fb > fa
        lines.append(f"{name:<12} {'failed_frac':<14} {fa:>12.4f} {'':>20} {fb:>12.4f}  {verdict}")

    lines.append("\nper-layer (one traced run each side, no bound)")
    for name, ea in a["workloads"].items():
        eb = b["workloads"].get(name, {"per_layer": {}})
        for key, va in ea["per_layer"].items():
            vb = eb["per_layer"].get(key, {}).get("value", float("nan"))
            lines.append(f"{name:<12} {key:<34} {va['value']:>14.6f} {vb:>14.6f} {va['unit']}")
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, differs = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
