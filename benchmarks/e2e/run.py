"""End-to-end benchmark of the trace-driven deflation cluster replay.

Run from the repository root.  One run of one workload::

    python3 benchmarks/e2e/run.py --workload flat-50k --seed 0 --seconds 10 --trace 0

checks the workload's code paths against an independent implementation
(the correctness gate), sets the workload up several times, then replays
it pass after pass for ``--seconds`` (at least one pass), checking every
result and requiring every pass to give bit-identical results.  It prints
a ``{"detail": ...}`` line, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics from
span-traced passes alternating with untraced ones, whose difference is
``trace.overhead_s``.  It exits 1 when any check failed.

The suite (no ``--workload``)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed S] [--out FILE]

runs each workload 5 times, each run a fresh subprocess, interleaved
across workloads (A B C D, A B C D, ...), then one traced run per
workload; it prints every metric with its unit as median, quartiles and n,
requires each workload's result hashes to agree across all its runs, and
writes everything, with a host stamp, to ``--out``.  ``compare.py`` diffs
two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; setup_s is their median.
SETUPS = 3
REPEATS = 5

#: name -> unit of the end-to-end metrics (bounds live in BENCHMARK.json).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.scenario; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """``import repro`` and the scenario pipeline, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def host_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    n_vms: int | None = None,
    setups: int = SETUPS,
    out_dir: Path = OUT,
) -> tuple[dict, dict]:
    """One run of one workload: ``(result object, detail)``."""
    import layers
    import workloads
    from spans import SpanRecorder

    wl = workloads.WORKLOADS[name]
    n_vms = n_vms or wl.n_vms
    seeds = {role: base + seed for role, base in wl.seeds.items()}
    load_before = os.getloadavg()
    rec = SpanRecorder(out_dir / "spill")

    def spans_on(on: bool):
        return layers.traced(rec) if on else contextlib.nullcontext()

    attempted, gate_problems = wl.gate(seeds, n_vms)
    problems = list(gate_problems)

    setup_times = []
    scenarios = None
    for k in range(setups):
        imported = _import_seconds()
        scenarios = None  # drop the previous set-up before building the next
        rec.run = f"setup-{k}"
        t0 = time.perf_counter()
        with spans_on(trace):
            scenarios = wl.setup(seeds, n_vms)
        setup_times.append(imported + time.perf_counter() - t0)

    pass_times: dict[bool, list[float]] = {False: [], True: []}
    first_digests = None
    started = time.perf_counter()
    k = 0
    while True:
        traced_pass = trace and k % 2 == 1
        rec.run = f"pass-{k}"
        t0 = time.perf_counter()
        with spans_on(traced_pass):
            results = wl.replay(scenarios)
        found = [workloads.problems_of(s, r) for s, r in zip(scenarios, results)]
        pass_times[traced_pass].append(time.perf_counter() - t0)
        digests = [workloads.digest(r) for r in results]
        if first_digests is None:
            first_digests = digests
        for s, d, first, faults in zip(scenarios, digests, first_digests, found):
            if d != first:
                faults.append(f"{s.describe()}: pass {k} result differs from pass 0")
            problems.extend(faults[:1])
        attempted += len(results)
        k += 1
        enough = time.perf_counter() - started >= seconds
        if enough and pass_times[False] and (pass_times[True] or not trace):
            break

    setup_s = statistics.median(setup_times)
    untraced_s = statistics.median(pass_times[False])
    if trace:
        attempted += 1
        nesting = layers.nesting_violations(rec)
        problems.extend(nesting[:1])
        weights = {"setup": 1.0 / setups, "pass": 1.0 / len(pass_times[True])}
        overhead = statistics.median(pass_times[True]) - untraced_s
        values = layers.layer_metrics(rec, weights, overhead)
        units = {metric: spec[0] for metric, spec in layers.PER_LAYER.items()}
        spans_file = out_dir / f"spans-{name}.jsonl"
        rec.write_jsonl(spans_file)
    else:
        values = {
            "wall_s": setup_s + untraced_s,
            "setup_s": setup_s,
            "events_per_s": workloads.trace_events(scenarios) / untraced_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        spans_file = None

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seeds": seeds,
        "n_vms": n_vms,
        "seconds": seconds,
        "trace": trace,
        "workers": workloads.WORKERS,
        "setup_s": setup_times,
        "pass_s": pass_times[False],
        "traced_pass_s": pass_times[True],
        "events_per_pass": workloads.trace_events(scenarios),
        "digests": first_digests,
        "problems": problems,
        "spans": str(spans_file) if spans_file else None,
        "host": host_stamp(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    return result, detail


# -- the suite -----------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict | None, str]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return None, None, proc.stderr[-2000:]
    return result, detail, ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_suite(seed: int, seconds: float, repeats: int, out: Path | None) -> int:
    import workloads

    names = list(workloads.WORKLOADS)
    runs: dict[str, list] = {name: [] for name in names}
    load_before = os.getloadavg()
    for r in range(repeats):
        for name in names:
            print(f"[e2e] {name} run {r + 1}/{repeats}", file=sys.stderr, flush=True)
            runs[name].append(_child(name, seed, seconds, 0))
    traced = {}
    for name in names:
        print(f"[e2e] {name} traced run", file=sys.stderr, flush=True)
        traced[name] = _child(name, seed, seconds, 1)

    report: dict = {
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "host": host_stamp(),
        "loadavg_before": load_before,
        "workloads": {},
    }
    ok = True
    for name in names:
        everything = [*runs[name], traced[name]]
        done = [(res, det) for res, det, _ in everything if res is not None]
        errors = [f"run produced no result: {err}" for res, _, err in everything if res is None]
        # One more check: the result hashes agree across every run.
        if len({json.dumps(det["digests"]) for _, det in done}) > 1:
            errors.append("result hashes differ between runs")
        attempted = sum(res["attempted"] for res, _ in done) + len(everything) - len(done) + 1
        failed = sum(res["failed"] for res, _ in done) + len(errors)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "errors": errors,
            "seeds": done[0][1]["seeds"] if done else None,
            "end_to_end": {},
            "per_layer": {},
        }
        for metric, unit in END_TO_END.items():
            values = [res["metrics"][metric]["value"] for res, _, _ in runs[name] if res]
            if values:
                q1, med, q3 = _quartiles(values)
                entry["end_to_end"][metric] = {
                    "unit": unit, "median": med, "q1": q1, "q3": q3,
                    "n": len(values), "values": values,
                }  # fmt: skip
        res = traced[name][0]
        if res is not None:
            entry["per_layer"] = res["metrics"]
        ok &= entry["failed"] == 0
        report["workloads"][name] = entry
    report["loadavg_after"] = os.getloadavg()

    _print_report(report)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _print_report(report: dict) -> None:
    host = report["host"]
    print(
        f"host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"load {report['loadavg_before'][0]:.2f} -> {report['loadavg_after'][0]:.2f}; "
        f"seed offset {report['seed']}, {report['seconds']}s per run"
    )
    for name, entry in report["workloads"].items():
        print(f"\n{name}  seeds={entry['seeds']}  failed_frac={entry['failed_frac']:.4f} "
              f"({entry['failed']}/{entry['attempted']})")
        for err in entry["errors"]:
            print(f"  ERROR: {err}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<14} {s['median']:>14.4f} {s['unit']:<9} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} n={s['n']}")
        for metric, v in entry["per_layer"].items():
            print(f"  {metric:<34} {v['value']:>14.6f} {v['unit']}")


# -- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload once (default: the suite)")
    parser.add_argument("--seed", type=int, default=0, help="added to every base seed")
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="suite report file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_START_METHOD"] = "fork"
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.workload is None:
        return run_suite(args.seed, seconds, REPEATS, args.out)
    result, detail = measure(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
