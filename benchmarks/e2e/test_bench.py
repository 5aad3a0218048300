"""Harness test for the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at 300 VMs, untraced and traced, through the same
``measure`` the benchmark command uses, and checks the emitted metrics
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import workloads
from layers import PER_LAYER

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        (name, trace): run.measure(name, 0, 0.0, trace, n_vms=300, setups=1, out_dir=out)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(emitted, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in workloads.WORKLOADS:
        result, detail = emitted[name, trace]
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {metric: v["unit"] for metric, v in result["metrics"].items()}
        assert got == declared, name
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert [n for n in names if not NAME.match(n)] == []
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_what_run_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
