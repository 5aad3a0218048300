"""Core machinery: suppressions, fingerprints, path gating, import maps."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import (
    Finding,
    ImportMap,
    ModuleSource,
    in_sim_path,
    is_benchmark_path,
    is_test_path,
)


def _module(text: str, rel: str = "src/repro/simulator/x.py") -> ModuleSource:
    return ModuleSource(Path("/fixture") / rel, rel, text=text)


class TestSuppressions:
    def test_line_suppression_matches_named_rule_only(self):
        m = _module("x = 1  # repro-lint: disable=rng-taint\n")
        assert m.suppressed("rng-taint", 1)
        assert not m.suppressed("no-wallclock", 1)
        assert not m.suppressed("rng-taint", 2)

    def test_multiple_rules_one_comment(self):
        m = _module("x = 1  # repro-lint: disable=rule-a, rule-b\n")
        assert m.suppressed("rule-a", 1)
        assert m.suppressed("rule-b", 1)

    def test_trailing_justification_is_tolerated(self):
        m = _module("x = 1  # repro-lint: disable=rule-a (demo plug-in)\n")
        assert m.suppressed("rule-a", 1)

    def test_file_level_suppression_covers_every_line(self):
        m = _module("# repro-lint: disable-file=rule-a\nx = 1\ny = 2\n")
        assert m.suppressed("rule-a", 3)
        assert not m.suppressed("rule-b", 3)

    def test_unrelated_comments_do_not_suppress(self):
        m = _module("x = 1  # ordinary comment mentioning repro-lint\n")
        assert not m.suppressed("rule-a", 1)


class TestFindings:
    def test_fingerprint_ignores_line_numbers(self):
        a = Finding(rule="r", path="p.py", line=3, message="m", snippet="x = rand()")
        b = Finding(rule="r", path="p.py", line=99, message="m", snippet="x = rand()")
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_changes_with_rule_path_and_snippet(self):
        base = Finding(rule="r", path="p.py", line=1, message="m", snippet="s")
        assert base.fingerprint != Finding(rule="q", path="p.py", line=1, message="m", snippet="s").fingerprint
        assert base.fingerprint != Finding(rule="r", path="q.py", line=1, message="m", snippet="s").fingerprint
        assert base.fingerprint != Finding(rule="r", path="p.py", line=1, message="m", snippet="t").fingerprint

    def test_format_is_clickable(self):
        f = Finding(rule="r", path="src/x.py", line=7, message="boom")
        assert f.format() == "src/x.py:7: r: boom"

    def test_module_finding_captures_snippet(self):
        m = _module("import numpy as np\nx = np.random.rand()\n")
        f = m.finding("r", 2, "msg")
        assert f.snippet == "x = np.random.rand()"
        assert f.line == 2


class TestPathGating:
    def test_sim_paths(self):
        assert in_sim_path("src/repro/simulator/cluster_sim.py")
        assert in_sim_path("src/repro/failures/models.py")
        assert in_sim_path("src/repro/scenario/sweep.py")
        assert not in_sim_path("src/repro/traces/azure.py")
        assert not in_sim_path("examples/quickstart.py")
        # "repro" and "simulator" must be *adjacent* path parts.
        assert not in_sim_path("src/repro/apps/simulator_helpers.py")

    def test_test_and_benchmark_paths(self):
        assert is_test_path("tests/simulator/test_x.py")
        assert is_benchmark_path("benchmarks/bench_x.py")
        assert not is_test_path("src/repro/simulator/x.py")


class TestSyntaxErrors:
    def test_broken_file_yields_no_tree_and_records_error(self):
        m = _module("def broken(:\n")
        assert m.tree is None
        assert m.syntax_error is not None


class TestImportMap:
    def _map(self, code: str) -> ImportMap:
        return ImportMap(ast.parse(code))

    def test_numpy_alias_chains(self):
        im = self._map("import numpy as np\n")
        node = ast.parse("np.random.rand()").body[0].value.func
        assert im.numpy_random_attr(node) == "rand"

    def test_numpy_random_submodule_alias(self):
        im = self._map("import numpy.random as npr\n")
        node = ast.parse("npr.rand()").body[0].value.func
        assert im.numpy_random_attr(node) == "rand"

    def test_from_numpy_random_import(self):
        im = self._map("from numpy.random import rand\n")
        node = ast.parse("rand()").body[0].value.func
        assert im.numpy_random_attr(node) == "rand"

    def test_stdlib_random_alias(self):
        im = self._map("import random as rnd\n")
        node = ast.parse("rnd.randint(0, 3)").body[0].value.func
        assert im.stdlib_random_attr(node) == "randint"

    def test_registry_from_import_with_rename(self):
        im = self._map("from repro.registry import register as reg\n")
        node = ast.parse("reg('policy', 'x')").body[0].value.func
        assert im.registry_call(node) == "register"

    def test_registry_module_alias(self):
        im = self._map("from repro import registry\n")
        node = ast.parse("registry.create('policy', 'x')").body[0].value.func
        assert im.registry_call(node) == "create"

    def test_unrelated_names_resolve_to_none(self):
        im = self._map("import numpy as np\n")
        node = ast.parse("self.rng.random()").body[0].value.func
        assert im.numpy_random_attr(node) is None
        assert im.stdlib_random_attr(node) is None
