"""CLI behavior: exit codes, formats, selection, baseline workflow."""

from __future__ import annotations

import json

from repro.analysis.cli import main

_DIRTY = "import numpy as np\nx = np.random.rand()\n"
_CLEAN = "import numpy as np\ndef make(seed):\n    return np.random.default_rng(seed)\n"


def _repo(make_repo, src_text):
    return make_repo(
        {
            "src/repro/simulator/mod.py": src_text,
            "docs/registry.md": "placeholder\n",
        }
    )


class TestExitCodes:
    def test_clean_tree_exits_zero(self, make_repo, capsys):
        root = _repo(make_repo, _CLEAN)
        rc = main([str(root / "src"), "--root", str(root)])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, make_repo, capsys):
        root = _repo(make_repo, _DIRTY)
        rc = main([str(root / "src"), "--root", str(root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "src/repro/simulator/mod.py:2: rng-taint:" in out

    def test_missing_path_exits_two(self, make_repo, capsys):
        root = _repo(make_repo, _CLEAN)
        rc = main([str(root / "nowhere"), "--root", str(root)])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, make_repo, capsys):
        root = _repo(make_repo, _CLEAN)
        rc = main([str(root / "src"), "--root", str(root), "--select", "no-such-rule"])
        assert rc == 2
        assert "no-such-rule" in capsys.readouterr().err


class TestFormatsAndSelection:
    def test_json_format_is_machine_readable(self, make_repo, capsys):
        root = _repo(make_repo, _DIRTY)
        rc = main([str(root / "src"), "--root", str(root), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["findings"][0]["rule"] == "rng-taint"
        assert payload["findings"][0]["path"] == "src/repro/simulator/mod.py"

    def test_select_runs_only_named_rules(self, make_repo, capsys):
        root = _repo(make_repo, _DIRTY)
        rc = main(
            [str(root / "src"), "--root", str(root), "--select", "no-wallclock"]
        )
        capsys.readouterr()
        assert rc == 0  # the rng finding belongs to a rule we did not select

    def test_list_rules_names_the_whole_pack(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "rng-taint",
            "no-wallclock",
            "no-set-iteration",
            "golden-freeze",
            "registry-call-discipline",
            "registry-docs",
            "hook-conformance",
            "scenario-schema-docs",
            "docs-links",
        ):
            assert rule in out


class TestBaselineWorkflow:
    def test_update_baseline_then_clean_run(self, make_repo, capsys):
        root = _repo(make_repo, _DIRTY)
        argv = [str(root / "src"), "--root", str(root)]
        assert main(argv + ["--update-baseline"]) == 0
        assert (root / "lint-baseline.json").exists()
        capsys.readouterr()
        # Grandfathered finding no longer fails the run...
        assert main(argv + ["--baseline", str(root / "lint-baseline.json")]) == 0
        assert "baselined" in capsys.readouterr().out
        # ...but --no-baseline still reports it.
        assert main(argv + ["--no-baseline"]) == 1

    def test_new_findings_still_fail_with_baseline(self, make_repo, capsys):
        root = _repo(make_repo, _DIRTY)
        argv = [str(root / "src"), "--root", str(root)]
        assert main(argv + ["--update-baseline"]) == 0
        dirty = root / "src" / "repro" / "simulator" / "mod.py"
        dirty.write_text(_DIRTY + "np.random.seed(0)\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(argv + ["--baseline", str(root / "lint-baseline.json")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "np.random.seed" in out  # the new line
        assert "mod.py:2" not in out.splitlines()[0]  # the old line stays baselined

    def test_suppression_comment_silences_and_is_counted(self, make_repo, capsys):
        root = _repo(
            make_repo,
            "import numpy as np\n"
            "x = np.random.rand()  # repro-lint: disable=rng-taint\n",
        )
        rc = main([str(root / "src"), "--root", str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 suppressed" in out
