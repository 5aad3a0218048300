"""Fixture tests for the determinism rules.

Each rule gets positives (must fire), negatives (must stay silent), and
the sanctioned idioms the simulation core actually uses.
"""

from __future__ import annotations

SIM = "src/repro/simulator/snippet.py"
FAIL = "src/repro/failures/snippet.py"
SCEN = "src/repro/scenario/snippet.py"
OUTSIDE = "src/repro/traces/snippet.py"


class TestNoModuleRng:
    """The lexical module-level RNG checks, owned by ``rng-taint``."""

    def test_numpy_module_draw_fires(self, lint_snippet):
        hits = lint_snippet("import numpy as np\nx = np.random.rand(3)\n", "rng-taint")
        assert len(hits) == 1 and hits[0].line == 2

    def test_numpy_seed_fires(self, lint_snippet):
        hits = lint_snippet("import numpy as np\nnp.random.seed(0)\n", "rng-taint")
        assert len(hits) == 1

    def test_submodule_alias_fires(self, lint_snippet):
        code = "import numpy.random as npr\nx = npr.normal(size=4)\n"
        assert len(lint_snippet(code, "rng-taint")) == 1

    def test_from_import_fires(self, lint_snippet):
        code = "from numpy.random import shuffle\nshuffle([1, 2])\n"
        assert len(lint_snippet(code, "rng-taint")) == 1

    def test_stdlib_random_fires(self, lint_snippet):
        code = "import random\nx = random.random()\n"
        assert len(lint_snippet(code, "rng-taint")) == 1

    def test_stdlib_from_import_fires(self, lint_snippet):
        code = "from random import randint\nx = randint(0, 3)\n"
        assert len(lint_snippet(code, "rng-taint")) == 1

    def test_unseeded_default_rng_fires_outside_taint_paths(self, lint_snippet):
        # The unseeded check has no path carve-out: it fires everywhere.
        code = "import numpy as np\nrng = np.random.default_rng()\n"
        hits = lint_snippet(code, "rng-taint", rel=OUTSIDE)
        assert len(hits) == 1 and "unseeded" in hits[0].message

    def test_seeded_default_rng_is_clean(self, lint_snippet):
        # Outside the taint paths: inside them a module-scope generator is
        # shared state, whatever its seed (test_rules_rng_taint.py).
        code = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_snippet(code, "rng-taint", rel=OUTSIDE) == []

    def test_passed_generator_draws_are_clean(self, lint_snippet):
        code = (
            "import numpy as np\n"
            "def events(n, rng: np.random.Generator):\n"
            "    return rng.exponential(1.0, size=n)\n"
        )
        assert lint_snippet(code, "rng-taint") == []

    def test_seeded_random_random_instance_is_clean(self, lint_snippet):
        code = "import random\nr = random.Random(7)\n"
        assert lint_snippet(code, "rng-taint") == []

    def test_system_random_fires(self, lint_snippet):
        code = "import random\nr = random.SystemRandom()\n"
        assert len(lint_snippet(code, "rng-taint")) == 1

    def test_fires_outside_sim_paths_too(self, lint_snippet):
        code = "import numpy as np\nx = np.random.rand()\n"
        assert len(lint_snippet(code, "rng-taint", rel="examples/demo.py")) == 1

    def test_unrelated_attribute_chains_are_clean(self, lint_snippet):
        code = "import numpy as np\nclass T:\n    def f(self, rng):\n        return rng.random()\n"
        assert lint_snippet(code, "rng-taint") == []


class TestNoWallclock:
    def test_time_time_fires_in_sim_core(self, lint_snippet):
        code = "import time\nt = time.time()\n"
        assert len(lint_snippet(code, "no-wallclock", rel=SIM)) == 1

    def test_from_time_import_fires(self, lint_snippet):
        code = "from time import perf_counter\nt = perf_counter()\n"
        assert len(lint_snippet(code, "no-wallclock", rel=FAIL)) == 1

    def test_datetime_now_fires(self, lint_snippet):
        code = "import datetime\nt = datetime.datetime.now()\n"
        assert len(lint_snippet(code, "no-wallclock", rel=SCEN)) == 1

    def test_imported_datetime_class_fires(self, lint_snippet):
        code = "from datetime import datetime\nt = datetime.now()\n"
        assert len(lint_snippet(code, "no-wallclock", rel=SIM)) == 1

    def test_outside_sim_core_is_exempt(self, lint_snippet):
        # experiments/runner.py times sweeps with perf_counter — legitimate.
        code = "import time\nt = time.time()\n"
        assert lint_snippet(code, "no-wallclock", rel="src/repro/experiments/runner.py") == []

    def test_time_as_event_variable_is_clean(self, lint_snippet):
        code = "def step(queue):\n    t = queue.peek_time()\n    return t\n"
        assert lint_snippet(code, "no-wallclock", rel=SIM) == []


class TestNoSetIteration:
    def test_for_over_set_call_fires(self, lint_snippet):
        code = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert len(lint_snippet(code, "no-set-iteration", rel=SIM)) == 1

    def test_for_over_set_literal_fires(self, lint_snippet):
        code = "for x in {3, 1, 2}:\n    pass\n"
        assert len(lint_snippet(code, "no-set-iteration", rel=FAIL)) == 1

    def test_comprehension_over_set_fires(self, lint_snippet):
        code = "def f(xs):\n    return [x for x in set(xs)]\n"
        assert len(lint_snippet(code, "no-set-iteration", rel=SCEN)) == 1

    def test_list_of_set_fires(self, lint_snippet):
        code = "def f(xs):\n    return list(set(xs))\n"
        assert len(lint_snippet(code, "no-set-iteration", rel=SIM)) == 1

    def test_sorted_set_is_clean(self, lint_snippet):
        code = "def f(xs):\n    for x in sorted(set(xs)):\n        print(x)\n"
        assert lint_snippet(code, "no-set-iteration", rel=SIM) == []

    def test_membership_tests_are_clean(self, lint_snippet):
        code = "def f(x, xs):\n    return x in set(xs)\n"
        assert lint_snippet(code, "no-set-iteration", rel=SIM) == []

    def test_outside_sim_core_is_exempt(self, lint_snippet):
        code = "for x in set([1]):\n    pass\n"
        assert lint_snippet(code, "no-set-iteration", rel=OUTSIDE) == []
