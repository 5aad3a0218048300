"""Micro-benchmarks of the deflation-policy solvers.

The cluster simulator evaluates a policy at every VM arrival/departure, so
per-call cost matters.  These benches also serve as an ablation of the
water-filling solver against the closed-form proportional path.
"""

import numpy as np
import pytest

from repro.core.deflation import get_policy
from repro.registry import names


def _pool(n, seed=0):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(1, 32, size=n)
    mins = caps * 0.05
    prios = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
    return caps, mins, prios


@pytest.mark.parametrize("policy_name", names("policy"))
@pytest.mark.parametrize("n_vms", [8, 64, 512])
def test_policy_solver(benchmark, policy_name, n_vms):
    caps, mins, prios = _pool(n_vms)
    policy = get_policy(policy_name)
    required = 0.5 * policy.max_reclaimable(caps, mins, prios)
    result = benchmark(policy.target_allocations, caps, mins, prios, required)
    assert result.satisfied
