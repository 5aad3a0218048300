"""Tests for the server-level deflation policies (paper Eqs. 1-4 + binary).

The key invariants, verified both example-based and property-based:

* conservation: total reclaimed >= requested whenever feasible (exactly ==
  for the proportional family);
* bounds: no VM below its floor, none above its capacity, reclaim >= 0;
* proportionality: Eq. 1 reclaims in proportion to deflatable size;
* priority direction: lower priority yields more reclaim per unit pool;
* recompute semantics make reinflation the exact inverse of deflation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deflation import (
    DeterministicPolicy,
    PriorityPolicy,
    ProportionalPolicy,
    get_policy,
)
from repro.errors import DeflationError
from repro.registry import names

ALL_POLICY_NAMES = names("policy")


def arrays(n, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    caps = rng.uniform(1, 32, size=n)
    mins = caps * rng.uniform(0.0, 0.3, size=n)
    prios = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
    return caps, mins, prios


class TestProportional:
    def test_eq1_proportional_to_size(self):
        pol = ProportionalPolicy()
        caps = np.array([10.0, 20.0, 30.0])
        res = pol.target_allocations(caps, np.zeros(3), np.full(3, 0.5), 12.0)
        # x_i = M_i * R / sum(M): 2, 4, 6
        np.testing.assert_allclose(res.reclaimed, [2.0, 4.0, 6.0])
        assert res.satisfied

    def test_eq2_respects_minimums(self):
        pol = ProportionalPolicy()
        caps = np.array([10.0, 10.0])
        mins = np.array([8.0, 0.0])
        res = pol.target_allocations(caps, mins, np.full(2, 0.5), 6.0)
        # Pools are (2, 10); reclaim proportional to pool: (1, 5).
        np.testing.assert_allclose(res.reclaimed, [1.0, 5.0])
        assert np.all(res.allocations >= mins - 1e-9)

    def test_zero_required_returns_full(self):
        pol = ProportionalPolicy()
        caps, mins, prios = arrays(5)
        res = pol.target_allocations(caps, mins, prios, 0.0)
        np.testing.assert_allclose(res.allocations, caps)

    def test_infeasible_flags_unsatisfied(self):
        pol = ProportionalPolicy()
        caps = np.array([4.0, 4.0])
        mins = np.array([2.0, 2.0])
        res = pol.target_allocations(caps, mins, np.full(2, 0.5), 100.0)
        assert not res.satisfied
        np.testing.assert_allclose(res.allocations, mins)

    def test_empty_pool(self):
        pol = ProportionalPolicy()
        res = pol.target_allocations(np.array([]), np.array([]), np.array([]), 5.0)
        assert not res.satisfied
        assert res.total_reclaimed == 0.0


class TestPriority:
    def test_eq3_reduces_to_proportional_for_equal_priorities(self):
        eq3 = PriorityPolicy(priority_floor=False)
        caps = np.array([10.0, 20.0, 30.0])
        res = eq3.target_allocations(caps, np.zeros(3), np.full(3, 0.5), 12.0)
        np.testing.assert_allclose(res.reclaimed, [2.0, 4.0, 6.0], atol=1e-6)

    def test_low_priority_reclaims_more(self):
        pol = PriorityPolicy(priority_floor=False)
        caps = np.array([10.0, 10.0])
        prios = np.array([0.2, 0.8])
        res = pol.target_allocations(caps, np.zeros(2), prios, 8.0)
        assert res.reclaimed[0] > res.reclaimed[1]
        assert res.total_reclaimed == pytest.approx(8.0)

    def test_eq4_priority_floor(self):
        pol = PriorityPolicy(priority_floor=True)
        caps = np.array([10.0, 10.0])
        prios = np.array([0.2, 0.8])
        # Maximum: (10-2) + (10-8) = 10
        assert pol.max_reclaimable(caps, np.zeros(2), prios) == pytest.approx(10.0)
        res = pol.target_allocations(caps, np.zeros(2), prios, 10.0)
        np.testing.assert_allclose(res.allocations, [2.0, 8.0])

    def test_small_pressure_spares_high_priority(self):
        pol = PriorityPolicy(priority_floor=False)
        caps = np.array([10.0, 10.0])
        prios = np.array([0.2, 0.9])
        res = pol.target_allocations(caps, np.zeros(2), prios, 1.0)
        # Water-filling concentrates small reclaims on the low-priority VM.
        assert res.reclaimed[0] == pytest.approx(1.0, abs=1e-6)
        assert res.reclaimed[1] == pytest.approx(0.0, abs=1e-6)


class TestDeterministic:
    def test_binary_in_priority_order(self):
        pol = DeterministicPolicy()
        caps = np.array([10.0, 20.0, 30.0])
        prios = np.array([0.2, 0.5, 0.8])
        res = pol.target_allocations(caps, np.zeros(3), prios, 15.0)
        # VM0 -> 0.2*10=2 (reclaim 8); VM1 -> 0.5*20=10 (reclaim 10); VM2 full.
        np.testing.assert_allclose(res.allocations, [2.0, 10.0, 30.0])
        assert res.total_reclaimed == pytest.approx(18.0)  # overshoot allowed

    def test_stops_when_satisfied(self):
        pol = DeterministicPolicy()
        caps = np.array([10.0, 10.0])
        prios = np.array([0.2, 0.4])
        res = pol.target_allocations(caps, np.zeros(2), prios, 5.0)
        # First VM alone yields 8 >= 5; second untouched.
        np.testing.assert_allclose(res.allocations, [2.0, 10.0])

    def test_respects_explicit_minimum_over_priority_floor(self):
        pol = DeterministicPolicy()
        caps = np.array([10.0])
        mins = np.array([5.0])
        prios = np.array([0.2])
        res = pol.target_allocations(caps, mins, prios, 99.0)
        assert res.allocations[0] == pytest.approx(5.0)
        assert not res.satisfied


class TestValidation:
    def test_mismatched_shapes(self):
        pol = ProportionalPolicy()
        with pytest.raises(DeflationError):
            pol.target_allocations(np.ones(3), np.zeros(2), np.full(3, 0.5), 1.0)

    def test_minimum_above_capacity(self):
        pol = ProportionalPolicy()
        with pytest.raises(DeflationError):
            pol.target_allocations(np.array([1.0]), np.array([2.0]), np.array([0.5]), 0.5)

    def test_bad_priority(self):
        pol = PriorityPolicy()
        with pytest.raises(DeflationError):
            pol.target_allocations(np.ones(1), np.zeros(1), np.array([0.0]), 0.5)

    def test_get_policy_unknown(self):
        with pytest.raises(DeflationError):
            get_policy("nope")

    def test_registry_contents(self):
        assert {"proportional", "priority", "deterministic"} <= set(ALL_POLICY_NAMES)


# ---------------------------------------------------------------------------
# Property-based invariants across all policies.
# ---------------------------------------------------------------------------

pool_strategy = st.integers(min_value=1, max_value=12)
seed_strategy = st.integers(min_value=0, max_value=10_000)
frac_strategy = st.floats(min_value=0.0, max_value=1.2)


@settings(max_examples=60, deadline=None)
@given(n=pool_strategy, seed=seed_strategy, frac=frac_strategy, name=st.sampled_from(ALL_POLICY_NAMES))
def test_policy_bounds_invariant(n, seed, frac, name):
    """No policy ever allocates below floor or above capacity."""
    caps, mins, prios = arrays(n, seed)
    pol = get_policy(name)
    max_r = pol.max_reclaimable(caps, mins, prios)
    res = pol.target_allocations(caps, mins, prios, frac * max_r)
    assert np.all(res.allocations <= caps + 1e-6)
    assert np.all(res.reclaimed >= -1e-9)
    # Policy-specific floors: proportional respects mins; priority and
    # deterministic respect max(mins, pi*caps).
    if name == "proportional":
        floors = mins
    elif name == "priority-eq3":
        floors = mins
    else:
        floors = np.maximum(mins, prios * caps)
    assert np.all(res.allocations >= floors - 1e-6)


@settings(max_examples=60, deadline=None)
@given(n=pool_strategy, seed=seed_strategy, frac=st.floats(min_value=0.0, max_value=1.0),
       name=st.sampled_from(ALL_POLICY_NAMES))
def test_policy_conservation_invariant(n, seed, frac, name):
    """Feasible requests are satisfied: total reclaimed >= requested."""
    caps, mins, prios = arrays(n, seed)
    pol = get_policy(name)
    required = frac * pol.max_reclaimable(caps, mins, prios)
    res = pol.target_allocations(caps, mins, prios, required)
    assert res.satisfied
    assert res.total_reclaimed >= required - 1e-5


@settings(max_examples=40, deadline=None)
@given(n=pool_strategy, seed=seed_strategy, name=st.sampled_from(ALL_POLICY_NAMES))
def test_reinflation_is_exact_inverse(n, seed, name):
    """Recompute-from-capacity: required=0 restores full allocations even
    after an intermediate deflation (Section 5.1.3's reinflation)."""
    caps, mins, prios = arrays(n, seed)
    pol = get_policy(name)
    pol.target_allocations(caps, mins, prios, 0.5 * pol.max_reclaimable(caps, mins, prios))
    res = pol.target_allocations(caps, mins, prios, 0.0)
    np.testing.assert_allclose(res.allocations, caps)


@settings(max_examples=40, deadline=None)
@given(n=pool_strategy, seed=seed_strategy,
       f1=st.floats(min_value=0.0, max_value=1.0), f2=st.floats(min_value=0.0, max_value=1.0))
def test_proportional_monotone_in_pressure(n, seed, f1, f2):
    """More pressure never increases anyone's allocation (proportional)."""
    caps, mins, prios = arrays(n, seed)
    pol = ProportionalPolicy()
    lo, hi = sorted([f1, f2])
    max_r = pol.max_reclaimable(caps, mins, prios)
    a_lo = pol.target_allocations(caps, mins, prios, lo * max_r).allocations
    a_hi = pol.target_allocations(caps, mins, prios, hi * max_r).allocations
    assert np.all(a_hi <= a_lo + 1e-6)
