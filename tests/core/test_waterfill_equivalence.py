"""Closed-form water-fill vs the pinned bisection (docs/performance.md).

The exact sorted-breakpoint solver in ``repro.core.deflation`` replaced the
original 80-iteration bisection — the repo's first deliberate numerical
change.  The evidence that licensed re-pinning the golden suites lives
here, in three layers:

1. **Agreement**: on hundreds of seeded random instances (including
   adversarial shapes the simulator never produces) the closed form and
   the pinned ``repro.core.waterfill_reference`` bisection agree to
   <= 1e-9 per element.
2. **Exact invariants the bisection could never guarantee**: the clipped
   allocation conserves the requested reclaim to near machine precision,
   respects per-VM bounds exactly, and is monotone in the requested
   amount.
3. **Policy plumbing**: the priority policy's cached ``reclaim_plan`` is
   bit-identical to its one-shot ``target_allocations``, and policy-level
   allocations stay inside ``[m_i^eff, M_i]``.

Every instance is reproducible from the seed in the failure message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deflation import _WaterfillPlan, _waterfill_reclaim, get_policy
from repro.core.waterfill_reference import waterfill_reclaim_bisect

SEED = 20260808
N_INSTANCES = 240
AGREEMENT_TOL = 1e-9

#: The simulator's priority weights never reach 1.0 (p95-derived levels),
#: but the raw solver must also survive shapes the policies avoid.
PRIORITY_LEVELS = (0.2, 0.4, 0.6, 0.8)


def _random_instance(rng: np.random.Generator, trial: int):
    """One (base, weight, cap) pool, biased toward solver corner cases."""
    shape = trial % 6
    if shape == 0:  # degenerate single-VM pool
        n = 1
    elif shape == 1:  # tiny pools
        n = int(rng.integers(2, 5))
    else:
        n = int(rng.integers(5, 60))
    cap = rng.uniform(0.0, 8.0, n)
    if shape == 2:  # policy-shaped: base == cap == pool, weight = prio*pool
        base = cap.copy()
        weight = rng.choice(PRIORITY_LEVELS, n) * cap
        return base, weight, cap
    base = cap * rng.uniform(0.2, 1.0, n)
    weight = rng.uniform(0.05, 1.0, n) * np.maximum(base, 1e-3)
    if shape == 3:  # zero-weight terms mixed in
        weight[rng.random(n) < 0.4] = 0.0
    if shape == 4 and n >= 4:  # tied breakpoints: duplicated (base, cap, w)
        k = n // 2
        base[:k] = base[k : 2 * k]
        cap[:k] = cap[k : 2 * k]
        weight[:k] = weight[k : 2 * k]
    if shape == 5:  # cap-saturated: most of the pool pinned at its cap
        base = cap * rng.uniform(0.95, 1.0, n)
    return base, weight, cap


def _amounts(rng: np.random.Generator, cap: np.ndarray):
    total = float(cap.sum())
    fracs = (0.0, 1e-12, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0)
    draws = rng.uniform(0.0, 1.0, 4)
    return [total * f for f in fracs] + [total * float(d) for d in draws]


def _max_achievable(base, weight, cap) -> float:
    """Largest clipped sum any alpha can reach (caps for weighted terms)."""
    pos = weight > 0
    return float(cap[pos].sum() + np.clip(base[~pos], 0.0, cap[~pos]).sum())


def test_closed_form_matches_pinned_bisection():
    """<= 1e-9 agreement on N_INSTANCES seeded instances x ~12 amounts."""
    rng = np.random.default_rng(SEED)
    checked = 0
    for trial in range(N_INSTANCES):
        base, weight, cap = _random_instance(rng, trial)
        for amount in _amounts(rng, cap):
            got = _waterfill_reclaim(base, weight, cap, amount)
            ref = waterfill_reclaim_bisect(base, weight, cap, amount)
            diff = float(np.abs(got - ref).max())
            assert diff <= AGREEMENT_TOL, (
                f"seed={SEED} trial={trial} amount={amount}: |closed-bisect|={diff}"
            )
            checked += 1
    assert checked >= 200 * 8


def test_exact_invariants():
    """Bounds, conservation and monotonicity — exact properties the
    bisection only approached."""
    rng = np.random.default_rng(SEED + 1)
    for trial in range(N_INSTANCES):
        base, weight, cap = _random_instance(rng, trial)
        total = float(cap.sum())
        achievable = _max_achievable(base, weight, cap)
        prev = np.zeros_like(cap)
        for frac in np.linspace(0.0, 1.0, 17):
            amount = total * float(frac)
            x = _waterfill_reclaim(base, weight, cap, amount)
            ctx = f"seed={SEED + 1} trial={trial} frac={frac}"
            # Per-VM bounds hold exactly: clip + in-cap rescale by design.
            assert (x >= 0.0).all(), ctx
            assert (x <= cap).all(), ctx
            # Conservation: whenever the pool can express `amount`, the
            # clipped total hits it to near machine precision.
            if 1e-9 < amount < min(total, achievable) - 1e-9:
                assert abs(float(x.sum()) - amount) <= 1e-9 * max(1.0, amount), ctx
            # Monotone in R: raising the requested reclaim never lowers
            # any VM's share (1e-9 slack for the rescale rounding).
            assert (x >= prev - 1e-9).all(), ctx
            prev = x


def test_guard_regimes_bit_identical():
    """The clamped regimes (zero request, full pool) are exact copies."""
    rng = np.random.default_rng(SEED + 2)
    for trial in range(40):
        base, weight, cap = _random_instance(rng, trial)
        total = float(cap.sum())
        for amount in (0.0, 1e-10, total, total * 1.001, total - 1e-10):
            got = _waterfill_reclaim(base, weight, cap, amount)
            ref = waterfill_reclaim_bisect(base, weight, cap, amount)
            assert (got == ref).all(), f"trial={trial} amount={amount}"


def test_plan_reuse_is_bit_identical():
    """A reused _WaterfillPlan returns the same bits as one-shot solves."""
    rng = np.random.default_rng(SEED + 3)
    for trial in range(60):
        base, weight, cap = _random_instance(rng, trial)
        plan = _WaterfillPlan(base, weight, cap)
        for amount in _amounts(rng, cap):
            assert (plan.reclaim(amount) == _waterfill_reclaim(base, weight, cap, amount)).all()


@pytest.mark.parametrize("policy_name", ["priority", "priority-eq3"])
def test_priority_policy_allocations_stay_in_bounds(policy_name):
    """Policy-level: allocations inside [m_i^eff, M_i], reclaim conserved."""
    policy = get_policy(policy_name)
    rng = np.random.default_rng(SEED + 4)
    for trial in range(80):
        n = int(rng.integers(1, 40))
        caps = rng.integers(1, 33, n).astype(np.float64)
        mins = caps * rng.uniform(0.0, 0.9, n)
        prios = rng.choice(PRIORITY_LEVELS, n)
        eff_min = np.maximum(mins, prios * caps) if policy.priority_floor else mins
        pool_total = float((caps - eff_min).sum())
        for frac in (0.1, 0.5, 0.95):
            required = pool_total * frac
            res = policy.target_allocations(caps, mins, prios, required)
            ctx = f"seed={SEED + 4} trial={trial} frac={frac}"
            assert (res.allocations >= eff_min - 1e-9).all(), ctx
            assert (res.allocations <= caps + 1e-12).all(), ctx
            if required > 1e-9:
                assert abs(res.total_reclaimed - required) <= 1e-6, ctx
            assert res.satisfied, ctx


@pytest.mark.parametrize("policy_name", ["priority", "priority-eq3"])
def test_reclaim_plan_matches_trusted_entry(policy_name):
    """The cached plan path is bit-for-bit the one-shot target_allocations."""
    policy = get_policy(policy_name)
    rng = np.random.default_rng(SEED + 5)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        caps = rng.integers(1, 33, n).astype(np.float64)
        mins = caps * rng.uniform(0.0, 0.9, n)
        prios = rng.choice(PRIORITY_LEVELS, n)
        plan = policy.reclaim_plan(caps, mins, prios)
        eff_min = np.maximum(mins, prios * caps) if policy.priority_floor else mins
        pool_total = float((caps - eff_min).sum())
        for required in (-1.0, 0.0, 0.3 * pool_total, 0.9 * pool_total,
                         pool_total, float(caps.sum())):
            one_shot = policy.target_allocations(caps, mins, prios, required)
            cached = plan(required)
            assert (one_shot.allocations == cached.allocations).all(), (
                f"seed={SEED + 5} trial={trial} required={required}"
            )
            assert (one_shot.reclaimed == cached.reclaimed).all()
            assert one_shot.satisfied == cached.satisfied


@pytest.mark.slow
def test_closed_form_matches_pinned_bisection_wide():
    """Slow tier: a much wider randomized sweep of the same agreement."""
    rng = np.random.default_rng(SEED + 6)
    for trial in range(1500):
        base, weight, cap = _random_instance(rng, trial)
        for amount in _amounts(rng, cap):
            got = _waterfill_reclaim(base, weight, cap, amount)
            ref = waterfill_reclaim_bisect(base, weight, cap, amount)
            assert float(np.abs(got - ref).max()) <= AGREEMENT_TOL, (
                f"seed={SEED + 6} trial={trial} amount={amount}"
            )
