"""Server-level deflation policies (Section 5.1 of the paper).

All three policy families — proportional (Eqs. 1/2), priority-weighted
proportional (Eqs. 3/4) and deterministic — are implemented over plain NumPy
arrays so the cluster simulator can evaluate thousands of deflation events
cheaply.  A policy answers one question per resource dimension:

    given per-VM capacities ``M_i``, minimum allocations ``m_i``, priorities
    ``pi_i`` and a total amount ``R`` that must be reclaimed on this server,
    what is each deflatable VM's new target allocation?

Design note — *recompute-from-capacity semantics*: policies always compute
target allocations from the full capacities and the server's **current total
required reclaim**, not incrementally from the previous allocation.  Under
this formulation reinflation (Section 5.1.3, "run the proportional deflation
backwards") falls out automatically: when a VM departs, the required reclaim
drops and the recomputed targets are higher.  It also makes
deflate-then-reinflate exactly idempotent, which the property tests verify.

The proportional-family solver handles the clamping the paper leaves
implicit: the closed forms of Eqs. 1–4 can push an individual VM below zero
(or below ``m_i``) when priorities are heterogeneous, so we solve the
equivalent water-filling problem ``sum_i clip(b_i - alpha * w_i, 0, cap_i)
= R`` for the level ``alpha`` exactly: sort the 2n breakpoints where a
term enters or leaves its linear regime, walk the piecewise-linear clipped
sum to the active segment, and solve for ``alpha`` in closed form
(O(n log n), one pass).  This replaced an 80-iteration bisection — the
repo's first deliberate numerical change; the old solver is pinned
verbatim in :mod:`repro.core.waterfill_reference` and
``tests/core/test_waterfill_equivalence.py`` holds the two within 1e-9
(see docs/performance.md, "Deliberate numerical changes").

Every caller solves through :meth:`DeflationPolicy.reclaim_plan`: a
reusable solver over a fixed (capacities, minimums, priorities) pool, which
:meth:`~DeflationPolicy.target_allocations` builds once per call.  The
cluster simulator rebalances the same server membership many times with
only the required amount changing, so the priority policy hoists its
breakpoint sort into the plan and answers each solve in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeflationError, UnknownComponentError
from repro.registry import register, resolve

_TOL = 1e-9


def _validate_inputs(
    capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    caps = np.asarray(capacities, dtype=np.float64)
    mins = np.asarray(minimums, dtype=np.float64)
    prios = np.asarray(priorities, dtype=np.float64)
    if caps.shape != mins.shape or caps.shape != prios.shape:
        raise DeflationError("capacities, minimums and priorities must have equal shapes")
    if (caps < -_TOL).any():
        raise DeflationError("capacities must be non-negative")
    if (mins < -_TOL).any() or (mins > caps + 1e-6).any():
        raise DeflationError("minimums must satisfy 0 <= m_i <= M_i")
    if (prios <= 0.0).any() or (prios > 1.0).any():
        raise DeflationError("priorities must be in (0, 1]")
    return caps, mins, prios


class _WaterfillPlan:
    """Exact sorted-breakpoint water-fill over one fixed ``(base, weight, cap)``.

    Each positive-weight term ``x_i(alpha) = clip(base_i - alpha * weight_i,
    0, cap_i)`` is constant at ``cap_i`` below ``(base_i - cap_i) / weight_i``,
    linear in between, and zero above ``base_i / weight_i``; zero-weight terms
    contribute the alpha-independent ``clip(base_i, 0, cap_i)``.  The clipped
    sum is therefore piecewise linear and non-increasing in alpha with at most
    ``2n`` breakpoints.  Building the plan sorts those breakpoints once and
    prefix-sums the slope/intercept deltas (O(n log n)); each
    :meth:`reclaim` then finds the active segment with one vectorized
    comparison and solves for alpha in closed form — no iteration.

    The plan is reusable across ``amount`` values, which is how the cluster
    simulator amortizes the sort over a server's rebalance storm (see
    :meth:`DeflationPolicy.reclaim_plan`).
    """

    __slots__ = ("base", "weight", "cap", "total_cap", "_const", "_cap_sum_pos",
                 "_alphas", "_values", "_C", "_A", "_B", "_seg0")

    def __init__(self, base: np.ndarray, weight: np.ndarray, cap: np.ndarray) -> None:
        self.base = base
        self.weight = weight
        self.cap = cap
        self.total_cap = float(cap.sum())
        pos = weight > 0.0
        if pos.all():
            b, w, c = base, weight, cap
            self._const = 0.0
        else:
            b, w, c = base[pos], weight[pos], cap[pos]
            rest = base[~pos]
            self._const = float(np.minimum(np.maximum(rest, 0.0), cap[~pos]).sum())
        self._cap_sum_pos = float(c.sum())
        if c is b or np.array_equal(b, c):
            # cap == base (exactly the priority policy's shape: every term is
            # ``clip(pool_i - alpha * w_i, 0, pool_i)``): the cap-regime
            # breakpoint ``(b - c) / w`` is exactly 0 for every term, so the
            # only sweep events are the zero crossings at ``b / w`` — half
            # the events and no sort interleaving.  The pre-first-event
            # segment carries the full linear sum (``_seg0`` below); for a
            # requested amount above that segment's range the solved alpha
            # goes negative, where ``clip`` pins every term right back at
            # ``cap == base`` — the same vector the generic sweep's flat
            # alpha = 0 segment produces.
            alphas = b / w
            order = np.argsort(alphas, kind="stable")
            self._alphas = alphas[order]
            b_sum = float(b.sum())
            w_sum = float(w.sum())
            self._C = None
            self._A = b_sum - np.cumsum(b[order])
            self._B = w_sum - np.cumsum(w[order])
            self._seg0 = (0.0, b_sum, w_sum)
            self._values = self._const + self._A - self._alphas * self._B
            return
        # Sweep events: entering the linear regime at (b-c)/w trades the
        # constant c_i for the linear term b_i - alpha*w_i; hitting zero at
        # b/w removes the linear term.  Stable sort keeps tied breakpoints
        # deterministic (lo-events of equal alpha before hi-events).
        alphas = np.concatenate([(b - c) / w, b / w])
        order = np.argsort(alphas, kind="stable")
        self._alphas = alphas[order]
        d_const = np.concatenate([-c, np.zeros_like(c)])
        d_icept = np.concatenate([b, -b])
        d_slope = np.concatenate([w, -w])
        # Post-event running state: on the segment right of event j the
        # clipped sum is const + C[j] + A[j] - alpha * B[j].
        self._C = np.cumsum(d_const[order]) + self._cap_sum_pos
        self._A = np.cumsum(d_icept[order])
        self._B = np.cumsum(d_slope[order])
        self._seg0 = (self._cap_sum_pos, 0.0, 0.0)
        # Value of the clipped sum at each event point (continuity: the
        # post-event segment evaluated at the event's own alpha).
        self._values = self._const + self._C + self._A - self._alphas * self._B

    def reclaim(self, amount: float) -> np.ndarray:
        """Per-VM reclaim vector for this pool at the given total ``amount``.

        Same contract (and guard tolerances) as the pinned bisection in
        :mod:`repro.core.waterfill_reference`: callers guarantee
        ``0 <= amount <= sum(cap)``; the final in-cap rescale squeezes out
        the last float rounding so the total matches ``amount`` exactly
        whenever the pool can express it.
        """
        if amount <= _TOL:
            return np.zeros_like(self.base)
        if amount >= self.total_cap - _TOL:
            return self.cap.copy()
        alphas = self._alphas
        if alphas.size == 0:
            # No positive weights: the clipped sum is alpha-independent, so
            # any level yields the same vector (the bisection's converged
            # endpoint produced exactly this before its rescale).
            x = np.minimum(np.maximum(self.base, 0.0), self.cap)
        else:
            below = self._values <= amount
            if not bool(below.any()):
                # Even past the last breakpoint the zero-weight floor alone
                # exceeds `amount`: park every weighted term at zero and let
                # the rescale shrink inside the caps, exactly as the
                # bisection's converged upper bracket did.
                alpha = float(alphas[-1])
            else:
                j = int(np.argmax(below))
                if j == 0:
                    seg_c, seg_a, seg_b = self._seg0
                else:
                    seg_c = float(self._C[j - 1]) if self._C is not None else 0.0
                    seg_a = float(self._A[j - 1])
                    seg_b = float(self._B[j - 1])
                if seg_b > 0.0:
                    alpha = (self._const + seg_c + seg_a - amount) / seg_b
                else:
                    # Flat segment (tied breakpoints): every alpha on it maps
                    # to the same clipped vector; take the right endpoint.
                    alpha = float(alphas[j])
            x = np.clip(self.base - alpha * self.weight, 0.0, self.cap)
        total = float(x.sum())
        if total > _TOL:
            x = np.minimum(x * (amount / total), self.cap)
        return x


def _waterfill_reclaim(
    base: np.ndarray, weight: np.ndarray, cap: np.ndarray, amount: float
) -> np.ndarray:
    """Solve sum_i clip(base_i - alpha * weight_i, 0, cap_i) = amount for alpha.

    Returns the per-VM reclaim amounts ``x_i`` via the exact breakpoint
    solver.  Callers guarantee ``0 <= amount <= sum(cap)``.  One-shot entry;
    repeated solves over the same pool should build a :class:`_WaterfillPlan`
    (via :meth:`DeflationPolicy.reclaim_plan`) and reuse it.
    """
    return _WaterfillPlan(base, weight, cap).reclaim(amount)


@dataclass(frozen=True)
class DeflationResult:
    """Outcome of a policy evaluation for one resource dimension."""

    allocations: np.ndarray  # new target allocation per VM
    reclaimed: np.ndarray  # capacity - allocation, per VM
    satisfied: bool  # True if total reclaimed >= requested amount

    @property
    def total_reclaimed(self) -> float:
        return float(self.reclaimed.sum())


class DeflationPolicy:
    """Common interface for the server-level deflation policies.

    Every caller solves through :meth:`reclaim_plan`.  A policy implements
    :meth:`_solve`, which the default plan binds, or overrides
    :meth:`reclaim_plan` to hoist membership-dependent work out of repeated
    solves; :meth:`floors` bounds how far each VM may be deflated.
    """

    #: Short machine-readable name, used by experiment harnesses.
    name: str = "abstract"

    def floors(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Per-VM allocation floor; the default is the minimum ``m_i``."""
        return minimums

    def max_reclaimable(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> float:
        """Upper bound of what this policy can reclaim from the given pool."""
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        return float((caps - self.floors(caps, np.minimum(mins, caps), prios)).sum())

    def target_allocations(
        self,
        capacities: np.ndarray,
        minimums: np.ndarray,
        priorities: np.ndarray,
        required: float,
    ) -> DeflationResult:
        """Compute per-VM target allocations reclaiming >= ``required`` total.

        ``required <= 0`` means no pressure: all VMs return to full capacity
        (this is how reinflation is expressed).  If the pool cannot yield
        ``required`` even at maximum deflation, the policy deflates maximally
        and flags ``satisfied=False`` — the caller (cluster manager) treats
        that as a reclamation failure (Figure 20).  Validates its inputs,
        then solves through a one-shot :meth:`reclaim_plan`.
        """
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        return self.reclaim_plan(caps, mins, prios)(required)

    def reclaim_plan(self, capacities, minimums, priorities):
        """Reusable solver over one fixed, pre-validated pool.

        Returns ``solve(required) -> DeflationResult``.  The cluster
        simulator builds one plan per server pool from arrays it constructed
        itself (valid float64, ``0 <= m_i <= M_i``, ``0 < pi_i <= 1``) and
        solves it many times with only ``required`` changing; callers must
        not mutate the arrays while the plan is live.  The default binds
        :meth:`_solve`.
        """
        mins = np.minimum(minimums, capacities)

        def solve(required: float) -> DeflationResult:
            return self._solve(capacities, mins, priorities, required)

        return solve

    def _solve(
        self, caps: np.ndarray, mins: np.ndarray, prios: np.ndarray, required: float
    ) -> DeflationResult:
        """One solve over validated inputs with ``mins <= caps``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _solve or reclaim_plan"
        )

    # Convenience wrapper shared by all policies.
    def _finalize(
        self, capacities: np.ndarray, reclaim: np.ndarray, required: float
    ) -> DeflationResult:
        reclaim = np.minimum(reclaim, capacities)
        allocations = capacities - reclaim
        satisfied = float(reclaim.sum()) >= required - 1e-6
        return DeflationResult(allocations=allocations, reclaimed=reclaim, satisfied=satisfied)


@register("policy", "proportional")
class ProportionalPolicy(DeflationPolicy):
    """Eq. 1 (and Eq. 2 when minimum allocations are set).

    Every deflatable VM is deflated in proportion to its deflatable pool
    ``M_i - m_i``, which avoids excessively deflating small VMs.
    """

    name = "proportional"

    def _solve(self, caps, mins, prios, required) -> DeflationResult:
        pool = caps - self.floors(caps, mins, prios)
        if required <= _TOL or caps.size == 0:
            return self._finalize(caps, np.zeros_like(caps), max(required, 0.0))
        total = float(pool.sum())
        if total <= _TOL:
            return self._finalize(caps, np.zeros_like(caps), required)
        frac = min(required / total, 1.0)
        return self._finalize(caps, pool * frac, required)


@register("policy", "priority", priority_floor=True)
@register("policy", "priority-eq3", priority_floor=False)
class PriorityPolicy(DeflationPolicy):
    """Eqs. 3/4: weighted proportional deflation with priority-derived floors.

    The minimum allocation of VM *i* is ``max(m_i, pi_i * M_i)`` (Section
    5.1.2 suggests ``m_i = pi_i * M_i``), and the reclaim is weighted by
    ``pi_i * (M_i - m_i^eff)`` so low-priority VMs absorb more of the
    pressure.  The clamped water-filling solver keeps every VM inside
    ``[m_i^eff, M_i]`` while preserving the total.
    """

    name = "priority"

    def __init__(self, priority_floor: bool = True) -> None:
        #: When True (Eq. 4) the priority also sets the minimum allocation;
        #: when False (Eq. 3) only user-provided minimums apply.
        self.priority_floor = priority_floor

    def floors(self, capacities, minimums, priorities) -> np.ndarray:
        if self.priority_floor:
            return np.maximum(minimums, priorities * capacities)
        return minimums

    def reclaim_plan(self, capacities, minimums, priorities):
        caps = capacities
        pool = caps - self.floors(caps, np.minimum(minimums, caps), priorities)
        total = float(pool.sum())
        # The water-fill (and its breakpoint sort) is built on the first
        # interior solve, so a one-shot target_allocations pays for it only
        # when the guards below do not answer first.
        plan: _WaterfillPlan | None = None

        def solve(required: float) -> DeflationResult:
            nonlocal plan
            if required <= _TOL or caps.size == 0:
                return self._finalize(caps, np.zeros_like(caps), max(required, 0.0))
            if total <= _TOL:
                return self._finalize(caps, np.zeros_like(caps), required)
            if required >= total - _TOL:
                return self._finalize(caps, pool, required)
            if plan is None:
                # Weight the *retained* share by pi, so low-priority VMs
                # receive more reclaim: x_i(alpha) = pool_i - alpha * pi_i
                # * pool_i — the literal Eq. 3/4 solution whenever it is
                # interior, clamped otherwise.
                plan = _WaterfillPlan(pool, priorities * pool, pool)
            return self._finalize(caps, plan.reclaim(required), required)

        return solve


@register("policy", "deterministic")
class DeterministicPolicy(DeflationPolicy):
    """Section 5.1.3: binary deflation in increasing priority order.

    A VM is either at 100% of its allocation or at ``pi_i * M_i``; VMs are
    deflated in decreasing deflatability (i.e. increasing ``pi_i``) until the
    requested amount is covered.  Because deflation is all-or-nothing the
    policy may overshoot ``required``; the overshoot is reported via
    ``reclaimed``.
    """

    name = "deterministic"

    def floors(self, capacities, minimums, priorities) -> np.ndarray:
        return np.maximum(minimums, priorities * capacities)

    def _solve(self, caps, mins, prios, required) -> DeflationResult:
        reclaim = np.zeros_like(caps)
        if required <= _TOL or caps.size == 0:
            return self._finalize(caps, reclaim, max(required, 0.0))
        yields = caps - self.floors(caps, mins, prios)
        # Deflate lowest-priority VMs first; break ties by larger yield so we
        # touch fewer VMs (stable for reproducibility).
        order = np.lexsort((-yields, prios))
        got = 0.0
        for idx in order:
            if got >= required - _TOL:
                break
            reclaim[idx] = yields[idx]
            got += float(yields[idx])
        return self._finalize(caps, reclaim, required)


def get_policy(name: str) -> DeflationPolicy:
    """Look a policy up by name, raising a helpful error on typos."""
    try:
        return resolve("policy", name)
    except UnknownComponentError as exc:
        raise DeflationError(str(exc)) from None
