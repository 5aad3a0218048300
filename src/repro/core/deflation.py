"""Server-level deflation policies (Section 5.1 of the paper).

All three policy families — proportional (Eqs. 1/2), priority-weighted
proportional (Eqs. 3/4) and deterministic — answer one question per
resource dimension:

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
reusable solver over one fixed (capacities, pool, priorities) pool, which
:meth:`~DeflationPolicy.target_allocations` builds once per call.  The
cluster simulator rebalances the same server membership many times with
only the required amount changing, so the priority policy hoists its
water-fill into the plan, and the water-fill sorts its breakpoints only
for an amount past the first one.

Arrays at the boundary, Python floats inside.  ``target_allocations`` and
``max_reclaimable`` take and return NumPy arrays and apply
:meth:`~DeflationPolicy.floors` once, through
:meth:`~DeflationPolicy.pool`.  The simulator applies ``floors`` once too,
over the whole fleet, into the ``vm_floor`` that admission reserves, and
builds its pools as ``M_i - vm_floor_i``.  Plans, ``_solve`` and
``_finalize`` work on Python float lists: the simulator's pools are tiny
(a median of 7 VMs), where NumPy's per-call dispatch costs more than the
arithmetic.  The list code is bit-identical to the NumPy code it
replaced: ``+ - * /`` are the same IEEE operations, and each reduction or
tie reproduces NumPy's (see the note below and
``tests/core/test_reduction_orders.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.errors import DeflationError, UnknownComponentError
from repro.registry import register, resolve

_TOL = 1e-9


# -- NumPy's reductions and ties, in Python floats ------------------------------
#
# ``_pairwise_sum`` reproduces, bit for bit, the ``ndarray.sum()`` the list
# code replaced, and running sums are ``itertools.accumulate``, which starts
# at the first element like ``np.cumsum``.  On a tie (``-0.0`` vs ``0.0``)
# ``np.maximum(a, b)`` and ``np.minimum(a, b)`` return ``b`` where the
# builtins return ``a``, so every clamp is written inline as
# ``a if a > b else b`` / ``a if a < b else b``; ``np.clip(x, lo, hi)``
# with an array bound is the maximum first, then the minimum.  (With both
# bounds scalars NumPy keeps ``x`` on a tie instead; no solve clips that
# way.)  ``tests/core/test_reduction_orders.py`` holds these forms to
# NumPy.  Pools are never NaN, so NaN propagation is not reproduced.


def _pairwise_sum(values: list[float]) -> float:
    """``float(np.asarray(values).sum())``: NumPy's pairwise summation.

    The reduction starts from ``0.0`` and adds the pairwise sum of the
    whole array: sequential below 8 elements, 8 interleaved accumulators
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus a sequential
    tail up to 128, and above that a split at ``n//2 - (n//2) % 8``.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return 0.0 + _pairwise_block(values, 0, n)


def _pairwise_block(a: list[float], lo: int, n: int) -> float:
    """NumPy's ``pairwise_sum`` of ``a[lo:lo + n]`` for ``n >= 8``."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_block(a, lo, half) + _pairwise_block(a, lo + half, n - half)
    end = lo + n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
    for i in range(lo + 8, end, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = a[i : i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in a[end : lo + n]:
        res += v
    return res


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
    ``2n`` breakpoints.  The sweep sorts those breakpoints and running-sums
    the slope/intercept deltas (O(n log n)); each :meth:`reclaim` then finds
    the active segment and solves for alpha in closed form — no iteration.

    The inputs are Python float lists, and so is each reclaim.  The plan is
    reusable across ``amount`` values, which is how the cluster simulator
    amortizes the sort over a server's rebalance storm (see
    :meth:`DeflationPolicy.reclaim_plan`).  In the priority policy's shape
    (``cap == base``) the sort waits for the first amount that needs it:
    an amount at or above the first breakpoint's value lies on the
    pre-first-event segment, which needs only the pool sums.
    """

    __slots__ = ("base", "weight", "cap", "total_cap", "_const", "_b", "_w",
                 "_raw_alphas", "_first", "_seg0", "_sweep")

    def __init__(self, base: list[float], weight: list[float], cap: list[float]) -> None:
        self.base = base
        self.weight = weight
        self.cap = cap
        self.total_cap = _pairwise_sum(cap)
        if not weight or min(weight) > 0.0:
            b, w, c = base, weight, cap
            self._const = 0.0
        else:
            pos = [wi > 0.0 for wi in weight]
            b = [x for x, p in zip(base, pos) if p]
            w = [x for x, p in zip(weight, pos) if p]
            c = [x for x, p in zip(cap, pos) if p]
            fixed = []
            for x, ci, p in zip(base, cap, pos):
                if not p:
                    x = x if x > 0.0 else 0.0
                    fixed.append(x if x < ci else ci)
            self._const = _pairwise_sum(fixed)
        self._b, self._w = b, w
        #: Value of the clipped sum at the first sweep event, when the plan
        #: can tell it without sorting (None: consult the sorted sweep).
        self._first: float | None = None
        #: ``(alphas, C, A, B, values)`` over the sorted events (None until
        #: built): on the segment right of event ``j`` the clipped sum is
        #: ``const + C[j] + A[j] - alpha * B[j]`` (``C`` is None when
        #: every term's cap event sits at alpha = 0).
        self._sweep: tuple | None = None
        #: The ``cap == base`` shape's unsorted zero crossings ``b / w``.
        self._raw_alphas: list[float] | None = None
        if c is b or b == c:
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
            alphas = [bi / wi for bi, wi in zip(b, w)]
            b_sum = self.total_cap if b is cap else _pairwise_sum(b)
            w_sum = _pairwise_sum(w)
            self._raw_alphas = alphas
            self._seg0 = (0.0, b_sum, w_sum)
            if alphas:
                # The stable sort's first event is the first minimal alpha.
                k = alphas.index(min(alphas))
                self._first = (self._const + (b_sum - b[k])) - alphas[k] * (w_sum - w[k])
            return
        # Sweep events: entering the linear regime at (b-c)/w trades the
        # constant c_i for the linear term b_i - alpha*w_i; hitting zero at
        # b/w removes the linear term.  Stable sort keeps tied breakpoints
        # deterministic (lo-events of equal alpha before hi-events).
        alphas = [(bi - ci) / wi for bi, ci, wi in zip(b, c, w)] + [
            bi / wi for bi, wi in zip(b, w)
        ]
        order = sorted(range(len(alphas)), key=alphas.__getitem__)
        d_const = [-ci for ci in c] + [0.0] * len(c)
        d_icept = b + [-bi for bi in b]
        d_slope = w + [-wi for wi in w]
        cap_sum_pos = _pairwise_sum(c)
        sorted_alphas = [alphas[i] for i in order]
        C = [v + cap_sum_pos for v in accumulate([d_const[i] for i in order])]
        A = list(accumulate([d_icept[i] for i in order]))
        B = list(accumulate([d_slope[i] for i in order]))
        self._seg0 = (cap_sum_pos, 0.0, 0.0)
        # Value of the clipped sum at each event point (continuity: the
        # post-event segment evaluated at the event's own alpha).
        const = self._const
        values = [
            ((const + cj) + aj) - al * bj for cj, aj, al, bj in zip(C, A, sorted_alphas, B)
        ]
        self._sweep = (sorted_alphas, C, A, B, values)

    def _sorted_sweep(self) -> tuple:
        """Sort the ``cap == base`` shape's zero crossings (first use only)."""
        alphas, b, w = self._raw_alphas, self._b, self._w
        order = sorted(range(len(alphas)), key=alphas.__getitem__)
        _, b_sum, w_sum = self._seg0
        sorted_alphas = [alphas[i] for i in order]
        A = [b_sum - v for v in accumulate([b[i] for i in order])]
        B = [w_sum - v for v in accumulate([w[i] for i in order])]
        const = self._const
        values = [(const + aj) - al * bj for aj, al, bj in zip(A, sorted_alphas, B)]
        self._sweep = (sorted_alphas, None, A, B, values)
        return self._sweep

    def reclaim(self, amount: float) -> list[float]:
        """Per-VM reclaim list for this pool at the given total ``amount``.

        Same contract (and guard tolerances) as the pinned bisection in
        :mod:`repro.core.waterfill_reference`: callers guarantee
        ``0 <= amount <= sum(cap)``; the final in-cap rescale squeezes out
        the last float rounding so the total matches ``amount`` exactly
        whenever the pool can express it.
        """
        if amount <= _TOL:
            return [0.0] * len(self.base)
        if amount >= self.total_cap - _TOL:
            return list(self.cap)
        first = self._first
        if first is not None and first <= amount:
            # The first event already lies at or below `amount`: the answer
            # is on the pre-first-event segment, no sort needed.
            seg_c, seg_a, seg_b = self._seg0
            alpha = (self._const + seg_c + seg_a - amount) / seg_b
        elif self._sweep is None and not self._raw_alphas:
            # No positive weights: the clipped sum is alpha-independent, so
            # any level yields the same vector (the bisection's converged
            # endpoint produced exactly this before its rescale); at
            # alpha = 0 each term is clip(base_i, 0, cap_i).
            alpha = 0.0
        else:
            sweep = self._sweep
            if sweep is None:
                sweep = self._sorted_sweep()
            alphas, C, A, B, values = sweep
            j = next((j for j, v in enumerate(values) if v <= amount), -1)
            if j < 0:
                # Even past the last breakpoint the zero-weight floor alone
                # exceeds `amount`: park every weighted term at zero and let
                # the rescale shrink inside the caps, exactly as the
                # bisection's converged upper bracket did.
                alpha = alphas[-1]
            else:
                if j == 0:
                    seg_c, seg_a, seg_b = self._seg0
                else:
                    seg_c = C[j - 1] if C is not None else 0.0
                    seg_a = A[j - 1]
                    seg_b = B[j - 1]
                if seg_b > 0.0:
                    alpha = (self._const + seg_c + seg_a - amount) / seg_b
                else:
                    # Flat segment (tied breakpoints): every alpha on it maps
                    # to the same clipped vector; take the right endpoint.
                    alpha = alphas[j]
        # np.clip(base - alpha * weight, 0.0, cap).
        x = []
        for bi, wi, ci in zip(self.base, self.weight, self.cap):
            v = bi - alpha * wi
            v = v if v > 0.0 else 0.0
            x.append(v if v < ci else ci)
        return self._rescaled(x, amount)

    def _rescaled(self, x: list[float], amount: float) -> list[float]:
        total = _pairwise_sum(x)
        if total > _TOL:
            ratio = amount / total
            # np.minimum(x * ratio, cap).
            return [v if (v := xi * ratio) < ci else ci for xi, ci in zip(x, self.cap)]
        return x


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

    Arrays at the boundary, lists inside: :meth:`target_allocations` and
    :meth:`max_reclaimable` take NumPy arrays and apply :meth:`floors` once,
    through :meth:`pool`; a plan and :meth:`_solve` receive Python float
    lists ``(caps, pool, prios)`` with the floors already taken out, and
    return ``(reclaim, satisfied)`` with ``reclaim`` a list.
    """

    #: Short machine-readable name, used by experiment harnesses.
    name: str = "abstract"

    def floors(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Per-VM allocation floor; the default is the minimum ``m_i``.

        Must be elementwise: the cluster simulator evaluates it once over
        the whole fleet, not per server pool.
        """
        return minimums

    def pool(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Per-VM deflatable pool ``M_i - floor_i``: what each VM can yield.

        Clamps the minimums to the capacities, then applies :meth:`floors`
        (once: a plan's ``pool`` already has it applied).  The cluster
        simulator's admission reserves ``floors`` itself, so its pools are
        ``M_i - floor_i`` over those floors, without a second application.
        """
        return capacities - self.floors(capacities, np.minimum(minimums, capacities), priorities)

    def max_reclaimable(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> float:
        """Upper bound of what this policy can reclaim from the given pool."""
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        return float(self.pool(caps, mins, prios).sum())

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
        solve = self.reclaim_plan(
            caps.tolist(), self.pool(caps, mins, prios).tolist(), prios.tolist()
        )
        reclaim, satisfied = solve(required)
        reclaimed = np.array(reclaim, dtype=np.float64)
        return DeflationResult(
            allocations=caps - reclaimed, reclaimed=reclaimed, satisfied=satisfied
        )

    def reclaim_plan(self, caps: list[float], pool: list[float], prios: list[float]):
        """Reusable solver over one fixed, pre-validated pool.

        Takes Python float lists: the capacities ``M_i``, the deflatable
        :meth:`pool` (``M_i - floor_i``, floors already applied) and the
        priorities.  Returns ``solve(required) -> (reclaim, satisfied)``,
        ``reclaim`` a list of per-VM reclaims.  The cluster simulator
        builds one plan per server pool from columns it constructed itself
        (``0 <= pool_i <= M_i``, ``0 < pi_i <= 1``) and solves it many times
        with only ``required`` changing; callers must not mutate the lists
        while the plan is live.  The default binds :meth:`_solve`.
        """

        def solve(required: float) -> tuple[list[float], bool]:
            return self._solve(caps, pool, prios, required)

        return solve

    def _solve(
        self, caps: list[float], pool: list[float], prios: list[float], required: float
    ) -> tuple[list[float], bool]:
        """One solve over a plan's lists; returns ``(reclaim, satisfied)``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _solve or reclaim_plan"
        )

    # Convenience wrapper shared by all policies.
    def _finalize(
        self, caps: list[float], reclaim: list[float], required: float
    ) -> tuple[list[float], bool]:
        """Cap each reclaim at its VM's capacity and flag whether the
        total covers ``required``."""
        # np.minimum(reclaim, caps).
        reclaim = [r if r < c else c for r, c in zip(reclaim, caps)]
        return reclaim, _pairwise_sum(reclaim) >= required - 1e-6


@register("policy", "proportional")
class ProportionalPolicy(DeflationPolicy):
    """Eq. 1 (and Eq. 2 when minimum allocations are set).

    Every deflatable VM is deflated in proportion to its deflatable pool
    ``M_i - m_i``, which avoids excessively deflating small VMs.
    """

    name = "proportional"

    def _solve(self, caps, pool, prios, required):
        if required <= _TOL or not caps:
            return self._finalize(caps, [0.0] * len(caps), max(required, 0.0))
        total = _pairwise_sum(pool)
        if total <= _TOL:
            return self._finalize(caps, [0.0] * len(caps), required)
        frac = min(required / total, 1.0)
        return self._finalize(caps, [p * frac for p in pool], required)


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

    def reclaim_plan(self, caps, pool, prios):
        total = _pairwise_sum(pool)
        # The water-fill is built on the first interior solve, so a one-shot
        # target_allocations pays for it only when the guards below do not
        # answer first.
        plan: _WaterfillPlan | None = None

        def solve(required: float) -> tuple[list[float], bool]:
            nonlocal plan
            if required <= _TOL or not caps:
                return self._finalize(caps, [0.0] * len(caps), max(required, 0.0))
            if total <= _TOL:
                return self._finalize(caps, [0.0] * len(caps), required)
            if required >= total - _TOL:
                return self._finalize(caps, pool, required)
            if plan is None:
                # Weight the *retained* share by pi, so low-priority VMs
                # receive more reclaim: x_i(alpha) = pool_i - alpha * pi_i
                # * pool_i — the literal Eq. 3/4 solution whenever it is
                # interior, clamped otherwise.
                plan = _WaterfillPlan(pool, [p * q for p, q in zip(prios, pool)], pool)
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

    def _solve(self, caps, pool, prios, required):
        reclaim = [0.0] * len(caps)
        if required <= _TOL or not caps:
            return self._finalize(caps, reclaim, max(required, 0.0))
        # Deflate lowest-priority VMs first; break ties by larger yield so we
        # touch fewer VMs (a stable sort, for reproducibility).
        order = sorted(range(len(caps)), key=lambda i: (prios[i], -pool[i]))
        got = 0.0
        for i in order:
            if got >= required - _TOL:
                break
            reclaim[i] = pool[i]
            got += pool[i]
        return self._finalize(caps, reclaim, required)


def get_policy(name: str) -> DeflationPolicy:
    """Look a policy up by name, raising a helpful error on typos."""
    try:
        return resolve("policy", name)
    except UnknownComponentError as exc:
        raise DeflationError(str(exc)) from None
