"""Deflation-aware VM placement (Section 5.2 of the paper).

Placement scores every candidate server with the cosine similarity between
the VM's demand vector and the server's *availability* vector

    ``A_j = Total_j - Used_j + deflatable_j / overcommitted_j``

where ``deflatable_j`` is the amount still reclaimable by deflation and
``overcommitted_j`` is the extent of deflation already performed.  Dividing
the deflatable reserve by the overcommitment level makes already-squeezed
servers less attractive, which load-balances overcommitment across the
cluster (the paper's stated goal).  ``overcommitted_j`` is expressed as a
ratio >= 1 (1 = not overcommitted), so on a fresh server the reserve counts
at face value.

The module is deliberately independent of the full cluster manager: it
consumes :class:`ServerSnapshot` summaries so the discrete-event simulator
can drive it with cheap array-backed state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.resources import NUM_RESOURCES, ResourceVector, cosine_fitness
from repro.errors import PlacementError
from repro.registry import register


@dataclass(frozen=True)
class ServerSnapshot:
    """Immutable summary of one server's state used for placement decisions.

    Attributes
    ----------
    server_id:
        Opaque identifier, echoed back in placement decisions.
    capacity:
        Physical capacity ``Total_j``.
    used:
        Currently allocated resources (post-deflation allocations of all
        resident VMs).
    deflatable:
        Resources still reclaimable from resident deflatable VMs
        (sum of ``current - min`` over deflatable VMs).
    overcommitment:
        Per-resource ratio committed/capacity, >= 0.  Values <= 1 mean the
        server is not overcommitted.
    partition:
        Optional partition label for priority pools (Section 5.2.1); None
        means the server is in the shared pool.
    """

    server_id: str
    capacity: ResourceVector
    used: ResourceVector
    deflatable: ResourceVector
    overcommitment: ResourceVector
    partition: str | None = None

    def availability(self) -> ResourceVector:
        """The paper's availability vector ``A_j``."""
        free = (self.capacity - self.used).clamp_nonnegative()
        oc = np.maximum(self.overcommitment.as_array(), 1.0)
        reserve = self.deflatable.as_array() / oc
        return ResourceVector.from_array(free.as_array() + reserve)

    def max_supportable(self) -> ResourceVector:
        """Free capacity if every deflatable VM were squeezed to its floor."""
        return (self.capacity - self.used).clamp_nonnegative() + self.deflatable


def can_possibly_fit(
    demand: ResourceVector,
    snapshot: ServerSnapshot,
    min_demand: ResourceVector | None = None,
) -> bool:
    """Cheap feasibility pre-filter: could the VM fit after maximal deflation?

    ``min_demand`` is the smallest allocation the *arriving* VM accepts — a
    deflatable VM "can start its execution in a deflated mode under high
    resource pressure" (Section 5.1.1), so it only needs room for its
    minimum, not its full capacity.
    """
    needed = min_demand if min_demand is not None else demand
    return needed.fits_within(snapshot.max_supportable())


class PlacementStrategy(abc.ABC):
    """Ranks candidate servers for a VM demand vector."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose(
        self, demand: ResourceVector, snapshots: list[ServerSnapshot]
    ) -> ServerSnapshot:
        """Pick a server; raise :class:`PlacementError` when none qualifies."""

    def rank(
        self,
        demand: ResourceVector,
        snapshots: list[ServerSnapshot],
        min_demand: ResourceVector | None = None,
    ) -> list[ServerSnapshot]:
        """Full preference order (most preferred first).

        The cluster manager walks this list: the top server may still reject
        the VM during the second step of the paper's three-step placement
        (local constraint check), in which case the next server is tried.
        ``min_demand`` loosens the feasibility pre-filter for deflatable VMs
        that may start deflated.
        """
        feasible = [s for s in snapshots if can_possibly_fit(demand, s, min_demand)]
        if not feasible:
            raise PlacementError("no server can host the VM even with maximal deflation")
        return self._order(demand, feasible)

    @abc.abstractmethod
    def _order(
        self, demand: ResourceVector, feasible: list[ServerSnapshot]
    ) -> list[ServerSnapshot]:
        ...


def _capacity_normalized(vector: ResourceVector, capacity: ResourceVector) -> ResourceVector:
    """Express a vector as per-dimension fractions of a server's capacity.

    Without this normalization the raw units dominate the cosine (memory in
    MB dwarfs CPU in cores); Tetris-style packing compares *shapes*, so both
    demand and availability are scaled into capacity fractions first.
    Dimensions the server does not provision (capacity 0) contribute 0.
    """
    v = vector.as_array()
    c = capacity.as_array()
    out = np.zeros_like(v)
    nz = c > 0
    out[nz] = v[nz] / c[nz]
    return ResourceVector.from_array(out)


@register("placement", "cosine-best-fit")
class CosineBestFit(PlacementStrategy):
    """The paper's strategy: maximize cosine fitness against availability."""

    name = "cosine-best-fit"

    def choose(self, demand, snapshots):
        return self.rank(demand, snapshots)[0]

    def _order(self, demand, feasible):
        scored = []
        for snap in feasible:
            d_norm = _capacity_normalized(demand, snap.capacity)
            a_norm = _capacity_normalized(snap.availability(), snap.capacity)
            # Surplus capacity is allocated without deflating anyone
            # (Section 5): servers that can host the VM for free outrank
            # servers that would have to squeeze their residents — the
            # availability vector alone cannot see this, because a fully
            # reclaimable deflatable VM leaves availability unchanged.
            free = (snap.capacity - snap.used).clamp_nonnegative()
            needs_deflation = 0 if demand.fits_within(free) else 1
            scored.append(
                (needs_deflation, -cosine_fitness(d_norm, a_norm), snap.used.total(), snap)
            )
        # No-deflation servers first, then highest fitness, then lower
        # utilization, then id for determinism.
        scored.sort(key=lambda t: (t[0], t[1], t[2], t[3].server_id))
        return [snap for _, _, _, snap in scored]


@register("placement", "first-fit")
class FirstFit(PlacementStrategy):
    """Baseline: first server (by id) with free capacity, else first that
    could fit after deflation."""

    name = "first-fit"

    def choose(self, demand, snapshots):
        return self.rank(demand, snapshots)[0]

    def _order(self, demand, feasible):
        free_fit = [
            s for s in feasible if demand.fits_within((s.capacity - s.used).clamp_nonnegative())
        ]
        rest = [s for s in feasible if s not in free_fit]
        return sorted(free_fit, key=lambda s: s.server_id) + sorted(
            rest, key=lambda s: s.server_id
        )


@register("placement", "worst-fit")
class WorstFit(PlacementStrategy):
    """Baseline: most free capacity first (spreads load, fragments cluster)."""

    name = "worst-fit"

    def choose(self, demand, snapshots):
        return self.rank(demand, snapshots)[0]

    def _order(self, demand, feasible):
        return sorted(
            feasible,
            key=lambda s: (-(s.capacity - s.used).clamp_nonnegative().total(), s.server_id),
        )


def filter_partition(
    snapshots: list[ServerSnapshot], partition: str | None
) -> list[ServerSnapshot]:
    """Restrict candidates to one priority pool (Section 5.2.1).

    ``partition=None`` disables partitioning and returns everything.  With a
    label, only servers assigned to that label qualify — a full partition
    therefore triggers admission control instead of spilling into other
    pools, exactly the downside the paper notes.
    """
    if partition is None:
        return list(snapshots)
    return [s for s in snapshots if s.partition == partition]


def partition_for_priority(priority: float, boundaries: tuple[float, ...] = (0.3, 0.5, 0.7)) -> str:
    """Map a VM priority to a partition label.

    The default boundaries produce four pools aligned with the four priority
    levels used by the simulations.
    """
    idx = int(np.searchsorted(np.asarray(boundaries), priority, side="left"))
    return f"pool-{idx}"


def cosine_row_norms(mat: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row half of the cosine fitness: each row's 2-norm, floored at ``eps``.

    Depends on its own row only, so callers may cache it per server and
    recompute just the rows that changed.
    """
    # Inlined 2-norm (what np.linalg.norm(mat, axis=1) computes for real
    # float64, bit for bit) — skips the linalg dispatch on this hot path.
    return np.maximum(np.sqrt(np.add.reduce(mat * mat, axis=1)), eps)


def cosine_demand_norm(demand: np.ndarray, eps: float = 1e-12) -> float:
    """The demand's 2-norm; a zero demand has no direction to score."""
    dnorm = float(np.linalg.norm(demand))
    if dnorm < eps:
        raise PlacementError("demand vector must be non-zero")
    return dnorm


def cosine_scores_by_row(
    demand: np.ndarray,
    mat: np.ndarray,
    row_norms: np.ndarray,
    eps: float = 1e-12,
    demand_norm: float | None = None,
) -> np.ndarray:
    """Demand half of the cosine fitness: one gemv over rows with known norms.

    ``demand_norm`` is :func:`cosine_demand_norm` of ``demand`` for a caller
    that caches it; by default it is computed here.
    """
    dnorm = cosine_demand_norm(demand, eps) if demand_norm is None else demand_norm
    return (mat @ demand) / (row_norms * dnorm)


def vectorized_cosine_scores(
    demand: np.ndarray, availability_matrix: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Cosine fitness of one demand against many availability rows at once.

    ``availability_matrix`` has shape (n_servers, NUM_RESOURCES).  Used by the
    trace-driven simulator where per-object scoring would dominate runtime.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if demand.shape != (NUM_RESOURCES,):
        raise PlacementError(f"demand must have shape ({NUM_RESOURCES},)")
    mat = np.asarray(availability_matrix, dtype=np.float64)
    return cosine_scores_by_row(demand, mat, cosine_row_norms(mat, eps), eps)
