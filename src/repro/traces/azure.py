"""Azure-style VM trace synthesizer.

The real dataset (Cortez et al., SOSP'17) is not redistributable here, so we
generate statistically matched traces: per-VM CPU-utilization series at
5-minute granularity with workload-class-conditioned behaviour.

Calibration targets, taken from the paper's Section 3.2.1:

* interactive VMs "tend to have lower overall utilization and hence more
  slack"; their underallocation impact grows from ~1% to ~15% as deflation
  goes 10% -> 50%;
* delay-insensitive (batch) VMs see ~1% to ~30% over the same range;
* the *median* VM spends <=20% of its time above a 50%-deflated allocation
  (Figure 5);
* VM size has no direct correlation with deflatability (Figure 7) — the
  generators therefore never condition utilization on size;
* VMs with higher 95th-percentile utilization are hit harder (Figure 8) —
  emerges automatically from per-VM heterogeneity.

Class-conditioned generators:

* **interactive** — a low baseline plus a diurnal sinusoid (web traffic) and
  Gaussian noise, with rare short bursts;
* **delay-insensitive** — an on/off Markov phase process: busy phases of high
  utilization (batch jobs running) alternating with idle phases;
* **unknown** — a mixture of the two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.registry import register
from repro.traces.schema import INTERVALS_PER_DAY, VM_CLASSES, VMTraceSet

#: Azure-like size menu: (cores, memory_mb).  Mixes burstable-sized small VMs
#: with the larger D/E-series shapes so Figure 7's three buckets are populated.
SIZE_MENU: tuple[tuple[int, float], ...] = (
    (1, 1024.0),
    (1, 2048.0),
    (2, 4096.0),
    (2, 8192.0),
    (4, 8192.0),
    (4, 16384.0),
    (8, 32768.0),
    (16, 65536.0),
    (24, 65536.0),
)

#: Sampling weights for the size menu (small sizes dominate real clouds).
SIZE_WEIGHTS: tuple[float, ...] = (0.18, 0.16, 0.16, 0.12, 0.12, 0.10, 0.08, 0.05, 0.03)


@dataclass(frozen=True)
class AzureTraceConfig:
    """Knobs for the synthesizer.

    ``class_mix`` follows the paper's observation that interactive VMs are
    roughly half the population ("this translates to roughly 50% of the VMs
    being deflatable").
    """

    n_vms: int = 1000
    horizon_intervals: int = 2 * INTERVALS_PER_DAY
    seed: int = 42
    class_mix: dict = field(
        default_factory=lambda: {
            VMClass.INTERACTIVE: 0.50,
            VMClass.DELAY_INSENSITIVE: 0.30,
            VMClass.UNKNOWN: 0.20,
        }
    )
    #: Mean VM lifetime in intervals (lognormal); Azure VMs are long-lived
    #: relative to the trace window.
    mean_lifetime_intervals: float = 0.35 * INTERVALS_PER_DAY
    #: Cluster arrivals are diurnal: more VMs start during business hours.
    #: Sinusoidal arrival intensity with this peak-to-trough ratio.  The
    #: peaky concurrency this produces matches the paper's observation that
    #: "the average VM deflation is not equal to the cluster overcommitment
    #: but is significantly lower" (clusters are provisioned for peak).
    diurnal_arrival_ratio: float = 5.0

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise TraceError("n_vms must be >= 1")
        if self.horizon_intervals < 2:
            raise TraceError("horizon must be >= 2 intervals")
        total = sum(self.class_mix.values())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise TraceError(f"class_mix must sum to 1, got {total}")


def _interactive_series(rng: np.ndarray, n: int, start: int) -> np.ndarray:
    """Diurnal interactive utilization (fraction of allocated CPU)."""
    baseline = rng.uniform(0.04, 0.28)
    amplitude = rng.uniform(0.18, 0.55)
    phase = rng.uniform(0, INTERVALS_PER_DAY)
    sharpness = rng.uniform(1.0, 3.0)
    t = np.arange(start, start + n)
    diurnal = 0.5 * (1.0 + np.sin(2 * np.pi * (t - phase) / INTERVALS_PER_DAY))
    series = baseline + amplitude * diurnal**sharpness
    series += rng.normal(0.0, 0.04, size=n)
    # Rare traffic bursts: a few short windows of elevated load.
    n_bursts = rng.poisson(n / (2.5 * INTERVALS_PER_DAY) + 0.2)
    for _ in range(n_bursts):
        pos = rng.integers(0, n)
        width = int(rng.integers(1, 8))
        series[pos : pos + width] += rng.uniform(0.2, 0.55)
    return np.clip(series, 0.0, 1.0)


def _batch_series(rng: np.ndarray, n: int, start: int) -> np.ndarray:
    """On/off batch utilization: busy phases of sustained high usage."""
    busy_level = rng.uniform(0.55, 0.92)
    idle_level = rng.uniform(0.02, 0.15)
    duty = rng.uniform(0.20, 0.60)  # fraction of time busy
    mean_busy_len = rng.uniform(6, 4 * 12)  # 30 min .. 4 h
    mean_idle_len = mean_busy_len * (1.0 - duty) / max(duty, 1e-3)
    series = np.empty(n)
    pos = 0
    busy = bool(rng.random() < duty)
    while pos < n:
        length = max(1, int(rng.exponential(mean_busy_len if busy else mean_idle_len)))
        level = busy_level if busy else idle_level
        end = min(n, pos + length)
        series[pos:end] = level + rng.normal(0.0, 0.05, size=end - pos)
        pos = end
        busy = not busy
    return np.clip(series, 0.0, 1.0)


def _unknown_series(rng: np.ndarray, n: int, start: int) -> np.ndarray:
    if rng.random() < 0.5:
        return _interactive_series(rng, n, start)
    return _batch_series(rng, n, start)


_GENERATORS = {
    VMClass.INTERACTIVE: _interactive_series,
    VMClass.DELAY_INSENSITIVE: _batch_series,
    VMClass.UNKNOWN: _unknown_series,
}


def _diurnal_start(rng: np.random.Generator, cfg: AzureTraceConfig) -> int:
    """Sample a start interval under sinusoidal (diurnal) arrival intensity.

    Rejection sampling against ``1 + (ratio-1) * (0.5 + 0.5 sin)``; a ratio
    of 1 degenerates to uniform starts.
    """
    hi = max(cfg.diurnal_arrival_ratio, 1.0)
    limit = max(1, cfg.horizon_intervals - 2)
    while True:
        t = int(rng.integers(0, limit))
        intensity = 1.0 + (hi - 1.0) * 0.5 * (
            1.0 + math.sin(2 * math.pi * t / INTERVALS_PER_DAY)
        )
        if rng.random() < intensity / hi:
            return t


def _choice_cdf(probs: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(k, p=probs)`` searches, as a list.

    ``choice`` draws one ``random()`` and returns the right-side
    ``searchsorted`` of this CDF; ``bisect_right`` over it with the same
    draw gives the same index without ``choice``'s per-call argument checks.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def synthesize_azure_trace(config: AzureTraceConfig | None = None) -> VMTraceSet:
    """Generate an Azure-style VM trace set (deterministic per seed).

    Series are written back to back into one buffer, grown in place as
    needed, and the set is validated once as a whole.
    """
    cfg = config if config is not None else AzureTraceConfig()
    rng = np.random.default_rng(cfg.seed)

    classes = list(cfg.class_mix.keys())
    probs = np.array([cfg.class_mix[c] for c in classes], dtype=np.float64)
    probs = probs / probs.sum()
    class_cdf = _choice_cdf(probs)
    size_cdf = _choice_cdf(np.array(SIZE_WEIGHTS) / np.sum(SIZE_WEIGHTS))
    mu = math.log(cfg.mean_lifetime_intervals) - 0.5

    n = cfg.n_vms
    vm_class = np.empty(n, dtype=np.uint8)
    cores = np.empty(n, dtype=np.int64)
    memory_mb = np.empty(n, dtype=np.float64)
    starts = np.empty(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    per_vm = min(math.ceil(cfg.mean_lifetime_intervals), cfg.horizon_intervals)
    util = np.empty(n * per_vm)
    pos = 0
    for i in range(n):
        cls = classes[bisect_right(class_cdf, rng.random())]
        vm_class[i] = VM_CLASSES.index(cls)
        cores[i], memory_mb[i] = SIZE_MENU[bisect_right(size_cdf, rng.random())]

        # Lifetime: lognormal with the configured mean, at least 2 intervals,
        # clipped to what remains of the horizon after the start.
        lifetime = max(2, int(rng.lognormal(mean=mu, sigma=1.0)))
        start = _diurnal_start(rng, cfg)
        lifetime = min(lifetime, cfg.horizon_intervals - start)
        starts[i] = start

        if pos + lifetime > util.size:
            # realloc: large buffers move by page remapping, not by a copy.
            util.resize(pos + lifetime + (n - i - 1) * per_vm, refcheck=False)
        util[pos : pos + lifetime] = _GENERATORS[cls](rng, lifetime, start)
        pos += lifetime
        offsets[i + 1] = pos
    util.resize(pos, refcheck=False)
    return VMTraceSet.from_columns(
        vm_ids=[f"azure-vm-{i}" for i in range(n)],
        vm_class=vm_class,
        cores=cores,
        memory_mb=memory_mb,
        start_interval=starts,
        util=util,
        offsets=offsets,
    )


@register("workload", "azure")
def azure_workload(**params) -> VMTraceSet:
    """Registry adapter: build an Azure-style trace from plain kwargs.

    Accepts the :class:`AzureTraceConfig` fields as keyword arguments, so a
    declarative scenario can say ``{"source": "azure", "n_vms": 500,
    "seed": 31}`` without constructing config objects.
    """
    return synthesize_azure_trace(AzureTraceConfig(**params))
