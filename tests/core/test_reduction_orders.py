"""The list-native policy solves reproduce NumPy's reductions bit for bit.

``repro.core.deflation`` computes each server pool in Python floats.  Its
``+ - * /`` are the same IEEE operations NumPy performs; its reductions
and tie rules must also follow NumPy's order exactly, or the replay's
digests drift.  These tests hold each one to the NumPy call it replaced,
on the NumPy that is installed: CI installs NumPy unpinned, so a change
of NumPy's summation order or tie rule fails here first.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.deflation import _pairwise_sum

SEED = 20261021


def _hex(values) -> list[str]:
    """Exact bits, signed zeros included."""
    return [float(v).hex() for v in values]


def _series(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` signed values with magnitudes spread over 1e-3..1e3, a few
    of them ``+0.0`` or ``-0.0``."""
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    x *= rng.choice([-1.0, 1.0], n)
    zeros = rng.random(n)
    x[zeros < 0.05] = 0.0
    x[zeros > 0.95] = -0.0
    return x.tolist()


def test_pairwise_sum_matches_ndarray_sum_at_every_length():
    """Every length 0..300: the sequential (< 8), 8-accumulator (<= 128)
    and split (> 128) regimes and each boundary between them."""
    rng = np.random.default_rng(SEED)
    for n in range(301):
        for _ in range(3):
            x = _series(rng, n)
            assert _hex([_pairwise_sum(x)]) == _hex([np.asarray(x).sum()]), f"n={n}"
        positive = np.abs(x).tolist()
        assert _hex([_pairwise_sum(positive)]) == _hex([np.asarray(positive).sum()]), n


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 255, 256, 257])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_pairwise_sum_of_signed_zeros(n, zero):
    x = [zero] * n
    assert _hex([_pairwise_sum(x)]) == _hex([np.asarray(x).sum()])


def test_running_sum_matches_cumsum():
    """``itertools.accumulate`` starts at the first element, like
    ``np.cumsum``; the water-fill's prefix sums rely on it."""
    rng = np.random.default_rng(SEED + 1)
    for n in range(1, 301):
        x = _series(rng, n)
        assert _hex(itertools.accumulate(x)) == _hex(np.cumsum(x)), f"n={n}"
    for zero in (0.0, -0.0):
        assert _hex(itertools.accumulate([zero] * 9)) == _hex(np.cumsum([zero] * 9))


TIE_VALUES = (-0.0, 0.0, -1.0, 1.0, 2.5, -np.inf, np.inf)


# The clamps the solvers spell inline (``_WaterfillPlan``'s clip and
# rescale, ``DeflationPolicy._finalize``), written the same way here: the
# solvers' own bits are pinned by ``PINNED`` in test_policy_plans.py and
# ``WATERFILL_PINNED`` in test_waterfill_equivalence.py; these tests show
# why each form reproduces the NumPy call it replaced.
def _maximum(a, b):
    return a if a > b else b


def _minimum(a, b):
    return a if a < b else b


def _clip0(v, c):
    """``_WaterfillPlan.reclaim``'s clip of one term to ``[0, cap_i]``."""
    v = v if v > 0.0 else 0.0
    return v if v < c else c


def test_maximum_and_minimum_follow_numpy_ties():
    """NumPy returns the second operand on a tie, scalar or array."""
    pairs = list(itertools.product(TIE_VALUES, repeat=2))
    a = np.array([p[0] for p in pairs] * 8)
    b = np.array([p[1] for p in pairs] * 8)
    for np_fn, fn in ((np.maximum, _maximum), (np.minimum, _minimum)):
        got = [fn(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert _hex(got) == _hex(np_fn(a, b)), np_fn.__name__
        for x, y in pairs:
            assert _hex([fn(x, y)]) == _hex([np_fn(np.float64(x), np.float64(y))]), (x, y)
    # The builtins break ties the other way, which is why they are not used.
    assert _hex([max(-0.0, 0.0)]) != _hex([np.maximum(-0.0, 0.0)])


def test_clip_with_an_array_bound_is_minimum_of_maximum():
    """The water-fill clips ``base - alpha * weight`` to ``[0, cap_i]``: an
    array bound, where ``np.clip`` breaks ties as ``np.minimum(np.maximum(
    x, lo), hi)`` does.  With both bounds scalars NumPy keeps ``x`` on a
    tie instead, so the solvers never clip that way."""
    triples = [
        (x, lo, hi)
        for x, lo, hi in itertools.product(TIE_VALUES, repeat=3)
        if lo <= hi
    ]
    x = np.array([t[0] for t in triples] * 4)
    lo = np.array([t[1] for t in triples] * 4)
    hi = np.array([t[2] for t in triples] * 4)
    got = [_minimum(_maximum(*t[:2]), t[2]) for t in zip(x.tolist(), lo.tolist(), hi.tolist())]
    assert _hex(got) == _hex(np.clip(x, lo, hi))
    # The water-fill's own shape: a scalar lower bound 0.0 and per-VM caps.
    values = [t[0] for t in triples if t[1] == 0.0 and t[2] >= 0.0]
    caps = [t[2] for t in triples if t[1] == 0.0 and t[2] >= 0.0]
    for n in (1, 3, len(values)):
        vals, cs = np.array(values[:n]), np.array(caps[:n])
        got = [_clip0(v, c) for v, c in zip(vals.tolist(), cs.tolist())]
        assert _hex(got) == _hex(np.clip(vals, 0.0, cs)), n
        got = [_minimum(_maximum(v, 0.0), c) for v, c in zip(vals.tolist(), cs.tolist())]
        assert _hex(got) == _hex(np.minimum(np.maximum(vals, 0.0), cs)), n
    assert _hex([np.clip(np.array([-0.0]), 0.0, 1.0)[0]]) == ["-0x0.0p+0"]
