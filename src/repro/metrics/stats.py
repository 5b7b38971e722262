"""Summary statistics used by collectors and reports.

Two samplers share one interface:

* :class:`SummaryStats` — keeps the raw values; exact, deterministic
  percentiles.  The default everywhere: simulations are short and the
  tests pin exact numbers.
* :class:`StreamingStats` — O(1) memory; moments are exact (Welford),
  quantiles are P²-estimated.  Opt in for huge runs (million-request
  populations) where keeping every response time is the dominant
  allocation — see ``RunRecorder(streaming=True)``.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["SummaryStats", "StreamingStats", "P2Quantile", "make_stats", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted ``sorted_values``.

    ``q`` is in [0, 100].  Matches ``numpy.percentile``'s default method.
    """
    if not sorted_values:
        raise ValueError("cannot take the percentile of no data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(sorted_values[low])
    frac = rank - low
    return float(sorted_values[low]) * (1.0 - frac) + float(sorted_values[high]) * frac


class SummaryStats:
    """Streaming-friendly summary of a sample (keeps the raw values).

    Raw values are kept because the simulations are short and the tests
    want exact, deterministic percentiles.
    """

    def __init__(self, values: Iterable[float] = ()):
        self._values: List[float] = []
        #: Sorted prefix cache: always a sorted copy of the first
        #: ``len(self._sorted)`` recorded values.  Values are only ever
        #: appended, so a percentile query merges just the new tail instead
        #: of re-sorting the whole sample (interleaved add()/percentile()
        #: used to be accidentally quadratic-with-log-factor).
        self._sorted: List[float] = []
        for v in values:
            self.add(v)

    def add(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("no observations")
        return self.total / len(self._values)

    @property
    def minimum(self) -> float:
        if not self._values:
            raise ValueError("no observations")
        return min(self._values)

    @property
    def maximum(self) -> float:
        if not self._values:
            raise ValueError("no observations")
        return max(self._values)

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        if not self._values:
            raise ValueError("no observations")
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self._values) / len(self._values))

    def _ensure_sorted(self) -> List[float]:
        values = self._values
        done = len(self._sorted)
        pending = len(values) - done
        if pending:
            if pending <= 16 or pending * 8 <= done:
                # Small tail: binary-insert each new value (C memmove)
                # rather than paying a full n·log n comparison sort.
                for v in values[done:]:
                    insort(self._sorted, v)
            else:
                self._sorted = sorted(values)
        return self._sorted

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sample (exact)."""
        return percentile(self._ensure_sorted(), q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "<SummaryStats empty>"
        return f"<SummaryStats n={self.count} mean={self.mean:.6g} p99={self.p99:.6g}>"


class P2Quantile:
    """Single-quantile estimator using the P² algorithm (Jain & Chlamtac,
    CACM 1985): five markers track the quantile with O(1) memory and O(1)
    update cost, no sorting and no stored sample.

    Exact for the first five observations; beyond that the estimate
    converges to the true quantile for stationary inputs (the classic
    accuracy trade of fixed-memory estimators).
    """

    __slots__ = ("p", "_count", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p!r}")
        self.p = p
        self._count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def add(self, value: float) -> None:
        """Record one observation (O(1))."""
        value = float(value)
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            insort(heights, value)
            return
        positions = self._positions
        # Find the marker cell containing the observation, clamping the
        # extremes (which become the new min/max markers).
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        increments = self._increments
        for i in range(5):
            desired[i] += increments[i]
        # Adjust the three interior markers towards their desired positions
        # with the piecewise-parabolic (P²) height update.
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                d <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def count(self) -> int:
        return self._count

    def value(self) -> float:
        """Current quantile estimate (exact while ``count <= 5``)."""
        if self._count == 0:
            raise ValueError("no observations")
        if self._count <= 5:
            return percentile(self._heights, self.p * 100.0)
        return self._heights[2]


class StreamingStats:
    """Fixed-memory drop-in for :class:`SummaryStats`.

    Count/total/min/max are exact; mean and (population) standard deviation
    use Welford's algorithm; percentiles come from per-quantile
    :class:`P2Quantile` estimators and are therefore *approximate* — only
    the quantiles named at construction can be queried.
    """

    #: Quantiles tracked when none are specified (what reports use).
    DEFAULT_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

    def __init__(
        self,
        values: Iterable[float] = (),
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ):
        self._quantiles: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q) / 100.0) for q in quantiles
        }
        self._count = 0
        self._total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        for v in values:
            self.add(v)

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for estimator in self._quantiles.values():
            estimator.add(value)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError("no observations")
        return self._mean

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError("no observations")
        return self._max

    @property
    def stddev(self) -> float:
        """Population standard deviation (Welford)."""
        if not self._count:
            raise ValueError("no observations")
        return math.sqrt(self._m2 / self._count)

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (must be a tracked quantile)."""
        estimator = self._quantiles.get(float(q))
        if estimator is None:
            tracked = sorted(self._quantiles)
            raise ValueError(
                f"quantile {q!r} is not tracked (streaming mode tracks {tracked}); "
                f"pass it in `quantiles=` at construction"
            )
        return estimator.value()

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        if not self._count:
            return "<StreamingStats empty>"
        p99 = f" p99~={self.p99:.6g}" if 99.0 in self._quantiles else ""
        return f"<StreamingStats n={self.count} mean={self.mean:.6g}{p99}>"


def make_stats(
    streaming: bool = False,
    values: Iterable[float] = (),
    quantiles: Iterable[float] = StreamingStats.DEFAULT_QUANTILES,
):
    """Factory: the exact sampler by default, the P² one on request.

    ``quantiles`` names the percentiles a streaming sampler can answer;
    ``()`` keeps only its exact moments.  The exact sampler answers any.
    """
    return StreamingStats(values, quantiles) if streaming else SummaryStats(values)
