"""Request mixes: what the simulated clients ask for.

The paper's workloads map onto these classes:

* micro-benchmarks (Sections III-IV): :class:`FixedMix` with 0.1 KB, 10 KB
  or 100 KB responses;
* the hybrid evaluation (Figure 11): :class:`BimodalMix` of light (0.1 KB)
  and heavy (100 KB) requests with a sweep over the heavy fraction;
* realistic web workloads ("Zipf-like distribution, where light requests
  dominate", Section V-C): :class:`ZipfMix`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.net.messages import Request
from repro.sim.core import Environment

__all__ = [
    "RequestMix",
    "FixedMix",
    "BimodalMix",
    "WeightedMix",
    "ZipfMix",
    "SIZE_SMALL",
    "SIZE_MEDIUM",
    "SIZE_LARGE",
]

#: The paper's three representative response sizes.
SIZE_SMALL = 102  # "0.1KB"
SIZE_MEDIUM = 10 * 1024  # "10KB"
SIZE_LARGE = 100 * 1024  # "100KB"


class RequestMix:
    """Source of requests for a workload client; mixes compare by value
    (type and attributes), so a run equals its pickled copy."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash((type(self), frozenset(vars(self).items())))

    def sample(self, env: Environment, rng: random.Random) -> Request:
        """Create the next request."""
        raise NotImplementedError

    def kinds(self) -> List[str]:
        """All request kinds this mix can produce."""
        raise NotImplementedError

    def clone_for_client(self) -> "RequestMix":
        """Per-client copy.  Stateless mixes may share one instance
        (the default); stateful mixes (Markov navigation) override."""
        return self


class FixedMix(RequestMix):
    """Every request identical — the paper's micro-benchmark workload."""

    def __init__(self, response_size: int, kind: Optional[str] = None, request_size: int = 512):
        if response_size < 0:
            raise WorkloadError(f"response_size must be >= 0, got {response_size!r}")
        self.response_size = response_size
        self.kind = kind or f"fixed-{response_size}B"
        self.request_size = request_size

    def sample(self, env: Environment, rng: random.Random) -> Request:
        return Request(
            env,
            kind=self.kind,
            response_size=self.response_size,
            request_size=self.request_size,
        )

    def kinds(self) -> List[str]:
        return [self.kind]


class BimodalMix(RequestMix):
    """Light/heavy two-class workload (the Figure 11 sweep).

    ``heavy_fraction`` of requests are heavy (``heavy_size`` response);
    the rest are light.
    """

    def __init__(
        self,
        heavy_fraction: float,
        light_size: int = SIZE_SMALL,
        heavy_size: int = SIZE_LARGE,
    ):
        if not 0.0 <= heavy_fraction <= 1.0:
            raise WorkloadError(f"heavy_fraction must be in [0, 1], got {heavy_fraction!r}")
        self.heavy_fraction = heavy_fraction
        self.light_size = light_size
        self.heavy_size = heavy_size

    def sample(self, env: Environment, rng: random.Random) -> Request:
        if rng.random() < self.heavy_fraction:
            return Request(env, kind="heavy", response_size=self.heavy_size)
        return Request(env, kind="light", response_size=self.light_size)

    def kinds(self) -> List[str]:
        return ["light", "heavy"]


class WeightedMix(RequestMix):
    """Arbitrary categorical mix of (kind, response_size, weight) rows."""

    def __init__(self, rows: Sequence[Tuple[str, int, float]]):
        if not rows:
            raise WorkloadError("WeightedMix needs at least one row")
        total = float(sum(w for _, _, w in rows))
        if total <= 0:
            raise WorkloadError("mix weights must sum to a positive value")
        for kind, size, weight in rows:
            if weight < 0:
                raise WorkloadError(f"negative weight for {kind!r}")
            if size < 0:
                raise WorkloadError(f"negative response size for {kind!r}")
        self._rows = tuple((kind, size, weight / total) for kind, size, weight in rows)

    def sample(self, env: Environment, rng: random.Random) -> Request:
        point = rng.random()
        acc = 0.0
        for kind, size, probability in self._rows:
            acc += probability
            if point < acc:
                return Request(env, kind=kind, response_size=size)
        kind, size, _ = self._rows[-1]
        return Request(env, kind=kind, response_size=size)

    def kinds(self) -> List[str]:
        return [kind for kind, _, _ in self._rows]

    @property
    def mean_response_size(self) -> float:
        """Expected response size under this mix."""
        return sum(size * p for _, size, p in self._rows)


class ZipfMix(WeightedMix):
    """Zipf-ranked sizes: rank ``i`` (1-based) has weight ``1 / i**s``.

    With sizes sorted ascending this produces the paper's "light requests
    dominate" property of realistic web workloads.
    """

    def __init__(self, sizes: Sequence[int], exponent: float = 1.0):
        if not sizes:
            raise WorkloadError("ZipfMix needs at least one size")
        if exponent < 0:
            raise WorkloadError(f"exponent must be >= 0, got {exponent!r}")
        rows = [
            (f"zipf-{rank}-{size}B", size, 1.0 / (rank ** exponent))
            for rank, size in enumerate(sizes, start=1)
        ]
        super().__init__(rows)
        self.exponent = exponent
