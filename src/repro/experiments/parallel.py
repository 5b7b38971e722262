"""Parallel sweep execution with an on-disk result cache.

Every artifact reproduction is a *sweep*: a set of independent simulation
points (server × size × concurrency × latency), each of which builds its
own :class:`~repro.sim.core.Environment` and shares no state with any
other point.  :class:`SweepExecutor` exploits that independence twice:

* **fan-out** — points run on a ``concurrent.futures.ProcessPoolExecutor``
  when ``jobs > 1`` (the ``--jobs`` CLI flag / ``REPRO_JOBS`` env var),
  with a transparent serial fallback when the pool cannot be used;
* **memoisation** — finished points are pickled under ``.repro-cache/``,
  so regenerating an artifact twice does the simulation work once.

Determinism guarantee
---------------------
Parallel and serial runs are **bit-identical**.  Each point's RNG seed is
derived up-front from ``(config seed, artifact, runner, point key)`` via
:func:`~repro.sim.rng.derive_seed` — a pure function of the point, never
of submission or completion order — and every point simulates in its own
process-isolated environment.  ``jobs=64`` therefore reproduces the exact
rows of ``jobs=1``.

Cache keying
------------
A point's cache entry is keyed by the blake2b digest of:

* the sweep coordinates: artifact id, runner name, measurement scale;
* the run inputs (:func:`~repro.sim.inputs.run_inputs`): the shard count
  and the TCP path, the only environment reads that change a result
  (both change ``kernel_events``);
* the *full* point configuration (every ``MicroConfig``/``NTierConfig``
  field, including the request mix, the calibration constants and the
  derived seed);
* a digest of the ``repro`` package sources (``*.py`` under ``src/repro``)
  plus :data:`CACHE_VERSION`, so **any** code change invalidates every
  cached result — stale entries can never mask a behaviour change.

Set ``REPRO_CACHE=0`` to disable the cache, ``REPRO_CACHE_DIR`` to move it
away from ``./.repro-cache``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ExperimentError
from repro.sim.inputs import run_inputs
from repro.sim.rng import derive_seed

__all__ = [
    "CACHE_VERSION",
    "SweepExecutor",
    "SweepStats",
    "cache_root",
    "cached_call",
    "cached_micro",
    "cached_ntier",
    "clear_cache",
    "code_digest",
    "consume_sweep_totals",
    "point_digest",
    "resolve_jobs",
]

#: Bumping this invalidates every existing cache entry.
CACHE_VERSION = 1

#: Environment variable selecting the worker count ("auto" or an integer).
JOBS_ENV = "REPRO_JOBS"
#: Set to ``0``/``off``/``false`` to bypass the on-disk cache entirely.
CACHE_ENV = "REPRO_CACHE"
#: Overrides the cache directory (default: ``./.repro-cache``).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DISABLED = {"0", "off", "no", "false"}


def resolve_jobs(jobs: "Optional[int | str]" = None) -> int:
    """Resolve a worker count from an explicit value or ``REPRO_JOBS``.

    ``None`` reads the environment (default ``1``); ``"auto"`` means one
    worker per CPU core.  Raises :class:`ExperimentError` on nonsense.
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV) or "1"
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(text)
        except ValueError:
            raise ExperimentError(
                f"jobs must be a positive integer or 'auto', got {text!r}"
            ) from None
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def cache_root() -> Optional[Path]:
    """The cache directory, or ``None`` when caching is disabled."""
    if os.environ.get(CACHE_ENV, "1").strip().lower() in _DISABLED:
        return None
    return Path(os.environ.get(CACHE_DIR_ENV) or ".repro-cache")


def clear_cache(root: Optional[Path] = None) -> int:
    """Delete every cached point; returns how many entries were removed.

    Only what the memo writes goes: the ``<label>/*.pkl`` points, the
    ``*.tmp.<pid>`` files of interrupted writes, and then the directories
    that leaves empty.  Other files under ``root`` stay, since
    ``REPRO_CACHE_DIR`` may name a directory that holds them.
    """
    root = root if root is not None else cache_root()
    if root is None or not root.is_dir():
        return 0
    points = list(root.glob("*/*.pkl"))
    for path in points + list(root.glob("*/*.tmp.[0-9]*")):
        path.unlink(missing_ok=True)
    for directory in [path for path in root.iterdir() if path.is_dir()] + [root]:
        try:
            directory.rmdir()
        except OSError:
            pass  # still holds files the memo did not write
    return len(points)


_code_digest_cache: Optional[str] = None


def code_digest() -> str:
    """Digest of the installed ``repro`` sources (cached per process).

    Folding this into every cache key turns the cache into a build-system
    style memo: edit any module and all previous results become misses.
    """
    global _code_digest_cache
    if _code_digest_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_digest_cache = digest.hexdigest()
    return _code_digest_cache


def _token(value: object) -> object:
    """Canonical, repr-stable form of a configuration value."""
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple((f.name, _token(getattr(value, f.name))) for f in fields(value)),
        )
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_token(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _token(v)) for k, v in value.items()))
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:  # request mixes and other plain config objects
        return (type(value).__name__, _token(attrs))
    return repr(value)


def point_digest(config: object) -> str:
    """Stable digest of one sweep point's full configuration.

    Covers every field of the config — including the request mix, the
    calibration constants and the seed — so two points collide only when
    they would simulate identically.
    """
    text = repr(_token(config))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _memo_key(*parts: object) -> str:
    """Memo entry name: the source digest plus the caller's key ``parts``."""
    return hashlib.blake2b(
        repr((CACHE_VERSION, code_digest()) + parts).encode("utf-8"),
        digest_size=16,
    ).hexdigest()


#: What :func:`_memo_load` returns for an entry that is not there.
_MISS = object()


def _memo_load(path: Optional[Path]) -> object:
    """The result memoised at ``path``, or :data:`_MISS`.

    ``None`` (caching disabled) is a miss.  A corrupt or unreadable entry
    is deleted and is a miss too, so it is recomputed.
    """
    if path is None:
        return _MISS
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    except FileNotFoundError:
        return _MISS
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        return _MISS


def _memo_store(path: Optional[Path], result: object) -> None:
    """Write ``result`` to ``path`` through a temporary file (atomic)."""
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError):
        pass  # a cold cache is always safe


def _run_point(runner: str, config: object) -> object:
    """Execute one simulation point (module-level: must pickle to workers)."""
    return _runner_registry()[runner](config)


def _runner_registry() -> Dict[str, Callable[[object], object]]:
    """Name → point-runner map (late import to avoid an import cycle)."""
    from repro.experiments.micro import run_micro
    from repro.ntier.topology import run_ntier

    return {"micro": run_micro, "ntier": run_ntier}


@dataclass
class SweepStats:
    """Execution accounting for one or more :class:`SweepExecutor` sweeps."""

    #: Total points requested.
    points: int = 0
    #: Points answered from the on-disk cache.
    cache_hits: int = 0
    #: Points actually simulated.
    computed: int = 0
    #: Times the process pool was abandoned for the serial path.
    serial_fallbacks: int = 0
    #: Kernel events processed across the points simulated by this
    #: executor (cache hits excluded — no simulation ran for them).
    kernel_events: int = 0
    #: Wall-clock seconds spent inside ``env.run`` across simulated
    #: points.  Worker processes overlap, so this is aggregate CPU-style
    #: time and can exceed elapsed time; events / this wall is the
    #: per-worker simulation rate.
    kernel_wall_s: float = 0.0
    #: Points that ran on the sharded kernel (``repro.shard``).
    shard_points: int = 0
    #: Aggregate barrier-stall seconds across those points' islands.
    shard_stall_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Aggregate kernel simulation rate (0 when nothing simulated)."""
        if self.kernel_wall_s <= 0.0:
            return 0.0
        return self.kernel_events / self.kernel_wall_s

    def add(self, other: "SweepStats") -> None:
        """Fold ``other``'s accounting into this one, field by field."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))


#: Process-wide accounting since the last :func:`consume_sweep_totals`.
#: Artifact runners build their :class:`SweepExecutor` internally, so the
#: CLI cannot reach the per-executor stats; every executor also folds its
#: accounting in here, and the CLI drains it after each artifact run to
#: print the per-artifact kernel summary line.
_sweep_totals = SweepStats()


def consume_sweep_totals() -> SweepStats:
    """Return and reset the process-wide sweep accounting."""
    global _sweep_totals
    taken, _sweep_totals = _sweep_totals, SweepStats()
    return taken


class SweepExecutor:
    """Runs a sweep's independent points, in parallel and through the cache.

    Usage::

        executor = SweepExecutor("fig4", scale=scale, jobs=jobs)
        results = executor.map_micro({key: config, ...})   # key -> MicroResult

    Point keys are caller-chosen hashable labels (tuples of size/server/
    concurrency); the returned mapping preserves the input ordering, so
    artifact code can keep emitting rows in the paper's order regardless
    of completion order.
    """

    def __init__(
        self,
        artifact: str,
        scale: float = 1.0,
        jobs: "Optional[int | str]" = None,
        cache_dir: "Optional[Path | str]" = "auto",
        derive_seeds: bool = True,
    ):
        self.artifact = artifact
        self.scale = float(scale)
        self.jobs = resolve_jobs(jobs)
        if cache_dir == "auto":
            self.cache_dir: Optional[Path] = cache_root()
        else:
            self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.derive_seeds = derive_seeds
        self.stats = SweepStats()

    # ------------------------------------------------------------------
    # Public sweep entry points
    # ------------------------------------------------------------------
    def map_micro(self, points: Mapping[object, object]) -> Dict[object, object]:
        """Run micro-benchmark points; key → :class:`MicroResult`."""
        return self._map("micro", points)

    def map_ntier(self, points: Mapping[object, object]) -> Dict[object, object]:
        """Run 3-tier points; key → :class:`NTierResult`."""
        return self._map("ntier", points)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _map(self, runner: str, points: Mapping[object, object]) -> Dict[object, object]:
        ordered = [(key, self._prepare(runner, key, config))
                   for key, config in points.items()]
        run = SweepStats(points=len(ordered))
        results: Dict[object, object] = {}
        pending: Dict[object, object] = {}
        for key, config in ordered:
            cached = _memo_load(self._cache_path(runner, config))
            if cached is not _MISS:
                results[key] = cached
                run.cache_hits += 1
            else:
                pending[key] = config
        if pending:
            computed = self._compute(runner, pending, run)
            run.computed = len(computed)
            for key, result in computed.items():
                _memo_store(self._cache_path(runner, pending[key]), result)
                results[key] = result
                # Results carry their own kernel accounting (captured in
                # the worker that simulated them); fold it up here so the
                # CLI can print a per-artifact events/sec line.
                run.kernel_events += getattr(result, "kernel_events", 0)
                run.kernel_wall_s += getattr(result, "sim_wall_s", 0.0)
                shards = getattr(result, "shard_events", ())
                if shards:
                    run.shard_points += 1
                    run.shard_stall_s += sum(s.stall_s for s in shards)
        self.stats.add(run)
        _sweep_totals.add(run)
        return {key: results[key] for key, _ in ordered}

    def _prepare(self, runner: str, key: object, config: object) -> object:
        """Fix the point's seed as a pure function of its coordinates."""
        if not self.derive_seeds:
            return config
        seed = derive_seed(getattr(config, "seed", 0), self.artifact, runner, str(key))
        return replace(config, seed=seed)

    def _compute(
        self, runner: str, pending: Dict[object, object], run: SweepStats
    ) -> Dict[object, object]:
        """Simulate ``pending``; a fall back to the serial path is counted
        in ``run``, the call's own accounting."""
        if self.jobs > 1 and len(pending) > 1:
            if not self._picklable(runner, pending):
                # Configs that cannot cross a process boundary (e.g. a mix
                # defined in a local scope) run serially instead of failing.
                run.serial_fallbacks += 1
            else:
                try:
                    return self._compute_parallel(runner, pending)
                except (BrokenProcessPool, OSError):
                    # Pool infrastructure failure (fork unavailable, resource
                    # limits): degrade to the serial path.  Genuine simulation
                    # errors propagate from future.result() untouched.
                    run.serial_fallbacks += 1
        return {key: _run_point(runner, config) for key, config in pending.items()}

    def _compute_parallel(self, runner: str, pending: Dict[object, object]) -> Dict[object, object]:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (key, pool.submit(_run_point, runner, config))
                for key, config in pending.items()
            ]
            return {key: future.result() for key, future in futures}

    @staticmethod
    def _picklable(runner: str, pending: Dict[object, object]) -> bool:
        try:
            pickle.dumps((runner, list(pending.values())))
            return True
        except Exception:
            return False

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_path(self, runner: str, config: object) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        key = _memo_key(
            self.artifact, runner, self.scale, run_inputs(), point_digest(config)
        )
        return self.cache_dir / self.artifact / f"{runner}-{key}.pkl"


def cached_micro(config: object, label: str = "adhoc") -> object:
    """``run_micro`` through the on-disk cache, bypassing seed derivation.

    Returns exactly what ``run_micro(config)`` would (the config is used
    verbatim), but answers repeat invocations from ``.repro-cache/`` until
    the package sources change.  Used by the slow integration tests so a
    warm checkout re-verifies in seconds.
    """
    executor = SweepExecutor(label, scale=1.0, jobs=1, derive_seeds=False)
    return executor.map_micro({"point": config})["point"]


def cached_ntier(config: object, label: str = "adhoc") -> object:
    """``run_ntier`` through the on-disk cache (see :func:`cached_micro`)."""
    executor = SweepExecutor(label, scale=1.0, jobs=1, derive_seeds=False)
    return executor.map_ntier({"point": config})["point"]


def cached_call(fn: Callable[..., object], *args: object, label: str = "call") -> object:
    """Memoise one deterministic call under the sweep cache.

    ``fn`` must be a pure function of its (digest-stable, see
    :func:`point_digest`) arguments with a picklable return value; the
    cache key covers the function's qualified name, the arguments, the
    run inputs and the package source digest.  With caching disabled
    this is a plain call.
    """
    root = cache_root()
    if root is None:
        return fn(*args)
    key = _memo_key(
        label, fn.__module__, fn.__qualname__, run_inputs(), point_digest(args)
    )
    path = root / label / f"{key}.pkl"
    result = _memo_load(path)
    if result is _MISS:
        result = fn(*args)
        _memo_store(path, result)
    return result
