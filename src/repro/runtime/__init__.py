"""Execution runtime: fan-out engine, artifact cache, durable runs.

Three layers (see DESIGN.md "Runtime engine"):

* :mod:`repro.runtime.engine` — process-pool job runner with
  deterministic result ordering, per-job timeouts, and worker-crash
  isolation;
* :mod:`repro.runtime.cache` — content-addressed on-disk memoization for
  compiled binaries, gadget-mining results, and measurement rows;
* :mod:`repro.runtime.durable` — the write-ahead run journal behind
  ``--journal`` and ``repro resume``.

:mod:`repro.runtime.artifacts` (imported explicitly, not re-exported
here) holds the cache-aware wrappers the experiment drivers call.

All three layers report through :mod:`repro.obs` when tracing is on:
the engine captures and merges per-job metrics/trace buffers, the cache
mirrors its hit/miss/eviction counters into the registry, and the
journal counts its records (see DESIGN.md "Observability").
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    configure_cache,
    default_cache_dir,
    digest,
    get_cache,
)
from .durable import (
    JournalReplay,
    ResumeState,
    RunJournal,
    RunStatusWriter,
    list_runs,
    load_status,
    replay_journal,
    status_path,
    synthesize_status,
)
from .engine import (
    EngineError,
    ExperimentEngine,
    Job,
    JobResult,
    collect,
    get_default_engine,
    resolve_workers,
    set_default_engine,
)
from .supervisor import CircuitBreaker, SupervisedPool

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "configure_cache",
    "default_cache_dir",
    "digest",
    "get_cache",
    "JournalReplay",
    "ResumeState",
    "RunJournal",
    "RunStatusWriter",
    "list_runs",
    "load_status",
    "replay_journal",
    "status_path",
    "synthesize_status",
    "EngineError",
    "ExperimentEngine",
    "Job",
    "JobResult",
    "collect",
    "get_default_engine",
    "resolve_workers",
    "set_default_engine",
    "CircuitBreaker",
    "SupervisedPool",
]
