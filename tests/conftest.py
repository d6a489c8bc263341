"""Shared test configuration: a hermetic artifact cache.

Tier-1 runs must not read or write the developer's ``~/.cache`` store
(stale entries there could mask regressions, and test artifacts must not
pollute it), so every session gets a throwaway cache root.  The env var
is exported too so engine worker processes spawned by tests inherit it.
"""

import os

import pytest

from repro.obs import context as obs_context
from repro.runtime.cache import configure_cache


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifact-cache")
    previous = {name: os.environ.get(name)
                for name in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE",
                             "REPRO_WORKERS", "REPRO_TRACE",
                             "REPRO_JOURNAL", "REPRO_BREAKER_THRESHOLD",
                             "REPRO_BREAKER_COOLDOWN",
                             "REPRO_HANG_TIMEOUT", "REPRO_FAULTS")}
    os.environ["REPRO_CACHE_DIR"] = str(root)
    for name in previous:
        if name != "REPRO_CACHE_DIR":
            os.environ.pop(name, None)
    configure_cache(root=root)
    yield root
    for name, value in previous.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture(autouse=True)
def _reset_observability():
    """Observability state must never leak across tests (it is global,
    like the cache, and a leaked enable would slow every later test)."""
    yield
    os.environ.pop("REPRO_TRACE", None)
    obs_context.reset()


@pytest.fixture(autouse=True)
def _reset_durable_state():
    """Ambient journal/breaker state is process-global like the cache;
    a leaked journal would silently record every later test's jobs."""
    yield
    from repro.runtime import durable, supervisor
    durable.set_current_journal(None)
    durable.set_resume_state(None)
    durable.clear_interrupt()
    supervisor.set_current_breaker(None)
