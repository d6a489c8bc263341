"""End-to-end guarantees of the runtime layer.

Two properties the paper artifacts depend on:

* determinism — a driver's rows are byte-identical whether the sweep ran
  serially, across a process pool, or out of a warm cache;
* memoization — re-running a driver against a warm store recompiles and
  re-mines nothing.
"""

import pytest

from repro.analysis import experiments
from repro.runtime.cache import configure_cache, get_cache
from repro.runtime.engine import EngineError, ExperimentEngine
from repro.workloads import clear_compile_cache

#: a representative pair keeps the cold path affordable in tier-1
BENCHMARKS = ("bzip2", "mcf")


@pytest.fixture()
def fresh_store(tmp_path):
    """A brand-new cache root; restores the session cache afterwards."""
    original = get_cache()
    clear_compile_cache()
    yield tmp_path / "store"
    clear_compile_cache()
    configure_cache(root=original.root, max_bytes=original.max_bytes,
                    enabled=original.enabled)


class TestSerialParallelWarmIdentical:
    """Acceptance: identical outputs across execution strategies."""

    def test_fig3(self):
        serial = experiments.fig3_classic_rop(BENCHMARKS)
        parallel = experiments.fig3_classic_rop(
            BENCHMARKS, engine=ExperimentEngine(workers=2))
        warm = experiments.fig3_classic_rop(BENCHMARKS)
        assert repr(serial) == repr(parallel) == repr(warm)

    def test_fig6(self):
        serial = experiments.fig6_migration_safety(BENCHMARKS)
        parallel = experiments.fig6_migration_safety(
            BENCHMARKS, engine=ExperimentEngine(workers=2))
        warm = experiments.fig6_migration_safety(BENCHMARKS)
        assert repr(serial) == repr(parallel) == repr(warm)


class TestWarmCacheDoesNoWork:
    def test_fig8_warm_rerun_recompiles_nothing(self, fresh_store):
        probabilities = (0.0, 0.5, 1.0)
        configure_cache(root=fresh_store)
        cold = experiments.fig8_diversification(
            BENCHMARKS, probabilities=probabilities)
        cold_stats = get_cache().stats
        assert cold_stats.kind("binary")["stores"] == len(BENCHMARKS)
        assert cold_stats.kind("immunity")["stores"] == len(BENCHMARKS)

        # a fresh invocation: new in-process memo, new cache instance,
        # same on-disk store
        clear_compile_cache()
        configure_cache(root=fresh_store)
        warm = experiments.fig8_diversification(
            BENCHMARKS, probabilities=probabilities)
        stats = get_cache().stats

        assert warm == cold
        assert stats.kind("binary")["misses"] == 0, "recompiled a workload"
        assert stats.kind("immunity")["misses"] == 0, "re-mined immunity"
        assert stats.kind("binary")["hits"] == len(BENCHMARKS)
        assert stats.kind("immunity")["hits"] == len(BENCHMARKS)
        assert stats.stores == 0

    def test_no_cache_env_disables_store(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = configure_cache(root=fresh_store)
        experiments.fig3_classic_rop(("bzip2",))
        assert cache.entry_count() == 0
        assert cache.stats.bypasses > 0


class TestDriverFailureReporting:
    def test_unknown_benchmark_names_the_job(self):
        with pytest.raises(EngineError) as excinfo:
            experiments.fig3_classic_rop(("nosuchbench",))
        assert "fig3:nosuchbench" in str(excinfo.value)
