"""Tests for the fan-out experiment engine."""

import os
import time

import pytest

from repro.runtime.engine import (
    EngineError,
    ExperimentEngine,
    Job,
    JobResult,
    collect,
    resolve_workers,
)


# ---------------------------------------------------------------------
# Job functions must live at module top level so the pool can pickle
# them by reference.
# ---------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"injected failure for {x}")


def _slow_square(x, delay):
    time.sleep(delay)
    return x * x


def _sleep_forever():
    time.sleep(60)


def _hard_exit():
    os._exit(13)          # simulates a segfaulting worker


def _pid_tag(x):
    return (x, os.getpid())


def _make_lambda():
    return lambda: None


class TestSerial:
    def test_values_in_submission_order(self):
        engine = ExperimentEngine(workers=1)
        results = engine.run([Job(key=f"sq:{x}", fn=_square, args=(x,))
                              for x in range(5)])
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert [r.key for r in results] == [f"sq:{x}" for x in range(5)]
        assert all(r.ok for r in results)

    def test_exception_becomes_result(self):
        engine = ExperimentEngine(workers=1)
        results = engine.run([
            Job(key="ok", fn=_square, args=(3,)),
            Job(key="bad", fn=_boom, args=(3,)),
            Job(key="also-ok", fn=_square, args=(4,)),
        ])
        assert results[0].value == 9
        assert not results[1].ok
        assert "ValueError" in results[1].error
        assert results[2].value == 16

    def test_runs_inline(self):
        """Serial jobs execute in the calling process (no pickling)."""
        engine = ExperimentEngine(workers=1)
        results = engine.run([Job(key="pid", fn=_pid_tag, args=(1,))])
        assert results[0].value == (1, os.getpid())

    def test_empty_job_list(self):
        assert ExperimentEngine(workers=1).run([]) == []


class TestParallel:
    def test_deterministic_ordering(self):
        """Results come back in submission order, not completion order."""
        engine = ExperimentEngine(workers=2)
        delays = [0.3, 0.0, 0.2, 0.0]
        results = engine.run([
            Job(key=f"slow:{index}", fn=_slow_square, args=(index, delay))
            for index, delay in enumerate(delays)])
        assert [r.value for r in results] == [0, 1, 4, 9]

    def test_matches_serial(self):
        jobs = [Job(key=f"sq:{x}", fn=_square, args=(x,)) for x in range(8)]
        serial = [r.value for r in ExperimentEngine(workers=1).run(jobs)]
        parallel = [r.value for r in ExperimentEngine(workers=3).run(jobs)]
        assert serial == parallel

    def test_worker_exception_isolated(self):
        """One raising job must not take down the rest of the sweep."""
        engine = ExperimentEngine(workers=2)
        results = engine.run([
            Job(key="a", fn=_square, args=(2,)),
            Job(key="bad", fn=_boom, args=("bad",)),
            Job(key="b", fn=_square, args=(5,)),
            Job(key="c", fn=_square, args=(6,)),
        ])
        assert [r.key for r in results] == ["a", "bad", "b", "c"]
        assert results[0].value == 4
        assert not results[1].ok
        assert "injected failure" in results[1].error
        assert results[2].value == 25
        assert results[3].value == 36
        assert engine.failures == 1

    def test_worker_death_isolated(self):
        """A worker dying hard fails its job, not the whole run."""
        engine = ExperimentEngine(workers=2)
        results = engine.run(
            [Job(key="die", fn=_hard_exit)]
            + [Job(key=f"sq:{x}", fn=_slow_square, args=(x, 0.05))
               for x in range(1, 7)])
        assert [r.key for r in results] == \
            ["die"] + [f"sq:{x}" for x in range(1, 7)]
        assert not results[0].ok
        assert "exit 13" in results[0].error
        assert [r.value for r in results[1:]] == [x * x for x in range(1, 7)]
        assert engine.supervisor_restarts == 1

    def test_lone_retry_stays_isolated(self):
        """A retry of one job still runs in a worker, never inline."""
        engine = ExperimentEngine(workers=2, retries=1, backoff=0.0)
        results = engine.run([Job(key="die", fn=_hard_exit),
                              Job(key="sq", fn=_square, args=(2,))])
        assert "exit 13" in results[0].error
        assert results[0].attempts == 2
        assert results[1].value == 4
        assert engine.supervisor_restarts == 2

    def test_unpicklable_result_keeps_its_error(self):
        """A value that cannot cross the pipe fails its job with the
        pickling error; the worker survives and nothing restarts."""
        engine = ExperimentEngine(workers=2)
        results = engine.run([Job(key="lambda", fn=_make_lambda)]
                             + [Job(key=f"sq:{x}", fn=_square, args=(x,))
                                for x in range(3)])
        assert not results[0].ok
        assert "pickle" in results[0].error
        assert "died" not in results[0].error
        assert [r.value for r in results[1:]] == [0, 1, 4]
        assert engine.supervisor_restarts == 0

    def test_uses_multiple_processes(self):
        engine = ExperimentEngine(workers=2)
        results = engine.run([
            Job(key=f"pid:{x}", fn=_slow_square, args=(x, 0.1))
            for x in range(4)])
        assert all(r.ok for r in results)


class TestTimeout:
    def test_job_timeout_fails_job_only(self):
        engine = ExperimentEngine(workers=1)
        start = time.perf_counter()
        results = engine.run([
            Job(key="hang", fn=_sleep_forever, timeout=0.2),
            Job(key="ok", fn=_square, args=(7,)),
        ])
        assert time.perf_counter() - start < 30
        assert not results[0].ok
        assert "timed out" in results[0].error
        assert results[1].value == 49

    def test_engine_default_timeout(self):
        engine = ExperimentEngine(workers=1, job_timeout=0.2)
        results = engine.run([Job(key="hang", fn=_sleep_forever)])
        assert not results[0].ok and "timed out" in results[0].error


class TestCollect:
    def test_values(self):
        results = [JobResult(key="a", index=0, value=1),
                   JobResult(key="b", index=1, value=2)]
        assert collect(results) == [1, 2]

    def test_raises_engine_error_with_failures(self):
        results = [JobResult(key="a", index=0, value=1),
                   JobResult(key="b", index=1, error="ValueError: nope")]
        with pytest.raises(EngineError) as excinfo:
            collect(results)
        assert excinfo.value.failures[0].key == "b"
        assert "b: ValueError: nope" in str(excinfo.value)


class TestWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_zero_means_per_core(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)


class TestMap:
    def test_map_convenience(self):
        engine = ExperimentEngine(workers=1)
        results = engine.map(_square, [(2,), (3,)], key_prefix="m")
        assert [r.key for r in results] == ["m:0", "m:1"]
        assert collect(results) == [4, 9]
