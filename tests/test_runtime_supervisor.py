"""Tests for worker supervision and the per-workload circuit breaker."""

import json
import os
import time

import pytest

from repro.errors import ConfigError
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.obs import context as obs
from repro.runtime import durable
from repro.runtime import supervisor
from repro.runtime.durable import RunJournal, replay_journal
from repro.runtime.engine import ExperimentEngine, Job
from repro.runtime.supervisor import (
    CircuitBreaker,
    SupervisedPool,
    resolve_breaker_threshold,
    resolve_hang_timeout,
)


# ---------------------------------------------------------------------
# Job functions (module-level so forked workers can import them)
# ---------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"injected failure for {x}")


def _hard_exit():
    os._exit(5)           # simulates a segfaulting worker


def _slow(x, delay):
    time.sleep(delay)
    return x


def _counters(prefix):
    return {name: value for name, value in
            obs.get_registry().snapshot()["counters"].items()
            if name.startswith(prefix)}


# ---------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------
class TestCircuitBreaker:
    def test_threshold_zero_is_disabled(self):
        breaker = CircuitBreaker(0)
        assert not breaker.enabled
        for _ in range(10):
            assert breaker.record("mcf", ok=False) is False
        assert breaker.open_workloads == {}
        assert breaker.allow("mcf")

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(3)
        assert breaker.record("mcf", ok=False) is False
        assert breaker.record("mcf", ok=False) is False
        assert breaker.record("mcf", ok=False) is True      # opens here
        assert breaker.record("mcf", ok=False) is False     # already open
        assert breaker.open_workloads == {"mcf": 3}
        assert breaker.opened == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(2)
        breaker.record("mcf", ok=False)
        breaker.record("mcf", ok=True)
        assert breaker.record("mcf", ok=False) is False
        assert breaker.open_workloads == {}

    def test_streaks_are_per_workload(self):
        breaker = CircuitBreaker(2)
        breaker.record("mcf", ok=False)
        breaker.record("lbm", ok=False)
        assert breaker.open_workloads == {}
        assert breaker.record("mcf", ok=False) is True
        assert breaker.allow("lbm")

    def test_allow_counts_skips(self):
        breaker = CircuitBreaker(1)
        breaker.record("mcf", ok=False)
        assert not breaker.allow("mcf")
        assert not breaker.allow("mcf")
        assert breaker.skipped == 2

    def test_preload_and_reset(self):
        breaker = CircuitBreaker(3)
        breaker.preload({"mcf": 4, "lbm": 3})
        assert not breaker.allow("mcf")
        assert breaker.reset("mcf") == ["mcf"]
        assert breaker.allow("mcf")
        assert breaker.reset() == ["lbm"]
        assert breaker.open_workloads == {}
        assert breaker.reset("never-open") == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(-1)


class TestHalfOpenBreaker:
    """The self-healing path: open -> (cooldown) -> half-open probe."""

    @staticmethod
    def _opened(breaker, workload="mcf"):
        for _ in range(breaker.threshold):
            breaker.record(workload, ok=False)
        assert not breaker.allow(workload)
        return breaker

    def test_no_cooldown_means_legacy_always_open(self):
        breaker = self._opened(CircuitBreaker(2))
        assert not breaker.allow("mcf")
        assert breaker.probes == 0

    def test_probe_granted_once_after_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(2, cooldown=10.0, clock=lambda: clock[0])
        self._opened(breaker)
        assert not breaker.allow("mcf")        # cooldown not elapsed
        clock[0] = 10.0
        assert breaker.allow("mcf")            # exactly one probe
        assert not breaker.allow("mcf")        # second caller still shed
        assert breaker.probes == 1

    def test_probe_success_closes_the_breaker(self):
        clock = [0.0]
        breaker = CircuitBreaker(2, cooldown=5.0, clock=lambda: clock[0])
        self._opened(breaker)
        clock[0] = 5.0
        assert breaker.allow("mcf")
        assert breaker.record("mcf", ok=True) is False
        assert "mcf" not in breaker.open_workloads
        assert breaker.allow("mcf")            # fully closed again

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(2, cooldown=5.0, clock=lambda: clock[0])
        self._opened(breaker)
        clock[0] = 5.0
        assert breaker.allow("mcf")
        assert breaker.record("mcf", ok=False) is True
        assert "mcf" in breaker.open_workloads
        clock[0] = 9.0
        assert not breaker.allow("mcf")        # new cooldown from t=5
        clock[0] = 10.0
        assert breaker.allow("mcf")

    def test_cooldown_zero_probes_immediately(self):
        breaker = CircuitBreaker(1, cooldown=0.0)
        breaker.record("mcf", ok=False)
        assert breaker.allow("mcf")
        assert breaker.probes == 1

    def test_preloaded_breaker_probes_without_timestamp(self):
        # a journal replay knows a breaker was open but not when: the
        # crash already cost at least one cooldown, so probe right away
        breaker = CircuitBreaker(2, cooldown=3600.0)
        breaker.preload({"mcf": 2})
        assert breaker.allow("mcf")
        assert breaker.probes == 1

    def test_transitions_are_journal_ready_and_drain_once(self):
        clock = [0.0]
        breaker = CircuitBreaker(2, cooldown=5.0, clock=lambda: clock[0])
        self._opened(breaker)
        clock[0] = 5.0
        breaker.allow("mcf")
        breaker.record("mcf", ok=False)        # probe fails -> re-open
        clock[0] = 10.0
        breaker.allow("mcf")
        breaker.record("mcf", ok=True)         # probe closes
        kinds = [r["type"] for r in breaker.drain_transitions()]
        assert kinds == ["breaker_open", "breaker_half_open",
                         "breaker_open", "breaker_half_open",
                         "breaker_reset"]
        assert breaker.drain_transitions() == []

    def test_transitions_persist_into_a_journal(self, tmp_path):
        from repro.runtime.engine import journal_breaker_transitions
        journal = RunJournal.create(tmp_path, argv=["test"])
        breaker = CircuitBreaker(1, cooldown=0.0)
        breaker.record("mcf", ok=False)
        breaker.allow("mcf")
        breaker.record("mcf", ok=True)
        journal_breaker_transitions(breaker, journal)
        journal.close()
        records = [json.loads(line) for line in
                   journal.path.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert "breaker_open" in kinds
        assert "breaker_half_open" in kinds
        assert "breaker_reset" in kinds
        # a reset breaker must not replay as open
        assert "mcf" not in replay_journal(journal.path).breaker_open

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(1, cooldown=-1.0)

    def test_cooldown_resolver_policy(self, monkeypatch):
        resolve = supervisor.resolve_breaker_cooldown
        monkeypatch.delenv("REPRO_BREAKER_COOLDOWN", raising=False)
        assert resolve(None) is None
        assert resolve(2.5) == 2.5
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "7.5")
        assert resolve(None) == 7.5
        assert resolve(1.0) == 1.0               # explicit beats env
        with pytest.raises(ConfigError):
            resolve(-3.0)


class TestResolvers:
    def test_breaker_threshold_policy(self, monkeypatch):
        monkeypatch.delenv(supervisor.ENV_BREAKER_THRESHOLD, raising=False)
        assert resolve_breaker_threshold(None, default=3) == 3
        assert resolve_breaker_threshold(7) == 7
        monkeypatch.setenv(supervisor.ENV_BREAKER_THRESHOLD, "5")
        assert resolve_breaker_threshold(None) == 5
        assert resolve_breaker_threshold(2) == 2     # explicit beats env
        with pytest.raises(ConfigError):
            resolve_breaker_threshold(-2)

    def test_hang_timeout_policy(self, monkeypatch):
        monkeypatch.delenv(supervisor.ENV_HANG_TIMEOUT, raising=False)
        assert resolve_hang_timeout(None) == supervisor.DEFAULT_HANG_TIMEOUT
        assert resolve_hang_timeout(2.5) == 2.5
        monkeypatch.setenv(supervisor.ENV_HANG_TIMEOUT, "0.25")
        assert resolve_hang_timeout(None) == 0.25
        monkeypatch.setenv(supervisor.ENV_HANG_TIMEOUT, "-1")
        with pytest.raises(ConfigError):
            resolve_hang_timeout(None)


# ---------------------------------------------------------------------
# Supervised pool
# ---------------------------------------------------------------------
class TestSupervisedPool:
    def test_runs_jobs_with_correct_results(self):
        pool = SupervisedPool(workers=2, default_hang_timeout=10.0)
        pairs = [(i, Job(key=f"sq:{i}", fn=_square, args=(i,)))
                 for i in range(5)]
        seen = []
        done = pool.run(pairs, on_result=lambda r, a: seen.append(r.key))
        assert sorted(done) == [0, 1, 2, 3, 4]
        assert [done[i].value for i in range(5)] == [0, 1, 4, 9, 16]
        assert sorted(seen) == sorted(f"sq:{i}" for i in range(5))
        assert pool.restarts == 0

    def test_exceptions_become_results(self):
        pool = SupervisedPool(workers=2, default_hang_timeout=10.0)
        done = pool.run([(0, Job(key="bad", fn=_boom, args=(1,)))])
        assert not done[0].ok
        assert "injected failure" in done[0].error
        assert pool.restarts == 0

    def test_dead_worker_is_detected_and_replaced(self):
        obs.enable()
        pool = SupervisedPool(workers=1, default_hang_timeout=10.0)
        pairs = [(0, Job(key="die", fn=_hard_exit)),
                 (1, Job(key="ok", fn=_square, args=(3,)))]
        done = pool.run(pairs)
        assert "worker process died" in done[0].error
        assert done[1].value == 9          # the replacement ran the rest
        assert pool.restarts == 1
        assert _counters("supervisor.restarts") == {"supervisor.restarts": 1}
        # nothing was injected, so the restart heals no fault
        assert _counters("faults.recovered") == {}

    def test_hung_worker_is_killed_and_replaced(self):
        plan = FaultPlan(seed=1, rates={"worker.hang": 1.0}, limit=1)
        pool = SupervisedPool(workers=1, hang_factor=2.0,
                              default_hang_timeout=0.3)
        pairs = [(0, Job(key="victim", fn=_square, args=(2,))),
                 (1, Job(key="ok", fn=_square, args=(3,)))]
        obs.enable()
        with faults.injected(plan):
            done = pool.run(pairs)
        assert "worker hung" in done[0].error
        assert "killed by supervisor" in done[0].error
        assert done[1].value == 9
        assert pool.restarts == 1
        assert _counters("faults.recovered") == {
            "faults.recovered{action=restart,site=engine.worker}": 1}

    def test_should_stop_drops_the_backlog(self):
        pool = SupervisedPool(workers=1, default_hang_timeout=10.0)
        pairs = [(i, Job(key=f"slow:{i}", fn=_slow, args=(i, 0.05)))
                 for i in range(20)]
        done = pool.run(pairs, should_stop=lambda: len(pairs) and True)
        # stop requested from the start: at most the first dispatch runs
        assert len(done) <= 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigError):
            SupervisedPool(workers=0)
        with pytest.raises(ConfigError):
            SupervisedPool(workers=1, hang_factor=0)


# ---------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------
class TestEngineSupervised:
    def test_hang_fault_heals_through_retry(self):
        plan = FaultPlan(seed=1, rates={"worker.hang": 1.0}, limit=1)
        engine = ExperimentEngine(workers=2, retries=1, backoff=0.0)
        jobs = [Job(key=f"sq:{i}", fn=_square, args=(i,), timeout=0.3)
                for i in range(2)]
        with faults.injected(plan):
            results = engine.run(jobs)
        assert [r.value for r in results] == [0, 1]
        assert all(r.ok for r in results)
        assert engine.supervisor_restarts == 1


class TestEngineBreaker:
    def test_breaker_degrades_to_typed_skip(self, tmp_path):
        journal = RunJournal.create(tmp_path / "journal",
                                    ["experiment", "x"], run_id="r1")
        durable.set_current_journal(journal)
        breaker = CircuitBreaker(2)
        supervisor.set_current_breaker(breaker)
        engine = ExperimentEngine(workers=1)
        bad = [Job(key=f"bad:{i}", fn=_boom, args=(i,), workload="mcf")
               for i in range(2)]
        first = engine.run(bad)
        assert all(not r.ok for r in first)
        assert breaker.open_workloads == {"mcf": 2}

        second = engine.run(
            [Job(key="bad:2", fn=_boom, args=(2,), workload="mcf"),
             Job(key="ok", fn=_square, args=(3,), workload="lbm")])
        journal.close()
        assert second[0].outcome == "circuit_open"
        assert second[0].error.startswith("skipped:circuit_open")
        assert "reset with --force" in second[0].error
        assert second[0].attempts == 0               # never executed
        assert second[1].value == 9                  # other workloads run
        # the open breaker is journaled and survives replay
        replay = replay_journal(journal.path)
        assert replay.breaker_open == {"mcf": 2}
        skip_records = [r for r in replay.records
                        if r["type"] == "job_failed"
                        and r.get("error", "").startswith("skipped:")]
        assert len(skip_records) == 1

    def test_no_breaker_means_no_behavior_change(self):
        supervisor.set_current_breaker(None)
        engine = ExperimentEngine(workers=1)
        results = engine.run([Job(key="bad", fn=_boom, args=(1,),
                                  workload="mcf")])
        assert not results[0].ok
        assert results[0].outcome != "circuit_open"


class TestJournaledFaults:
    def test_worker_hang_fault_is_journaled(self, tmp_path):
        journal = RunJournal.create(tmp_path / "journal",
                                    ["experiment", "x"], run_id="r1")
        durable.set_current_journal(journal)
        plan = FaultPlan(seed=1, rates={"worker.hang": 1.0}, limit=1)
        pool = SupervisedPool(workers=1, hang_factor=2.0,
                              default_hang_timeout=0.3)
        with faults.injected(plan):
            pool.run([(0, Job(key="victim", fn=_square, args=(2,)))])
        journal.close()
        records = [json.loads(line)
                   for line in journal.path.read_text().splitlines()]
        fault_records = [r for r in records if r["type"] == "fault_injected"]
        assert len(fault_records) == 1
        assert fault_records[0]["kind"] == "worker.hang"
        assert fault_records[0]["site"] == "engine.worker"
