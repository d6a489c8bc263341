"""End-to-end observability: capture/merge determinism, instrumentation,
the ``--trace`` flag, and the ``repro report`` renderer."""

import os
from collections import Counter as Multiset
from collections import deque

import pytest

from repro.compiler import compile_minic
from repro.core.hipstr import run_under_hipstr
from repro.isa import ISAS
from repro.machine.process import Process
from repro.migration.engine import (
    DEFAULT_HISTORY_LIMIT,
    MigrationEngine,
    MigrationRecord,
)
from repro.obs import context as obs
from repro.obs.instrument import step_metrics
from repro.obs.trace import load_trace
from repro.runtime.engine import ExperimentEngine, Job


SOURCE = """
int leaf(int a) { return a + 7; }
int main() {
    int i; int total;
    total = 0; i = 0;
    while (i < 6) {
        total = total + leaf(i);
        i = i + 1;
    }
    return total;
}
"""


@pytest.fixture(scope="module")
def binary():
    return compile_minic(SOURCE)


# ---------------------------------------------------------------------
# Job functions live at module top level so the pool can pickle them.
# Everything they emit is a pure function of their arguments, which is
# what lets the determinism tests demand exact equality.
# ---------------------------------------------------------------------
def _traced_job(name, n):
    registry = obs.get_registry()
    tracer = obs.get_tracer()
    with tracer.span("work", job=name):
        for index in range(n):
            tracer.event("tick", job=name, index=index)
    registry.counter("test.items", job=name).inc(n)
    registry.histogram("test.size", edges=(1.0, 4.0, 16.0)).observe(float(n))
    return n


def _failing_job(name):
    raise ValueError(f"injected failure for {name}")


def _normalized(records):
    """Trace records minus wall-clock facts and the worker count."""
    normalized = []
    for record in records:
        stripped = {k: v for k, v in record.items() if k not in ("ts", "dur")}
        stripped["attrs"] = {k: v for k, v in record["attrs"].items()
                             if k != "workers"}
        normalized.append(stripped)
    return normalized


def _run_traced(workers):
    os.environ[obs.ENV_TRACE] = "1"   # workers inherit enablement
    obs.enable()
    engine = ExperimentEngine(workers=workers)
    jobs = [Job(key=f"t:{n}", fn=_traced_job, args=(f"j{n}", n))
            for n in (1, 2, 3, 5, 9)]
    results = engine.run(jobs)
    assert all(r.ok for r in results)
    snapshot = obs.get_registry().snapshot()
    records = list(obs.get_tracer().records)
    return snapshot, records


class TestCaptureMerge:
    def test_capture_isolates_job_buffers(self):
        obs.enable()
        obs.get_registry().counter("outer").inc()
        with obs.capture() as cap:
            obs.get_registry().counter("inner").inc(3)
            with obs.span("job-span"):
                pass
        # the job's emissions landed in the capture, not the ambient state
        assert cap.metrics["counters"] == {"inner": 3}
        assert [r["name"] for r in cap.records] == ["job-span"]
        ambient = obs.get_registry().snapshot()
        assert ambient["counters"] == {"outer": 1}

    def test_merge_capture_folds_back(self):
        obs.enable()
        with obs.capture() as cap:
            obs.get_registry().counter("inner").inc(3)
            with obs.span("job-span"):
                pass
        obs.merge_capture(cap.metrics, cap.records)
        assert obs.get_registry().snapshot()["counters"] == {"inner": 3}
        assert [r["name"] for r in obs.get_tracer().records] == ["job-span"]

    def test_disabled_by_default(self):
        # conftest resets obs state and pops REPRO_TRACE between tests
        assert not obs.enabled()
        with obs.span("ignored") as span:
            assert span is None


class TestEngineDeterminism:
    def test_serial_and_parallel_merge_identically(self):
        """The headline guarantee: workers=1 and workers=4 produce the
        same merged counters/histograms and the same trace records
        (timestamps and durations aside)."""
        serial_snapshot, serial_records = _run_traced(workers=1)
        parallel_snapshot, parallel_records = _run_traced(workers=4)

        assert serial_snapshot == parallel_snapshot
        assert _normalized(serial_records) == _normalized(parallel_records)

    def test_event_multisets_match(self):
        _, serial_records = _run_traced(workers=1)
        _, parallel_records = _run_traced(workers=4)

        def multiset(records):
            return Multiset(
                (r["type"], r["name"], tuple(sorted(r["attrs"].items())))
                for r in records if r["type"] == "event")

        assert multiset(serial_records) == multiset(parallel_records)

    def test_expected_counters_present(self):
        snapshot, records = _run_traced(workers=1)
        counters = snapshot["counters"]
        assert counters["engine.jobs{outcome=ok}"] == 5
        assert counters["test.items{job=j9}"] == 9
        hist = snapshot["histograms"]["test.size"]
        # observed 1, 2, 3, 5, 9 against edges (1, 4, 16)
        assert hist["counts"] == [1, 2, 2, 0]
        names = [r["name"] for r in records]
        assert names.count("engine.job") == 5
        assert names.count("engine.run") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_job_outcome_counted(self, workers):
        obs.enable()
        os.environ[obs.ENV_TRACE] = "1"
        engine = ExperimentEngine(workers=workers)
        results = engine.run([
            Job(key="good", fn=_traced_job, args=("g", 2)),
            Job(key="bad", fn=_failing_job, args=("b",)),
        ])
        assert results[0].ok and not results[1].ok
        counters = obs.get_registry().snapshot()["counters"]
        assert counters["engine.jobs{outcome=ok}"] == 1
        assert counters["engine.jobs{outcome=error}"] == 1
        job_spans = {r["attrs"]["key"]: r["attrs"]["outcome"]
                     for r in obs.get_tracer().records
                     if r["name"] == "engine.job"}
        assert job_spans == {"good": "ok", "bad": "error"}

    def test_disabled_leaves_results_plain(self):
        engine = ExperimentEngine(workers=1)
        results = engine.run([Job(key="t", fn=_traced_job, args=("t", 1))])
        assert results[0].metrics is None
        assert results[0].trace is None


class TestInterpreterMetrics:
    def test_disabled_attaches_nothing(self, binary):
        process = Process(binary.to_process_image(), ISAS["x86like"])
        process.os.reset(stdin=b"")
        with step_metrics(process.interpreter, system="test") as observer:
            assert observer is None
            assert process.interpreter.observers == []

    def test_instruction_mix_counters(self, binary):
        obs.enable()
        process = Process(binary.to_process_image(), ISAS["x86like"])
        process.os.reset(stdin=b"")
        with step_metrics(process.interpreter, system="test",
                          isa="x86like"):
            process.run(100_000)
        # observer detaches itself on exit
        assert process.interpreter.observers == []
        counters = obs.get_registry().snapshot()["counters"]
        steps = counters["interp.steps{isa=x86like,system=test}"]
        assert steps > 0
        mix_total = sum(value for key, value in counters.items()
                        if key.startswith("interp.ops{"))
        assert mix_total == steps
        assert counters["interp.branches{isa=x86like,system=test}"] > 0

    def test_observer_list_snapshotted_during_dispatch(self, binary):
        """An observer that detaches itself mid-step must not starve the
        observers registered after it."""
        process = Process(binary.to_process_image(), ISAS["x86like"])
        process.os.reset(stdin=b"")
        calls = {"self_removing": 0, "steady": 0}

        def self_removing(cpu, info):
            calls["self_removing"] += 1
            process.interpreter.observers.remove(self_removing)

        def steady(cpu, info):
            calls["steady"] += 1

        process.interpreter.observers.append(self_removing)
        process.interpreter.observers.append(steady)
        process.run(10)
        assert calls["self_removing"] == 1
        assert calls["steady"] == 10


class TestMigrationObservability:
    def test_migration_counters_match_engine_totals(self, binary):
        obs.enable()
        system, result = run_under_hipstr(binary, seed=1,
                                          migration_probability=1.0)
        engine = system.engine
        assert engine.migration_count == len(result.migrations)
        by_direction = engine.count_by_direction()
        assert sum(by_direction.values()) == engine.migration_count

        counters = obs.get_registry().snapshot()["counters"]
        migrated = {key: value for key, value in counters.items()
                    if key.startswith("migrations{")}
        assert sum(migrated.values()) == engine.migration_count
        histograms = obs.get_registry().snapshot()["histograms"]
        assert histograms["migration.frames"]["counts"]
        spans = [r for r in obs.get_tracer().records
                 if r["name"] == "migration"]
        assert len(spans) == engine.migration_count
        assert all("bytes_copied" in s["attrs"] for s in spans)

    def test_history_is_bounded_by_default(self, binary):
        system, result = run_under_hipstr(binary, seed=1)
        history = system.engine.history
        assert isinstance(history, deque)
        assert history.maxlen == DEFAULT_HISTORY_LIMIT
        assert system.engine.migration_count == len(result.migrations)

    def test_history_cap_keeps_running_totals(self):
        """Old records fall off the bounded window; the totals do not."""
        engine = MigrationEngine.__new__(MigrationEngine)
        engine.history = deque(maxlen=3)
        engine._total_migrations = 0
        engine._direction_counts = {}
        for index in range(10):
            source, target = (("x86like", "armlike") if index % 2 == 0
                              else ("armlike", "x86like"))
            record = MigrationRecord(source, target, "block", 0, None)
            engine._record(record, {}, None)
        assert len(engine.history) == 3
        assert engine.migration_count == 10
        assert engine.count_by_direction() == {
            ("x86like", "armlike"): 5,
            ("armlike", "x86like"): 5,
        }


class TestCLITrace:
    def test_trace_flag_writes_loadable_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "trace.jsonl"
        assert main(["experiment", "fig7", "--trace", str(path)]) == 0
        assert path.exists()
        trace = load_trace(path)
        assert trace.label == "experiment:fig7"
        assert "cache.hit_rate" in trace.metrics["gauges"]

    def test_report_renders_engine_trace(self, tmp_path, capsys):
        from repro.cli import main
        os.environ[obs.ENV_TRACE] = "1"
        obs.enable()
        engine = ExperimentEngine(workers=2)
        engine.run([Job(key=f"t:{n}", fn=_traced_job, args=(f"j{n}", n))
                    for n in (2, 5)])
        path = tmp_path / "trace.jsonl"
        obs.write_trace(path, label="test-run")
        capsys.readouterr()

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Trace report — test-run" in out
        assert "engine.job" in out
        assert "test.items{job=j5}" in out

    def test_report_missing_file_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "error: cannot read trace" in err
        assert "Traceback" not in err
