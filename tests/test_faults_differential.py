"""Property-based differential chaos layer: generator, harness, corpus.

The invariant under test (the strongest the fault subsystem offers): a
HIPStR run with faults injected either matches clean native execution
bit-for-bit, or fails with a *typed* error — never silently diverges.
Everything replays from one fault seed, serial or parallel.  The
harness properties are checked for both case runners: the chaos
track's and the transpile track's.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_minic
from repro.core.runner import run_native
from repro.faults import injection
from repro.faults.fuzz import (
    CaseOutcome,
    ChaosCase,
    ChaosReport,
    MigrationSchedule,
    ProgramGenerator,
    case_plan,
    chaos_run,
    generate_cases,
    load_corpus,
    run_case,
    run_cases,
    save_corpus,
)
from repro.faults.plan import default_plan
from repro.runtime.engine import ExperimentEngine
from repro.transpile import fuzzing
from tests.helpers import assert_worker_determinism

CORPUS = Path(__file__).parent / "corpus" / "chaos-seed7.json"

#: (track, case runner, fault seed, case count) for the harness
#: properties every track must hold
TRACKS = [
    pytest.param("chaos", run_case, 11, 6, id="chaos"),
    pytest.param("transpile", fuzzing.run_case, 7, 4, id="transpile"),
]


def _track_run(track, runner, seed, count, engine=None):
    cases = generate_cases(seed, count, track)
    return run_cases(seed, cases, default_plan(seed), engine, runner)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    injection.uninstall()


# ----------------------------------------------------------------------
# The program generator itself
# ----------------------------------------------------------------------
class TestProgramGenerator:
    def test_deterministic_for_a_seed(self):
        one = ProgramGenerator(random.Random("gen:1")).generate()
        two = ProgramGenerator(random.Random("gen:1")).generate()
        assert one == two
        other = ProgramGenerator(random.Random("gen:2")).generate()
        assert one != other

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_programs_compile_and_isas_agree(self, seed):
        """The generator's core contract: every program is valid mini-C,
        terminates, and is ISA-deterministic — otherwise every chaos
        verdict downstream would be meaningless."""
        source = ProgramGenerator(random.Random(f"gen:{seed}")).generate()
        binary = compile_minic(source)
        x86 = run_native(binary, "x86like", max_instructions=3_000_000)
        arm = run_native(binary, "armlike", max_instructions=3_000_000)
        assert x86.os.exit_code is not None, "program must halt"
        assert x86.os.exit_code == arm.os.exit_code
        assert 0 <= x86.os.exit_code < 251

    def test_case_generation_is_deterministic(self):
        first = generate_cases(9, 4)
        second = generate_cases(9, 4)
        assert [case.to_dict() for case in first] == \
            [case.to_dict() for case in second]
        # distinct indices give distinct programs
        assert len({case.source for case in first}) > 1


# ----------------------------------------------------------------------
# Harness determinism and serial/parallel equality, for both runners
# ----------------------------------------------------------------------
@pytest.mark.parametrize("track, runner, seed, count", TRACKS)
class TestCaseRunners:
    def test_same_seed_same_report(self, track, runner, seed, count):
        one = _track_run(track, runner, seed, count)
        two = _track_run(track, runner, seed, count)
        assert one.ok, [o.to_dict() for o in one.failures]
        assert one.digest() == two.digest()
        assert one.status_counts() == two.status_counts()
        assert one.fault_counts() == two.fault_counts()

    def test_serial_equals_parallel(self, track, runner, seed, count):
        def run(workers):
            engine = (ExperimentEngine(workers=workers, job_timeout=300.0)
                      if workers > 1 else None)
            report = _track_run(track, runner, seed, count, engine)
            return {"digest": report.digest(),
                    "outcomes": [o.to_dict() for o in report.outcomes]}

        assert_worker_determinism(run, worker_counts=(1, 2))


class TestChaosHarness:
    def test_different_seeds_differ(self):
        assert chaos_run(11, 6).digest() != chaos_run(12, 6).digest()

    def test_case_runs_identically_alone_or_in_batch(self):
        base = default_plan(11).with_seed(11)
        batch = chaos_run(11, 4)
        case = generate_cases(11, 4)[2]
        alone = run_case(case, base)
        in_batch = batch.outcomes[2]
        assert alone.fault_digest == in_batch.fault_digest
        assert alone.status == in_batch.status
        assert alone.chaos_exit == in_batch.chaos_exit

    def test_per_case_plans_are_distinct_but_derived(self):
        base = default_plan(7)
        one = case_plan(base, "case-7-0")
        two = case_plan(base, "case-7-1")
        assert one.seed != two.seed
        assert one.rates == base.rates
        # derivation is stable across calls
        assert case_plan(base, "case-7-0") == one

    def test_no_silent_divergence_at_elevated_rates(self):
        # Crank the rates: more faults must mean more recoveries or more
        # *typed* detections, never a wrong answer.
        report = chaos_run(13, 6, plan=default_plan(13, rate_scale=4.0)
                           .with_seed(13))
        for outcome in report.outcomes:
            assert outcome.status != "divergence", outcome.detail
            assert not outcome.status.startswith("crash:"), outcome.detail


# ----------------------------------------------------------------------
# The frozen regression corpus
# ----------------------------------------------------------------------
class TestCorpus:
    def test_corpus_round_trip(self, tmp_path):
        cases = generate_cases(3, 3)
        path = tmp_path / "corpus.json"
        save_corpus(cases, path)
        again = load_corpus(path)
        assert [case.to_dict() for case in again] == \
            [case.to_dict() for case in cases]

    def test_checked_in_corpus_replays_exactly(self):
        """Every frozen case must reproduce its recorded status, exit
        code, and fault-log digest — the whole-pipeline determinism pin
        that CI replays on every commit."""
        raw = json.loads(CORPUS.read_text())
        cases = load_corpus(CORPUS)
        base = default_plan(raw["fault_seed"]).with_seed(raw["fault_seed"])
        assert len(cases) == len(raw["expected"])
        for case in cases:
            outcome = run_case(case, base)
            expected = raw["expected"][case.case_id]
            assert outcome.status == expected["status"], outcome.detail
            assert outcome.native_exit == expected["native_exit"]
            assert outcome.chaos_exit == expected["chaos_exit"]
            assert outcome.fault_digest == expected["fault_digest"]

    def test_corpus_matches_generator(self):
        # The corpus was frozen from generate_cases(seed, n); if the
        # generator drifts, this fails loudly instead of the corpus
        # quietly testing a program no seed can reproduce.
        raw = json.loads(CORPUS.read_text())
        regenerated = generate_cases(raw["fault_seed"], len(raw["cases"]))
        assert [case.to_dict() for case in regenerated] == raw["cases"]

    def test_cli_replay_is_journaled_resumable_and_parallel(
            self, tmp_path, capsys):
        """``chaos --corpus`` runs on the CLI's engine: every case is a
        journaled job, a resume serves each from the journal store, and
        two workers print the serial digest."""
        from repro.cli import main
        raw = json.loads(CORPUS.read_text())
        expected = ChaosReport(raw["fault_seed"], [
            CaseOutcome(case_id=case_id, status=entry["status"],
                        fault_digest=entry["fault_digest"])
            for case_id, entry in raw["expected"].items()]).digest()
        argv = ["chaos", "--corpus", str(CORPUS),
                "--fault-seed", str(raw["fault_seed"])]

        def digest_line():
            out = capsys.readouterr().out
            lines = [line for line in out.splitlines()
                     if line.startswith("fault-log digest:")]
            assert len(lines) == 1, out
            return lines[0].split(":", 1)[1].strip(), out

        journal = tmp_path / "journal"
        assert main([*argv, "--journal", str(journal),
                     "--cache-dir", str(tmp_path / "cache-1")]) == 0
        assert digest_line()[0] == expected
        path, = journal.glob("*.journal.jsonl")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["key"] for r in records if r["type"] == "job_done"] \
            == list(raw["expected"])

        # the run died right after its last case landed: drop the
        # run_finished record and resume
        assert records[-1]["type"] == "run_finished"
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["resume", "latest", "--journal", str(journal)]) == 0
        digest, out = digest_line()
        assert digest == expected
        assert f"resumed={len(raw['expected'])} recomputed=0" in out

        assert main([*argv, "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache-2")]) == 0
        assert digest_line()[0] == expected


# ----------------------------------------------------------------------
# Schedules and case plumbing
# ----------------------------------------------------------------------
class TestSchedules:
    def test_random_schedule_is_deterministic(self):
        one = MigrationSchedule.random(random.Random("s:1"))
        two = MigrationSchedule.random(random.Random("s:1"))
        assert one == two

    def test_case_dict_round_trip(self):
        case = generate_cases(5, 1)[0]
        assert ChaosCase.from_dict(case.to_dict()) == case

    def test_bad_corpus_version_rejected(self, tmp_path):
        from repro.errors import ReproError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "cases": []}))
        with pytest.raises(ReproError):
            load_corpus(path)
