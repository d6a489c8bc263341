"""Crash-and-resume chaos: kill -9 the orchestrator, resume, compare.

These tests drive the real CLI in subprocesses because the faults under
test (``orchestrator.kill``, SIGTERM) take the whole process down.  The
invariants:

* a journaled run killed at any ``job_done`` boundary resumes to output
  byte-identical to an uninterrupted run, recomputing zero completed
  jobs;
* the chaos fault-log digest is identical serial, parallel-supervised
  (with ``worker.hang`` firing), and crash-resumed;
* every engine-level fault injected before a crash is re-counted as
  recovered after the resume (injected == recovered across the
  boundary);
* SIGTERM drains cleanly: nonzero exit, a ``run_interrupted`` record,
  and a resumable journal.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: resume attempts before declaring the run non-convergent — each crash
#: strictly grows the journal's completed set, so this is generous
MAX_RESUMES = 12


def _run_cli(args, env=None, timeout=180):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = REPO_SRC
    for name in ("REPRO_FAULTS", "REPRO_JOURNAL", "REPRO_RETRIES",
                 "REPRO_HANG_TIMEOUT", "REPRO_TRACE", "REPRO_WORKERS"):
        merged.pop(name, None)
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, env=merged)


def _table_lines(stdout):
    """The deterministic payload: everything from the table header on,
    minus ``[journal]``/``[trace]`` status lines."""
    lines = [line for line in stdout.splitlines()
             if not line.startswith(("[journal]", "[trace]", "[cache]"))]
    for start, line in enumerate(lines):
        if line.startswith("Table 2"):
            return lines[start:]
    return lines


def _journal_records(journal_dir):
    paths = sorted(Path(journal_dir).glob("*.journal.jsonl"))
    assert len(paths) == 1, f"expected one journal, got {paths}"
    records = []
    for line in paths[0].read_bytes().split(b"\n"):
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError:
                records.append({"type": "__torn__"})
    return records


def _resume_until_done(journal_dir, env, expect_crashes=True):
    """Loop ``repro resume`` until an attempt exits 0; returns it.

    The resumed command line (including its cache dir) is replayed from
    the journal itself, so ``resume`` only needs the journal location.
    """
    crashes = 0
    for _ in range(MAX_RESUMES):
        proc = _run_cli(["resume", "latest", "--journal", journal_dir],
                        env=env)
        if proc.returncode == 0:
            if expect_crashes:
                assert crashes + 1 >= 1
            return proc
        assert proc.returncode == -signal.SIGKILL or proc.returncode == 137
        crashes += 1
    pytest.fail(f"run did not converge within {MAX_RESUMES} resumes")


class TestKillAndResume:
    """A kill (``orchestrator.kill`` or an outside SIGKILL) + ``repro
    resume`` → byte-identical output."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("ref-cache")
        proc = _run_cli(["experiment", "table2", "--cache-dir", str(cache)])
        assert proc.returncode == 0, proc.stderr
        return _table_lines(proc.stdout)

    def test_killed_run_resumes_byte_identical(self, tmp_path, reference):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        env = {"REPRO_FAULTS": "seed=7;orchestrator.kill=0.4"}
        first = _run_cli(["experiment", "table2", "--journal", journal_dir,
                          "--cache-dir", cache_dir], env=env)
        # seed=7 @ 0.4 kills this run partway (pinned; if the fault
        # catalog changes, pick a seed that still kills here)
        assert first.returncode in (-signal.SIGKILL, 137), first.stdout

        final = _resume_until_done(journal_dir, env)
        assert _table_lines(final.stdout) == reference

        # acceptance: completed jobs are never recomputed
        assert "recomputed=0" in final.stdout
        journal_line = [line for line in final.stdout.splitlines()
                        if "recomputed=" in line][0]
        assert "resumed=" in journal_line

        records = _journal_records(journal_dir)
        types = [r["type"] for r in records]
        assert types.count("run_finished") == 1
        assert "__torn__" not in types          # resume repaired any tear
        kills = [r for r in records if r["type"] == "fault_injected"
                 and r.get("kind") == "orchestrator.kill"]
        assert kills, "the injected kills must be journaled"
        # every job ran exactly once across all processes: each
        # (key, occurrence) slot has at most one job_done
        done = [(r["key"], r["occurrence"])
                for r in records if r["type"] == "job_done"]
        assert len(done) == len(set(done)) == 8

    def test_external_sigkill_of_a_parallel_run_resumes(self, tmp_path,
                                                         reference):
        # no injected fault: the run is SIGKILLed from outside the moment
        # its first job_done is durable.  The whole process group goes,
        # pool workers included, as in a machine crash.
        journal_dir = tmp_path / "journal"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiment", "table2",
             "--workers", "2", "--journal", str(journal_dir),
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
            start_new_session=True)
        deadline = time.time() + 120
        while proc.poll() is None:
            if time.time() > deadline or any(
                    b'"type": "job_done"' in path.read_bytes()
                    for path in journal_dir.glob("*.journal.jsonl")):
                os.killpg(proc.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
        proc.wait()
        if proc.returncode == 0:
            pytest.fail("the run finished before the kill landed")
        assert proc.returncode == -signal.SIGKILL

        final = _resume_until_done(str(journal_dir), env={})
        assert _table_lines(final.stdout) == reference
        assert "recomputed=0" in final.stdout
        assert "resumed=0 " not in final.stdout
        done = [(r["key"], r["occurrence"])
                for r in _journal_records(journal_dir)
                if r["type"] == "job_done"]
        assert len(done) == len(set(done)) == 8

    def test_finished_run_refuses_to_rerun(self, tmp_path, reference):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        proc = _run_cli(["experiment", "table2", "--journal", journal_dir,
                         "--cache-dir", cache_dir])
        assert proc.returncode == 0
        again = _run_cli(["resume", "latest", "--journal", journal_dir])
        assert again.returncode == 0
        assert "already finished" in again.stdout
        assert "Table 2" not in again.stdout    # nothing re-ran


class TestSigtermDrain:
    def test_sigterm_drains_and_resumes(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiment", "table2",
             "--journal", journal_dir, "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        # wait until at least one job is durably done, then SIGTERM
        deadline = time.time() + 120
        while time.time() < deadline:
            try:
                records = _journal_records(journal_dir)
            except AssertionError:
                records = []
            if any(r["type"] == "job_done" for r in records):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        if proc.returncode == 0:
            pytest.skip("run finished before SIGTERM landed")
        assert proc.returncode == 130
        assert "interrupted" in stderr
        records = _journal_records(journal_dir)
        types = [r["type"] for r in records]
        assert types[-1] == "run_interrupted"
        assert "run_finished" not in types

        final = _resume_until_done(journal_dir, env={},
                                   expect_crashes=False)
        assert "recomputed=0" in final.stdout
        assert _table_lines(final.stdout)[0].startswith("Table 2")


class TestChaosCrashResume:
    """Satellite: chaos under ``--workers > 1`` + retries + both new
    fault kinds; the fault-log digest must be identical serial,
    parallel-supervised, and crash-resumed."""

    CHAOS = ["chaos", "--fault-seed", "5", "--iterations", "8"]

    @staticmethod
    def _digest(stdout):
        for line in stdout.splitlines():
            if line.startswith("fault-log digest:"):
                return line.split(":", 1)[1].strip()
        raise AssertionError(f"no fault-log digest in:\n{stdout}")

    @pytest.fixture(scope="class")
    def serial_digest(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("chaos-serial")
        proc = _run_cli([*self.CHAOS, "--cache-dir", str(cache)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return self._digest(proc.stdout)

    def test_parallel_supervised_with_hangs_matches_serial(
            self, tmp_path, serial_digest):
        env = {"REPRO_FAULTS": "seed=11;worker.hang=0.15",
               "REPRO_RETRIES": "2", "REPRO_HANG_TIMEOUT": "1"}
        proc = _run_cli([*self.CHAOS, "--workers", "2",
                         "--cache-dir", str(tmp_path / "cache")],
                        env=env, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert self._digest(proc.stdout) == serial_digest

    def test_crash_resumed_chaos_matches_serial(self, tmp_path,
                                                serial_digest):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        trace = str(tmp_path / "trace.jsonl")
        env = {"REPRO_FAULTS": "seed=11;orchestrator.kill=0.3",
               "REPRO_RETRIES": "2"}
        first = _run_cli([*self.CHAOS, "--journal", journal_dir,
                          "--cache-dir", cache_dir, "--trace", trace],
                         env=env)
        assert first.returncode in (-signal.SIGKILL, 137), first.stdout
        final = _resume_until_done(journal_dir, env)
        assert self._digest(final.stdout) == serial_digest
        assert "recomputed=0" in final.stdout

        # injected == recovered across the crash boundary: every
        # journaled kill is re-counted as recovered(action=resume)
        kills = [r for r in _journal_records(journal_dir)
                 if r["type"] == "fault_injected"
                 and r.get("kind") == "orchestrator.kill"]
        assert kills
        injected = recovered = 0
        for line in open(trace):
            record = json.loads(line)
            for name, value in record.get("counters", {}).items():
                if name.startswith("faults.injected") \
                        and "orchestrator.kill" in name:
                    injected = value
                if name.startswith("faults.recovered") \
                        and "action=resume" in name:
                    recovered = value
        assert injected == len(kills) == recovered
