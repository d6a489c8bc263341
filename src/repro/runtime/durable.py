"""Crash-consistent durable runs: the write-ahead run journal.

A long sweep must survive the *orchestrator* dying, not just individual
jobs.  This module gives every ``repro`` invocation that opts in
(``--journal DIR`` / ``REPRO_JOURNAL``) a write-ahead journal: an
fsync'd JSONL file of schema-versioned records that the
:class:`~repro.runtime.engine.ExperimentEngine` appends to *before and
after* each job, plus a per-run artifact store holding the pickled
result of every completed job.  ``repro resume <run-id>`` replays the
journal, verifies the config digest and every completed job's artifact,
and re-runs the recorded command with the completed work served from
the store — a ``kill -9`` mid-sweep costs only the jobs that were in
flight, and the resumed results are byte-identical to an uninterrupted
run.

Record types (each carries ``seq``, ``type``, and the run's config
``digest``):

``run_started``      — header: schema, run id, argv, pid, created
``run_resumed``      — a resume attached to this journal
``job_enqueued``     — a job entered a sweep (``key``, ``occurrence``)
``job_started``      — a job began executing (``attempt``)
``job_done``         — a job finished ok (``artifact_key`` into the
                       run's result store)
``job_failed``       — one attempt failed (``error``, ``attempt``)
``breaker_open``     — a workload's circuit breaker opened
``breaker_half_open``— a cooled-down breaker admitted one probe job
``breaker_reset``    — a probe succeeded, or ``--force`` closed it
``fault_injected``   — an engine-level chaos fault fired (written
                       *before* ``orchestrator.kill`` pulls the trigger
                       so the kill is auditable across the crash)
``request_received`` — the serve layer admitted a request (``request_id``,
                       ``tenant``, ``spec_digest``)
``request_done``     — a request completed; its response body is in the
                       run's artifact store (``artifact_key``)
``request_failed``   — a request failed terminally with a typed error
``run_interrupted``  — SIGTERM drained the run cleanly
``run_finished``     — the command completed (``exit_code``)

**Torn-write recovery.**  The crash signature of ``kill -9`` is a
partial final line.  :func:`replay_journal` truncates a garbled *final*
record with a warning (counted in the ``journal.torn_records`` counter)
and carries on; a garbled record anywhere *else* is structural damage
and raises :class:`~repro.errors.JournalCorruptError`.

**Occurrences.**  One run may enqueue the same job key several times
(a command that sweeps the same jobs twice, say), so completion is
tracked per ``(key, occurrence)`` where ``occurrence`` counts prior
enqueues of that key within the run.  A resumed run re-executes the
same command deterministically, so occurrences line up by
construction.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import JournalCorruptError, ResumeMismatchError
from ..obs import context as obs
from .cache import ArtifactCache, digest

#: bump when the journal record layout changes incompatibly
JOURNAL_SCHEMA = 1

ENV_JOURNAL = "REPRO_JOURNAL"

#: artifact kind under which completed job values are stored
RESULT_KIND = "jobresult"

RECORD_TYPES = (
    "run_started", "run_resumed", "job_enqueued", "job_started",
    "job_done", "job_failed", "breaker_open", "breaker_half_open",
    "breaker_reset", "fault_injected", "request_received",
    "request_done", "request_failed", "run_interrupted", "run_finished",
)

#: artifact kind under which completed serve responses are stored
REQUEST_KIND = "requestresult"

_JOURNAL_SUFFIX = ".journal.jsonl"

#: bump when the live-status file layout changes incompatibly
STATUS_SCHEMA = 1

_STATUS_SUFFIX = ".status.json"


def config_digest(argv: List[str]) -> str:
    """Digest identifying one run configuration: the command line.

    A resumed run replays the journal's stored argv, so the digest
    recomputed at resume time must match the one every record carries —
    anything else means the journal was edited or the toolchain changed.
    """
    from .. import __version__
    return digest("run-config", __version__, list(argv))


def new_run_id() -> str:
    """Time-ordered unique id: ``YYYYmmdd-HHMMSS-xxxxxx``."""
    return (time.strftime("%Y%m%d-%H%M%S")
            + "-" + os.urandom(3).hex())


# ----------------------------------------------------------------------
# Live run status (`repro top`)
# ----------------------------------------------------------------------
def status_path(directory: os.PathLike, run_id: str) -> Path:
    return Path(directory) / f"{run_id}{_STATUS_SUFFIX}"


def load_status(directory: os.PathLike,
                run_id: str) -> Optional[Dict[str, Any]]:
    """Read a run's status file; ``None`` when absent or unreadable."""
    path = status_path(directory, run_id)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) \
            or payload.get("schema") != STATUS_SCHEMA:
        return None
    return payload


class RunStatusWriter:
    """Atomic, throttled status JSON alongside one run's journal.

    Pure telemetry: every file operation is best-effort (a full disk or
    permission error must never take down the run the status describes),
    writes go through tmp + ``os.replace`` so readers only ever see a
    complete document, and updates are merged immediately but written at
    most once per ``interval`` seconds unless forced.  Derived job
    counts (``running``/``pending``) are approximate across process
    boundaries — they're a health view, not the journal's ground truth.
    """

    def __init__(self, directory: os.PathLike, run_id: str,
                 interval: float = 0.5):
        self.path = status_path(directory, run_id)
        self.interval = interval
        self._lock = threading.Lock()
        self._last_write = 0.0
        self._state: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "run_id": run_id,
            "pid": os.getpid(),
            "state": "running",
            "argv": [],
            "started": time.time(),
            "updated": time.time(),
            "jobs": {"total": 0, "started": 0, "running": 0,
                     "pending": 0, "done": 0, "failed": 0},
            "workers": {},
            "breakers": {},
            "cache": {},
            "faults": {"injected": 0, "recovered": 0},
        }

    def update(self, force: bool = False, **fields: Any) -> None:
        """Merge ``fields`` now; write to disk when due (or forced)."""
        with self._lock:
            self._state.update(fields)
            now = time.time()
            if not force and now - self._last_write < self.interval:
                return
            self._state["updated"] = now
            self._last_write = now
            payload = json.dumps(self._state, sort_keys=True)
        tmp = self.path.parent / (self.path.name + ".tmp")
        try:
            tmp.write_text(payload + "\n")
            os.replace(tmp, self.path)
        except OSError:
            pass

    def note_record(self, record_type: str,
                    record: Dict[str, Any]) -> None:
        """Fold one journal record into the job/breaker/fault counts."""
        force = False
        with self._lock:
            jobs = self._state["jobs"]
            if record_type == "job_enqueued":
                jobs["total"] += 1
            elif record_type == "job_started":
                jobs["started"] += 1
            elif record_type == "job_done":
                jobs["done"] += 1
            elif record_type == "job_failed":
                jobs["failed"] += 1
            elif record_type == "breaker_open":
                self._state["breakers"][record.get("workload", "?")] = {
                    "state": "open",
                    "failures": int(record.get("failures", 0))}
            elif record_type == "breaker_half_open":
                self._state["breakers"][record.get("workload", "?")] = {
                    "state": "half-open",
                    "failures": int(record.get("failures", 0))}
            elif record_type == "breaker_reset":
                self._state["breakers"].pop(record.get("workload"), None)
            elif record_type in ("request_received", "request_done",
                                 "request_failed"):
                requests = self._state.setdefault(
                    "requests", {"received": 0, "done": 0, "failed": 0})
                slot = record_type[len("request_"):]
                requests[slot] = requests.get(slot, 0) + 1
            elif record_type == "fault_injected":
                self._state["faults"]["injected"] += 1
            elif record_type in ("run_started", "run_resumed"):
                self._state["argv"] = list(record.get("argv", [])) \
                    or self._state["argv"]
                self._state["pid"] = int(record.get("pid", os.getpid()))
                force = True
            elif record_type == "run_finished":
                self._state["state"] = "finished"
                force = True
            elif record_type == "run_interrupted":
                self._state["state"] = "interrupted"
                force = True
            settled = jobs["done"] + jobs["failed"]
            jobs["running"] = max(0, jobs["started"] - settled)
            jobs["pending"] = max(
                0, jobs["total"] - settled - jobs["running"])
        self.update(force=force)


def synthesize_status(replay: "JournalReplay") -> Dict[str, Any]:
    """Status-shaped view of a journal with no status file (old runs)."""
    head = replay.records[0] if replay.records else {}
    jobs = {"total": 0, "started": 0, "running": 0, "pending": 0,
            "done": 0, "failed": 0}
    faults = 0
    for record in replay.records:
        kind = record.get("type")
        if kind == "job_enqueued":
            jobs["total"] += 1
        elif kind == "job_started":
            jobs["started"] += 1
        elif kind == "job_done":
            jobs["done"] += 1
        elif kind == "job_failed":
            jobs["failed"] += 1
        elif kind == "fault_injected":
            faults += 1
    settled = jobs["done"] + jobs["failed"]
    jobs["running"] = max(0, jobs["started"] - settled)
    jobs["pending"] = max(0, jobs["total"] - settled - jobs["running"])
    return {
        "schema": STATUS_SCHEMA,
        "run_id": replay.run_id,
        "pid": int(head.get("pid", 0)),
        "state": replay.status(),
        "argv": list(replay.argv),
        "started": float(head.get("created", 0.0)),
        "updated": float(head.get("created", 0.0)),
        "jobs": jobs,
        "workers": {},
        "breakers": {workload: {"state": "open", "failures": failures}
                     for workload, failures
                     in sorted(replay.breaker_open.items())},
        "cache": {},
        "faults": {"injected": faults, "recovered": 0},
        "synthesized": True,
    }


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class RunJournal:
    """Append-only fsync'd JSONL journal plus the run's result store.

    Every :meth:`append` is durable before it returns: the record is
    written, flushed, and ``fsync``'d, so the journal never claims work
    that a crash can un-do.  Job values go to a *per-run*
    :class:`~repro.runtime.cache.ArtifactCache` under
    ``<dir>/<run_id>.artifacts/`` — deliberately separate from the
    global artifact cache so ``--no-cache`` sweeps stay resumable and a
    cache eviction cannot orphan a ``job_done`` record.
    """

    def __init__(self, directory: os.PathLike, run_id: str,
                 config: str, argv: Optional[List[str]] = None):
        self.directory = Path(directory)
        self.run_id = run_id
        self.config_digest = config
        self.argv = list(argv or [])
        self.path = self.directory / f"{run_id}{_JOURNAL_SUFFIX}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactCache(
            root=self.directory / f"{run_id}.artifacts",
            max_bytes=0, enabled=True)
        self._handle = open(self.path, "ab")
        self._seq = 0
        self._occurrence: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: live telemetry for `repro top` — best-effort, own lock
        self.status = RunStatusWriter(self.directory, run_id)
        self.status._state["argv"] = self.argv
        #: resume bookkeeping the CLI reports at the end of a run
        self.jobs_resumed = 0
        self.jobs_recomputed = 0
        self.records_written = 0
        self.closed = False

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, directory: os.PathLike, argv: List[str],
               run_id: Optional[str] = None) -> "RunJournal":
        run_id = run_id or new_run_id()
        journal = cls(directory, run_id, config_digest(argv), argv=argv)
        journal.append("run_started", schema=JOURNAL_SCHEMA,
                       run_id=run_id, argv=list(argv), pid=os.getpid(),
                       created=time.time())
        return journal

    @classmethod
    def resume(cls, directory: os.PathLike,
               replay: "JournalReplay") -> "RunJournal":
        """Reattach to an existing journal (already torn-line repaired)."""
        journal = cls(directory, replay.run_id, replay.config_digest,
                      argv=replay.argv)
        journal._seq = replay.next_seq
        journal.append("run_resumed", pid=os.getpid(),
                       created=time.time(),
                       completed=len(replay.completed),
                       torn_records=replay.torn_records)
        return journal

    # -- the write-ahead append ----------------------------------------
    def append(self, record_type: str, **payload: Any) -> Dict[str, Any]:
        assert record_type in RECORD_TYPES, record_type
        with self._lock:
            if self.closed:
                return {}
            record = {"seq": self._seq, "type": record_type,
                      "digest": self.config_digest}
            record.update(payload)
            self._seq += 1
            line = json.dumps(record, sort_keys=True) + "\n"
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.records_written += 1
        if obs.enabled():
            obs.get_registry().counter("journal.records",
                                       type=record_type).inc()
        try:
            self.status.note_record(record_type, record)
        except Exception:
            pass                           # telemetry must never abort
        return record

    # -- job bookkeeping ------------------------------------------------
    def next_occurrence(self, key: str) -> int:
        """Per-run enqueue ordinal for ``key`` (see module docstring)."""
        with self._lock:
            ordinal = self._occurrence.get(key, 0)
            self._occurrence[key] = ordinal + 1
        return ordinal

    def artifact_key(self, key: str, occurrence: int) -> str:
        """Content address of one completed job's stored value."""
        return digest(RESULT_KIND, self.config_digest, key, occurrence)

    def store_result(self, key: str, occurrence: int, value: Any) -> str:
        """Persist a completed job's value; returns its artifact key.

        Best-effort on unpicklable values: the ``job_done`` record is
        still written, and resume simply recomputes that one job.
        """
        artifact_key = self.artifact_key(key, occurrence)
        try:
            self.store.put(RESULT_KIND, artifact_key, value)
        except Exception:                 # unpicklable value: recompute
            pass
        return artifact_key

    def finish(self, exit_code: int) -> None:
        self.append("run_finished", exit_code=int(exit_code))
        self.close()

    def close(self) -> None:
        with self._lock:
            if not self.closed:
                self.closed = True
                self._handle.close()

    def __repr__(self) -> str:
        return (f"<RunJournal {self.run_id} seq={self._seq} "
                f"at {self.path}>")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class JournalReplay:
    """Everything a resume needs, recovered from one journal file."""

    path: Path
    run_id: str
    argv: List[str]
    config_digest: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: (key, occurrence) -> artifact_key for every completed job
    completed: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: workload -> consecutive terminal failures at breaker-open time
    breaker_open: Dict[str, int] = field(default_factory=dict)
    torn_records: int = 0
    finished: bool = False
    interrupted: bool = False
    next_seq: int = 0
    #: engine-level chaos faults recorded across crash boundaries
    fault_records: List[Dict[str, Any]] = field(default_factory=list)
    #: request_id -> final serve-layer record (``request_done`` or
    #: ``request_failed``) for every request that reached an outcome
    requests_settled: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: request_id -> ``request_received`` record for requests that were
    #: admitted but never settled (in flight at the crash)
    requests_pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def resumable(self) -> bool:
        return not self.finished

    def enqueued_count(self) -> int:
        return sum(1 for r in self.records if r["type"] == "job_enqueued")

    def status(self) -> str:
        if self.finished:
            return "finished"
        if self.interrupted:
            return "interrupted"
        return "crashed"


def journal_path(directory: os.PathLike, run_id: str) -> Path:
    return Path(directory) / f"{run_id}{_JOURNAL_SUFFIX}"


def replay_journal(path: os.PathLike, repair: bool = True) -> JournalReplay:
    """Read one journal back, repairing the crash signature.

    A partial/garbled *final* line is truncated (when ``repair``) and
    counted; anything structurally wrong elsewhere raises
    :class:`~repro.errors.JournalCorruptError`.  Records must share one
    config digest or :class:`~repro.errors.ResumeMismatchError` is
    raised — mixed digests mean the journal holds two different runs.
    """
    path = Path(path)
    raw = path.read_bytes()
    records: List[Dict[str, Any]] = []
    torn = 0
    good_bytes = 0
    offset = 0
    for chunk in raw.split(b"\n"):
        is_final = offset + len(chunk) >= len(raw)
        line = chunk.strip()
        if line:
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "type" not in record:
                    raise ValueError("not a record object")
            except ValueError as exc:
                if is_final:
                    torn += 1
                    break                      # crash signature: drop it
                raise JournalCorruptError(
                    path, f"garbled record at byte {offset}: {exc}"
                ) from None
            records.append(record)
        good_bytes = min(offset + len(chunk) + 1, len(raw))
        offset += len(chunk) + 1
    if torn and repair:
        with open(path, "r+b") as handle:
            handle.truncate(good_bytes)
    if torn and obs.enabled():
        obs.get_registry().counter("journal.torn_records").inc(torn)
        obs.event("journal.torn_record", path=str(path))

    if not records:
        raise JournalCorruptError(path, "no readable records")
    head = records[0]
    if head.get("type") != "run_started":
        raise JournalCorruptError(
            path, f"first record is {head.get('type')!r}, "
            f"expected 'run_started'")
    if head.get("schema") != JOURNAL_SCHEMA:
        raise JournalCorruptError(
            path, f"schema {head.get('schema')!r} not supported "
            f"(expected {JOURNAL_SCHEMA})")
    config = head.get("digest", "")
    for record in records:
        if record.get("type") not in RECORD_TYPES:
            raise JournalCorruptError(
                path, f"unknown record type {record.get('type')!r}")
        if record.get("digest") != config:
            raise ResumeMismatchError(
                f"journal {path} mixes config digests "
                f"({record.get('digest')!r} vs {config!r})")

    replay = JournalReplay(path=path, run_id=str(head.get("run_id", "")),
                           argv=list(head.get("argv", [])),
                           config_digest=config, records=records,
                           torn_records=torn,
                           next_seq=int(records[-1].get("seq", 0)) + 1)
    for record in records:
        kind = record["type"]
        if kind == "job_done":
            slot = (record["key"], int(record.get("occurrence", 0)))
            replay.completed[slot] = record.get("artifact_key", "")
        elif kind == "breaker_open":
            replay.breaker_open[record["workload"]] = \
                int(record.get("failures", 0))
        elif kind == "breaker_reset":
            replay.breaker_open.pop(record.get("workload"), None)
        elif kind == "fault_injected":
            replay.fault_records.append(record)
        elif kind == "request_received":
            replay.requests_pending[str(record.get("request_id", ""))] = \
                record
        elif kind in ("request_done", "request_failed"):
            request_id = str(record.get("request_id", ""))
            replay.requests_pending.pop(request_id, None)
            replay.requests_settled[request_id] = record
        elif kind == "run_finished":
            replay.finished = True
        elif kind == "run_interrupted":
            replay.interrupted = True
    return replay


def verify_resume_argv(replay: JournalReplay) -> None:
    """The journal↔command cross-check run before any replayed result
    is trusted: the stored argv must re-digest to the recorded digest."""
    recomputed = config_digest(replay.argv)
    if recomputed != replay.config_digest:
        raise ResumeMismatchError(
            f"journal {replay.path} records config digest "
            f"{replay.config_digest[:12]}… but its argv re-digests to "
            f"{recomputed[:12]}… — refusing to replay completed jobs")


# ----------------------------------------------------------------------
# Run listing
# ----------------------------------------------------------------------
@dataclass
class RunInfo:
    """One row of ``repro runs list``."""

    run_id: str
    status: str                 # finished | interrupted | crashed | corrupt
    jobs_done: int
    jobs_enqueued: int
    argv: List[str]
    created: float

    def render(self) -> str:
        command = " ".join(self.argv) if self.argv else "?"
        return (f"{self.run_id:<24} {self.status:<12} "
                f"{self.jobs_done}/{self.jobs_enqueued:<6} {command}")


def list_runs(directory: os.PathLike) -> List[RunInfo]:
    """Summaries of every journal under ``directory``, newest first."""
    directory = Path(directory)
    infos: List[RunInfo] = []
    if not directory.is_dir():
        return infos
    for path in sorted(directory.glob(f"*{_JOURNAL_SUFFIX}")):
        run_id = path.name[:-len(_JOURNAL_SUFFIX)]
        try:
            replay = replay_journal(path, repair=False)
        except (OSError, JournalCorruptError, ResumeMismatchError):
            infos.append(RunInfo(run_id=run_id, status="corrupt",
                                 jobs_done=0, jobs_enqueued=0, argv=[],
                                 created=0.0))
            continue
        head = replay.records[0]
        infos.append(RunInfo(
            run_id=replay.run_id or run_id, status=replay.status(),
            jobs_done=len(replay.completed),
            jobs_enqueued=replay.enqueued_count(),
            argv=replay.argv,
            created=float(head.get("created", 0.0))))
    infos.sort(key=lambda info: -info.created)
    return infos


def find_run(directory: os.PathLike, run_id: str) -> Path:
    """Resolve a run id (or unique prefix, or ``latest``) to its path."""
    directory = Path(directory)
    if run_id == "latest":
        runs = list_runs(directory)
        if not runs:
            raise FileNotFoundError(f"no runs under {directory}")
        return journal_path(directory, runs[0].run_id)
    exact = journal_path(directory, run_id)
    if exact.exists():
        return exact
    matches = [path for path in directory.glob(f"{run_id}*{_JOURNAL_SUFFIX}")]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise FileNotFoundError(
            f"no run {run_id!r} under {directory}")
    raise FileNotFoundError(
        f"run id {run_id!r} is ambiguous under {directory}: "
        f"{', '.join(sorted(p.name for p in matches))}")


# ----------------------------------------------------------------------
# Resume state (consumed by the engine)
# ----------------------------------------------------------------------
class ResumeState:
    """Completed-work map a resumed run serves jobs from.

    :meth:`load` is the journal↔cache cross-check: a ``job_done``
    record is only honoured when its artifact is present *and* passes
    the store's checksum verification; anything else falls back to
    recompute (counted in ``engine.jobs.recomputed``), never to a stale
    or corrupt value.
    """

    def __init__(self, replay: JournalReplay, store: ArtifactCache):
        self.replay = replay
        self.store = store
        #: set once the CLI has folded journaled fault_injected records
        #: back into the live metrics registry
        self.recounted = False

    def is_completed(self, key: str, occurrence: int) -> bool:
        return (key, occurrence) in self.replay.completed

    def load(self, key: str, occurrence: int) -> Tuple[bool, Any]:
        artifact_key = self.replay.completed.get((key, occurrence))
        if not artifact_key:
            return False, None
        return self.store.get(RESULT_KIND, artifact_key)


# ----------------------------------------------------------------------
# Process-wide current journal / resume state / interrupt flag
# ----------------------------------------------------------------------
_current_journal: Optional[RunJournal] = None
_resume_state: Optional[ResumeState] = None
_interrupted = False


def set_current_journal(journal: Optional[RunJournal]) -> None:
    global _current_journal
    _current_journal = journal


def get_current_journal() -> Optional[RunJournal]:
    return _current_journal


def set_resume_state(state: Optional[ResumeState]) -> None:
    global _resume_state
    _resume_state = state


def get_resume_state() -> Optional[ResumeState]:
    return _resume_state


def interrupt_requested() -> bool:
    return _interrupted


def request_interrupt() -> None:
    """Signal-safe: just flip the flag; the engine drains at the next
    job boundary (never mid-write)."""
    global _interrupted
    _interrupted = True


def clear_interrupt() -> None:
    global _interrupted
    _interrupted = False


def install_sigterm_handler() -> None:
    """Route SIGTERM into a graceful drain instead of dying mid-write."""
    if not hasattr(signal, "SIGTERM"):      # pragma: no cover
        return
    signal.signal(signal.SIGTERM, lambda signum, frame:
                  request_interrupt())
