"""Fan-out experiment engine: a supervised process-pool job runner.

Every experiment driver in :mod:`repro.analysis.experiments` decomposes
into independent jobs (per benchmark, per seed, per configuration).  The
engine runs a job list across cores with:

* **deterministic result ordering** — results come back in submission
  order regardless of completion order, so a parallel sweep is
  byte-identical to the serial one;
* **one supervised pool** — with ``workers > 1`` every job runs on a
  :class:`~repro.runtime.supervisor.SupervisedPool` worker that
  heartbeats to the parent, so a hung worker is killed and replaced and
  its live state shows in ``repro top``;
* **worker-crash isolation** — a job that raises (or times out, or whose
  worker process dies) produces a failed :class:`JobResult`; the rest of
  the sweep completes and reports normally;
* **per-job timeouts** — enforced inside the worker via ``SIGALRM`` on
  POSIX, so a runaway job cannot poison the pool;
* **self-healing** — with ``retries > 0``, failed jobs are retried with
  exponential backoff and a per-attempt timeout escalation; a job that
  exhausts every attempt has its key *quarantined* so later sweeps
  fail it fast instead of burning another timeout on a poisoned job;
* **zero-overhead serial mode** — with ``workers <= 1`` jobs execute
  inline in the calling process (no pickling, no subprocesses), which is
  both the default and the reference path for determinism tests.

Jobs must be picklable for the parallel path: top-level functions plus
plain-data arguments.  Worker processes share the on-disk artifact cache
(:mod:`repro.runtime.cache`), whose atomic writes make concurrent
population safe.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError, ReproError, RunInterrupted
from ..faults import injection as faults
from ..obs import context as obs
from . import durable
from . import supervisor as supervision

ENV_WORKERS = "REPRO_WORKERS"
ENV_RETRIES = "REPRO_RETRIES"

#: error prefix marking a job that was never executed this sweep
#: because its key was quarantined by an earlier exhausted retry cycle
QUARANTINED_PREFIX = "quarantined:"

#: error prefix marking a job skipped because its workload's circuit
#: breaker is open (see :class:`repro.runtime.supervisor.CircuitBreaker`)
SKIPPED_PREFIX = "skipped:circuit_open"


class EngineError(ReproError):
    """Raised by :func:`collect` when a sweep contains failed jobs."""

    def __init__(self, failures: List["JobResult"]):
        self.failures = failures
        detail = "; ".join(f"{r.key}: {r.error}" for r in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} job(s) failed: {detail}{more}")


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


@dataclass(frozen=True)
class Job:
    """One unit of independent work.

    ``fn`` must be a module-level callable and the arguments plain data
    so the job can cross a process boundary.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: wall-clock seconds before the job is aborted (POSIX only)
    timeout: Optional[float] = None
    #: circuit-breaker grouping (benchmark name); defaults to the key
    workload: Optional[str] = None


@dataclass
class JobResult:
    """Outcome of one job: a value, or an error description — never both."""

    key: str
    index: int
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    #: plain-data observability capture (metrics snapshot + trace
    #: records) taken around the job — present only when tracing is on
    metrics: Optional[Dict[str, Any]] = None
    trace: Optional[List[Dict[str, Any]]] = None
    #: how many times the job actually ran (0 = quarantined, never ran)
    attempts: int = 1
    #: True when the value was served from a resumed run's journal
    #: store instead of being executed
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def outcome(self) -> str:
        if self.error is None:
            return "resumed" if self.resumed else "ok"
        if self.error.startswith("timed out"):
            return "timeout"
        if self.error.startswith(QUARANTINED_PREFIX):
            return "quarantined"
        if self.error.startswith(SKIPPED_PREFIX):
            return "circuit_open"
        return "error"


def _alarm_handler(signum, frame):  # pragma: no cover - exercised in workers
    raise JobTimeout()


def _execute(job: Job, index: int, attempt: int = 0) -> JobResult:
    """Run one job, wrapped in an observability capture when tracing.

    The capture isolates everything the job emits (counters, spans) in
    fresh buffers that ship back inside the :class:`JobResult`; the
    parent merges them in submission order, which is what makes merged
    metrics identical for serial and parallel runs.
    """
    if not obs.enabled():
        return _execute_plain(job, index, attempt)
    with obs.capture() as cap:
        with cap.tracer.span("engine.job", key=job.key,
                             attempt=attempt) as span:
            result = _execute_plain(job, index, attempt)
            span.set(outcome=result.outcome)
        cap.registry.counter("engine.jobs", outcome=result.outcome).inc()
    result.metrics = cap.metrics
    result.trace = cap.records
    return result


def _execute_plain(job: Job, index: int, attempt: int = 0) -> JobResult:
    """Run one job in the current process, capturing failure as data."""
    faults.ensure_worker()
    injector = faults.get()
    delay_event = kill_event = None
    if injector is not None:
        # Keyed by (job.key, attempt) so the decision is identical no
        # matter which worker runs the job, and each retry gets a fresh
        # draw — a killed job is not killed forever.
        fault_key = f"{job.key}@{attempt}"
        delay_event = injector.fire("job.delay", key=fault_key)
        kill_event = injector.fire("job.kill", key=fault_key)
    start = time.perf_counter()
    use_alarm = (job.timeout is not None and job.timeout > 0
                 and hasattr(signal, "SIGALRM"))
    previous_handler = None
    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, job.timeout)
    try:
        if delay_event is not None:
            # Inside the alarm window so an injected stall can trip the
            # per-job timeout and exercise the escalation path.
            time.sleep(injector.rng_for(delay_event).uniform(0.01, 0.05))
        if kill_event is not None:
            faults.FaultInjector.raise_fault(kill_event)
        value = job.fn(*job.args, **job.kwargs)
        return JobResult(key=job.key, index=index, value=value,
                         seconds=time.perf_counter() - start)
    except JobTimeout:
        return JobResult(
            key=job.key, index=index,
            error=f"timed out after {job.timeout:.1f}s",
            seconds=time.perf_counter() - start)
    except Exception as exc:
        trace = traceback.format_exc(limit=4)
        return JobResult(
            key=job.key, index=index,
            error=f"{type(exc).__name__}: {exc}\n{trace}",
            seconds=time.perf_counter() - start)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker-count policy: explicit > ``REPRO_WORKERS`` > serial.

    ``0`` (or the env value ``auto``) means one worker per core.
    """
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip().lower()
        if not raw:
            return 1
        workers = 0 if raw == "auto" else int(raw)
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry-count policy: explicit > ``REPRO_RETRIES`` > none."""
    if retries is None:
        raw = os.environ.get(ENV_RETRIES, "").strip()
        retries = int(raw) if raw else 0
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    return retries


class ExperimentEngine:
    """Runs job lists inline or across a supervised process pool.

    With ``retries > 0`` the engine self-heals: failed jobs are re-run
    up to ``retries`` more times with exponential ``backoff`` sleeps and
    a per-attempt ``timeout_escalation`` multiplier on the job timeout
    (so a job that merely stalled gets more headroom).  A job key that
    fails every attempt is added to :attr:`quarantine`; later sweeps
    through the same engine fail such jobs fast without executing them.
    ``retries=0`` (the default) is byte-identical to the legacy path.
    """

    def __init__(self, workers: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff: float = 0.05,
                 timeout_escalation: float = 2.0):
        self.workers = resolve_workers(workers)
        #: default per-job timeout applied when a job doesn't set one
        self.job_timeout = job_timeout
        self.retries = resolve_retries(retries)
        if backoff < 0:
            raise ConfigError(f"backoff must be >= 0, got {backoff}")
        if timeout_escalation < 1.0:
            raise ConfigError(
                f"timeout_escalation must be >= 1, got {timeout_escalation}")
        self.backoff = backoff
        self.timeout_escalation = timeout_escalation
        #: job keys that exhausted every retry — poisoned, skip them
        self.quarantine: Set[str] = set()
        self.jobs_run = 0
        self.failures = 0
        self.retries_performed = 0
        self.jobs_quarantined = 0
        self.supervisor_restarts = 0

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute every job; results are in submission order.

        When a run journal is active (``--journal`` / ``REPRO_JOURNAL``)
        every job is write-ahead journaled: ``job_enqueued`` before any
        scheduling decision, ``job_done``/``job_failed`` the moment the
        outcome is known (completion order), with successful values
        persisted to the run's artifact store.  A resumed run serves
        journal-completed jobs from that store without re-executing
        them.  Raises :class:`~repro.errors.RunInterrupted` if a SIGTERM
        drain left jobs unstarted.
        """
        jobs = [self._with_default_timeout(job) for job in jobs]
        if not jobs:
            return []
        faults.ensure_worker()      # arm an env-provided plan in-parent
        journal = durable.get_current_journal()
        resume = durable.get_resume_state()
        breaker = supervision.get_current_breaker()
        occurrences = [journal.next_occurrence(job.key) if journal else 0
                       for job in jobs]
        tracing = obs.enabled()
        run_span = (obs.span("engine.run", jobs=len(jobs),
                             workers=self.workers)
                    if tracing else contextlib.nullcontext())
        with run_span:
            slots: List[Optional[JobResult]] = [None] * len(jobs)
            pairs: List[Tuple[int, Job]] = []
            for index, job in enumerate(jobs):
                if journal is not None:
                    journal.append("job_enqueued", key=job.key,
                                   occurrence=occurrences[index],
                                   workload=self._workload(job))
                settled = self._pre_execute(job, index, occurrences[index],
                                            journal, resume, breaker,
                                            tracing)
                if settled is not None:
                    slots[index] = settled
                else:
                    pairs.append((index, job))
            on_result = self._journal_callback(jobs, occurrences, journal)
            for result in self._run_some(pairs, attempt=0,
                                         on_result=on_result):
                slots[result.index] = result
            results = [r for r in slots if r is not None]
            if durable.interrupt_requested() and len(results) < len(jobs):
                # SIGTERM drain: in-flight jobs finished and journaled,
                # the rest never started — report and bail out cleanly.
                if tracing:
                    self._merge_observability(results)
                self.jobs_run += len(results)
                self.failures += sum(1 for r in results if not r.ok)
                raise RunInterrupted(completed=len(results),
                                     remaining=len(jobs) - len(results))
            if self.retries > 0:
                self._heal(jobs, results, on_result)
            if breaker is not None and breaker.enabled:
                self._update_breaker(breaker, jobs, results, journal)
            if tracing:
                self._merge_observability(results)
        self.jobs_run += len(results)
        self.failures += sum(1 for r in results if not r.ok)
        return results

    @staticmethod
    def _workload(job: Job) -> str:
        return job.workload or job.key

    def _pre_execute(self, job: Job, index: int, occurrence: int,
                     journal, resume, breaker,
                     tracing: bool) -> Optional[JobResult]:
        """Settle a job without executing it, when policy says so.

        Order matters: an open circuit breaker beats quarantine beats
        resume — a poisoned workload must degrade to its typed skip even
        on a resumed run, and only genuinely runnable jobs consult the
        journal's completed map.
        """
        workload = self._workload(job)
        if breaker is not None and breaker.enabled \
                and not breaker.allow(workload):
            if journal is not None:
                journal.append("job_failed", key=job.key,
                               occurrence=occurrence, attempt=0,
                               error=SKIPPED_PREFIX)
            return JobResult(
                key=job.key, index=index, attempts=0,
                error=f"{SKIPPED_PREFIX}: workload {workload!r} has an "
                      f"open circuit breaker; reset with --force")
        if self.retries > 0 and job.key in self.quarantine:
            return JobResult(
                key=job.key, index=index, attempts=0,
                error=f"{QUARANTINED_PREFIX} key poisoned by an "
                      f"earlier sweep; not executed")
        if resume is not None and journal is not None \
                and resume.is_completed(job.key, occurrence):
            hit, value = resume.load(job.key, occurrence)
            if hit:
                journal.jobs_resumed += 1
                if tracing:
                    obs.get_registry().counter("engine.jobs.resumed").inc()
                # served from the store, so no journal record lands —
                # count it in the live status directly
                try:
                    journal.status.note_record("job_done", {})
                except Exception:
                    pass
                return JobResult(key=job.key, index=index, value=value,
                                 attempts=0, resumed=True)
            # journal says done but the artifact is missing/corrupt:
            # fall through and recompute — never trust a bad artifact
            journal.jobs_recomputed += 1
            if tracing:
                obs.get_registry().counter("engine.jobs.recomputed").inc()
                obs.event("engine.job.recomputed", key=job.key,
                          occurrence=occurrence)
        return None

    def _journal_callback(self, jobs: Sequence[Job],
                          occurrences: Sequence[int], journal):
        """Completion-order hook: make each outcome durable as it lands."""
        if journal is None:
            return None

        def on_result(result: JobResult, attempt: int) -> None:
            job = jobs[result.index]
            occurrence = occurrences[result.index]
            if result.ok:
                artifact_key = journal.store_result(job.key, occurrence,
                                                    result.value)
                journal.append("job_done", key=job.key,
                               occurrence=occurrence, attempt=attempt,
                               artifact_key=artifact_key,
                               seconds=round(result.seconds, 6))
            else:
                journal.append("job_failed", key=job.key,
                               occurrence=occurrence, attempt=attempt,
                               error=(result.error or
                                      "").splitlines()[0][:200])
            self._update_status_telemetry(journal)
            self._maybe_orchestrator_kill(journal, job, occurrence)

        return on_result

    @staticmethod
    def _update_status_telemetry(journal) -> None:
        """Fold cache hit rate + fault totals into the live status file."""
        try:
            from .cache import get_cache
            stats = get_cache().stats
            hits, misses = stats.hits, stats.misses
            injected = recovered = 0
            if obs.enabled():
                # the merged registry sees worker-side cache traffic and
                # fault counters; the parent's local stats would not
                from ..obs.metrics import parse_series
                hits = misses = 0
                for key, value in \
                        obs.get_registry().snapshot()["counters"].items():
                    name, labels = parse_series(key)
                    if name == "cache.events":
                        if labels.get("event") == "hits":
                            hits += value
                        elif labels.get("event") == "misses":
                            misses += value
                    elif name == "faults.injected":
                        injected += value
                    elif name == "faults.recovered":
                        recovered += value
            else:
                injector = faults.get()
                if injector is not None:
                    injected = len(injector.log)
            lookups = hits + misses
            journal.status.update(
                cache={"hits": int(hits), "misses": int(misses),
                       "hit_rate": round(hits / lookups, 4)
                       if lookups else 0.0},
                faults={"injected": int(injected),
                        "recovered": int(recovered)})
        except Exception:
            pass                           # telemetry must never abort

    def _maybe_orchestrator_kill(self, journal, job: Job,
                                 occurrence: int) -> None:
        """Chaos hook: SIGKILL this orchestrator right after an outcome
        is durable, so the harness can prove ``repro resume`` converges.
        Fires only when a journal is active — without one the kill
        would lose work with no way back."""
        injector = faults.get()
        if injector is None:
            return
        event = injector.fire("orchestrator.kill",
                              key=f"{job.key}@{occurrence}")
        if event is None:
            return
        # the fault itself is journaled first so the resumed process can
        # re-count it into the injected/recovered balance
        journal.append("fault_injected", site=event.site, kind=event.kind,
                       key=event.key, ordinal=event.ordinal)
        journal.close()
        os.kill(os.getpid(), signal.SIGKILL)

    def _update_breaker(self, breaker, jobs: Sequence[Job],
                        results: Sequence[JobResult], journal) -> None:
        """Fold terminal outcomes into the breaker, in submission order."""
        for result in results:
            if result.attempts == 0:     # resumed / skipped / quarantined
                continue
            workload = self._workload(jobs[result.index])
            if breaker.record(workload, ok=result.ok):
                faults.recovered("engine.run", "breaker_open")
        journal_breaker_transitions(breaker, journal)

    def map(self, fn: Callable[..., Any], arg_tuples: Sequence[Tuple],
            key_prefix: str = "job",
            timeout: Optional[float] = None) -> List[JobResult]:
        """Convenience fan-out: one job per argument tuple."""
        jobs = [Job(key=f"{key_prefix}:{index}", fn=fn, args=tuple(args),
                    timeout=timeout)
                for index, args in enumerate(arg_tuples)]
        return self.run(jobs)

    # ------------------------------------------------------------------
    def _merge_observability(self, results: Sequence[JobResult]) -> None:
        """Fold per-job captures into the ambient registry and trace.

        Results arrive in submission order regardless of completion
        order, so the merged metrics and trace are the same for every
        worker count.  A job whose worker died hard has no capture; it
        is recorded as a lost job so the trace still accounts for it.
        """
        for result in results:
            if result.resumed or \
                    (result.error is not None
                     and result.error.startswith(SKIPPED_PREFIX)):
                continue              # never executed — nothing to merge
            if result.metrics is None and result.trace is None:
                obs.event("engine.job.lost", key=result.key)
                obs.get_registry().counter("engine.jobs",
                                           outcome="lost").inc()
                continue
            obs.merge_capture(result.metrics, result.trace)

    def _with_default_timeout(self, job: Job) -> Job:
        if job.timeout is None and self.job_timeout is not None:
            return replace(job, timeout=self.job_timeout)
        return job

    # -- self-healing --------------------------------------------------
    def _heal(self, jobs: Sequence[Job], results: List[JobResult],
              on_result=None) -> None:
        """Retry failed jobs in place; quarantine keys that never heal."""
        for attempt in range(1, self.retries + 1):
            if durable.interrupt_requested():
                break
            failed = [r.index for r in results
                      if not r.ok
                      and not r.error.startswith(QUARANTINED_PREFIX)
                      and not r.error.startswith(SKIPPED_PREFIX)]
            if not failed:
                break
            delay = self.backoff * (2 ** (attempt - 1))
            if delay > 0:
                time.sleep(min(delay, 2.0))
            if obs.enabled():
                obs.event("engine.retry", attempt=attempt,
                          jobs=len(failed))
            retry_pairs = [(index, self._escalate(jobs[index], attempt))
                           for index in failed]
            for result in self._run_some(retry_pairs, attempt,
                                         on_result=on_result):
                result.attempts = attempt + 1
                results[result.index] = result
                self.retries_performed += 1
                if obs.enabled():
                    obs.get_registry().counter(
                        "engine.retries", outcome=result.outcome).inc()
        for result in results:
            if not result.ok and \
                    not result.error.startswith(QUARANTINED_PREFIX) and \
                    not result.error.startswith(SKIPPED_PREFIX):
                self.quarantine.add(result.key)
                self.jobs_quarantined += 1
                faults.recovered("engine.job", "quarantine")
                if obs.enabled():
                    obs.get_registry().counter("engine.quarantined").inc()

    def _escalate(self, job: Job, attempt: int) -> Job:
        """The same job with its timeout widened for retry ``attempt``."""
        if job.timeout is None:
            return job
        factor = self.timeout_escalation ** attempt
        return replace(job, timeout=job.timeout * factor)

    # -- execution -----------------------------------------------------
    def _run_some(self, pairs: Sequence[Tuple[int, Job]],
                  attempt: int, on_result=None) -> List[JobResult]:
        """Run (index, job) pairs; one result per pair, in pair order.

        May return *fewer* results than pairs when a SIGTERM drain stops
        the sweep mid-flight — ``run`` turns the gap into
        :class:`~repro.errors.RunInterrupted`.  ``on_result`` fires in
        completion order with each finished result.
        """
        if not pairs:
            return []
        journal = durable.get_current_journal()
        if not self.parallel:
            results = []
            for index, job in pairs:
                if durable.interrupt_requested():
                    break
                if journal is not None:
                    journal.append("job_started", key=job.key,
                                   attempt=attempt)
                result = _execute(job, index, attempt)
                if on_result is not None:
                    on_result(result, attempt)
                results.append(result)
            return results
        if journal is not None:
            for _index, job in pairs:
                journal.append("job_started", key=job.key, attempt=attempt)
        pool = supervision.SupervisedPool(
            workers=min(self.workers, len(pairs)))
        done = pool.run(pairs, attempt, on_result=on_result,
                        should_stop=durable.interrupt_requested)
        self.supervisor_restarts += pool.restarts
        return [done[index] for index, _ in pairs if index in done]


def journal_breaker_transitions(breaker, journal) -> None:
    """Persist every queued breaker transition (open/half-open/reset).

    The breaker queues its own state changes as journal-ready records
    (see :meth:`~repro.runtime.supervisor.CircuitBreaker.drain_transitions`);
    the engine — and the serve layer, which shares breakers across
    requests — drains them at each settle point so transitions land in
    the write-ahead journal exactly once.
    """
    transitions = breaker.drain_transitions()
    if journal is None:
        return
    for record in transitions:
        payload = dict(record)
        journal.append(payload.pop("type"), **payload)


def collect(results: Sequence[JobResult]) -> List[Any]:
    """Values in order, or :class:`EngineError` describing every failure."""
    failures = [r for r in results if not r.ok]
    if failures:
        raise EngineError(failures)
    return [r.value for r in results]


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_default_engine: Optional[ExperimentEngine] = None


def get_default_engine() -> ExperimentEngine:
    """The ambient engine drivers use when none is passed explicitly.

    Serial unless ``REPRO_WORKERS`` (or :func:`set_default_engine`) says
    otherwise, so library callers and tests pay no pool overhead.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


def set_default_engine(engine: Optional[ExperimentEngine]) -> None:
    global _default_engine
    _default_engine = engine
