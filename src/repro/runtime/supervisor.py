"""Worker supervision and graceful degradation for the experiment engine.

Two mechanisms keep a long sweep making progress when its workers
misbehave:

* :class:`SupervisedPool` — a process pool where every worker runs a
  heartbeat thread writing to a *private* result pipe.  The parent's
  watchdog scan detects a *hung* worker (one that is busy but has not
  heartbeaten for ``hang_factor × timeout``), SIGKILLs it, records the
  job as failed, and spawns a replacement — the engine's normal
  retry/quarantine path then re-runs the job.  A worker that dies hard
  (segfault, ``os._exit``) is detected the same way through its exit
  code.  One pipe per worker rather than one shared queue is a
  correctness requirement, not a style choice: a worker killed (or
  dying) mid-write to a shared ``multiprocessing.Queue`` leaves the
  queue's cross-process write lock held forever, deadlocking every
  surviving worker — and killing mid-write is exactly what this pool
  does for a living.  The ``worker.hang`` chaos fault is decided *in
  the parent* at dispatch time (so the decision lands in the parent's
  deterministic fault log) and shipped to the worker as an instruction
  to stop heartbeating and stall.

* :class:`CircuitBreaker` — per-workload consecutive-terminal-failure
  counting.  After ``threshold`` terminal failures (a job that exhausted
  every retry) the workload's breaker opens: subsequent jobs for it
  degrade to a typed ``skipped:circuit_open`` result instead of burning
  a full retry budget every sweep.  Open breakers are recorded in the
  run journal and survive a crash; ``--force`` resets them.  With a
  ``cooldown`` configured the breaker self-heals: once an open breaker
  has cooled down, the next :meth:`~CircuitBreaker.allow` admits exactly
  one *probe* job (the half-open state) — a probe that succeeds closes
  the breaker, a probe that fails re-opens it and restarts the cooldown.
  Every state transition (open, half-open, reset) is queued on
  :attr:`~CircuitBreaker.transitions` for the caller to journal, so the
  breaker's history is auditable across a crash.

Both report through :mod:`repro.obs`: ``supervisor.restarts`` counts
kill-and-replace events, ``breaker.state`` gauges are 1 while open.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..faults import injection as faults
from ..obs import context as obs
from . import durable

#: default stall budget for jobs with no explicit timeout
DEFAULT_HANG_TIMEOUT = 30.0

ENV_BREAKER_THRESHOLD = "REPRO_BREAKER_THRESHOLD"
ENV_BREAKER_COOLDOWN = "REPRO_BREAKER_COOLDOWN"
ENV_HANG_TIMEOUT = "REPRO_HANG_TIMEOUT"


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-workload consecutive-failure breaker (``threshold=0`` = off).

    The unit of tracking is the job's ``workload`` (falling back to its
    key), so a sweep that fans one benchmark into many jobs trips the
    breaker for all of them at once.  Only *terminal* failures count —
    a job that heals on retry resets its workload's streak.

    With ``cooldown`` set (seconds; ``None`` = legacy always-open) an
    open breaker moves to *half-open* once the cooldown elapses: the
    next :meth:`allow` admits a single probe job while every other job
    for the workload keeps degrading to the typed skip.  The probe's
    terminal outcome folded through :meth:`record` either closes the
    breaker (success) or re-opens it and restarts the cooldown
    (failure).  All transitions are appended to :attr:`transitions` as
    journal-ready dicts; callers that hold a run journal drain them via
    :meth:`drain_transitions` so open/half-open/reset survive a crash.
    """

    def __init__(self, threshold: int = 0,
                 cooldown: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 0:
            raise ConfigError(
                f"breaker threshold must be >= 0, got {threshold}")
        if cooldown is not None and cooldown < 0:
            raise ConfigError(
                f"breaker cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        #: workload -> current consecutive terminal failures
        self.consecutive: Dict[str, int] = {}
        #: workload -> failure count at the moment the breaker opened
        self.open_workloads: Dict[str, int] = {}
        #: workload -> clock reading when the breaker (re-)opened
        self.opened_at: Dict[str, float] = {}
        #: workloads with a half-open probe currently in flight
        self.probing: set = set()
        #: journal-ready transition records awaiting a drain
        self.transitions: List[Dict[str, Any]] = []
        self.opened = 0
        self.skipped = 0
        self.probes = 0

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def allow(self, workload: str) -> bool:
        """May a job for ``workload`` execute?  (Counts skips.)

        An open breaker whose cooldown has elapsed grants exactly one
        probe (the half-open state); everything else is skipped until
        the probe's outcome lands.
        """
        if workload not in self.open_workloads:
            return True
        if workload not in self.probing and self._probe_due(workload):
            self.probing.add(workload)
            self.probes += 1
            self._transition("breaker_half_open", workload,
                             failures=self.open_workloads[workload])
            if obs.enabled():
                obs.event("breaker.half_open", workload=workload)
            return True
        self.skipped += 1
        return False

    def _probe_due(self, workload: str) -> bool:
        if self.cooldown is None:
            return False
        opened_at = self.opened_at.get(workload)
        if opened_at is None:       # preloaded from a journal: probe now
            return True
        return self._clock() - opened_at >= self.cooldown

    def record(self, workload: str, ok: bool) -> bool:
        """Fold one terminal job outcome in; True when this opens it."""
        if not self.enabled:
            return False
        if workload in self.probing:
            return self._record_probe(workload, ok)
        if ok:
            self.consecutive.pop(workload, None)
            self._set_gauge(workload, 0)
            return False
        streak = self.consecutive.get(workload, 0) + 1
        self.consecutive[workload] = streak
        if streak >= self.threshold and workload not in self.open_workloads:
            self._open(workload, streak)
            return True
        return False

    def _record_probe(self, workload: str, ok: bool) -> bool:
        """The half-open decision: one probe closes or re-opens."""
        self.probing.discard(workload)
        if ok:
            self.open_workloads.pop(workload, None)
            self.consecutive.pop(workload, None)
            self.opened_at.pop(workload, None)
            self._set_gauge(workload, 0)
            self._transition("breaker_reset", workload, cause="probe")
            if obs.enabled():
                obs.event("breaker.close", workload=workload)
            return False
        streak = self.consecutive.get(workload, 0) + 1
        self.consecutive[workload] = streak
        self.open_workloads.pop(workload, None)   # so _open re-records
        self._open(workload, streak, cause="probe")
        return True

    def _open(self, workload: str, streak: int, cause: str = "") -> None:
        self.open_workloads[workload] = streak
        self.opened_at[workload] = self._clock()
        self.opened += 1
        self._set_gauge(workload, 1)
        self._transition("breaker_open", workload, failures=streak,
                         **({"cause": cause} if cause else {}))
        if obs.enabled():
            obs.event("breaker.open", workload=workload, failures=streak)

    def preload(self, open_map: Dict[str, int]) -> None:
        """Adopt breakers a journal replay found open (crash survival)."""
        for workload, failures in open_map.items():
            if workload not in self.open_workloads:
                self.open_workloads[workload] = failures
                self._set_gauge(workload, 1)

    def reset(self, workload: Optional[str] = None) -> List[str]:
        """Close one breaker (or all); returns the workloads reset."""
        targets = ([workload] if workload is not None
                   else sorted(self.open_workloads))
        closed = []
        for name in targets:
            if name in self.open_workloads:
                del self.open_workloads[name]
                self.consecutive.pop(name, None)
                self.opened_at.pop(name, None)
                self.probing.discard(name)
                self._set_gauge(name, 0)
                closed.append(name)
        return closed

    def _transition(self, record_type: str, workload: str,
                    **extra: Any) -> None:
        record: Dict[str, Any] = {"type": record_type, "workload": workload}
        record.update(extra)
        self.transitions.append(record)

    def drain_transitions(self) -> List[Dict[str, Any]]:
        """Hand the queued transition records to whoever journals them."""
        drained, self.transitions = self.transitions, []
        return drained

    @staticmethod
    def _set_gauge(workload: str, value: int) -> None:
        if obs.enabled():
            obs.get_registry().gauge("breaker.state",
                                     workload=workload).set(value)

    def __repr__(self) -> str:
        return (f"<CircuitBreaker threshold={self.threshold} "
                f"open={sorted(self.open_workloads)}>")


def resolve_breaker_threshold(threshold: Optional[int] = None,
                              default: int = 0) -> int:
    """Threshold policy: explicit > ``REPRO_BREAKER_THRESHOLD`` > default."""
    if threshold is None:
        raw = os.environ.get(ENV_BREAKER_THRESHOLD, "").strip()
        threshold = int(raw) if raw else default
    if threshold < 0:
        raise ConfigError(
            f"breaker threshold must be >= 0, got {threshold}")
    return threshold


def resolve_breaker_cooldown(cooldown: Optional[float] = None,
                             default: Optional[float] = None,
                             ) -> Optional[float]:
    """Cooldown policy: explicit > ``REPRO_BREAKER_COOLDOWN`` > default.

    ``None`` means no half-open state (the legacy open-until-reset
    behavior); any value >= 0 arms the probe path.
    """
    if cooldown is None:
        raw = os.environ.get(ENV_BREAKER_COOLDOWN, "").strip()
        cooldown = float(raw) if raw else default
    if cooldown is not None and cooldown < 0:
        raise ConfigError(
            f"breaker cooldown must be >= 0, got {cooldown}")
    return cooldown


def resolve_hang_timeout(timeout: Optional[float] = None,
                         default: float = DEFAULT_HANG_TIMEOUT) -> float:
    """Stall budget policy: explicit > ``REPRO_HANG_TIMEOUT`` > default."""
    if timeout is not None:
        return timeout
    raw = os.environ.get(ENV_HANG_TIMEOUT, "").strip()
    value = float(raw) if raw else default
    if value <= 0:
        raise ConfigError(f"hang timeout must be > 0, got {value}")
    return value


# -- the process-wide breaker the CLI arms ------------------------------
_current_breaker: Optional[CircuitBreaker] = None


def set_current_breaker(breaker: Optional[CircuitBreaker]) -> None:
    global _current_breaker
    _current_breaker = breaker


def get_current_breaker() -> Optional[CircuitBreaker]:
    return _current_breaker


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------
def _supervised_worker(wid: int, tasks, conn, heartbeat_interval: float,
                       parent_pid: int) -> None:
    """Worker main: heartbeat thread + task loop (module-level for fork).

    Messages on ``conn`` (this worker's private pipe):
    ``("heartbeat", wid, ts)`` at a steady cadence while healthy,
    ``("result", wid, index, JobResult)`` per completed job.  The
    in-process ``send_lock`` serializes the two sending threads; unlike
    a shared queue's cross-process lock, it dies with the process, so a
    SIGKILL here can never wedge a sibling.  An injected hang
    (``hang_seconds > 0``) silences the heartbeat and stalls *before*
    running the job — the watchdog is expected to kill this process; if
    it somehow does not, the worker wakes up and runs the job anyway.
    A result that cannot be pickled comes home as that job's error; the
    worker stays up for the next job.

    The heartbeat thread exits the whole process once ``parent_pid`` is
    no longer its parent: an orphaned worker would otherwise wait on
    ``tasks`` forever, because a forked worker inherits both ends of its
    own task queue and result pipe, so it never sees EOF or a failed
    send.
    """
    from .engine import _execute
    stop = threading.Event()
    hung = threading.Event()
    send_lock = threading.Lock()

    def send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except OSError:                    # parent went away
            return False

    def beat() -> None:
        while not stop.is_set():
            if os.getppid() != parent_pid:     # the orchestrator died
                os._exit(1)
            if not hung.is_set():
                if not send(("heartbeat", wid, time.time())):
                    return
            stop.wait(heartbeat_interval)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        while True:
            item = tasks.get()
            if item is None:
                break
            index, job, attempt, hang_seconds = item
            if hang_seconds > 0:
                hung.set()
                time.sleep(hang_seconds)
                hung.clear()
            result = _execute(job, index, attempt)
            try:
                sent = send(("result", wid, index, result))
            except Exception as exc:       # the value would not pickle
                sent = send(("result", wid, index, dataclasses.replace(
                    result, value=None,
                    error=f"{type(exc).__name__}: {exc}")))
            if not sent:
                break
    finally:
        stop.set()


class _WorkerState:
    """Parent-side view of one worker process."""

    def __init__(self, wid: int, process, tasks, conn):
        self.wid = wid
        self.process = process
        self.tasks = tasks
        self.conn = conn
        self.last_beat = time.time()
        #: the worker's pipe hit EOF (it exited or was killed mid-write)
        self.eof = False
        #: (index, job) currently dispatched, or None when idle
        self.current: Optional[Tuple[int, Any]] = None
        #: the current dispatch carries an injected ``worker.hang``
        self.injected_hang = False


class SupervisedPool:
    """A watched process pool: hung or dead workers are replaced live.

    Unlike :class:`~concurrent.futures.ProcessPoolExecutor`, every job's
    assignment to a worker is tracked exactly (one private task queue
    per worker), so a kill can name the job it lost with no races.
    """

    def __init__(self, workers: int, hang_factor: float = 4.0,
                 default_hang_timeout: Optional[float] = None,
                 heartbeat_interval: float = 0.05):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if hang_factor <= 0:
            raise ConfigError(f"hang_factor must be > 0, got {hang_factor}")
        self.workers = workers
        self.hang_factor = hang_factor
        self.default_hang_timeout = resolve_hang_timeout(default_hang_timeout)
        self.heartbeat_interval = heartbeat_interval
        self.restarts = 0
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:                  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        self._next_wid = 0

    # ------------------------------------------------------------------
    def _spawn(self) -> _WorkerState:
        wid = self._next_wid
        self._next_wid += 1
        tasks = self._ctx.Queue()
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(wid, tasks, child_conn, self.heartbeat_interval,
                  os.getpid()),
            daemon=True)
        process.start()
        child_conn.close()                  # ours EOFs when the worker dies
        return _WorkerState(wid, process, tasks, parent_conn)

    def _hang_limit(self, job) -> float:
        timeout = job.timeout if job.timeout else self.default_hang_timeout
        return self.hang_factor * timeout

    def _replace(self, state: _WorkerState, states: Dict[int, "_WorkerState"],
                 reason: str) -> _WorkerState:
        """Kill one worker, account for it, and spawn its successor."""
        if state.process.is_alive():
            state.process.kill()
            state.process.join(timeout=2.0)
        state.tasks.close()
        state.tasks.cancel_join_thread()
        try:
            state.conn.close()
        except OSError:                     # pragma: no cover
            pass
        del states[state.wid]
        self.restarts += 1
        if state.injected_hang:     # only an injected hang is a healed fault
            faults.recovered("engine.worker", "restart")
        if obs.enabled():
            obs.get_registry().counter("supervisor.restarts").inc()
            obs.event("supervisor.restart", wid=state.wid, reason=reason)
        replacement = self._spawn()
        states[replacement.wid] = replacement
        return replacement

    # ------------------------------------------------------------------
    def run(self, pairs: Sequence[Tuple[int, Any]], attempt: int = 0,
            on_result: Optional[Callable[[Any, int], None]] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            ) -> Dict[int, Any]:
        """Run (index, job) pairs under supervision.

        Returns ``{index: JobResult}`` for every *dispatched* job —
        when ``should_stop`` trips mid-sweep, undispatched jobs are
        simply absent (the engine raises
        :class:`~repro.errors.RunInterrupted` from that).
        ``on_result`` fires in completion order, which is what lets the
        journal record ``job_done`` the moment it is true.
        """
        from .engine import JobResult
        states: Dict[int, _WorkerState] = {}
        for _ in range(min(self.workers, len(pairs))):
            state = self._spawn()
            states[state.wid] = state
        pending: List[Tuple[int, Any]] = list(pairs)
        done: Dict[int, Any] = {}
        stopping = False

        def settle(result, state: Optional[_WorkerState]) -> None:
            done[result.index] = result
            if state is not None:
                state.current = None
            if on_result is not None:
                on_result(result, attempt)

        try:
            while pending or any(s.current is not None
                                 for s in states.values()):
                if not stopping and should_stop is not None \
                        and should_stop():
                    stopping = True        # drain in-flight, dispatch none
                # -- dispatch to idle workers --------------------------
                if not stopping:
                    for state in list(states.values()):
                        if state.current is not None or not pending:
                            continue
                        index, job = pending.pop(0)
                        hang_seconds = 0.0
                        injector = faults.get()
                        if injector is not None:
                            event = injector.fire(
                                "worker.hang", key=f"{job.key}@{attempt}")
                            if event is not None:
                                hang_seconds = self._hang_limit(job) * 3 + 1
                                self._journal_fault(event)
                        state.tasks.put((index, job, attempt, hang_seconds))
                        state.current = (index, job)
                        state.injected_hang = hang_seconds > 0
                        state.last_beat = time.time()
                elif pending:
                    pending = []           # interrupted: drop the backlog
                # -- drain heartbeats and results ----------------------
                waitable = {s.conn: s for s in states.values() if not s.eof}
                if waitable:
                    ready = multiprocessing.connection.wait(
                        list(waitable), timeout=self.heartbeat_interval)
                else:                       # every pipe EOFed; watchdog only
                    ready = []
                    time.sleep(self.heartbeat_interval)
                for conn in ready:
                    state = waitable[conn]
                    try:
                        message = conn.recv()
                    except Exception:       # EOF or a kill-torn message
                        state.eof = True
                        continue
                    kind = message[0]
                    if kind == "heartbeat":
                        state.last_beat = message[2]
                    elif kind == "result":
                        settle(message[3], state)
                # -- watchdog scan -------------------------------------
                now = time.time()
                journal = durable.get_current_journal()
                if journal is not None:
                    # live telemetry for `repro top`; the writer
                    # throttles so this is one dict build per scan
                    try:
                        journal.status.update(workers={
                            str(s.wid): {
                                "age": round(now - s.last_beat, 3),
                                "job": s.current[1].key
                                if s.current else None}
                            for s in states.values()})
                    except Exception:
                        pass
                for state in list(states.values()):
                    if state.current is None:
                        continue
                    index, job = state.current
                    silent = now - state.last_beat
                    if silent > self._hang_limit(job):
                        settle(JobResult(
                            key=job.key, index=index,
                            error=f"worker hung (no heartbeat for "
                                  f"{silent:.1f}s); killed by supervisor"),
                            None)
                        self._replace(state, states, reason="hang")
                    elif not state.process.is_alive():
                        settle(JobResult(
                            key=job.key, index=index,
                            error=f"worker process died: exit "
                                  f"{state.process.exitcode}"), None)
                        self._replace(state, states, reason="died")
        finally:
            for state in states.values():
                try:
                    state.tasks.put(None)
                except Exception:          # pragma: no cover
                    pass
            for state in states.values():
                state.process.join(timeout=2.0)
                if state.process.is_alive():
                    state.process.kill()
                    state.process.join(timeout=1.0)
                state.tasks.close()
                state.tasks.cancel_join_thread()
                try:
                    state.conn.close()
                except OSError:             # pragma: no cover
                    pass
        return done

    @staticmethod
    def _journal_fault(event) -> None:
        """Persist an engine-level fault so it survives a later crash."""
        journal = durable.get_current_journal()
        if journal is not None:
            journal.append("fault_injected", site=event.site,
                           kind=event.kind, key=event.key,
                           ordinal=event.ordinal)
