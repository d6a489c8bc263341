"""Tracing from outside the program: wrappers around public boundaries.

Nothing here edits ``src/``.  :func:`install` replaces each boundary
named in :data:`BOUNDARIES` (a module function, or a method on a class)
with a timing wrapper, and :meth:`Patches.undo` puts the originals back.
A module function is replaced in every loaded ``repro`` module that
imported it by name, so callers that bound it at import time are traced
too.  A boundary that no longer exists is recorded as absent and left
alone, never a crash.

Two kinds of wrapper:

* **span** boundaries (compile, measure, verify, migrate, journal
  append, ...) record a span each call — id, parent id, start, end and
  self time (duration minus the time of the calls nested inside it) —
  kept in memory and written out when the run ends;
* **hot** boundaries (``Interpreter.step``, ``Memory.find``,
  ``TimingModel.observe``, decode, resolve, RAT lookup) are called
  millions of times, so they keep only a call count, total and self
  time.

Engine jobs that run in forked worker processes trace into the worker's
copy of the recorder.  The wrapper around ``ExperimentEngine.run`` wraps
every job so the worker ships the job's share of the recorder home
inside the job's own return value, and merges it on arrival: the traced
security-sweep keeps its real two-worker pool.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("compiler.compile_calls", "count", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("isa.decode_calls", "count", "lower"),
    ("isa.decode_s", "s", "lower"),
    ("machine.step_instrs", "count", "lower"),
    ("machine.step_ns", "ns/instr", "lower"),
    ("machine.mem_find_calls", "count", "lower"),
    ("machine.mem_find_s", "s", "lower"),
    ("machine.block_instrs", "count", "higher"),
    ("machine.block_ns", "ns/instr", "lower"),
    ("machine.block_compiles", "count", "lower"),
    ("perf.observe_calls", "count", "lower"),
    ("perf.observe_s", "s", "lower"),
    ("perf.sim_instrs", "count", "higher"),
    ("perf.sim_cycles", "count", "lower"),
    ("core.resolve_calls", "count", "lower"),
    ("core.resolve_s", "s", "lower"),
    ("dbt.translations", "count", "lower"),
    ("dbt.rat_misses", "count", "lower"),
    ("migration.migrations", "count", "lower"),
    ("migration.migrate_s", "s", "lower"),
    ("migration.walk_s", "s", "lower"),
    ("migration.transform_s", "s", "lower"),
    ("defenses.observe_s", "s", "lower"),
    ("analysis.measure_calls", "count", "lower"),
    ("analysis.measure_s", "s", "lower"),
    ("analysis.timed_kips", "kinstr/s", "higher"),
    ("attacks.mine_calls", "count", "lower"),
    ("attacks.mine_s", "s", "lower"),
    ("attacks.analyze_s", "s", "lower"),
    ("attacks.bruteforce_s", "s", "lower"),
    ("attacks.jitrop_s", "s", "lower"),
    ("attacks.gadgets", "count", "lower"),
    ("staticcheck.verify_calls", "count", "lower"),
    ("staticcheck.verify_s", "s", "lower"),
    ("staticcheck.cfg_s", "s", "lower"),
    ("staticcheck.consistency_s", "s", "lower"),
    ("staticcheck.dataflow_s", "s", "lower"),
    ("staticcheck.symequiv_s", "s", "lower"),
    ("staticcheck.framesafety_s", "s", "lower"),
    ("staticcheck.gadgets_s", "s", "lower"),
    ("staticcheck.transpile_s", "s", "lower"),
    ("staticcheck.stores_unproven", "count", "lower"),
    ("transpile.lift_calls", "count", "lower"),
    ("transpile.lift_s", "s", "lower"),
    ("runtime.engine_jobs", "count", "lower"),
    ("runtime.job_attempts", "count", "lower"),
    ("runtime.job_s", "s", "lower"),
    ("runtime.engine_idle_s", "s", "lower"),
    ("runtime.cache_hits", "count", "higher"),
    ("runtime.cache_misses", "count", "lower"),
    ("runtime.cache_hit_ratio", "ratio", "higher"),
    ("runtime.cache_io_s", "s", "lower"),
    ("runtime.journal_appends", "count", "lower"),
    ("runtime.journal_append_s", "s", "lower"),
    ("serve.admit_s", "s", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.execute_s", "s", "lower"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.replays", "count", "higher"),
    ("obs.trace_records", "count", "lower"),
]


class Stat:
    """Calls, total and self nanoseconds of one boundary."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Recorder:
    """Everything one traced process measured, kept in memory."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: (span id, parent id, name, start ns, end ns, self ns)
        self.spans: List[Tuple[int, Optional[int], str, int, int, int]] = []
        #: counts and sums read from public return values
        self.values: Dict[str, float] = {}
        #: per-call samples (e.g. queue waits) for percentiles
        self.samples: Dict[str, List[float]] = {}
        #: boundaries that were not found in the program
        self.absent: List[str] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def new_id(self) -> int:
        with self.lock:
            self._next_id += 1
            return self._next_id

    def add(self, name: str, amount: float) -> None:
        with self.lock:
            self.values[name] = self.values.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self.samples.setdefault(name, []).append(value)

    # -- shipping a worker's share home ---------------------------------
    def mark(self) -> Dict[str, Any]:
        return {"stats": {name: (s.calls, s.total_ns, s.self_ns)
                          for name, s in self.stats.items()},
                "values": dict(self.values),
                "samples": {k: len(v) for k, v in self.samples.items()},
                "spans": len(self.spans)}

    def since(self, mark: Dict[str, Any]) -> Dict[str, Any]:
        stats = {}
        for name, stat in self.stats.items():
            calls, total, self_ns = mark["stats"].get(name, (0, 0, 0))
            if stat.calls != calls or stat.self_ns != self_ns:
                stats[name] = (stat.calls - calls, stat.total_ns - total,
                               stat.self_ns - self_ns)
        values = {k: v - mark["values"].get(k, 0)
                  for k, v in self.values.items()
                  if v != mark["values"].get(k, 0)}
        samples = {k: v[mark["samples"].get(k, 0):]
                   for k, v in self.samples.items()}
        return {"stats": stats, "values": values, "samples": samples,
                "spans": self.spans[mark["spans"]:]}

    def merge(self, delta: Dict[str, Any], parent: Optional[int]) -> None:
        for name, (calls, total, self_ns) in delta["stats"].items():
            stat = self.stat(name)
            stat.calls += calls
            stat.total_ns += total
            stat.self_ns += self_ns
        for name, amount in delta["values"].items():
            self.add(name, amount)
        for name, values in delta["samples"].items():
            for value in values:
                self.sample(name, value)
        remap: Dict[int, int] = {}
        for span_id, span_parent, name, start, end, self_ns in delta["spans"]:
            remap[span_id] = self.new_id()
        with self.lock:
            for span_id, span_parent, name, start, end, self_ns in \
                    delta["spans"]:
                self.spans.append((remap[span_id],
                                   remap.get(span_parent, parent),
                                   name, start, end, self_ns))

    def summary(self) -> Dict[str, Any]:
        """Plain-data form (what the serve launcher hands back)."""
        return {"stats": {n: [s.calls, s.total_ns, s.self_ns]
                          for n, s in self.stats.items()},
                "values": self.values, "samples": self.samples,
                "absent": self.absent}

    def write_spans(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end, self_ns in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end,
                     "self_ns": self_ns}) + "\n")


#: the recorder installed in this process; engine workers forked from it
#: find it here when they ship their share home
_ACTIVE: Optional[Recorder] = None


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _child(local) -> int:
    try:
        return local.child
    except AttributeError:
        return 0


def hot(rec: Recorder, name: str, fn: Callable,
        on_result: Optional[Callable] = None) -> Callable:
    stat = rec.stat(name)
    local = rec.local
    clock = perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = _child(local)
        local.child = 0
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stat.calls += 1
            stat.total_ns += elapsed
            stat.self_ns += elapsed - local.child
            local.child = saved + elapsed
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


def span(rec: Recorder, name: str, fn: Callable,
         on_result: Optional[Callable] = None,
         before: Optional[Callable] = None) -> Callable:
    """A span per call; nested calls to the same name count once."""
    stat = rec.stat(name)
    local = rec.local
    clock = perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        saved = _child(local)
        local.child = 0
        try:
            stack = local.stack
            active = local.active
        except AttributeError:
            stack = local.stack = []
            active = local.active = {}
        span_id = rec.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        outermost = not active.get(name)
        active[name] = active.get(name, 0) + 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            elapsed = end - start
            stack.pop()
            active[name] -= 1
            self_ns = elapsed - local.child
            with rec.lock:
                if outermost:
                    stat.calls += 1
                    stat.total_ns += elapsed
                stat.self_ns += self_ns
                rec.spans.append((span_id, parent, name, start, end, self_ns))
            local.child = saved + elapsed
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


class _Envelope:
    """A job's value plus the worker's share of the recorder."""

    def __init__(self, value: Any, delta: Optional[Dict[str, Any]]):
        self.value = value
        self.delta = delta


def traced_job(fn: Callable, args: tuple, kwargs: dict, home_pid: int):
    """Engine job wrapper; module level so workers can unpickle it."""
    rec = _ACTIVE
    if rec is None or os.getpid() == home_pid:
        return _Envelope(fn(*args, **kwargs), None)
    mark = rec.mark()
    value = fn(*args, **kwargs)
    return _Envelope(value, rec.since(mark))


def _engine_run(rec: Recorder, orig: Callable) -> Callable:
    def run(self, jobs):
        home = os.getpid()
        wrapped = [dataclasses.replace(
            job, fn=traced_job, args=(job.fn, tuple(job.args),
                                      dict(job.kwargs), home), kwargs={})
            for job in jobs]
        start = time.perf_counter()
        results = orig(self, wrapped)
        wall = time.perf_counter() - start
        stack = getattr(rec.local, "stack", None)
        parent = stack[-1] if stack else None
        for result in results:
            if isinstance(result.value, _Envelope):
                if result.value.delta is not None:
                    rec.merge(result.value.delta, parent)
                result.value = result.value.value
        workers = 1 if len(results) <= 1 else min(self.workers,
                                                  len(results))
        busy = sum(r.seconds for r in results)
        rec.add("runtime.engine_jobs", len(results))
        rec.add("runtime.job_attempts", sum(r.attempts for r in results))
        rec.add("runtime.job_s", busy)
        rec.add("runtime.engine_idle_s", max(0.0, workers * wall - busy))
        return results
    return functools.wraps(orig)(run)


def _interpreter_run(rec: Recorder, orig: Callable) -> Callable:
    """Splits executed instructions into per-step and block-dispatched."""
    step_stat = rec.stat("machine.step")
    local = rec.local
    clock = perf_counter_ns

    def run(self, *args, **kwargs):
        steps = self.steps_executed
        compiles = self.block_stats.compiles
        per_step = step_stat.calls
        saved = _child(local)
        local.child = 0
        start = clock()
        try:
            return orig(self, *args, **kwargs)
        finally:
            elapsed = clock() - start
            self_ns = elapsed - local.child
            local.child = saved + elapsed
            blocks = (self.steps_executed - steps) \
                - (step_stat.calls - per_step)
            if blocks > 0:
                rec.add("machine.block_instrs", blocks)
                rec.add("machine.block_run_ns", self_ns)
            rec.add("machine.block_compiles",
                    self.block_stats.compiles - compiles)
    return functools.wraps(orig)(run)


# ----------------------------------------------------------------------
# Return-value readers
# ----------------------------------------------------------------------
def _measured(rec: Recorder):
    def read(result):
        if isinstance(result, tuple):
            result = result[0]
        measurement = getattr(result, "measurement", result)
        rec.add("perf.sim_instrs", measurement.instructions)
        rec.add("perf.sim_cycles", measurement.cycles)
    return read


def _verified(rec: Recorder):
    def read(report):
        for timing in report.timings:
            rec.add(f"staticcheck.{timing.name}_s", timing.seconds)
        frames = report.facts.get("framesafety", {})
        rec.add("staticcheck.stores_unproven",
                frames.get("stores_unproven", 0))
    return read


def _counted(rec: Recorder, name: str, test: Callable[[Any], bool]):
    def read(result):
        if test(result):
            rec.add(name, 1)
    return read


def _cache_get(rec: Recorder):
    def read(result):
        hit, _value = result
        rec.add("runtime.cache_hits" if hit else "runtime.cache_lookups_missed",
                1)
    return read


def _admitted(rec: Recorder):
    def read(outcome):
        if outcome[0] == "reply" and outcome[2].get("resumed"):
            rec.add("serve.replays", 1)
    return read


def _queue_wait(rec: Recorder):
    def before(args):
        work = args[1]
        rec.sample("serve.queue_wait_ms",
                   (time.monotonic() - work.admitted_at) * 1000.0)
    return before


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
#: (stat name, kind, module, qualified attribute, reader factory)
BOUNDARIES: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("compiler.compile", "span", "repro.compiler.fatbinary",
     "compile_minic", None),
    ("machine.step", "hot", "repro.machine.interpreter",
     "Interpreter.step", None),
    ("machine.run", "run", "repro.machine.interpreter",
     "Interpreter.run", None),
    ("machine.mem_find", "hot", "repro.machine.memory", "Memory.find", None),
    ("perf.observe", "hot", "repro.perf.timing", "TimingModel.observe", None),
    ("core.resolve", "hot", "repro.core.psr",
     "PSRVirtualMachine.resolve_target", None),
    ("dbt.install", "hot", "repro.core.psr", "PSRVirtualMachine.install_unit",
     lambda rec: _counted(rec, "dbt.translations", lambda r: r is not None)),
    ("dbt.rat_lookup", "hot", "repro.dbt.rat", "ReturnAddressTable.lookup",
     lambda rec: _counted(rec, "dbt.rat_misses", lambda r: r is None)),
    ("migration.migrate", "span", "repro.migration.engine",
     "MigrationEngine.migrate",
     lambda rec: _counted(rec, "migration.migrations", lambda r: True)),
    ("migration.walk", "span", "repro.migration.stack_transform",
     "StackTransformer.walk_frames", None),
    ("migration.transform", "span", "repro.migration.stack_transform",
     "StackTransformer.transform", None),
    ("defenses.observe", "hot", "repro.defenses.isomeron",
     "IsomeronExecutionModel.observe", None),
    ("attacks.mine", "span", "repro.attacks.galileo", "mine_binary",
     lambda rec: lambda r: rec.add("attacks.gadgets", len(r))),
    ("attacks.analyze", "span", "repro.attacks.gadgets",
     "PSRGadgetAnalyzer.analyze_all", None),
    ("attacks.bruteforce", "span", "repro.attacks.bruteforce",
     "table2_row", None),
    ("attacks.bruteforce", "span", "repro.attacks.bruteforce",
     "simulate_brute_force", None),
    ("attacks.jitrop", "span", "repro.attacks.jitrop", "jitrop_surface", None),
    ("staticcheck.verify", "span", "repro.staticcheck.passes",
     "run_verifier", _verified),
    ("transpile.lift", "span", "repro.transpile.lifter", "transpile_binary",
     None),
    ("runtime.engine_run", "engine", "repro.runtime.engine",
     "ExperimentEngine.run", None),
    ("runtime.cache_get", "span", "repro.runtime.cache", "ArtifactCache.get",
     _cache_get),
    ("runtime.cache_put", "span", "repro.runtime.cache", "ArtifactCache.put",
     None),
    ("runtime.journal_append", "span", "repro.runtime.durable",
     "RunJournal.append", None),
    ("serve.admit", "span", "repro.serve.server", "ServerCore.admit",
     _admitted),
    ("serve.execute", "span", "repro.serve.server", "ServerCore.execute",
     None),
]

#: the three analysis entry points that run a timing model, plus HIPStR
_MEASURES = ("measure_native", "measure_psr", "measure_isomeron",
             "measure_psr_isomeron", "measure_hipstr")


class Patches:
    """Installed wrappers; :meth:`undo` restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        global _ACTIVE
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        _ACTIVE = None


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, parts[-1], owner.__dict__[parts[-1]]
    return owner, parts[-1], getattr(owner, parts[-1])


def _replace_everywhere(patches: Patches, owner, attr: str, orig,
                        wrapper) -> None:
    """Rebind a module function in its module and every importer."""
    if isinstance(owner, type):
        patches.set(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                patches.set(module, key, wrapper)


def install(rec: Recorder) -> Patches:
    """Wrap every boundary; missing ones are listed in ``rec.absent``."""
    global _ACTIVE
    # load every layer first, so importers of a wrapped function are found
    for module in ("repro.analysis.perfrun", "repro.runtime.artifacts",
                   "repro.serve.spec", "repro.staticcheck",
                   "repro.transpile"):
        try:
            importlib.import_module(module)
        except ImportError:
            rec.absent.append(module)
    patches = Patches()
    boundaries = list(BOUNDARIES)
    boundaries += [("analysis.measure", "span", "repro.analysis.perfrun",
                    name, _measured) for name in _MEASURES]
    for stat, kind, module, qualname, reader in boundaries:
        try:
            owner, attr, orig = _resolve(module, qualname)
        except (ImportError, AttributeError, KeyError):
            rec.absent.append(f"{module}.{qualname}")
            continue
        on_result = reader(rec) if reader is not None else None
        if kind == "hot":
            wrapper = hot(rec, stat, orig, on_result)
        elif kind == "run":
            wrapper = _interpreter_run(rec, orig)
        elif kind == "engine":
            wrapper = span(rec, stat, _engine_run(rec, orig))
        elif stat == "serve.execute":
            wrapper = span(rec, stat, orig, before=_queue_wait(rec))
        else:
            wrapper = span(rec, stat, orig, on_result)
        _replace_everywhere(patches, owner, attr, orig, wrapper)
    try:
        from repro.isa import ISAS
        for isa_type in {type(isa) for isa in ISAS.values()}:
            orig = isa_type.__dict__["decode"]
            patches.set(isa_type, "decode", hot(rec, "isa.decode", orig))
    except (ImportError, KeyError):
        rec.absent.append("repro.isa ISA decode")
    _ACTIVE = rec
    return patches


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from one recorder summary (zeros for a
    layer the workload never called)."""
    stats = summary["stats"]
    values = summary["values"]
    samples = summary["samples"]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0, 0])[0]

    def seconds(name: str) -> float:
        return stats.get(name, [0, 0, 0])[1] / 1e9

    def value(name: str) -> float:
        return values.get(name, 0)

    step = stats.get("machine.step", [0, 0, 0])
    hits = value("runtime.cache_hits")
    misses = value("runtime.cache_lookups_missed")
    measure_s = seconds("analysis.measure")
    block_instrs = value("machine.block_instrs")
    out = {
        "compiler.compile_calls": calls("compiler.compile"),
        "compiler.compile_s": seconds("compiler.compile"),
        "isa.decode_calls": calls("isa.decode"),
        "isa.decode_s": seconds("isa.decode"),
        "machine.step_instrs": step[0],
        "machine.step_ns": step[2] / step[0] if step[0] else 0.0,
        "machine.mem_find_calls": calls("machine.mem_find"),
        "machine.mem_find_s": seconds("machine.mem_find"),
        "machine.block_instrs": block_instrs,
        "machine.block_ns": (value("machine.block_run_ns") / block_instrs
                             if block_instrs else 0.0),
        "machine.block_compiles": value("machine.block_compiles"),
        "perf.observe_calls": calls("perf.observe"),
        "perf.observe_s": seconds("perf.observe"),
        "perf.sim_instrs": value("perf.sim_instrs"),
        "perf.sim_cycles": value("perf.sim_cycles"),
        "core.resolve_calls": calls("core.resolve"),
        "core.resolve_s": seconds("core.resolve"),
        "dbt.translations": value("dbt.translations"),
        "dbt.rat_misses": value("dbt.rat_misses"),
        "migration.migrations": value("migration.migrations"),
        "migration.migrate_s": seconds("migration.migrate"),
        "migration.walk_s": seconds("migration.walk"),
        "migration.transform_s": seconds("migration.transform"),
        "defenses.observe_s": seconds("defenses.observe"),
        "analysis.measure_calls": calls("analysis.measure"),
        "analysis.measure_s": measure_s,
        "analysis.timed_kips": (value("perf.sim_instrs") / measure_s / 1000.0
                                if measure_s else 0.0),
        "attacks.mine_calls": calls("attacks.mine"),
        "attacks.mine_s": seconds("attacks.mine"),
        "attacks.analyze_s": seconds("attacks.analyze"),
        "attacks.bruteforce_s": seconds("attacks.bruteforce"),
        "attacks.jitrop_s": seconds("attacks.jitrop"),
        "attacks.gadgets": value("attacks.gadgets"),
        "staticcheck.verify_calls": calls("staticcheck.verify"),
        "staticcheck.verify_s": seconds("staticcheck.verify"),
        "staticcheck.stores_unproven": value("staticcheck.stores_unproven"),
        "transpile.lift_calls": calls("transpile.lift"),
        "transpile.lift_s": seconds("transpile.lift"),
        "runtime.engine_jobs": value("runtime.engine_jobs"),
        "runtime.job_attempts": value("runtime.job_attempts"),
        "runtime.job_s": value("runtime.job_s"),
        "runtime.engine_idle_s": value("runtime.engine_idle_s"),
        "runtime.cache_hits": hits,
        "runtime.cache_misses": misses,
        "runtime.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "runtime.cache_io_s": seconds("runtime.cache_get")
        + seconds("runtime.cache_put"),
        "runtime.journal_appends": calls("runtime.journal_append"),
        "runtime.journal_append_s": seconds("runtime.journal_append"),
        "serve.admit_s": seconds("serve.admit"),
        "serve.queue_wait_p50_ms": _p50(samples.get("serve.queue_wait_ms",
                                                    [])),
        "serve.execute_s": seconds("serve.execute"),
        "serve.server_p50_ms": _p50(samples.get("serve.server_ms", [])),
        "serve.replays": value("serve.replays"),
        "obs.trace_records": value("obs.trace_records"),
    }
    for pass_name in ("cfg", "consistency", "dataflow", "symequiv",
                      "framesafety", "gadgets", "transpile"):
        out[f"staticcheck.{pass_name}_s"] = value(
            f"staticcheck.{pass_name}_s")
    return {name: out[name] for name, _unit, _better in LAYER_METRICS}
