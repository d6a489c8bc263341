"""The differential harness behind ``repro chaos`` and ``repro transpile``.

The strongest end-to-end property the fault subsystem can check: for a
randomly generated mini-C program and a random migration schedule, a
HIPStR run *with faults injected* must either

* produce the exact exit code of clean native execution (the faults were
  absorbed by checkpoint/rollback, re-queue, retry, or recompute), or
* fail with a **typed** :class:`~repro.errors.ReproError` subclass (the
  fault was detected and reported).

What it must never do is silently diverge — finish "successfully" with a
different exit code — or escape through an untyped exception.  Both are
recorded as failures by :func:`judge`, the one place a faulted run is
classified.  A *case runner* prepares one case and hands its HIPStR run
to the judge: :func:`run_case` here for the chaos track, and
:func:`repro.transpile.fuzzing.run_case` for the transpile track, which
runs the lifted binary instead.  :func:`run_cases` fans either runner
out over an engine.

Everything is reproducible from one ``--fault-seed``: the program
generator, the schedule generator, and every per-case fault plan derive
from it, so a failing case replays bit-identically (and can be frozen
into the regression corpus under ``tests/corpus/``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..compiler import compile_minic
from ..core.hipstr import run_under_hipstr
from ..core.runner import run_native
from ..errors import ReproError
from ..runtime.cache import digest, get_cache
from . import injection
from .plan import FaultPlan, default_plan

#: instruction budget per differential case — generated programs finish
#: in well under a million steps; hitting this bound is itself a failure
CASE_MAX_INSTRUCTIONS = 3_000_000


# ----------------------------------------------------------------------
# Program generation
# ----------------------------------------------------------------------
class ProgramGenerator:
    """Seed-driven random mini-C programs, terminating by construction.

    The surface deliberately leans on everything migration must preserve:
    multiple call frames with randomized layouts (helper chains), stack
    arrays, globals, bounded loops with ``break``/``continue``, and the
    full two-operand ALU including C-style truncating division — always
    by a positive constant, so no case faults on a zero divisor.
    """

    OPS = ("+", "-", "*", "&", "|", "^")

    def __init__(self, rng: random.Random):
        self.rng = rng

    # -- expressions ---------------------------------------------------
    def _expr(self, names: Sequence[str], depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            if names and rng.random() < 0.7:
                return rng.choice(list(names))
            return str(rng.randrange(0, 64))
        left = self._expr(names, depth + 1)
        right = self._expr(names, depth + 1)
        roll = rng.random()
        if roll < 0.1:
            return f"({left} / {rng.randrange(1, 9)})"
        if roll < 0.2:
            return f"({left} % {rng.randrange(1, 9)})"
        if roll < 0.3:
            return f"(({left} << {rng.randrange(0, 4)}) & 0xFFFF)"
        if roll < 0.4:
            return f"({left} >> {rng.randrange(0, 4)})"
        return f"({left} {rng.choice(self.OPS)} {right})"

    def _cond(self, names: Sequence[str]) -> str:
        op = self.rng.choice(("<", ">", "<=", ">=", "==", "!="))
        return f"{self._expr(names, 1)} {op} {self._expr(names, 1)}"

    # -- helpers -------------------------------------------------------
    def _helper(self, index: int, callable_helpers: List[str]) -> str:
        rng = self.rng
        params = [f"p{j}" for j in range(rng.randrange(1, 4))]
        names = list(params)
        lines = [f"int h{index}({', '.join('int ' + p for p in params)}) {{"]
        for j in range(rng.randrange(0, 2)):
            local = f"v{j}"
            lines.append(f"  int {local}; {local} = {self._expr(names)};")
            names.append(local)
        if callable_helpers and rng.random() < 0.6:
            callee = rng.choice(callable_helpers)
            arity = self._arities[callee]
            args = ", ".join(f"({self._expr(names, 1)}) & 0xFF"
                             for _ in range(arity))
            lines.append(f"  int c; c = {callee}({args});")
            names.append("c")
        if rng.random() < 0.5:
            lines.append(f"  if ({self._cond(names)}) "
                         f"{{ return ({self._expr(names)}) & 0xFFFF; }}")
        lines.append(f"  return ({self._expr(names)}) & 0xFFFF;")
        lines.append("}")
        self._arities[f"h{index}"] = len(params)
        return "\n".join(lines)

    # -- whole programs ------------------------------------------------
    def generate(self) -> str:
        rng = self.rng
        self._arities: Dict[str, int] = {}
        parts: List[str] = []

        n_globals = rng.randrange(0, 3)
        globals_ = []
        for g in range(n_globals):
            init = rng.randrange(0, 32)
            parts.append(f"int g{g} = {init};")
            globals_.append(f"g{g}")

        n_helpers = rng.randrange(1, 4)
        helper_names: List[str] = []
        for index in range(n_helpers):
            parts.append(self._helper(index, helper_names))
            helper_names.append(f"h{index}")

        bound = rng.randrange(2, 14)
        names = ["acc", "i"] + globals_
        body: List[str] = [
            "int main() {",
            "  int acc; int i;",
            f"  acc = {rng.randrange(0, 50)};",
            "  i = 0;",
        ]
        use_array = rng.random() < 0.5
        if use_array:
            body.append("  int buf[4];")
            body.append("  buf[0] = 1; buf[1] = 2; buf[2] = 3; buf[3] = 5;")
        body.append(f"  while (i < {bound}) {{")
        for _ in range(rng.randrange(1, 4)):
            callee = rng.choice(helper_names)
            args = ", ".join(f"({self._expr(names, 1)}) & 0xFF"
                             for _ in range(self._arities[callee]))
            body.append(f"    acc = acc + {callee}({args});")
        if use_array:
            body.append("    buf[i & 3] = acc & 0xFF;")
            body.append("    acc = acc + buf[(i + 1) & 3];")
        if globals_ and rng.random() < 0.7:
            g = rng.choice(globals_)
            body.append(f"    {g} = ({g} + acc) & 0xFFF;")
            body.append(f"    acc = acc ^ {g};")
        if rng.random() < 0.3:
            body.append(f"    if ({self._cond(names)}) "
                        f"{{ i = i + 1; continue; }}")
        if rng.random() < 0.2:
            body.append(f"    if (acc > {rng.randrange(1 << 18, 1 << 20)}) "
                        "{ break; }")
        body.append("    acc = acc & 0xFFFFF;")
        body.append("    i = i + 1;")
        body.append("  }")
        body.append("  return acc % 251;")
        body.append("}")
        parts.append("\n".join(body))
        return "\n\n".join(parts)


# ----------------------------------------------------------------------
# Schedules and cases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationSchedule:
    """When and how often the HIPStR run migrates."""

    seed: int
    migration_probability: float
    phase_interval: Optional[int]
    start_isa: str

    @classmethod
    def random(cls, rng: random.Random) -> "MigrationSchedule":
        return cls(
            seed=rng.randrange(1 << 16),
            migration_probability=rng.choice((0.0, 0.25, 0.5, 1.0)),
            phase_interval=rng.choice((None, 500, 1000, 2500, 5000)),
            start_isa=rng.choice(("x86like", "armlike")),
        )

    def run(self, binary):
        """One HIPStR run of ``binary`` under this schedule."""
        return run_under_hipstr(
            binary, seed=self.seed,
            migration_probability=self.migration_probability,
            start_isa=self.start_isa, phase_interval=self.phase_interval,
            max_instructions=CASE_MAX_INSTRUCTIONS)


@dataclass(frozen=True)
class ChaosCase:
    """One differential case: a program plus a migration schedule."""

    case_id: str
    source: str
    schedule: MigrationSchedule

    def to_dict(self) -> Dict[str, Any]:
        return {"case_id": self.case_id, "source": self.source,
                "schedule": asdict(self.schedule)}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ChaosCase":
        return cls(case_id=raw["case_id"], source=raw["source"],
                   schedule=MigrationSchedule(**raw["schedule"]))


#: harness track -> (RNG namespace, case-id prefix); distinct namespaces
#: keep the two corpora on different programs at the same fault seed
TRACKS = {"chaos": ("chaos-case", "case"),
          "transpile": ("transpile-case", "transpile")}


def generate_cases(fault_seed: int, count: int,
                   track: str = "chaos") -> List[ChaosCase]:
    """The deterministic case list for one run of a harness track."""
    namespace, prefix = TRACKS[track]
    cases = []
    for index in range(count):
        rng = random.Random(f"{namespace}:{fault_seed}:{index}")
        source = ProgramGenerator(rng).generate()
        schedule = MigrationSchedule.random(rng)
        cases.append(ChaosCase(case_id=f"{prefix}-{fault_seed}-{index}",
                               source=source, schedule=schedule))
    return cases


def case_plan(base: FaultPlan, case_id: str) -> FaultPlan:
    """Derive the per-case fault plan: same rates, case-specific seed.

    Per-case seeding keeps every case's fault log self-contained — a
    case replays identically whether it runs alone, serially in a batch,
    or on any engine worker.
    """
    raw = hashlib.sha256(f"{base.seed}:{case_id}".encode()).digest()
    return base.with_seed(int.from_bytes(raw[:4], "big"))


# ----------------------------------------------------------------------
# Judging one case
# ----------------------------------------------------------------------
@dataclass
class CaseOutcome:
    """What one differential case did, with its full fault evidence."""

    case_id: str
    status: str                  # ok | divergence | native-divergence |
    #                              detected:<Type> | crash:<Type> | nohalt
    native_exit: Optional[int] = None
    chaos_exit: Optional[int] = None
    migrations: int = 0
    rollbacks: int = 0
    dropped: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    fault_digest: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        # ``skipped:`` is graceful degradation (an open circuit breaker
        # refused to burn a retry budget), not a silent divergence
        return (self.status == "ok" or self.status.startswith("detected:")
                or self.status.startswith("skipped:"))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CaseOutcome":
        return cls(**raw)


def judge(case_id: str, base_plan: FaultPlan, native_exit: Optional[int],
          execute: Callable[[], Tuple[Any, Any]]) -> CaseOutcome:
    """Judge one HIPStR run, made under the case's derived fault plan.

    ``execute`` does the run (returning what ``run_under_hipstr``
    returns) with the case's injector installed; the previous injector
    is restored afterwards.  Against ``native_exit`` the run is ``ok``,
    ``detected:<Type>``, ``crash:<Type>``, ``nohalt`` or ``divergence``.
    """
    previous = injection.get()
    injector = injection.install(case_plan(base_plan, case_id))
    outcome = CaseOutcome(case_id=case_id, status="ok",
                          native_exit=native_exit)
    try:
        try:
            _, result = execute()
        except ReproError as exc:
            outcome.status = f"detected:{type(exc).__name__}"
            outcome.detail = str(exc)[:200]
        except Exception as exc:     # untyped escape = taxonomy hole
            outcome.status = f"crash:{type(exc).__name__}"
            outcome.detail = str(exc)[:200]
        else:
            outcome.chaos_exit = result.exit_code
            outcome.migrations = result.migration_count
            outcome.rollbacks = result.rollbacks
            outcome.dropped = result.dropped_migrations
            if result.result.reason != "halt":
                outcome.status = "nohalt"
                outcome.detail = result.result.reason
            elif result.exit_code != native_exit:
                outcome.status = "divergence"
                outcome.detail = (f"native={native_exit} "
                                  f"chaos={result.exit_code}")
        outcome.fault_counts = dict(injector.counts)
        outcome.fault_digest = injector.log_digest()
    finally:
        if previous is None:
            injection.uninstall()
        else:
            injection.install(previous)
    return outcome


def run_case(case: ChaosCase, base_plan: FaultPlan) -> CaseOutcome:
    """Chaos track: compile clean, run native clean on both ISAs, then
    judge HIPStR under faults."""
    binary = compile_minic(case.source)
    native_x = run_native(binary, "x86like").os.exit_code
    native_a = run_native(binary, "armlike").os.exit_code
    if native_x is None or native_x != native_a:
        return CaseOutcome(
            case_id=case.case_id, status="native-divergence",
            native_exit=native_x,
            detail=f"x86like={native_x} armlike={native_a}")

    def execute():
        # Round-trip the binary through the artifact cache while faults
        # are live: the ``put`` may flip a stored byte and the re-read
        # must checksum-detect it, quarantine, and recompute.
        cache = get_cache()
        key = digest("chaos", case.case_id, case.source)
        cache.put("chaos.binary", key, binary)
        return case.schedule.run(cache.get_or_compute(
            "chaos.binary", key, lambda: compile_minic(case.source)))

    return judge(case.case_id, base_plan, native_x, execute)


#: a case runner: one track's way to judge one case
CaseRunner = Callable[[ChaosCase, FaultPlan], CaseOutcome]


def _case_job(runner: CaseRunner, case_dict: Dict[str, Any],
              plan_spec: str) -> Dict[str, Any]:
    """Module-level engine job: judge one case with a module-level
    ``runner`` (both picklable by reference)."""
    case = ChaosCase.from_dict(case_dict)
    return runner(case, FaultPlan.from_spec(plan_spec)).to_dict()


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Aggregate of one differential run (chaos or transpile track)."""

    fault_seed: int
    outcomes: List[CaseOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> List[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return dict(sorted(counts.items()))

    def fault_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for kind, count in outcome.fault_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    def digest(self) -> str:
        """Stable digest of every per-case fault log (determinism check)."""
        hasher = hashlib.sha256()
        for outcome in self.outcomes:
            hasher.update(outcome.case_id.encode())
            hasher.update(outcome.fault_digest.encode())
            hasher.update(outcome.status.encode())
        return hasher.hexdigest()

    def payload(self) -> Dict[str, Any]:
        """The plain-data report ``repro serve`` and ``repro transpile
        --format json`` return."""
        return {
            "ok": self.ok,
            "fault_seed": self.fault_seed,
            "cases": len(self.outcomes),
            "statuses": self.status_counts(),
            "fault_counts": self.fault_counts(),
            "digest": self.digest(),
            "failures": [o.to_dict() for o in self.failures],
        }


def run_cases(fault_seed: int, cases: Sequence[ChaosCase], plan: FaultPlan,
              engine=None, runner: CaseRunner = run_case) -> ChaosReport:
    """Judge every case with ``runner``, optionally fanned out.

    Each case installs its own derived injector, so results are the same
    serial or parallel and whatever ``REPRO_FAULTS`` says.  Even a serial
    engine matters: it journals each case and serves it on resume.
    """
    if engine is None:
        outcomes = [runner(case, plan) for case in cases]
    else:
        from ..runtime.engine import Job
        jobs = [Job(key=case.case_id, fn=_case_job,
                    args=(runner, case.to_dict(), plan.to_spec()),
                    workload=case.case_id)
                for case in cases]
        outcomes = [_outcome_of(result) for result in engine.run(jobs)]
    return ChaosReport(fault_seed=fault_seed, outcomes=outcomes)


def chaos_run(fault_seed: int, iterations: int,
              plan: Optional[FaultPlan] = None,
              engine=None) -> ChaosReport:
    """Run ``iterations`` generated chaos-track cases."""
    return run_cases(fault_seed, generate_cases(fault_seed, iterations),
                     plan if plan is not None else default_plan(fault_seed),
                     engine)


def _outcome_of(result) -> CaseOutcome:
    """Convert one engine :class:`JobResult` into a :class:`CaseOutcome`.

    A failed job is not a silent divergence: a circuit-breaker skip maps
    to the typed ``skipped:circuit_open`` status, anything else to
    ``detected:EngineError`` (the engine's retry/quarantine machinery
    caught and reported it).
    """
    if result.ok:
        return CaseOutcome.from_dict(result.value)
    status = ("skipped:circuit_open" if result.outcome == "circuit_open"
              else "detected:EngineError")
    return CaseOutcome(case_id=result.key, status=status,
                       detail=(result.error or "").splitlines()[0][:200])


def chaos_workloads(fault_seed: int, rate_scale: float = 1.0,
                    names: Optional[Sequence[str]] = None,
                    work: int = 1,
                    max_instructions: int = 20_000_000,
                    ) -> List[CaseOutcome]:
    """Chaos sweep over the benchmark suite: every workload, faults on."""
    from ..workloads.suite import WORKLOADS, compile_workload
    base = default_plan(fault_seed, rate_scale)
    outcomes: List[CaseOutcome] = []
    for name in (names if names is not None else sorted(WORKLOADS)):
        binary = compile_workload(name, work=work)
        stdin = WORKLOADS[name].stdin
        native = run_native(binary, "x86like", stdin=stdin,
                            max_instructions=max_instructions).os.exit_code
        outcomes.append(judge(f"wl-{name}", base, native, functools.partial(
            run_under_hipstr, binary, seed=fault_seed,
            migration_probability=0.5, stdin=stdin, phase_interval=2500,
            max_instructions=max_instructions)))
    return outcomes


# ----------------------------------------------------------------------
# Regression corpus
# ----------------------------------------------------------------------
CORPUS_VERSION = 1


def save_corpus(cases: Sequence[ChaosCase], path: Path) -> None:
    """Freeze cases as JSON for verbatim replay in CI."""
    payload = {"version": CORPUS_VERSION,
               "cases": [case.to_dict() for case in cases]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_corpus(path: Path) -> List[ChaosCase]:
    raw = json.loads(Path(path).read_text())
    if raw.get("version") != CORPUS_VERSION:
        raise ReproError(
            f"corpus {path} has version {raw.get('version')!r}, "
            f"expected {CORPUS_VERSION}")
    return [ChaosCase.from_dict(entry) for entry in raw["cases"]]
