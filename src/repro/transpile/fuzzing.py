"""Differential fuzzing of the static transpiler (verification tier 2).

The static tier (HIP7xx) proves per-block equivalence symbolically; this
tier checks the end-to-end property the proof is standing in for: for a
randomly generated mini-C program,

* the lifted armlike section must produce the **exact native exit code**
  of the original x86like section, and
* a HIPStR run *on the transpiled binary* — migrating through lifted
  code, with faults injected — must match that exit code or fail with a
  typed error, exactly like the chaos invariant for compiled binaries.

This module is only the transpile track's case runner: generation, the
faulted-run judge, the engine fan-out, the report and the corpus format
are the chaos harness's (:mod:`repro.faults.fuzz`), so a transpile fuzz
run is replayable from one ``--fault-seed`` and freezes into
``tests/corpus/`` with the same JSON shape.
"""

from __future__ import annotations

from typing import List, Optional

from ..compiler import compile_minic
from ..core.runner import run_native
from ..errors import TranspileError
from ..faults import fuzz as harness
from ..faults.fuzz import (
    CASE_MAX_INSTRUCTIONS, CaseOutcome, ChaosCase, ChaosReport)
from ..faults.plan import FaultPlan, default_plan
from .lifter import transpile_binary


def generate_cases(fault_seed: int, count: int) -> List[ChaosCase]:
    """The deterministic case list for one transpile fuzz run."""
    return harness.generate_cases(fault_seed, count, "transpile")


def run_case(case: ChaosCase, base_plan: FaultPlan) -> CaseOutcome:
    """Compile, transpile, then judge HIPStR on the lifted binary.

    Two transpiler failure modes settle a case before the judge runs,
    both counted as failures by :attr:`CaseOutcome.ok`: ``lift-error``
    (the lifter refused a decodable program) and ``lift-divergence``
    (clean native execution of the lifted section disagrees with the
    original — the core property violated with no faults involved).
    """
    binary = compile_minic(case.source)
    native = run_native(binary, "x86like",
                        max_instructions=CASE_MAX_INSTRUCTIONS).os.exit_code
    try:
        transpiled = transpile_binary(binary)
    except TranspileError as exc:
        return CaseOutcome(case_id=case.case_id, status="lift-error",
                           native_exit=native, detail=str(exc)[:200])
    lifted = run_native(transpiled, "armlike",
                        max_instructions=CASE_MAX_INSTRUCTIONS).os.exit_code
    if native is None or lifted != native:
        return CaseOutcome(
            case_id=case.case_id, status="lift-divergence",
            native_exit=native, chaos_exit=lifted,
            detail=f"x86like={native} lifted-armlike={lifted}")
    return harness.judge(case.case_id, base_plan, native,
                         lambda: case.schedule.run(transpiled))


def fuzz_run(fault_seed: int, iterations: int,
             plan: Optional[FaultPlan] = None,
             engine=None) -> ChaosReport:
    """Run ``iterations`` generated transpile-track cases."""
    return harness.run_cases(
        fault_seed, generate_cases(fault_seed, iterations),
        plan if plan is not None else default_plan(fault_seed),
        engine, run_case)
