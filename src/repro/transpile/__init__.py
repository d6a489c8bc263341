"""Static CISC→RISC transpilation: the offline complement to dynamic PSR.

Where the migration engine relocates *running* program state between
ISAs, this package relocates the *binary itself*: :func:`transpile_binary`
decodes the compiled x86like section, lifts each instruction through a
rule table into the armlike encoding under a fixed register map, and
re-emits a :class:`TranspiledBinary` whose frame layouts, symbol table,
and call-site contract are byte-compatible with what the compiler would
have produced — so the interpreter, the migration engine, and the
Galileo miner all accept it unchanged.

Three verification tiers back the claim (see DESIGN.md):

1. **static** — the HIP7xx verifier pass family re-proves per-block
   symbolic equivalence of original vs lifted code and audits the
   register/frame remapping (:mod:`repro.staticcheck.transpilecheck`);
2. **fuzz** — :mod:`repro.transpile.fuzzing` differential-tests randomly
   generated programs natively and under fault-injected HIPStR runs;
3. **surface** — :mod:`repro.transpile.surface` mines the gadget
   populations of original, transpiled, and migration-diversified
   variants for the paper's encoding-asymmetry argument.
"""

from ..errors import TranspileError
from ..faults.fuzz import load_corpus, save_corpus
from .fuzzing import fuzz_run, generate_cases, run_case
from .lifter import (
    REGISTER_MAP,
    LiftContext,
    TranspiledBinary,
    lift_instruction,
    transpile_binary,
)
from .surface import SurfaceRow, gadget_surface, gadget_surface_row

__all__ = [
    "LiftContext",
    "REGISTER_MAP",
    "SurfaceRow",
    "TranspileError",
    "TranspiledBinary",
    "fuzz_run",
    "gadget_surface",
    "gadget_surface_row",
    "generate_cases",
    "lift_instruction",
    "load_corpus",
    "run_case",
    "save_corpus",
    "transpile_binary",
]
