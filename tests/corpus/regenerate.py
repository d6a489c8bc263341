#!/usr/bin/env python
"""Regenerate the frozen fuzz corpora after an *intentional* change.

Each corpus pins exact statuses, exit codes, and fault-log digests for a
fixed set of differential cases; any code change that legitimately moves
migration points (new instructions, different translation order) or
changes the lifter's output shifts the digests.  Re-run this script,
eyeball that every case is still ``ok``, and commit the refreshed JSON
alongside the behaviour change.

Usage::

    PYTHONPATH=src python tests/corpus/regenerate.py [chaos|transpile|all]

The default regenerates every corpus.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.faults import fuzz
from repro.faults.plan import default_plan
from repro.runtime.cache import configure_cache
from repro.transpile import fuzzing

FAULT_SEED = 7
HERE = Path(__file__).parent

#: track -> (corpus path, case count, case runner, comment)
TRACKS = {
    "chaos": (
        HERE / "chaos-seed7.json", 10, fuzz.run_case,
        "Frozen chaos cases; regenerate with tests/corpus/regenerate.py "
        "after intentional behaviour changes."),
    "transpile": (
        HERE / "transpile-seed7.json", 8, fuzzing.run_case,
        "Frozen transpile differential cases (x86like native vs lifted "
        "armlike under faults); regenerate with "
        "tests/corpus/regenerate.py after intentional lifter changes."),
}


def freeze(track: str) -> bool:
    corpus, count, runner, comment = TRACKS[track]
    cases = fuzz.generate_cases(FAULT_SEED, count, track)
    report = fuzz.run_cases(FAULT_SEED, cases, default_plan(FAULT_SEED),
                            runner=runner)
    expected = {}
    for case, outcome in zip(cases, report.outcomes):
        if not outcome.ok:
            print(f"REFUSING: {case.case_id} is {outcome.status} "
                  f"({outcome.detail})", file=sys.stderr)
            return False
        expected[case.case_id] = {
            "status": outcome.status,
            "native_exit": outcome.native_exit,
            "chaos_exit": outcome.chaos_exit,
            "fault_digest": outcome.fault_digest,
        }
        print(f"{case.case_id}: {outcome.status} "
              f"exit={outcome.chaos_exit} faults={outcome.fault_counts}")
    payload = {
        "version": 1,
        "fault_seed": FAULT_SEED,
        "comment": comment,
        "cases": [case.to_dict() for case in cases],
        "expected": expected,
    }
    corpus.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {corpus}")
    return True


def main(argv) -> int:
    mode = argv[0] if argv else "all"
    if mode not in ("all", *TRACKS):
        print(f"usage: regenerate.py [{'|'.join(TRACKS)}|all]",
              file=sys.stderr)
        return 2
    configure_cache(root=tempfile.mkdtemp(prefix="repro-corpus-"))
    tracks = list(TRACKS) if mode == "all" else [mode]
    return 0 if all(freeze(track) for track in tracks) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
