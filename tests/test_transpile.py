"""Whole-binary tests for the static transpilation track.

Three layers, mirroring the track's verification tiers: seeded faults
in *lifted machine code* (a mutated instruction, a dropped remap, an
inverted branch) must surface as HIP7xx findings with provenance; all
nine mini-SPEC workloads must transpile, prove clean, and execute to
the native exit code; and the differential fuzz harness plus its frozen
corpus must replay byte-identically, serial or parallel.
"""

import json
from pathlib import Path

import pytest

from repro.compiler import compile_minic
from repro.core.runner import run_native
from repro.faults import injection
from repro.faults.fuzz import generate_cases as chaos_generate_cases
from repro.faults.plan import default_plan
from repro.isa import ISAS
from repro.isa.base import Instruction, Op, Reg
from repro.staticcheck import run_verifier
from repro.transpile import (
    TranspiledBinary,
    generate_cases,
    load_corpus,
    run_case,
    transpile_binary,
)
from repro.workloads import WORKLOADS, compile_workload
from tests.helpers import (
    assert_worker_determinism,
    decode_block,
    find_instruction,
    patch_code,
)

CORPUS = Path(__file__).parent / "corpus" / "transpile-seed7.json"

SOURCE = """
int combine(int a, int b) {
    int t;
    t = a + b;
    return t * 3;
}
int pick(int a, int b) { if (a < b) { return a; } return b; }
int main() {
    int a; int b;
    a = 1; b = 2;
    b = pick(a, b);
    return a + b + combine(a, b);
}
"""


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    injection.uninstall()


def _transpiled():
    """A fresh transpiled binary — the fault tests patch code bytes."""
    return transpile_binary(compile_minic(SOURCE))


# ---------------------------------------------------------------------
# The transpiled artifact itself
# ---------------------------------------------------------------------
class TestTranspiledBinary:
    def test_lifted_section_executes_to_native_exit(self):
        binary = compile_minic(SOURCE)
        native = run_native(binary, "x86like").os.exit_code
        transpiled = transpile_binary(binary)
        assert isinstance(transpiled, TranspiledBinary)
        assert transpiled.transpiled_from == "x86like"
        assert transpiled.lift_stats["functions"] == 3
        lifted = run_native(transpiled, "armlike").os.exit_code
        assert lifted == native

    def test_clean_transpile_proves_every_block(self):
        report = run_verifier(_transpiled(), passes=["transpile"])
        assert report.ok and report.findings == []
        facts = report.facts["transpile"]
        assert facts["proven"] == facts["blocks"] > 0
        assert facts["unsupported"] == 0
        assert facts["remaps_checked"] > 0

    def test_plain_binary_skips_the_transpile_pass(self):
        # the ratchet guard: on an ordinary compiled binary the pass
        # must contribute neither findings nor facts, so verify output
        # stays byte-identical to the pre-transpile baseline
        report = run_verifier(compile_minic(SOURCE))
        assert report.ok
        assert "transpile" not in report.facts
        assert report.count_by_rule() == {}


# ---------------------------------------------------------------------
# Seeded faults in lifted code: each must surface with provenance
# ---------------------------------------------------------------------
class TestSeededTranspileFaults:
    def test_mutated_lifted_instruction_is_hip701(self):
        # flip one lifted ADD rd, rm to SUB: same length, same
        # registers — caught only by re-proving original vs lifted
        transpiled = _transpiled()
        isa = ISAS["armlike"]
        info = transpiled.symtab.function("combine")
        label, decoded = decode_block(transpiled, "armlike", info)
        target = find_instruction(
            decoded, lambda ins: ins.op is Op.ADD
            and isinstance(ins.dst, Reg) and isinstance(ins.src, Reg)
            and ins.dst.index != isa.sp)
        raw = isa.encode(Instruction(Op.SUB, target.instruction.operands),
                         target.address)
        assert len(raw) == target.size
        patch_code(transpiled, "armlike", target.address, raw)

        report = run_verifier(transpiled, passes=["transpile"])
        assert not report.ok
        finding = next(f for f in report.findings
                       if f.rule_id == "HIP701")
        assert finding.function == "combine"
        assert finding.block == label
        assert "lifted code diverges" in finding.message

    def test_dropped_register_remap_is_hip702(self):
        transpiled = _transpiled()
        info = transpiled.symtab.function("main")
        key = sorted(info.per_isa["armlike"].register_assignment)[0]
        del info.per_isa["armlike"].register_assignment[key]

        report = run_verifier(transpiled, passes=["transpile"])
        assert not report.ok
        finding = next(f for f in report.findings
                       if f.rule_id == "HIP702")
        assert finding.function == "main"
        assert finding.isa == "armlike"
        assert finding.subject == key

    def test_inverted_branch_condition_is_hip703(self):
        transpiled = _transpiled()
        isa = ISAS["armlike"]
        info = transpiled.symtab.function("pick")
        found = None
        for index in range(len(info.per_isa["armlike"].block_bounds())):
            label, decoded = decode_block(transpiled, "armlike", info,
                                          index)
            branch = next((d for d in decoded
                           if d.instruction.op is Op.JCC), None)
            if branch is not None:
                found = (label, branch)
                break
        assert found, "pick must contain a conditional branch"
        label, target = found
        ins = target.instruction
        raw = isa.encode(
            Instruction(Op.JCC, ins.operands, cond=ins.cond.negate()),
            target.address)
        assert len(raw) == target.size
        patch_code(transpiled, "armlike", target.address, raw)

        report = run_verifier(transpiled, passes=["transpile"])
        assert not report.ok
        finding = next(f for f in report.findings
                       if f.rule_id == "HIP703")
        assert finding.function == "pick"
        assert finding.block == label


# ---------------------------------------------------------------------
# Every mini-SPEC workload transpiles and passes both tiers
# ---------------------------------------------------------------------
class TestWorkloadsTranspile:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_passes_static_and_exec_tiers(self, name):
        binary = compile_workload(name)
        transpiled = transpile_binary(binary)
        assert transpiled.lift_stats["functions"] > 0

        report = run_verifier(transpiled, passes=["transpile"])
        assert report.findings == [], \
            [f.render() for f in report.findings[:3]]
        facts = report.facts["transpile"]
        assert facts["proven"] == facts["blocks"] > 0
        assert facts["unsupported"] == 0

        stdin = WORKLOADS[name].stdin
        native = run_native(binary, "x86like", stdin=stdin,
                            max_instructions=20_000_000).os.exit_code
        lifted = run_native(transpiled, "armlike", stdin=stdin,
                            max_instructions=20_000_000).os.exit_code
        assert native is not None
        assert lifted == native


# ---------------------------------------------------------------------
# Differential fuzz track (same-seed determinism and serial == parallel
# are harness properties, checked for both tracks in
# test_faults_differential.py)
# ---------------------------------------------------------------------
class TestTranspileFuzz:
    def test_case_namespace_is_distinct_from_chaos(self):
        # same --fault-seed must exercise *different* programs than the
        # chaos harness, or the two corpora would be redundant
        ours = generate_cases(7, 2)
        chaos = chaos_generate_cases(7, 2)
        assert [c.case_id for c in ours] == \
            ["transpile-7-0", "transpile-7-1"]
        assert ours[0].source != chaos[0].source


# ---------------------------------------------------------------------
# The frozen transpile corpus
# ---------------------------------------------------------------------
class TestTranspileCorpus:
    def test_checked_in_corpus_replays_exactly(self):
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
        raw = json.loads(CORPUS.read_text())
        regenerated = generate_cases(raw["fault_seed"], len(raw["cases"]))
        assert [case.to_dict() for case in regenerated] == raw["cases"]

    def test_cli_replay_identical_across_workers(self, tmp_path):
        from repro.cli import main

        def run(workers):
            out = tmp_path / f"replay-{workers}.json"
            assert main(["transpile", "--corpus", str(CORPUS),
                         "--fault-seed", "7",
                         "--workers", str(workers),
                         "--format", "json", "--output", str(out)]) == 0
            return json.loads(out.read_text())

        payload = assert_worker_determinism(
            run, extract=lambda p: p["fuzz"])
        assert payload["ok"]
        assert payload["fuzz"]["statuses"] == {"ok": 8}
