"""Tests for the static verifier: rule catalog, clean binaries,
deliberately-broken binaries (seeded faults), IR dataflow lints, the
gadget audit, pipeline/engine wiring, and the CLI subcommand."""

import json

import pytest

from repro.compiler import compile_minic
from repro.compiler import ir
from repro.compiler.liveness import compute_liveness
from repro.errors import MigrationError, VerificationError
from repro.isa import X86LIKE, Imm, Instruction, Op
from repro.staticcheck import (
    RULES,
    Severity,
    resolve_rules,
    run_verifier,
    verify_binary,
)
from repro.staticcheck.dataflow import (
    check_dead_stores,
    check_unreachable,
    check_use_before_def,
)
from repro.staticcheck.gadget_audit import audit_gadget_summaries
from repro.transpile import transpile_binary


SOURCE = """
int leaf(int a) { return a + 7; }
int branchy(int a, int b) {
    int r;
    if (a > b) { r = leaf(a); } else { r = leaf(b); }
    return r * 2;
}
int main() {
    int i; int total;
    total = 0; i = 0;
    while (i < 6) {
        total = total + branchy(i, 3);
        i = i + 1;
    }
    return total;
}
"""

#: if/else arms that compile to nothing: the else block is empty and
#: starts at the join block's address
EMPTY_ARMS_SOURCE = """
int order(int u, int v) {
    if (u > v) { u = u; } else { v = v; }
    return u + v;
}
int main() { return order(7, 3); }
"""


@pytest.fixture(scope="module")
def clean_binary():
    return compile_minic(SOURCE)


@pytest.fixture()
def binary():
    """A fresh binary per test — mutation tests corrupt it in place."""
    return compile_minic(SOURCE)


# ---------------------------------------------------------------------
# Rule catalog
# ---------------------------------------------------------------------
class TestRuleCatalog:
    def test_stable_ids_present(self):
        for rule_id in ("HIP101", "HIP201", "HIP202", "HIP301", "HIP401",
                        "HIP501", "HIP601"):
            assert rule_id in RULES

    def test_stackmap_rule_identity(self):
        rule = RULES["HIP201"]
        assert rule.slug == "stackmap-mismatch"
        assert rule.severity is Severity.ERROR

    def test_resolve_by_id_slug_and_prefix(self):
        assert resolve_rules(["HIP201"]) == frozenset({"HIP201"})
        assert resolve_rules(["stackmap-mismatch"]) == frozenset({"HIP201"})
        group = resolve_rules(["HIP3"])
        assert group == {"HIP301", "HIP302", "HIP303", "HIP304"}
        assert resolve_rules(None) is None

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError):
            resolve_rules(["HIP999"])
        with pytest.raises(ValueError):
            resolve_rules(["no-such-slug"])


# ---------------------------------------------------------------------
# Clean binaries report zero findings
# ---------------------------------------------------------------------
class TestCleanBinary:
    def test_no_findings(self, clean_binary):
        report = run_verifier(clean_binary)
        assert report.findings == []
        assert report.ok

    def test_every_pass_ran(self, clean_binary):
        report = run_verifier(clean_binary)
        assert [t.name for t in report.timings] == [
            "cfg", "consistency", "dataflow", "symequiv", "framesafety",
            "gadgets", "transpile"]

    def test_facts_record_gadget_asymmetry(self, clean_binary):
        report = run_verifier(clean_binary)
        gadgets = report.facts["gadgets"]
        assert gadgets["armlike"]["unintended"] == 0
        assert gadgets["x86like"]["total"] > gadgets["armlike"]["total"]

    def test_verify_binary_returns_report(self, clean_binary):
        report = verify_binary(clean_binary)
        assert report.ok

    def test_rule_selection_skips_passes(self, clean_binary):
        report = run_verifier(clean_binary, rules=["HIP2"])
        assert [t.name for t in report.timings] == ["cfg", "consistency"]
        report = run_verifier(clean_binary, passes=["dataflow"])
        assert [t.name for t in report.timings] == ["dataflow"]

    def test_unknown_pass_raises(self, clean_binary):
        with pytest.raises(ValueError):
            run_verifier(clean_binary, passes=["nope"])

    def test_empty_if_else_arms_verify_clean_and_lift(self):
        # the empty else block shares its address with the join block,
        # so a branch to it is a branch to both (HIP103 must not fire)
        binary = compile_minic(EMPTY_ARMS_SOURCE)
        report = run_verifier(binary)
        assert report.findings == []
        lifted = transpile_binary(binary)
        assert lifted.transpiled_from == "x86like"


# ---------------------------------------------------------------------
# Seeded faults: deliberately-broken binaries
# ---------------------------------------------------------------------
class TestSeededFaults:
    def test_mutated_stack_map_caught(self, binary):
        # knock a home slot off word alignment: the shared stack map no
        # longer describes where the value actually lives
        info = next(i for i in binary.symtab if i.layout.home_offsets)
        value = next(iter(info.layout.home_offsets))
        info.layout.home_offsets[value] += 2
        report = run_verifier(binary, passes=["consistency"])
        assert "HIP201" in report.count_by_rule()
        assert not report.ok
        assert any(f.subject and value in f.subject
                   for f in report.findings if f.rule_id == "HIP201")

    def test_dropped_call_site_caught(self, binary):
        info = next(i for i in binary.symtab
                    if i.per_isa["x86like"].call_sites)
        info.per_isa["x86like"].call_sites.pop()
        report = run_verifier(binary, passes=["consistency"])
        assert "HIP202" in report.count_by_rule()
        assert not report.ok

    def test_misaligned_armlike_block_caught(self, binary):
        # armlike is fixed-width 4-byte aligned; a block entry at an odd
        # address cannot be a real instruction boundary
        info = binary.symtab.function("branchy")
        label = info.block_order[-1]
        info.per_isa["armlike"].block_addresses[label] += 1
        report = run_verifier(binary, passes=["cfg"])
        assert "HIP104" in report.count_by_rule()
        assert not report.ok
        finding = next(f for f in report.findings if f.rule_id == "HIP104")
        assert finding.isa == "armlike"
        assert finding.function == "branchy"

    def test_retargeted_branch_caught(self, binary):
        # point branchy's conditional branch at its join block instead
        # of the else arm: the bytes no longer carry the IR's edges
        info = binary.symtab.function("branchy")
        per_isa = info.per_isa["x86like"]
        section = binary.sections["x86like"]
        entry, start, end = per_isa.block_bounds()[0]
        address = start
        while True:
            decoded = X86LIKE.decode(section.data,
                                     address - section.base_address, address)
            if decoded.instruction.op is Op.JCC:
                break
            address = decoded.end
        join = per_isa.block_addresses[info.block_order[-1]]
        patch = X86LIKE.encode(Instruction(Op.JCC, (Imm(join),),
                                           cond=decoded.instruction.cond),
                               address)
        assert len(patch) == decoded.end - address
        offset = address - section.base_address
        section.data = (section.data[:offset] + patch
                        + section.data[offset + len(patch):])
        report = run_verifier(binary, passes=["cfg"])
        mismatches = [f for f in report.findings if f.rule_id == "HIP103"]
        assert [(f.function, f.block, f.isa) for f in mismatches] == [
            ("branchy", entry, "x86like")]
        assert not report.ok

    def test_arity_mismatch_caught(self, binary):
        binary.symtab.function("leaf").params.append("phantom")
        report = run_verifier(binary, passes=["dataflow"])
        assert "HIP304" in report.count_by_rule()

    def test_verify_binary_rejects(self, binary):
        info = next(i for i in binary.symtab if i.layout.home_offsets)
        value = next(iter(info.layout.home_offsets))
        info.layout.home_offsets[value] += 2
        with pytest.raises(VerificationError) as excinfo:
            verify_binary(binary)
        assert "HIP201" in str(excinfo.value)
        assert not excinfo.value.report.ok


# ---------------------------------------------------------------------
# IR dataflow lints over hand-built functions
# ---------------------------------------------------------------------
def _fn(blocks, params=()):
    return ir.IRFunction(name="f", params=list(params), blocks=blocks)


class TestDataflowLints:
    def test_use_before_def(self):
        fn = _fn([ir.IRBlock("entry", [ir.Move("y", "x"), ir.Ret("y")])])
        findings = []
        check_use_before_def(fn, findings)
        assert [f.rule_id for f in findings] == ["HIP301"]
        assert findings[0].subject == "x"

    def test_params_are_defined(self):
        fn = _fn([ir.IRBlock("entry", [ir.Move("y", "x"), ir.Ret("y")])],
                 params=("x",))
        findings = []
        check_use_before_def(fn, findings)
        assert findings == []

    def test_one_armed_definition_flagged(self):
        # x is assigned on the then-path only; the join reads it anyway
        fn = _fn([
            ir.IRBlock("entry", [
                ir.Const("c", 1),
                ir.Branch(">", "c", "c", "then", "join")]),
            ir.IRBlock("then", [ir.Const("x", 5), ir.Jump("join")]),
            ir.IRBlock("join", [ir.Move("r", "x"), ir.Ret("r")]),
        ])
        findings = []
        check_use_before_def(fn, findings)
        assert any(f.rule_id == "HIP301" and f.subject == "x"
                   for f in findings)

    def test_loop_carried_value_not_flagged(self):
        # assigned before the loop, used inside it: must-analysis over
        # the back edge has to keep it defined
        fn = _fn([
            ir.IRBlock("entry", [ir.Const("i", 0), ir.Jump("loop")]),
            ir.IRBlock("loop", [
                ir.BinOp("+", "i", "i", "i"),
                ir.Branch("<", "i", "i", "loop", "exit")]),
            ir.IRBlock("exit", [ir.Ret("i")]),
        ])
        findings = []
        check_use_before_def(fn, findings)
        assert findings == []

    def test_unreachable_block(self):
        fn = _fn([
            ir.IRBlock("entry", [ir.Ret(None)]),
            ir.IRBlock("orphan", [ir.Ret(None)]),
        ])
        findings = []
        check_unreachable(fn, findings)
        assert [(f.rule_id, f.block) for f in findings] == \
            [("HIP303", "orphan")]

    def test_dead_store(self):
        fn = _fn([ir.IRBlock("entry", [
            ir.Const("t0", 42),
            ir.Const("t1", 1),
            ir.Ret("t1"),
        ])])
        findings = []
        check_dead_stores(fn, compute_liveness(fn), findings)
        assert [(f.rule_id, f.subject) for f in findings] == \
            [("HIP302", "t0")]
        assert RULES["HIP302"].severity is Severity.WARNING

    def test_empty_function_body(self):
        # no blocks at all: every lint must return cleanly, not crash
        fn = _fn([])
        findings = []
        check_unreachable(fn, findings)
        check_use_before_def(fn, findings)
        check_dead_stores(fn, compute_liveness(fn), findings)
        assert findings == []

    def test_single_self_loop_block(self):
        # entry is its own sole successor; the must-analysis fixpoint
        # and reachability walk both have to terminate on the cycle
        fn = _fn([ir.IRBlock("entry", [
            ir.Const("c", 1),
            ir.Branch(">", "c", "c", "entry", "entry")])])
        findings = []
        check_unreachable(fn, findings)
        check_use_before_def(fn, findings)
        assert findings == []

    def test_unreachable_block_behind_dead_branch(self):
        # 'orphan' is unreachable, yet a (dead) branch in another
        # unreachable block names it: it must still be flagged, and the
        # use-before-def pass must not analyze either dead block
        fn = _fn([
            ir.IRBlock("entry", [ir.Const("r", 0), ir.Ret("r")]),
            ir.IRBlock("dead", [
                ir.Const("c", 1),
                ir.Branch(">", "c", "c", "orphan", "orphan")]),
            ir.IRBlock("orphan", [ir.Move("y", "ghost"), ir.Ret("y")]),
        ])
        findings = []
        check_unreachable(fn, findings)
        assert sorted((f.rule_id, f.block) for f in findings) == \
            [("HIP303", "dead"), ("HIP303", "orphan")]
        findings = []
        check_use_before_def(fn, findings)   # 'ghost' read is dead code
        assert findings == []


# ---------------------------------------------------------------------
# Gadget-surface audit over synthetic populations
# ---------------------------------------------------------------------
class TestGadgetAudit:
    def test_unintended_on_aligned_isa_is_error(self):
        summaries = {
            "x86like": {"total": 100, "unintended": 40},
            "armlike": {"total": 10, "unintended": 3},
        }
        findings = []
        audit_gadget_summaries(summaries, findings)
        assert [f.rule_id for f in findings] == ["HIP601"]
        assert findings[0].isa == "armlike"

    def test_asymmetry_violation_is_warning(self):
        summaries = {
            "x86like": {"total": 5, "unintended": 2},
            "armlike": {"total": 10, "unintended": 0},
        }
        findings = []
        audit_gadget_summaries(summaries, findings)
        assert [f.rule_id for f in findings] == ["HIP602"]
        assert RULES["HIP602"].severity is Severity.WARNING

    def test_paper_shaped_populations_are_clean(self):
        summaries = {
            "x86like": {"total": 100, "unintended": 40},
            "armlike": {"total": 10, "unintended": 0},
        }
        findings = []
        audit_gadget_summaries(summaries, findings)
        assert findings == []


# ---------------------------------------------------------------------
# Pipeline and migration-engine wiring
# ---------------------------------------------------------------------
class TestWiring:
    def test_compile_with_verify_flag(self):
        binary = compile_minic(SOURCE, verify=True)
        assert binary.symtab.function("main")

    def test_engine_verifies_before_first_migration(self):
        from repro.core.hipstr import run_under_hipstr
        binary = compile_minic(SOURCE)
        system, result = run_under_hipstr(binary, verify=True)
        assert result.migration_count > 0
        assert system.engine._verified

    def test_engine_refuses_broken_binary(self):
        from repro.core.hipstr import HIPStRSystem
        binary = compile_minic(SOURCE)
        system = HIPStRSystem(binary, verify=True)
        info = next(i for i in binary.symtab if i.layout.home_offsets)
        value = next(iter(info.layout.home_offsets))
        info.layout.home_offsets[value] += 2
        with pytest.raises(MigrationError, match="HIP201"):
            system.engine.assert_verified()

    def test_report_shape(self, clean_binary):
        payload = run_verifier(clean_binary).as_dict()
        assert payload["ok"] is True
        assert payload["counts"]["total"] == 0
        assert {p["name"] for p in payload["passes"]} == {
            "cfg", "consistency", "dataflow", "symequiv", "framesafety",
            "gadgets", "transpile"}
        json.dumps(payload)     # must be serializable as-is


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        return str(path)

    def test_verify_file_clean(self, source_file, capsys):
        from repro.cli import main
        assert main(["verify", source_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_verify_workload_json(self, capsys):
        from repro.cli import main
        assert main(["verify", "--workload", "mcf",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["targets"]["mcf"]["counts"]["total"] == 0

    def test_verify_output_file(self, source_file, tmp_path):
        from repro.cli import main
        out = tmp_path / "findings.json"
        assert main(["verify", source_file, "--format", "json",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_verify_rules_filter(self, source_file, capsys):
        from repro.cli import main
        assert main(["verify", source_file, "--rules", "HIP2"]) == 0
        out = capsys.readouterr().out
        assert "cfg" in out and "dataflow" not in out

    def test_verify_unknown_rule_is_usage_error(self, source_file, capsys):
        from repro.cli import main
        assert main(["verify", source_file, "--rules", "HIP999"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1      # one-line error, no traceback
        assert "HIP201" in err           # lists the valid choices

    def test_verify_unknown_pass_is_usage_error(self, source_file, capsys):
        from repro.cli import main
        assert main(["verify", source_file, "--passes", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "symequiv" in err and "framesafety" in err

    def test_verify_unknown_workload_is_usage_error(self):
        from repro.cli import main
        assert main(["verify", "--workload", "nope"]) == 2

    def test_verify_no_target_is_usage_error(self):
        from repro.cli import main
        assert main(["verify"]) == 2

    def test_verify_trace_feeds_report(self, source_file, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "verify.jsonl"
        assert main(["verify", source_file, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Static verifier passes" in out
        assert "verifier runs: ok=1" in out
