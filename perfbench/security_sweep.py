"""security-sweep: attack-surface figures, verify/transpile, known answers.

One round, after compiling into a fresh empty cache (set-up):

* fig3, fig4, fig5, fig6, fig8 and table2 over the nine workloads, and
  the httpd case study, each row checked against the paper property
  ``benchmarks/test_fig*.py`` asserts for it;
* ``verify`` and the static ``transpile`` tier over the nine workloads
  (zero ERROR findings on clean compiled and lifted binaries), Galileo
  on the armlike view (fewer gadgets than x86like, per workload), and
  each workload kernel run natively at work 1 against its rendering in
  :mod:`oracles`;
* a seeded corpus of generated mini-C programs (:mod:`minigen`): each is
  compiled, mined, verified, lifted, re-verified and executed natively
  on x86like, on armlike and on the lifted armlike section against the
  generator's answer, and three single-instruction mutants of it must
  be flagged with their rule (HIP401, HIP501, HIP701).

Everything fans out over ``ExperimentEngine(workers=<nproc>)``.  No
timing model runs here.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

import minigen
import oracles
from common import Checks, WorkDir, digest, recording_engine

#: generated programs per round
CORPUS_SIZE = 6
#: work parameter of the kernel executions
KERNEL_WORK = 1


# ----------------------------------------------------------------------
# Engine jobs (module level so worker processes can run them)
# ----------------------------------------------------------------------
def verify_job(name: str) -> Dict[str, Any]:
    from repro.staticcheck import run_verifier
    from repro.workloads import compile_workload
    report = run_verifier(compile_workload(name))
    return {"errors": [f.render() for f in report.errors]}


def mine_job(name: str) -> Dict[str, int]:
    from repro.runtime import artifacts
    from repro.workloads import compile_workload
    binary = compile_workload(name)
    return {isa: len(artifacts.mine_binary_cached(binary, isa))
            for isa in ("x86like", "armlike")}


def kernel_job(name: str) -> Optional[int]:
    from repro.core import run_native
    from repro.workloads import WORKLOADS, compile_workload
    process = run_native(compile_workload(name, KERNEL_WORK), "x86like",
                         stdin=WORKLOADS[name].stdin,
                         max_instructions=5_000_000)
    return process.os.exit_code


def _decoded(binary, isa_name: str, function: str):
    from repro.isa import ISAS
    isa = ISAS[isa_name]
    unit = binary.sections[isa_name]
    info = binary.symtab.function(function)
    for _label, start, end in info.per_isa[isa_name].block_bounds():
        address = start
        while address < end:
            decoded = isa.decode(unit.data, address - unit.base_address,
                                 address)
            yield decoded
            address = decoded.end


def _patch(binary, isa_name: str, address: int, raw: bytes) -> None:
    unit = binary.sections[isa_name]
    offset = address - unit.base_address
    data = bytearray(unit.data)
    data[offset:offset + len(raw)] = raw
    unit.data = bytes(data)


def _add_to_sub(binary, function: str) -> bool:
    """Flip the first armlike ``ADD reg, reg`` of ``function`` to SUB."""
    from repro.isa import ISAS
    from repro.isa.base import Instruction, Op, Reg
    isa = ISAS["armlike"]
    for dec in _decoded(binary, "armlike", function):
        ins = dec.instruction
        if ins.op is Op.ADD and isinstance(ins.dst, Reg) \
                and isinstance(ins.src, Reg) and ins.dst.index != isa.sp:
            raw = isa.encode(Instruction(Op.SUB, ins.operands), dec.address)
            if len(raw) == dec.size:
                _patch(binary, "armlike", dec.address, raw)
                return True
    return False


def _bump_frame_store(binary, function: str) -> bool:
    """Move the top home-slot store of ``function`` one slot past the
    frame's data region (x86like), into the callee-saved area.  Only a
    re-encoding of the same length is patched in."""
    from repro.isa import ISAS
    from repro.isa.base import Instruction, Mem, Op
    isa = ISAS["x86like"]
    top = binary.symtab.function(function).layout.total_data_size
    for dec in _decoded(binary, "x86like", function):
        ins = dec.instruction
        if ins.op is Op.STORE and isinstance(ins.dst, Mem) \
                and ins.dst.base == isa.sp and ins.dst.disp == top - 4:
            raw = isa.encode(Instruction(Op.STORE, (Mem(isa.sp, top),
                                                    ins.src)), dec.address)
            if len(raw) == dec.size:
                _patch(binary, "x86like", dec.address, raw)
                return True
    return False


def corpus_job(source: str) -> Dict[str, Any]:
    """Compile, mine, verify, lift, re-verify, execute, then mutate."""
    from repro.attacks.galileo import mine_binary
    from repro.compiler import compile_minic
    from repro.core import run_native
    from repro.staticcheck import run_verifier
    from repro.transpile import transpile_binary

    binary = compile_minic(source)
    gadgets = {isa: len(mine_binary(binary, isa))
               for isa in ("x86like", "armlike")}
    clean = run_verifier(binary)
    lifted = transpile_binary(binary)
    relifted = run_verifier(lifted)
    exits = {
        "x86like": run_native(binary, "x86like").os.exit_code,
        "armlike": run_native(binary, "armlike").os.exit_code,
        "lifted": run_native(lifted, "armlike").os.exit_code,
    }
    combine, frame_fns = minigen.ADD_SITE, minigen.FRAME_SITES
    mutants: Dict[str, Optional[Dict[str, int]]] = {}
    for rule, passes, make in (
            ("HIP401", ["symequiv"],
             lambda: _mutated(compile_minic(source), _add_to_sub, combine)),
            ("HIP501", ["framesafety"],
             lambda: _mutated(compile_minic(source), _bump_frame_store,
                              *frame_fns)),
            ("HIP701", ["transpile"],
             lambda: _mutated(transpile_binary(compile_minic(source)),
                              _add_to_sub, combine))):
        mutant = make()
        mutants[rule] = (None if mutant is None else
                         run_verifier(mutant, passes=passes).count_by_rule())
    return {"gadgets": gadgets,
            "clean_errors": [f.render() for f in clean.errors],
            "lifted_errors": [f.render() for f in relifted.errors],
            "exits": exits, "mutants": mutants}


def _mutated(binary, mutate, *functions: str):
    """``binary`` mutated in the first of ``functions`` holding a site."""
    for function in functions:
        if mutate(binary, function):
            return binary
    return None


# ----------------------------------------------------------------------
class SecuritySweep:
    def __init__(self, seed: int, work: WorkDir, checks: Checks):
        from repro.workloads import SPEC_NAMES
        self.seed = seed
        self.work = work
        self.checks = checks
        self.names = tuple(SPEC_NAMES) + ("httpd",)
        self.jobs: list = []
        self.engine = recording_engine(os.cpu_count() or 1, self.jobs)
        self.corpus = minigen.corpus(seed, CORPUS_SIZE)
        from repro.workloads import WORKLOADS
        self.kernel_answers = {
            name: render(KERNEL_WORK, WORKLOADS[name].stdin)
            for name, render in oracles.KERNELS.items()}

    def setup(self) -> float:
        from repro.runtime.cache import ENV_CACHE_DIR, configure_cache
        from repro.workloads import clear_compile_cache, compile_workload
        root = self.work.fresh("cache")
        os.environ[ENV_CACHE_DIR] = str(root)
        configure_cache(root=root)
        clear_compile_cache()
        start = time.perf_counter()
        for name in self.names:
            compile_workload(name)
            compile_workload(name, KERNEL_WORK)
        return time.perf_counter() - start

    def timed(self) -> Dict[str, Any]:
        from repro.analysis import experiments as ex
        from repro.runtime.engine import Job, collect
        from repro.serve.spec import transpile_workload_job
        seed, engine, names = self.seed, self.engine, self.names
        out: Dict[str, Any] = {
            "fig3": ex.fig3_classic_rop(names, seed=seed, engine=engine),
            "fig4": ex.fig4_bruteforce_surface(names, seed=seed,
                                               engine=engine),
            "fig5": ex.fig5_jitrop(names, seed=seed, engine=engine),
            "fig6": ex.fig6_migration_safety(names, engine=engine),
            "fig8": ex.fig8_diversification(names, seed=seed, engine=engine),
            "table2": ex.table2_bruteforce(names, seed=seed, engine=engine),
            "httpd": ex.httpd_case_study(seed=seed),
        }
        jobs: List[Job] = []
        for name in names:
            jobs.append(Job(key=f"verify:{name}", fn=verify_job,
                            args=(name,), workload=name))
            jobs.append(Job(key=f"transpile:{name}",
                            fn=transpile_workload_job,
                            args=(name, ("static",), False, seed),
                            workload=name))
            jobs.append(Job(key=f"mine:{name}", fn=mine_job, args=(name,),
                            workload=name))
            jobs.append(Job(key=f"kernel:{name}", fn=kernel_job,
                            args=(name,), workload=name))
        for program in self.corpus:
            jobs.append(Job(key=f"corpus:{program.name}", fn=corpus_job,
                            args=(program.source,), workload=program.name))
        values = collect(engine.run(jobs))
        per_name = len(names) * 4
        out["verify"] = dict(zip(names, values[0:per_name:4]))
        out["transpile"] = dict(zip(names, values[1:per_name:4]))
        out["mine"] = dict(zip(names, values[2:per_name:4]))
        out["kernels"] = dict(zip(names, values[3:per_name:4]))
        out["corpus"] = values[per_name:]
        return out

    def check(self, out: Dict[str, Any]) -> Dict[str, str]:
        check = self.checks.check
        for row in out["fig3"]:
            check(row.total_gadgets > 0 and row.obfuscated_fraction >= 0.90,
                  f"fig3 {row.benchmark} obfuscated "
                  f"{row.obfuscated_fraction}")
        for row in out["fig4"]:
            check(0 < row.surviving < row.total_gadgets,
                  f"fig4 {row.benchmark} surviving {row.surviving} of "
                  f"{row.total_gadgets}")
        for row in out["fig5"]:
            check(row.surviving <= 3
                  and row.flagging >= row.cache_viable * 0.5,
                  f"fig5 {row.benchmark} survivors {row.surviving} "
                  f"flagging {row.flagging}/{row.cache_viable}")
        for row in out["fig6"]:
            check(row.ondemand_fraction >= row.native_fraction
                  and abs(row.x86_to_arm - row.arm_to_x86) < 0.25
                  and row.ondemand_fraction >= 0.70,
                  f"fig6 {row.benchmark} {row}")
        iso, hipstr = out["fig8"]["psr+isomeron"], out["fig8"]["hipstr"]
        check(abs(iso[0] - hipstr[0]) < 1e-9 and hipstr[-1] <= iso[-1]
              and hipstr[-1] < hipstr[0] * 0.2,
              f"fig8 curves {iso} {hipstr}")
        for row in out["table2"]:
            ratio = row.attempts_bias / row.attempts_no_bias
            check(row.randomizable_parameters >= 1.0
                  and row.entropy_bits >= 13.0
                  and row.attempts_no_bias > 1e15
                  and row.attempts_bias > 1e15 and 1e-4 < ratio < 1e4,
                  f"table2 {row.benchmark} {row}")
        study = out["httpd"]
        check(study.obfuscated_fraction >= 0.95
              and study.brute_force_attempts > 1e15
              and study.surviving_migration <= 3
              and not study.chain_possible, f"httpd case study {study}")
        for name in self.names:
            check(not out["verify"][name]["errors"],
                  f"verify {name}: {out['verify'][name]['errors']}")
            lifted = out["transpile"][name]
            check(lifted["ok"] and not [
                f for f in lifted["static"]["findings"]
                if f["severity"] == "error"],
                f"transpile {name}: {lifted['static']}")
            mined = out["mine"][name]
            check(mined["armlike"] < mined["x86like"],
                  f"gadgets {name}: {mined}")
            check(out["kernels"][name] == self.kernel_answers[name],
                  f"kernel {name}: exit {out['kernels'][name]} != "
                  f"{self.kernel_answers[name]}")
        for program, seen in zip(self.corpus, out["corpus"]):
            check(not seen["clean_errors"],
                  f"{program.name} verify: {seen['clean_errors']}")
            check(not seen["lifted_errors"],
                  f"{program.name} re-verify: {seen['lifted_errors']}")
            for where, code in seen["exits"].items():
                check(code == program.expected,
                      f"{program.name} {where} exit {code} != "
                      f"{program.expected}")
            for rule, rules in seen["mutants"].items():
                check(rules is not None and rule in rules,
                      f"{program.name} mutant {rule}: {rules}")
        return {name: digest(out[name])
                for name in ("fig3", "fig4", "fig5", "fig6", "fig8",
                             "table2", "httpd")}

    def round(self) -> Dict[str, Any]:
        setup_s = self.setup()
        del self.jobs[:]
        start = time.perf_counter()
        out = self.timed()
        run_s = time.perf_counter() - start
        return {"setup_s": setup_s, "run_s": run_s,
                "jobs": list(self.jobs),
                "digests": self.check(out)}
