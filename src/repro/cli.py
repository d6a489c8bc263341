"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``        — compile mini-C and execute (native / PSR / HIPStR)
* ``disasm FILE``     — compile and disassemble the fat binary
* ``gadgets FILE``    — Galileo-mine the binary and summarize the surface
* ``exploit-demo``    — the Figure-1 attack, end to end
* ``experiment NAME`` — regenerate one paper artifact (fig3..fig14,
  table2, httpd) and print its table
* ``verify``          — statically verify fat binaries (CFG recovery,
  cross-ISA consistency, IR lints, gadget audit); exit 1 on errors
* ``transpile``       — statically lift the x86like section of each
  workload into armlike code and verify the result (HIP7xx static
  proof, differential execution, optional gadget-surface comparison);
  exit 1 on any failure
* ``chaos``           — property-based differential fault injection:
  random programs × random migration schedules under injected faults;
  every case must match clean native execution or fail *typed*; exit 1
  on any silent divergence (reproducible via ``--fault-seed``)
* ``report FILE``     — summarize a captured ``*.jsonl`` trace (spans,
  jobs, counters, histograms, cache hit rate, migrations); also emits
  flamegraphs (``--flamegraph``), the critical path
  (``--critical-path``), and Prometheus text (``--format prom``)
* ``top [RUN]``       — render a journaled run's live status file
  (jobs, workers, breakers, cache, faults), live or post-hoc

``experiment`` and ``chaos`` share the runtime flags ``--workers``
(process fan-out; 0 = one per core), ``--no-cache``, ``--cache-dir``,
and ``--trace FILE`` (capture a metrics + span trace; ``REPRO_TRACE``
is the environment equivalent).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from typing import List, Optional

from . import obs
from .analysis.reporting import format_series, format_table, percent
from .attacks import gadget_population_summary, mine_binary
from .compiler import compile_minic
from .core import PSRConfig, run_native, run_under_psr
from .core.hipstr import run_under_hipstr
from .errors import (
    JournalCorruptError, ReproError, ResumeMismatchError, RunInterrupted)
from .isa import ISAS, linear_disassemble
from .obs.report import (
    render_critical_path, render_flamegraph_file, render_report)
from .runtime import (
    ExperimentEngine,
    Job,
    collect,
    configure_cache,
    get_cache,
)
from .runtime import durable, supervisor
# the per-workload verify and transpile jobs live in repro.serve.spec so
# the CLI and the serve daemon share one implementation of each
from .serve.spec import transpile_workload_job, verify_workload_job
from .workloads import WORKLOADS


def _load_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def cmd_run(args: argparse.Namespace) -> int:
    binary = compile_minic(_load_source(args.file))
    stdin = b""
    if args.stdin_file:
        with open(args.stdin_file, "rb") as handle:
            stdin = handle.read()

    if args.hipstr:
        system, result = run_under_hipstr(
            binary, seed=args.seed, stdin=stdin,
            migration_probability=args.migration_probability,
            config=PSRConfig(opt_level=args.opt_level))
        print(f"[hipstr] exit={result.exit_code} "
              f"migrations={result.migration_count} "
              f"per-isa={result.steps_by_isa}")
        return result.exit_code or 0
    if args.psr:
        run = run_under_psr(binary, args.isa,
                            PSRConfig(opt_level=args.opt_level),
                            seed=args.seed, stdin=stdin)
        stats = run.vm.stats
        print(f"[psr/{args.isa}] exit={run.exit_code} "
              f"units={stats.units_installed} "
              f"maps={stats.relocation_maps_built} "
              f"security-events={stats.security_events}")
        return run.exit_code or 0
    process = run_native(binary, args.isa, stdin=stdin)
    if process.os.stdout:
        sys.stdout.buffer.write(bytes(process.os.stdout))
    print(f"[native/{args.isa}] exit={process.os.exit_code} "
          f"instructions={process.interpreter.steps_executed}")
    return process.os.exit_code or 0


def cmd_disasm(args: argparse.Namespace) -> int:
    binary = compile_minic(_load_source(args.file))
    isa = ISAS[args.isa]
    section = binary.sections[args.isa]
    decoded = linear_disassemble(isa, section.data, section.base_address)
    symbols = {address: name for name, address in section.symbols.items()}
    for item in decoded:
        label = symbols.get(item.address)
        if label:
            print(f"\n{label}:")
        print(f"  {item.address:#010x}:  {item.raw.hex():<16}  "
              f"{item.instruction.render(isa)}")
    return 0


def cmd_gadgets(args: argparse.Namespace) -> int:
    binary = compile_minic(_load_source(args.file))
    rows = []
    for isa_name in binary.isa_names:
        summary = gadget_population_summary(mine_binary(binary, isa_name))
        rows.append((isa_name, summary["total"], summary["rop"],
                     summary["jop"], summary["unintended"]))
    print(format_table(["ISA", "total", "rop", "jop", "unintended"], rows,
                       "Galileo gadget populations"))
    if args.psr:
        from .attacks import PSRGadgetAnalyzer
        analyzer = PSRGadgetAnalyzer(binary, "x86like", seed=args.seed)
        analyses = analyzer.analyze_all(mine_binary(binary, "x86like"))
        obfuscated = sum(1 for a in analyses if a.obfuscated)
        viable = sum(1 for a in analyses if a.brute_force_viable)
        print(f"\nunder PSR (seed {args.seed}): "
              f"{percent(obfuscated / max(len(analyses), 1))} obfuscated, "
              f"{viable} brute-force viable")
    return 0


def _exploit_demo_inline() -> int:
    from .attacks.payload import (attack_native, attack_psr, build_exploit,
                                  build_vulnerable_binary)
    binary = build_vulnerable_binary()
    payload = build_exploit(binary)
    native = attack_native(binary, payload)
    print(f"unprotected: shell spawned = {native.shell_spawned}")
    for seed in range(3):
        outcome = attack_psr(binary, payload, seed=seed)
        print(f"PSR epoch {seed}: shell spawned = {outcome.shell_spawned}")
    return 0


#: circuit breakers open after this many consecutive terminal failures
#: of one workload (CLI default; ``--breaker 0`` disables)
DEFAULT_BREAKER_THRESHOLD = 3


def _configure_runtime(args: argparse.Namespace) -> ExperimentEngine:
    """Apply the shared ``--workers``/``--no-cache``/``--cache-dir``/
    ``--trace``/``--journal``/``--breaker`` flags."""
    no_cache = getattr(args, "no_cache", False)
    cache_dir = getattr(args, "cache_dir", None)
    if no_cache or cache_dir:
        configure_cache(root=cache_dir, enabled=not no_cache)
    trace_path = getattr(args, "trace", None) or os.environ.get(obs.ENV_TRACE)
    if trace_path:
        # export before any worker processes spawn so they come up
        # enabled and ship their captures home with each JobResult
        os.environ[obs.ENV_TRACE] = str(trace_path)
        obs.enable()
    args.trace_path = trace_path

    # per-workload circuit breaker (ambient; the engine reads it per run)
    threshold = supervisor.resolve_breaker_threshold(
        getattr(args, "breaker", None), default=DEFAULT_BREAKER_THRESHOLD)
    if threshold > 0:
        cooldown = supervisor.resolve_breaker_cooldown(
            getattr(args, "breaker_cooldown", None))
        breaker = supervisor.CircuitBreaker(threshold, cooldown=cooldown)
        state = durable.get_resume_state()
        if state is not None and not getattr(args, "force", False):
            breaker.preload(state.replay.breaker_open)
        supervisor.set_current_breaker(breaker)
    else:
        supervisor.set_current_breaker(None)

    # write-ahead run journal (skipped when `repro resume` already
    # attached one before re-dispatching this command)
    journal_dir = getattr(args, "journal", None) \
        or os.environ.get(durable.ENV_JOURNAL)
    if journal_dir and durable.get_current_journal() is None:
        journal = durable.RunJournal.create(journal_dir,
                                            argv=getattr(args, "argv", []))
        durable.set_current_journal(journal)
        print(f"[journal] run {journal.run_id} -> {journal.path}")
    if durable.get_current_journal() is not None:
        durable.install_sigterm_handler()
    _recount_resume_faults()
    return ExperimentEngine(workers=getattr(args, "workers", None))


def _recount_resume_faults() -> None:
    """Fold journaled engine-level faults back into the live counters.

    The process that injected ``orchestrator.kill`` / ``worker.hang``
    died with its in-memory metrics; the journal's ``fault_injected``
    records are the durable copy.  Re-counting each (plus one matching
    ``faults.recovered`` with ``action=resume``) keeps the chaos
    invariant *injected == recovered + detected* balanced across the
    crash boundary.
    """
    state = durable.get_resume_state()
    if state is None or state.recounted or not obs.enabled():
        return
    state.recounted = True
    registry = obs.get_registry()
    for record in state.replay.fault_records:
        registry.counter("faults.injected",
                         site=record.get("site", ""),
                         kind=record.get("kind", "")).inc()
        registry.counter("faults.recovered",
                         site=record.get("site", ""),
                         action="resume").inc()


def _typed_errors(fn):
    """Normalize expected failures to the ``report`` convention.

    Bad input — a missing corpus file, a malformed spec, an out-of-range
    rate scale, a resume mismatch — must surface as one ``error:`` line
    on stderr and exit code 1, never a traceback.  ``RunInterrupted``
    passes through untouched: it is control flow, handled by ``main``.
    """
    import functools

    @functools.wraps(fn)
    def wrapper(args: argparse.Namespace) -> int:
        try:
            return fn(args)
        except RunInterrupted:
            raise
        except (ReproError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return wrapper


def _finalize_trace(args: argparse.Namespace, label: str) -> None:
    """Write the captured trace + final metrics snapshot, if tracing."""
    path = getattr(args, "trace_path", None)
    if not path:
        return
    get_cache().export_to(obs.get_registry())
    written = obs.write_trace(path, label=label)
    print(f"[trace] wrote {written}")


# Experiment renderers consume the *plain-data payloads* produced by
# :func:`repro.serve.spec.execute_spec` — the same payload a ``repro
# serve`` response carries — so the CLI and the service layer cannot
# drift apart.  Payloads went through a canonical JSON round-trip, so
# numeric dict keys (RAT sizes, cache sizes) arrive as strings and are
# re-sorted numerically here.

def _print_fig3(payload) -> None:
    print(format_table(
        ["benchmark", "total", "obfuscated", "unobf", "obf%"],
        [(r["benchmark"], r["total_gadgets"], r["obfuscated"],
          r["unobfuscated"], percent(r["obfuscated_fraction"]))
         for r in payload["rows"]],
        "Figure 3 — Classic ROP Attack Surface"))


def _print_fig4(payload) -> None:
    print(format_table(
        ["benchmark", "total", "eliminated", "surviving"],
        [(r["benchmark"], r["total_gadgets"], r["eliminated"],
          r["surviving"]) for r in payload["rows"]],
        "Figure 4 — Brute Force Attack Surface"))


def _print_fig5(payload) -> None:
    print(format_table(
        ["benchmark", "text", "cache", "viable", "surviving"],
        [(r["benchmark"], r["text_gadgets"], r["cache_gadgets"],
          r["cache_viable"], r["surviving"]) for r in payload["rows"]],
        "Figure 5 — JIT-ROP Attack Surface"))


def _print_fig6(payload) -> None:
    print(format_table(
        ["benchmark", "blocks", "native", "on-demand"],
        [(r["benchmark"], r["total_blocks"], percent(r["native_fraction"]),
          percent(r["ondemand_fraction"])) for r in payload["rows"]],
        "Figure 6 — Migration-Safe Basic Blocks"))


def _print_fig7(payload) -> None:
    print(format_series(payload["series"], payload["lengths"],
                        "Figure 7 — Entropy vs Chain Length"))


def _print_fig8(payload) -> None:
    print(format_series(payload["series"],
                        [f"{p:.1f}" for p in payload["probabilities"]],
                        "Figure 8 — Surviving Gadgets vs Probability"))


def _print_fig9(payload) -> None:
    print(format_table(
        ["benchmark", "O1", "O2", "O3"],
        [(r["benchmark"],) + tuple(f"{r['relative'][level]:.3f}"
                                   for level in ("O1", "O2", "O3"))
         for r in payload["rows"]],
        "Figure 9 — Relative Performance per Optimization Level"))


def _print_fig10(payload) -> None:
    rows = payload["rows"]
    labels = sorted({label for r in rows for label in r["relative"]},
                    key=lambda label: int(label[1:]))
    print(format_table(
        ["benchmark"] + labels,
        [(r["benchmark"],) + tuple(f"{r['relative'][label]:.3f}"
                                   for label in labels) for r in rows],
        "Figure 10 — Stack Randomization Space"))


def _print_fig11(payload) -> None:
    rows = payload["rows"]
    sizes = sorted({int(size) for r in rows for size in r["overhead"]})
    print(format_table(
        ["benchmark"] + [str(size) for size in sizes],
        [(r["benchmark"],) + tuple(
            f"{r['overhead'][str(size)] * 100:.1f}%" for size in sizes)
         for r in rows],
        "Figure 11 — RAT Size Overhead"))


def _print_fig12(payload) -> None:
    print(format_table(
        ["benchmark", "arm→x86 µs", "x86→arm µs", "migrations"],
        [(r["benchmark"], f"{r['arm_to_x86_micros']:.2f}",
          f"{r['x86_to_arm_micros']:.2f}", r["migrations"])
         for r in payload["rows"]],
        "Figure 12 — Migration Overhead"))


def _print_fig13(payload) -> None:
    for row in payload["rows"]:
        sizes = sorted(row["by_size"], key=int)
        print(format_table(
            ["size", "capacity-misses", "security-events", "overhead"],
            [(int(size), int(row["by_size"][size]["capacity_misses"]),
              int(row["by_size"][size]["security_events"]),
              f"{row['by_size'][size]['overhead'] * 100:.1f}%")
             for size in sizes],
            f"Figure 13 — Code Cache ({row['benchmark']})"))


def _print_fig14(payload) -> None:
    systems = ["isomeron", "psr+isomeron", "hipstr-256k", "hipstr-2m"]
    print(format_table(
        ["p"] + systems,
        [(f"{r['probability']:.1f}",) + tuple(f"{r['relative'][s]:.3f}"
                                              for s in systems)
         for r in payload["rows"]],
        "Figure 14 — Comparison with Isomeron"))


def _print_table2(payload) -> None:
    print(format_table(
        ["benchmark", "params", "bits", "attempts"],
        [(r["benchmark"], f"{r['randomizable_parameters']:.2f}",
          f"{r['entropy_bits']:.0f}", f"{r['attempts_no_bias']:.2e}")
         for r in payload["rows"]],
        "Table 2 — Brute Force Simulation"))


def _print_httpd(payload) -> None:
    study = payload["study"]
    print(f"httpd: {study['total_gadgets']} gadgets, "
          f"{percent(study['obfuscated_fraction'])} obfuscated, "
          f"{study['brute_force_attempts']:.2e} attempts, "
          f"{study['jitrop_viable']} JIT-ROP viable, "
          f"{study['surviving_migration']} survive migration")


EXPERIMENTS = {
    "fig3": _print_fig3,
    "fig4": _print_fig4,
    "fig5": _print_fig5,
    "fig6": _print_fig6,
    "fig7": _print_fig7,
    "fig8": _print_fig8,
    "fig9": _print_fig9,
    "fig10": _print_fig10,
    "fig11": _print_fig11,
    "fig12": _print_fig12,
    "fig13": _print_fig13,
    "fig14": _print_fig14,
    "table2": _print_table2,
    "httpd": _print_httpd,
}


def cmd_experiment(args: argparse.Namespace) -> int:
    renderer = EXPERIMENTS.get(args.name)
    if renderer is None:
        print(f"unknown experiment {args.name!r}; "
              f"available: {', '.join(sorted(EXPERIMENTS))}",
              file=sys.stderr)
        return 2
    engine = _configure_runtime(args)
    # the CLI is a thin builder of the same RequestSpec the serve
    # daemon deserializes off the wire; both funnel through execute_spec
    from .serve.spec import RequestSpec, execute_spec
    spec = RequestSpec(kind="experiment", params={"name": args.name})
    renderer(execute_spec(spec, engine=engine))
    if getattr(args, "cache_stats", False):
        stats = get_cache().stats
        print(f"\n[cache] hits={stats.hits} misses={stats.misses} "
              f"hit-rate={stats.hit_rate:.1%}")
    _finalize_trace(args, label=f"experiment:{args.name}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify fat binaries; exit 1 on any ERROR finding."""
    from .staticcheck import PASSES_BY_NAME, RULES, resolve_rules, \
        run_verifier

    rules = None
    if args.rules:
        try:
            resolve_rules(args.rules)        # fail fast on unknown rules
        except ValueError as exc:
            print(f"error: {exc}; valid rules: "
                  f"{', '.join(sorted(RULES))}", file=sys.stderr)
            return 1
        rules = args.rules
    if args.passes:
        args.passes = [name for chunk in args.passes
                       for name in chunk.split(",") if name]
        unknown = [name for name in args.passes
                   if name not in PASSES_BY_NAME]
        if unknown:
            print(f"error: unknown verifier pass(es) "
                  f"{', '.join(unknown)}; valid passes: "
                  f"{', '.join(PASSES_BY_NAME)}", file=sys.stderr)
            return 1

    targets: List[str] = []
    if args.all:
        targets = sorted(WORKLOADS)
    elif args.workload:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; "
                  f"available: {', '.join(sorted(WORKLOADS))}",
                  file=sys.stderr)
            return 2
        targets = [args.workload]
    elif not args.file:
        print("error: give a mini-C FILE, --workload NAME, or --all",
              file=sys.stderr)
        return 2

    trace_path = args.trace or os.environ.get(obs.ENV_TRACE)
    if trace_path:
        os.environ[obs.ENV_TRACE] = str(trace_path)
        obs.enable()

    reports = {}
    if targets:
        # Jobs are submitted in sorted-target order and results come
        # back in submission order, so output is byte-identical for
        # any --workers value.
        engine = ExperimentEngine(workers=args.workers)
        jobs = [Job(key=f"verify:{name}", fn=verify_workload_job,
                    args=(name, rules, args.passes), workload=name)
                for name in targets]
        for name, report in zip(targets, collect(engine.run(jobs))):
            reports[name] = report
    if args.file:
        reports[args.file] = run_verifier(
            compile_minic(_load_source(args.file)), rules=rules,
            passes=args.passes)

    ok = all(report.ok for report in reports.values())
    if args.format == "json":
        import json
        payload = {"ok": ok,
                   "targets": {name: report.as_dict()
                               for name, report in reports.items()}}
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        chunks = []
        for name, report in reports.items():
            header = f"== {name} ==" if len(reports) > 1 else ""
            body = report.to_text()
            chunks.append(f"{header}\n{body}" if header else body)
        rendered = "\n\n".join(chunks)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"[verify] wrote {args.output}")
    else:
        print(rendered)

    if trace_path:
        written = obs.write_trace(trace_path, label="verify")
        print(f"[trace] wrote {written}")
    return 0 if ok else 1




def _render_transpile_target(name: str, result: dict) -> str:
    lines = [f"== {name} =="]
    stats = result["lift_stats"]
    lines.append(f"lifted {stats.get('functions', 0)} function(s), "
                 f"{stats.get('instructions', 0)} -> "
                 f"{stats.get('lifted_instructions', 0)} instruction(s)")
    static = result.get("static")
    if static is not None:
        st = static["stats"]
        verdict = "ok" if static["ok"] else "FAILED"
        lines.append(f"static: {verdict} ({st.get('proven', 0)}/"
                     f"{st.get('blocks', 0)} blocks proven, "
                     f"{st.get('unsupported', 0)} unsupported, "
                     f"{st.get('remaps_checked', 0)} remaps checked)")
        for finding in static["findings"]:
            lines.append(f"  {finding['rule']} [{finding['severity']}] "
                         f"{finding['message']}")
    exc = result.get("exec")
    if exc is not None:
        verdict = "ok" if exc["ok"] else "FAILED"
        lines.append(f"exec: {verdict} (native={exc['native_exit']} "
                     f"lifted={exc['lifted_exit']})")
    surface = result.get("surface")
    if surface is not None:
        lines.append(
            f"surface: original {surface['original']['total']} gadget(s) "
            f"({surface['original']['unintended']} unintended), "
            f"transpiled {surface['transpiled']['total']} "
            f"({surface['transpiled']['unintended']} unintended), "
            f"{surface['diversified_immune']}/{surface['viable']} viable "
            f"immune to diversification")
    return "\n".join(lines)


@_typed_errors
def cmd_transpile(args: argparse.Namespace) -> int:
    """Statically lift x86like workloads to armlike and verify the result.

    ``--verify-tier static`` runs the full verifier (including the
    HIP7xx transpilation passes) over each lifted binary;
    ``fuzz`` differential-executes lifted vs original code — per
    workload on real inputs, plus a random-program harness under fault
    schedules; ``all`` (default) runs both.  Exit 1 on any failure.
    """
    from .faults.fuzz import run_cases
    from .faults.plan import default_plan
    from .transpile import fuzz_run, fuzzing, load_corpus

    tiers = (("static", "fuzz") if args.verify_tier == "all"
             else (args.verify_tier,))

    targets: List[str] = []
    if args.all:
        targets = sorted(WORKLOADS)
    elif args.workload:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; "
                  f"available: {', '.join(sorted(WORKLOADS))}",
                  file=sys.stderr)
            return 2
        targets = [args.workload]
    elif args.fuzz is None and not args.corpus:
        print("error: give --workload NAME, --all, --fuzz N, or "
              "--corpus FILE", file=sys.stderr)
        return 2

    trace_path = args.trace or os.environ.get(obs.ENV_TRACE)
    if trace_path:
        os.environ[obs.ENV_TRACE] = str(trace_path)
        obs.enable()

    engine = ExperimentEngine(workers=args.workers)
    results = {}
    if targets:
        # Submission order is sorted and results return in submission
        # order, so output is byte-identical for any --workers value.
        jobs = [Job(key=f"transpile:{name}", fn=transpile_workload_job,
                    args=(name, tiers, args.surface, args.fault_seed),
                    workload=name)
                for name in targets]
        for name, result in zip(targets, collect(engine.run(jobs))):
            results[name] = result

    fuzz_report = None
    if args.corpus:
        fuzz_report = run_cases(args.fault_seed, load_corpus(args.corpus),
                                default_plan(args.fault_seed), engine,
                                fuzzing.run_case)
    elif args.fuzz is not None or "fuzz" in tiers:
        iterations = args.fuzz if args.fuzz is not None else 10
        fuzz_report = fuzz_run(args.fault_seed, iterations, engine=engine)

    ok = all(result["ok"] for result in results.values()) \
        and (fuzz_report is None or fuzz_report.ok)
    if obs.enabled():
        registry = obs.get_registry()
        for result in results.values():
            for tier, section in (("static", result.get("static")),
                                  ("fuzz", result.get("exec"))):
                if section is not None and section["ok"]:
                    registry.counter("transpile.verified", tier=tier).inc()
        if fuzz_report is not None:
            registry.counter(
                "transpile.fuzz_cases",
                outcome="ok" if fuzz_report.ok else "failed",
            ).inc(len(fuzz_report.outcomes))

    if args.format == "json":
        import json
        payload = {"ok": ok, "targets": results}
        if fuzz_report is not None:
            payload["fuzz"] = fuzz_report.payload()
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        chunks = [_render_transpile_target(name, result)
                  for name, result in results.items()]
        if fuzz_report is not None:
            lines = [f"== fuzz (seed={fuzz_report.fault_seed}) =="]
            for status, count in fuzz_report.status_counts().items():
                lines.append(f"  {status:<28} {count}")
            lines.append(f"  fault-log digest: {fuzz_report.digest()}")
            chunks.append("\n".join(lines))
        chunks.append(f"transpile: {'ok' if ok else 'FAILED'} "
                      f"({len(results)} workload(s), tiers: "
                      f"{','.join(tiers)})")
        rendered = "\n\n".join(chunks)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"[transpile] wrote {args.output}")
    else:
        print(rendered)
    if fuzz_report is not None:
        for outcome in fuzz_report.failures:
            print(f"FAILED {outcome.case_id}: {outcome.status} "
                  f"({outcome.detail})", file=sys.stderr)

    if trace_path:
        written = obs.write_trace(trace_path, label="transpile")
        print(f"[trace] wrote {written}")
    return 0 if ok else 1


@_typed_errors
def cmd_chaos(args: argparse.Namespace) -> int:
    """Differential fault-injection sweep (see :mod:`repro.faults.fuzz`)."""
    import tempfile

    from .faults.fuzz import ChaosReport, chaos_run, chaos_workloads, \
        load_corpus, run_cases
    from .faults.plan import default_plan

    if getattr(args, "serve", False):
        return _cmd_chaos_serve(args)

    if not getattr(args, "cache_dir", None) \
            and not getattr(args, "no_cache", False):
        # Deterministic by default: against a warm cache some put-time
        # faults would be skipped (no store happens on a hit), so the
        # fault log would differ between the first and second run.
        args.cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    engine = _configure_runtime(args)
    plan = default_plan(args.fault_seed, rate_scale=args.rate_scale)

    if args.workloads:
        report = ChaosReport(args.fault_seed, chaos_workloads(
            args.fault_seed, rate_scale=args.rate_scale))
    elif args.corpus:
        report = run_cases(args.fault_seed, load_corpus(args.corpus), plan,
                           engine)
    else:
        report = chaos_run(args.fault_seed, args.iterations, plan=plan,
                           engine=engine)

    print(f"chaos: seed={args.fault_seed} cases={len(report.outcomes)} "
          f"rate-scale={args.rate_scale}")
    for status, count in report.status_counts().items():
        print(f"  {status:<28} {count}")
    fault_counts = report.fault_counts()
    if fault_counts:
        print("injected faults:")
        for kind, count in fault_counts.items():
            print(f"  {kind:<28} {count}")
    else:
        print("injected faults: none fired")
    print(f"fault-log digest: {report.digest()}")
    for outcome in report.failures:
        print(f"FAILED {outcome.case_id}: {outcome.status} "
              f"({outcome.detail})", file=sys.stderr)
    _finalize_trace(args, label=f"chaos:{args.fault_seed}")
    return 1 if report.failures else 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """Differential chaos over the service layer (``chaos --serve``).

    N concurrent mixed-tenant clients drive a real ``repro serve``
    daemon (a subprocess, so ``kill -9`` is honest) under the
    service-layer fault kinds — ``request.drop``, ``server.kill``,
    ``tenant.flood`` — in two phases, serial then parallel, each with a
    mid-run kill/restart cycle.  Every request must complete
    byte-identically, fail typed, or be re-served from the journal
    after restart; exit 1 on any silent loss or divergence.
    """
    import tempfile

    from .faults.plan import default_plan
    from .serve.harness import render_report, serve_chaos_run

    plan = default_plan(args.fault_seed, rate_scale=args.rate_scale,
                        only=("request.drop", "server.kill"))
    requests = args.requests
    base = tempfile.mkdtemp(prefix="repro-serve-chaos-")
    silent = 0
    for phase, parallel in (("serial", False), ("parallel", True)):
        report = serve_chaos_run(
            args.fault_seed,
            requests=requests,
            clients=args.serve_clients,
            journal_dir=os.path.join(base, phase, "journal"),
            cache_root=os.path.join(base, phase, "cache"),
            plan=plan,
            parallel=parallel,
            tenant_quota=args.tenant_quota,
        )
        print(f"== serve-chaos ({phase}) ==")
        print(render_report(report))
        silent += len(report.silent_failures)
    verdict = "ok" if silent == 0 else "FAILED"
    print(f"serve-chaos: {verdict} ({2 * requests} request(s) across "
          f"2 phase(s), {silent} silent)")
    return 1 if silent else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the crash-consistent multi-tenant service daemon."""
    from .serve.server import ServeConfig, run_server

    journal_dir = args.journal or os.environ.get(durable.ENV_JOURNAL)
    if not journal_dir:
        print("error: serve requires --journal DIR (the request "
              "durability log)", file=sys.stderr)
        return 2
    threshold = supervisor.resolve_breaker_threshold(
        args.breaker, default=DEFAULT_BREAKER_THRESHOLD)
    config = ServeConfig(
        journal_dir=journal_dir,
        host=args.host,
        port=args.port,
        cache_root=args.cache_dir,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        breaker_threshold=threshold,
        breaker_cooldown=supervisor.resolve_breaker_cooldown(
            args.breaker_cooldown),
        retries=args.retries,
        backoff=args.backoff,
        default_deadline_ms=args.deadline_ms,
        engine_workers=args.workers if args.workers is not None else 1,
        allow_kill=args.allow_kill,
        resume_run_id=args.resume,
    )
    return run_server(config)


def cmd_report(args: argparse.Namespace) -> int:
    """Load a captured trace file and print its summary tables.

    ``--flamegraph FILE`` additionally writes the collapsed-stack form;
    ``--format prom`` prints the Prometheus exposition of the trace's
    metrics instead of the text report; ``--critical-path`` prints the
    heaviest span chain instead of the full report.
    """
    try:
        trace = obs.load_trace(args.file)
    except (OSError, obs.TraceError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    try:
        if args.flamegraph:
            body = render_flamegraph_file(trace)
            with open(args.flamegraph, "w") as handle:
                handle.write(body)
            print(f"[report] wrote {args.flamegraph} "
                  f"({len(body.splitlines())} stack(s))")
        if args.format == "prom":
            sys.stdout.write(obs.render_prom(trace.metrics or {}))
        elif args.critical_path:
            print(render_critical_path(trace))
        else:
            print(render_report(trace, top=args.top))
    except BrokenPipeError:      # e.g. `repro report f | head`
        sys.stderr.close()       # suppress the interpreter's warning
    return 0


def _status_state(status: dict) -> str:
    """Effective run state: a dead writer pid downgrades ``running``."""
    state = str(status.get("state", "?"))
    pid = int(status.get("pid", 0) or 0)
    if state == "running" and pid:
        try:
            os.kill(pid, 0)
        except OSError:
            return "stale (process gone)"
    return state


def _render_status(status: dict) -> str:
    """Human view of one run's status document (``repro top``)."""
    jobs = status.get("jobs", {})
    state = _status_state(status)
    pid = int(status.get("pid", 0) or 0)
    lines = [f"run {status.get('run_id', '?')}  state={state}  pid={pid}"
             + ("  [synthesized from journal]"
                if status.get("synthesized") else "")]
    argv = status.get("argv") or []
    if argv:
        lines.append(f"  command: {' '.join(str(a) for a in argv)}")
    lines.append(
        f"  jobs: {jobs.get('done', 0)}/{jobs.get('total', 0)} done, "
        f"{jobs.get('failed', 0)} failed, {jobs.get('running', 0)} "
        f"running, {jobs.get('pending', 0)} pending")
    workers = status.get("workers") or {}
    for wid in sorted(workers, key=lambda w: int(w)):
        info = workers[wid]
        job = info.get("job") or "idle"
        lines.append(f"  worker {wid}: heartbeat {info.get('age', '?')}s "
                     f"ago, {job}")
    breakers = status.get("breakers") or {}
    for workload in sorted(breakers):
        info = breakers[workload]
        lines.append(f"  breaker {workload}: {info.get('state', '?')} "
                     f"({info.get('failures', 0)} failures)")
    cache = status.get("cache") or {}
    if cache:
        lines.append(f"  cache: hits={cache.get('hits', 0)} "
                     f"misses={cache.get('misses', 0)} "
                     f"hit-rate={cache.get('hit_rate', 0.0):.1%}")
    faults = status.get("faults") or {}
    if faults.get("injected") or faults.get("recovered"):
        lines.append(f"  faults: injected={faults.get('injected', 0)} "
                     f"recovered={faults.get('recovered', 0)}")
    updated = float(status.get("updated", 0.0))
    if updated:
        lines.append(f"  updated {max(0.0, time.time() - updated):.1f}s "
                     f"ago")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Render a journaled run's live status, watching if asked.

    Reads the atomic ``<run>.status.json`` the engine/supervisor keep
    next to the journal; for runs that never wrote one (pre-status
    journals) a status is synthesized by replaying the journal.
    """
    directory = _journal_dir(args)
    if not directory:
        print("error: give --journal DIR or set REPRO_JOURNAL",
              file=sys.stderr)
        return 2
    try:
        path = durable.find_run(directory, args.run_id)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_id = path.name[:-len(".journal.jsonl")]

    def read_status() -> Optional[dict]:
        status = durable.load_status(directory, run_id)
        if status is not None:
            return status
        try:
            return durable.synthesize_status(
                durable.replay_journal(path, repair=False))
        except (OSError, JournalCorruptError, ResumeMismatchError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None

    try:
        if args.watch:
            try:
                while True:
                    status = read_status()
                    if status is None:
                        return 2
                    sys.stdout.write("\x1b[2J\x1b[H"
                                     + _render_status(status) + "\n")
                    sys.stdout.flush()
                    # a stale status (writer pid gone) must end the
                    # watch too, or a crashed run would spin forever
                    if _status_state(status) != "running":
                        return 0
                    time.sleep(args.interval)
            except KeyboardInterrupt:       # pragma: no cover
                return 130
        status = read_status()
        if status is None:
            return 2
        print(_render_status(status))
    except BrokenPipeError:      # e.g. `repro top | head`
        sys.stderr.close()       # suppress the interpreter's warning
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HIPStR reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile and execute mini-C")
    run_parser.add_argument("file", help="mini-C source file ('-' = stdin)")
    run_parser.add_argument("--isa", default="x86like",
                            choices=sorted(ISAS))
    run_parser.add_argument("--psr", action="store_true",
                            help="execute under a PSR virtual machine")
    run_parser.add_argument("--hipstr", action="store_true",
                            help="execute under full HIPStR")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--opt-level", type=int, default=3,
                            choices=(0, 1, 2, 3))
    run_parser.add_argument("--migration-probability", type=float,
                            default=1.0)
    run_parser.add_argument("--stdin-file", default=None)
    run_parser.set_defaults(func=cmd_run)

    disasm_parser = sub.add_parser("disasm", help="disassemble a binary")
    disasm_parser.add_argument("file")
    disasm_parser.add_argument("--isa", default="x86like",
                               choices=sorted(ISAS))
    disasm_parser.set_defaults(func=cmd_disasm)

    gadgets_parser = sub.add_parser("gadgets",
                                    help="mine and summarize gadgets")
    gadgets_parser.add_argument("file")
    gadgets_parser.add_argument("--psr", action="store_true",
                                help="also analyze the surface under PSR")
    gadgets_parser.add_argument("--seed", type=int, default=0)
    gadgets_parser.set_defaults(func=cmd_gadgets)

    demo_parser = sub.add_parser("exploit-demo",
                                 help="run the Figure-1 attack end to end")
    demo_parser.set_defaults(func=lambda args: _exploit_demo_inline())

    def add_runtime_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", "-j", type=int, default=None,
                       metavar="N",
                       help="fan experiment jobs out over N processes "
                            "(0 = one per core; default: serial, or "
                            "$REPRO_WORKERS)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk artifact cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache location (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-hipstr)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="capture a metrics + span trace to FILE "
                            "(JSONL; or set $REPRO_TRACE); summarize "
                            "with 'repro report FILE'")
        p.add_argument("--journal", default=None, metavar="DIR",
                       help="write a crash-consistent run journal under "
                            "DIR (or set $REPRO_JOURNAL); continue an "
                            "interrupted run with 'repro resume'")
        p.add_argument("--breaker", type=int, default=None, metavar="N",
                       help="open a workload's circuit breaker after N "
                            "consecutive terminal failures (default: "
                            "$REPRO_BREAKER_THRESHOLD or "
                            f"{DEFAULT_BREAKER_THRESHOLD}; 0 disables)")
        p.add_argument("--breaker-cooldown", type=float, default=None,
                       metavar="SEC",
                       help="after SEC seconds an open breaker admits "
                            "one half-open probe; success closes it, "
                            "failure re-opens (default: "
                            "$REPRO_BREAKER_COOLDOWN, else breakers "
                            "stay open for the run)")
        p.add_argument("--force", action="store_true",
                       help="reset journaled circuit breakers and rerun "
                            "previously skipped workloads")

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate one paper artifact")
    experiment_parser.add_argument("name",
                                   help=", ".join(sorted(EXPERIMENTS)))
    add_runtime_flags(experiment_parser)
    experiment_parser.add_argument("--cache-stats", action="store_true",
                                   help="print cache hit/miss counters "
                                        "after the run")
    experiment_parser.set_defaults(func=cmd_experiment)

    verify_parser = sub.add_parser(
        "verify", help="statically verify a fat binary (no execution)")
    verify_parser.add_argument("file", nargs="?", default=None,
                               help="mini-C source file ('-' = stdin)")
    verify_parser.add_argument("--workload", default=None, metavar="NAME",
                               help="verify a named mini-SPEC workload")
    verify_parser.add_argument("--all", action="store_true",
                               help="verify every workload in the suite")
    verify_parser.add_argument("--rules", nargs="+", default=None,
                               metavar="RULE",
                               help="restrict to rule IDs, slugs, or "
                                    "prefixes (e.g. HIP201 HIP3 "
                                    "stackmap-mismatch)")
    verify_parser.add_argument("--passes", nargs="+", default=None,
                               metavar="PASS",
                               help="run only the named passes (cfg, "
                                    "consistency, dataflow, symequiv, "
                                    "framesafety, gadgets)")
    verify_parser.add_argument("--workers", "-j", type=int, default=None,
                               metavar="N",
                               help="verify workloads in parallel "
                                    "(0 = one per core; findings are "
                                    "identical for any worker count)")
    verify_parser.add_argument("--format", default="text",
                               choices=("text", "json"))
    verify_parser.add_argument("--output", "-o", default=None,
                               metavar="FILE",
                               help="write the rendered findings to FILE")
    verify_parser.add_argument("--trace", default=None, metavar="FILE",
                               help="capture a metrics + span trace "
                                    "(summarize with 'repro report FILE')")
    verify_parser.set_defaults(func=cmd_verify)

    transpile_parser = sub.add_parser(
        "transpile",
        help="statically lift x86like workloads to armlike and verify")
    transpile_parser.add_argument("--workload", default=None,
                                  metavar="NAME",
                                  help="transpile a named mini-SPEC "
                                       "workload")
    transpile_parser.add_argument("--all", action="store_true",
                                  help="transpile every workload in the "
                                       "suite")
    transpile_parser.add_argument("--verify-tier", default="all",
                                  choices=("static", "fuzz", "all"),
                                  help="static = HIP7xx verifier passes; "
                                       "fuzz = differential execution "
                                       "(default: all)")
    transpile_parser.add_argument("--fuzz", type=int, default=None,
                                  metavar="N",
                                  help="random differential cases for the "
                                       "fuzz tier (default 10 when the "
                                       "tier is selected)")
    transpile_parser.add_argument("--fault-seed", type=int, default=0,
                                  metavar="S",
                                  help="seed for fuzz programs, schedules, "
                                       "and fault decisions (default 0)")
    transpile_parser.add_argument("--corpus", default=None, metavar="FILE",
                                  help="replay a frozen transpile fuzz "
                                       "corpus (JSON) instead of "
                                       "generating cases")
    transpile_parser.add_argument("--surface", action="store_true",
                                  help="also mine the gadget-surface "
                                       "comparison (original vs "
                                       "transpiled vs diversified)")
    transpile_parser.add_argument("--workers", "-j", type=int,
                                  default=None, metavar="N",
                                  help="transpile workloads in parallel "
                                       "(0 = one per core; results are "
                                       "identical for any worker count)")
    transpile_parser.add_argument("--format", default="text",
                                  choices=("text", "json"))
    transpile_parser.add_argument("--output", "-o", default=None,
                                  metavar="FILE",
                                  help="write the rendered results to "
                                       "FILE")
    transpile_parser.add_argument("--trace", default=None, metavar="FILE",
                                  help="capture a metrics + span trace "
                                       "(summarize with 'repro report "
                                       "FILE')")
    transpile_parser.set_defaults(func=cmd_transpile)

    chaos_parser = sub.add_parser(
        "chaos", help="differential fault-injection sweep")
    chaos_parser.add_argument("--fault-seed", type=int, default=0,
                              metavar="S",
                              help="seed for programs, schedules, and "
                                   "fault decisions (default 0); the "
                                   "whole run replays from this")
    chaos_parser.add_argument("--iterations", type=int, default=25,
                              metavar="N",
                              help="differential cases to run "
                                   "(default 25)")
    chaos_parser.add_argument("--rate-scale", type=float, default=1.0,
                              metavar="F",
                              help="multiply every fault rate by F "
                                   "(default 1.0)")
    chaos_parser.add_argument("--workloads", action="store_true",
                              help="sweep the nine benchmark workloads "
                                   "under faults instead of random "
                                   "programs")
    chaos_parser.add_argument("--corpus", default=None, metavar="FILE",
                              help="replay a frozen case corpus (JSON) "
                                   "instead of generating cases")
    chaos_parser.add_argument("--serve", action="store_true",
                              help="differential chaos over the service "
                                   "layer: concurrent mixed-tenant "
                                   "clients vs a real daemon under "
                                   "request.drop / server.kill / "
                                   "tenant.flood, serial then parallel, "
                                   "each with a mid-run kill -9/restart")
    chaos_parser.add_argument("--requests", type=int, default=100,
                              metavar="N",
                              help="requests per --serve phase "
                                   "(default 100)")
    chaos_parser.add_argument("--serve-clients", type=int, default=4,
                              metavar="N",
                              help="concurrent client threads for "
                                   "--serve (default 4)")
    chaos_parser.add_argument("--tenant-quota", type=int, default=4,
                              metavar="N",
                              help="per-tenant in-flight quota for the "
                                   "--serve daemon (default 4)")
    add_runtime_flags(chaos_parser)
    chaos_parser.set_defaults(func=cmd_chaos)

    serve_parser = sub.add_parser(
        "serve", help="run the crash-consistent multi-tenant service "
                      "daemon")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8742,
                              help="listen port (0 = ephemeral; the "
                                   "readiness line prints the bound "
                                   "port)")
    serve_parser.add_argument("--journal", default=None, metavar="DIR",
                              help="request durability log directory "
                                   "(required; or set $REPRO_JOURNAL)")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="artifact cache root; each tenant "
                                   "gets a namespaced subtree")
    serve_parser.add_argument("--queue-limit", type=int, default=64,
                              metavar="N",
                              help="bounded admission queue; beyond N "
                                   "in-flight requests new ones are "
                                   "shed with 429 (default 64)")
    serve_parser.add_argument("--tenant-quota", type=int, default=8,
                              metavar="N",
                              help="per-tenant in-flight concurrency "
                                   "quota (default 8)")
    serve_parser.add_argument("--breaker", type=int, default=None,
                              metavar="N",
                              help="per-(tenant, workload) circuit "
                                   "breaker threshold (default: "
                                   "$REPRO_BREAKER_THRESHOLD or "
                                   f"{DEFAULT_BREAKER_THRESHOLD}; "
                                   "0 disables)")
    serve_parser.add_argument("--breaker-cooldown", type=float,
                              default=None, metavar="SEC",
                              help="open breakers admit one half-open "
                                   "probe after SEC seconds (default: "
                                   "$REPRO_BREAKER_COOLDOWN)")
    serve_parser.add_argument("--retries", type=int, default=2,
                              metavar="N",
                              help="server-side retries for retryable "
                                   "failures (default 2)")
    serve_parser.add_argument("--backoff", type=float, default=0.05,
                              metavar="SEC",
                              help="base retry backoff, doubled per "
                                   "attempt (default 0.05)")
    serve_parser.add_argument("--deadline-ms", type=int, default=None,
                              metavar="MS",
                              help="default per-request deadline when "
                                   "neither the spec nor the "
                                   "X-Deadline-Ms header gives one")
    serve_parser.add_argument("--workers", "-j", type=int, default=None,
                              metavar="N",
                              help="engine worker processes per request "
                                   "(default 1)")
    serve_parser.add_argument("--allow-kill", action="store_true",
                              help="honor injected server.kill faults "
                                   "(SIGKILL self after journaling; "
                                   "chaos harness only)")
    serve_parser.add_argument("--resume", default=None, metavar="RUN_ID",
                              help="re-attach to a specific interrupted "
                                   "serve journal (default: latest "
                                   "interrupted serve run in --journal)")
    serve_parser.set_defaults(func=cmd_serve)

    report_parser = sub.add_parser(
        "report", help="summarize a captured trace file")
    report_parser.add_argument("file", help="trace file written by --trace")
    report_parser.add_argument("--top", type=int, default=15, metavar="N",
                               help="rows per ranked table (default 15)")
    report_parser.add_argument("--flamegraph", default=None, metavar="FILE",
                               help="also write the span tree as "
                                    "collapsed stacks (speedscope / "
                                    "flamegraph.pl compatible)")
    report_parser.add_argument("--critical-path", action="store_true",
                               help="print the longest-duration span "
                                    "chain instead of the full report")
    report_parser.add_argument("--format", default="text",
                               choices=("text", "prom"),
                               help="'prom' prints the trace's metrics "
                                    "as Prometheus text exposition")
    report_parser.set_defaults(func=cmd_report)

    top_parser = sub.add_parser(
        "top", help="live status of a journaled run")
    top_parser.add_argument("run_id", nargs="?", default="latest",
                            help="run id, unique prefix, or 'latest' "
                                 "(default)")
    top_parser.add_argument("--journal", default=None, metavar="DIR",
                            help="journal directory "
                                 "(default: $REPRO_JOURNAL)")
    top_parser.add_argument("--watch", action="store_true",
                            help="refresh until the run leaves the "
                                 "'running' state")
    top_parser.add_argument("--interval", type=float, default=1.0,
                            metavar="S",
                            help="refresh period with --watch "
                                 "(default 1.0)")
    top_parser.set_defaults(func=cmd_top)

    resume_parser = sub.add_parser(
        "resume", help="resume a journaled run after a crash or interrupt")
    resume_parser.add_argument("run_id", nargs="?", default="latest",
                               help="run id, unique prefix, or 'latest' "
                                    "(default)")
    resume_parser.add_argument("--journal", default=None, metavar="DIR",
                               help="journal directory "
                                    "(default: $REPRO_JOURNAL)")
    resume_parser.add_argument("--force", action="store_true",
                               help="reset journaled circuit breakers "
                                    "before resuming")
    resume_parser.add_argument("--trace", default=None, metavar="FILE",
                               help="capture a metrics + span trace of "
                                    "the resumed run (JSONL; or set "
                                    "$REPRO_TRACE)")
    resume_parser.set_defaults(func=cmd_resume)

    runs_parser = sub.add_parser(
        "runs", help="list journaled runs and their status")
    runs_parser.add_argument("action", nargs="?", default="list",
                             choices=("list",))
    runs_parser.add_argument("--journal", default=None, metavar="DIR",
                             help="journal directory "
                                  "(default: $REPRO_JOURNAL)")
    runs_parser.set_defaults(func=cmd_runs)
    return parser


def _journal_dir(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "journal", None) or os.environ.get(durable.ENV_JOURNAL)


def _parse_recorded_argv(replay: durable.JournalReplay) -> argparse.Namespace:
    """Parse a journal's command line, refusing one this version lacks
    as a ``ValueError`` rather than an argparse usage dump and exit 2."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            return build_parser().parse_args(replay.argv)
    except SystemExit:
        reason = stderr.getvalue().strip().rsplit("error: ", 1)[-1]
        raise ValueError(
            f"run {replay.run_id} recorded 'repro {' '.join(replay.argv)}',"
            f" which this version cannot run: {reason}") from None


@_typed_errors
def cmd_resume(args: argparse.Namespace) -> int:
    """Replay a run journal and re-dispatch its recorded command line.

    Completed jobs whose artifacts still verify are served from the
    run's result store; everything else recomputes.  The re-dispatched
    command appends to the same journal, so a resume can itself crash
    and be resumed again.
    """
    directory = _journal_dir(args)
    if not directory:
        print("error: give --journal DIR or set REPRO_JOURNAL",
              file=sys.stderr)
        return 2
    trace_path = getattr(args, "trace", None) \
        or os.environ.get(obs.ENV_TRACE)
    if trace_path:
        # export before re-dispatching so the resumed command (and its
        # workers) trace exactly like a fresh run would
        os.environ[obs.ENV_TRACE] = str(trace_path)
        obs.enable()
    try:
        path = durable.find_run(directory, args.run_id)
        replay = durable.replay_journal(path)
    except (FileNotFoundError, JournalCorruptError,
            ResumeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if replay.finished:
        print(f"[journal] run {replay.run_id} already finished; "
              f"nothing to resume")
        return 0
    durable.verify_resume_argv(replay)
    sub_args = _parse_recorded_argv(replay)
    journal = durable.RunJournal.resume(directory, replay)
    # journal<->cache cross-check: a job_done record only counts if its
    # artifact is still present and passes its checksum
    dropped = 0
    for slot, artifact_key in list(replay.completed.items()):
        if not journal.store.has_valid(durable.RESULT_KIND, artifact_key):
            del replay.completed[slot]
            dropped += 1
    if args.force and replay.breaker_open:
        for workload in sorted(replay.breaker_open):
            journal.append("breaker_reset", workload=workload)
        replay.breaker_open.clear()
    durable.set_current_journal(journal)
    durable.set_resume_state(durable.ResumeState(replay, journal.store))
    durable.install_sigterm_handler()
    notes = [f"{len(replay.completed)} completed job(s) verified"]
    if dropped:
        notes.append(f"{dropped} dropped (bad artifact)")
    if replay.torn_records:
        notes.append(f"{replay.torn_records} torn record(s) repaired")
    print(f"[journal] resuming run {replay.run_id} "
          f"({replay.status()}): " + ", ".join(notes))
    sub_args.argv = list(replay.argv)
    if args.force:
        sub_args.force = True
    return sub_args.func(sub_args)


def cmd_runs(args: argparse.Namespace) -> int:
    """List journaled runs, newest first."""
    directory = _journal_dir(args)
    if not directory:
        print("error: give --journal DIR or set REPRO_JOURNAL",
              file=sys.stderr)
        return 2
    runs = durable.list_runs(directory)
    if not runs:
        print(f"no runs under {directory}")
        return 0
    print(f"{'run id':<24} {'status':<12} {'jobs':<9} command")
    for info in runs:
        print(info.render())
    return 0


def _reset_durable_state() -> None:
    """Clear ambient journal/breaker state between in-process runs."""
    durable.set_current_journal(None)
    durable.set_resume_state(None)
    supervisor.set_current_breaker(None)
    durable.clear_interrupt()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    durable.clear_interrupt()
    try:
        code = args.func(args)
    except RunInterrupted as exc:
        journal = durable.get_current_journal()
        if journal is not None:
            journal.append("run_interrupted", completed=exc.completed,
                           remaining=exc.remaining)
            journal.close()
            print(f"[journal] run {journal.run_id} interrupted: "
                  f"{exc.completed} job(s) drained, {exc.remaining} "
                  f"not started; continue with 'repro resume "
                  f"{journal.run_id}'", file=sys.stderr)
        _finalize_trace(args, label="interrupted")
        _reset_durable_state()
        return 130
    except BaseException:
        _reset_durable_state()
        raise
    journal = durable.get_current_journal()
    if journal is not None:
        journal.finish(int(code or 0))
        print(f"[journal] run {journal.run_id} finished: "
              f"{journal.records_written} record(s), "
              f"resumed={journal.jobs_resumed} "
              f"recomputed={journal.jobs_recomputed}")
    _reset_durable_state()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
