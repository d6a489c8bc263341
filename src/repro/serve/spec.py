"""Typed request specifications: experiment definitions off the argv.

The enabling refactor behind ``repro serve``: a :class:`RequestSpec` is
one unit of work — compile, migrate, experiment, verify, transpile,
chaos — expressed as plain data instead of a parsed command line.  CLI
subcommands build the same spec the server deserializes off the wire,
and both dispatch through :func:`execute_spec` onto the existing
:class:`~repro.runtime.engine.ExperimentEngine`, so a request served
over HTTP is byte-for-byte the work the CLI would have done.

Every executor returns *plain data* (dicts/lists/strings/numbers only,
normalized through a canonical JSON round-trip), which gives the serve
layer two properties for free:

* responses are journalable — a completed request's payload persists in
  the run's artifact store and is served identically after a ``kill -9``
  and restart (``recomputed=0``);
* responses are diffable — :func:`result_digest` is a stable digest the
  differential chaos harness compares against an in-process recompute
  to prove zero silent divergence.

Only deterministic work should cross the wire for differential checks:
the measured-performance figures (fig9–fig14) execute fine but time
real work, so their payloads are not byte-stable across hosts.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigError
from ..runtime.cache import digest

#: bump when the wire layout of a spec changes incompatibly
SPEC_SCHEMA = 1

#: request kinds the executor knows how to run
SPEC_KINDS = ("compile", "migrate", "experiment", "verify", "transpile",
              "chaos", "sleep")

DEFAULT_TENANT = "default"

#: tenant names become cache-root path components, so they are
#: restricted to one safe filename-ish token
_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_.:-]{0,128}$")

#: artifact kind for serve-layer result digests
_RESULT_DIGEST_KIND = "serve-result"

#: cap on the differential cases one chaos or transpile request runs
MAX_CASES = 500


@dataclass(frozen=True)
class RequestSpec:
    """One experiment definition, decoupled from CLI argv.

    ``params`` must be plain JSON data; validation happens eagerly so a
    malformed spec fails typed (:class:`~repro.errors.ConfigError`) at
    the admission boundary, never deep inside an executor.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    tenant: str = DEFAULT_TENANT
    request_id: str = ""
    #: whole-request deadline budget in milliseconds (None = no deadline)
    deadline_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ConfigError(
                f"unknown request kind {self.kind!r}; known: "
                f"{', '.join(SPEC_KINDS)}")
        if not isinstance(self.params, dict):
            raise ConfigError(
                f"params must be an object, got {type(self.params).__name__}")
        try:
            json.dumps(self.params, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"params must be plain JSON data: {exc}") \
                from None
        if not _TENANT_RE.match(self.tenant):
            raise ConfigError(
                f"invalid tenant {self.tenant!r} (want 1-64 chars of "
                f"[A-Za-z0-9_.-])")
        if not _REQUEST_ID_RE.match(self.request_id):
            raise ConfigError(
                f"invalid request_id {self.request_id!r} (want <=128 "
                f"chars of [A-Za-z0-9_.:-])")
        if self.deadline_ms is not None:
            if not isinstance(self.deadline_ms, int) \
                    or isinstance(self.deadline_ms, bool) \
                    or self.deadline_ms <= 0:
                raise ConfigError(
                    f"deadline_ms must be a positive integer, got "
                    f"{self.deadline_ms!r}")
        _validate_params(self.kind, self.params)

    # ------------------------------------------------------------------
    @property
    def workload(self) -> str:
        """Circuit-breaker grouping: the named workload, else the kind."""
        for key in ("workload", "name"):
            value = self.params.get(key)
            if isinstance(value, str) and value:
                return value
        return self.kind

    def spec_digest(self) -> str:
        """Content address of the work itself (tenant/id excluded, so
        identical work from different tenants dedups in their caches)."""
        return digest("request-spec", SPEC_SCHEMA, self.kind,
                      json.dumps(self.params, sort_keys=True))

    # -- wire round-trip ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": SPEC_SCHEMA,
            "kind": self.kind,
            "params": self.params,
            "tenant": self.tenant,
        }
        if self.request_id:
            payload["request_id"] = self.request_id
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "RequestSpec":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"request body must be an object, got "
                f"{type(payload).__name__}")
        schema = payload.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {schema!r} "
                f"(expected {SPEC_SCHEMA})")
        unknown = set(payload) - {"schema", "kind", "params", "tenant",
                                  "request_id", "deadline_ms"}
        if unknown:
            raise ConfigError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ConfigError("spec is missing its 'kind'")
        return cls(kind=kind,
                   params=payload.get("params") or {},
                   tenant=payload.get("tenant") or DEFAULT_TENANT,
                   request_id=str(payload.get("request_id") or ""),
                   deadline_ms=payload.get("deadline_ms"))


# ----------------------------------------------------------------------
# Parameter validation (admission-time, executor-free)
# ----------------------------------------------------------------------
def _require_workload(name: Any) -> str:
    from ..workloads import WORKLOADS
    if not isinstance(name, str) or name not in WORKLOADS:
        raise ConfigError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(sorted(WORKLOADS))}")
    return name


def _check_unknown(kind: str, params: Dict[str, Any],
                   allowed: tuple) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {kind} param(s): {', '.join(sorted(unknown))}")


def _check_int(kind: str, params: Dict[str, Any], name: str,
               low: Optional[int] = None, high: Optional[int] = None) -> None:
    """An optional integer param: an int (never a bool) within bounds."""
    if name not in params:
        return
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int) \
            or (low is not None and value < low) \
            or (high is not None and value > high):
        bounds = ("" if low is None else f" >= {low}" if high is None
                  else f" in {low}..{high}")
        raise ConfigError(f"{kind} {name!r} must be an integer{bounds}, "
                          f"got {value!r}")


def _check_verifier_selection(params: Dict[str, Any]) -> None:
    """``rules`` and ``passes`` must be lists of catalog names."""
    if "rules" not in params and "passes" not in params:
        return
    rules, passes = params.get("rules", []), params.get("passes", [])
    for name, value in (("rules", rules), ("passes", passes)):
        if not isinstance(value, list) \
                or not all(isinstance(item, str) for item in value):
            raise ConfigError(f"verify {name!r} must be a list of strings, "
                              f"got {value!r}")
    from ..staticcheck import PASSES_BY_NAME, resolve_rules
    resolve_rules(rules)
    unknown = [name for name in passes if name not in PASSES_BY_NAME]
    if unknown:
        raise ConfigError(
            f"unknown verifier pass(es) {', '.join(unknown)}; available: "
            f"{', '.join(PASSES_BY_NAME)}")


#: experiments whose drivers are deterministic without a seed
_UNSEEDED_EXPERIMENTS = ("fig6", "fig7")


def _validate_params(kind: str, params: Dict[str, Any]) -> None:
    if kind == "compile":
        _check_unknown(kind, params, ("workload",))
        _require_workload(params.get("workload"))
    elif kind == "migrate":
        _check_unknown(kind, params, (
            "workload", "source", "seed", "migration_probability",
            "opt_level", "max_instructions"))
        if ("workload" in params) == ("source" in params):
            raise ConfigError(
                "migrate needs exactly one of 'workload' or 'source'")
        if "workload" in params:
            _require_workload(params["workload"])
        elif not isinstance(params["source"], str) or not params["source"]:
            raise ConfigError("migrate 'source' must be mini-C text")
        probability = params.get("migration_probability", 1.0)
        if not isinstance(probability, (int, float)) \
                or not 0.0 <= probability <= 1.0:
            raise ConfigError(
                f"migration_probability must be in [0, 1], "
                f"got {probability!r}")
        _check_int(kind, params, "opt_level", 0, 3)
        _check_int(kind, params, "seed")
        _check_int(kind, params, "max_instructions", 1)
    elif kind == "experiment":
        _check_unknown(kind, params, ("name", "benchmarks", "seed"))
        name = params.get("name")
        if name not in EXPERIMENT_RUNNERS:
            raise ConfigError(
                f"unknown experiment {name!r}; available: "
                f"{', '.join(sorted(EXPERIMENT_RUNNERS))}")
        if "seed" in params and name in _UNSEEDED_EXPERIMENTS:
            raise ConfigError(f"experiment {name!r} takes no 'seed'")
        _check_int(kind, params, "seed")
        benchmarks = params.get("benchmarks")
        if benchmarks is not None:
            if not isinstance(benchmarks, list) or not benchmarks:
                raise ConfigError(
                    "experiment 'benchmarks' must be a non-empty list")
            for bench in benchmarks:
                _require_workload(bench)
    elif kind == "verify":
        _check_unknown(kind, params, ("workload", "workloads", "all",
                                      "rules", "passes"))
        _validate_targets(kind, params)
        _check_verifier_selection(params)
    elif kind == "transpile":
        _check_unknown(kind, params, ("workload", "workloads", "all",
                                      "tiers", "surface", "fault_seed",
                                      "fuzz"))
        _validate_targets(kind, params)
        tiers = params.get("tiers", ["static", "fuzz"])
        if not isinstance(tiers, list) \
                or not set(tiers) <= {"static", "fuzz"}:
            raise ConfigError(
                f"transpile tiers must be a subset of "
                f"['static', 'fuzz'], got {tiers!r}")
        _check_int(kind, params, "fault_seed")
        _check_int(kind, params, "fuzz", 0, MAX_CASES)
    elif kind == "chaos":
        _check_unknown(kind, params, ("fault_seed", "iterations",
                                      "rate_scale", "workloads"))
        _check_int(kind, params, "fault_seed")
        _check_int(kind, params, "iterations", 1, MAX_CASES)
        rate_scale = params.get("rate_scale", 1.0)
        if not isinstance(rate_scale, (int, float)) or rate_scale < 0:
            raise ConfigError(
                f"chaos rate_scale must be >= 0, got {rate_scale!r}")
    elif kind == "sleep":
        _check_unknown(kind, params, ("seconds",))
        seconds = params.get("seconds", 0.0)
        if not isinstance(seconds, (int, float)) \
                or not 0.0 <= seconds <= 30.0:
            raise ConfigError(
                f"sleep seconds must be in [0, 30], got {seconds!r}")


def _validate_targets(kind: str, params: Dict[str, Any]) -> None:
    given = [key for key in ("workload", "workloads", "all")
             if params.get(key)]
    if len(given) != 1:
        raise ConfigError(
            f"{kind} needs exactly one of 'workload', 'workloads', "
            f"or 'all'")
    if "workload" in given:
        _require_workload(params["workload"])
    elif "workloads" in given:
        if not isinstance(params["workloads"], list):
            raise ConfigError(f"{kind} 'workloads' must be a list")
        for name in params["workloads"]:
            _require_workload(name)


def _targets_of(params: Dict[str, Any]) -> List[str]:
    if params.get("all"):
        from ..workloads import WORKLOADS
        return sorted(WORKLOADS)
    if params.get("workloads"):
        return list(params["workloads"])
    return [params["workload"]]


# ----------------------------------------------------------------------
# Executors: spec -> plain-data payload
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """Dataclass rows (and nests) down to JSON-plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


def normalize(payload: Any) -> Any:
    """Canonical JSON round-trip: str keys, plain containers only.

    This is what makes a payload identical whether it was just computed
    or deserialized from the journal's artifact store — int dict keys
    become strings *before* anyone digests or renders it.  Insertion
    order is deliberately preserved (series column order is meaningful
    to renderers); :func:`result_digest` canonicalizes key order itself.
    """
    return json.loads(json.dumps(payload))


def result_digest(payload: Any) -> str:
    """Stable content digest of one normalized response payload."""
    return digest(_RESULT_DIGEST_KIND,
                  json.dumps(payload, sort_keys=True))


def execute_spec(spec: RequestSpec, engine=None) -> Dict[str, Any]:
    """Run one spec and return its normalized plain-data payload.

    ``engine`` is the fan-out engine for the kinds that decompose into
    jobs (experiment sweeps, multi-workload verify/transpile); the
    serve layer passes a per-request engine whose job timeout carries
    the request's remaining deadline budget.
    """
    runner = _KIND_RUNNERS[spec.kind]
    return normalize(runner(spec.params, engine))


def _run_compile(params: Dict[str, Any], engine) -> Dict[str, Any]:
    from ..workloads import compile_workload
    name = params["workload"]
    binary = compile_workload(name)
    sections = {}
    for isa_name in binary.isa_names:
        section = binary.sections[isa_name]
        sections[isa_name] = {
            "bytes": len(section.data),
            "symbols": len(section.symbols),
            "digest": digest("section", isa_name, bytes(section.data)),
        }
    return {"workload": name, "sections": sections}


def _run_migrate(params: Dict[str, Any], engine) -> Dict[str, Any]:
    from ..core import PSRConfig
    from ..core.hipstr import run_under_hipstr
    from ..workloads import WORKLOADS, compile_workload
    if "workload" in params:
        binary = compile_workload(params["workload"])
        stdin = WORKLOADS[params["workload"]].stdin
    else:
        from ..compiler import compile_minic
        binary = compile_minic(params["source"])
        stdin = b""
    kwargs: Dict[str, Any] = {}
    if "max_instructions" in params:
        kwargs["max_instructions"] = params["max_instructions"]
    _system, result = run_under_hipstr(
        binary, seed=params.get("seed", 0), stdin=stdin,
        migration_probability=float(
            params.get("migration_probability", 1.0)),
        config=PSRConfig(opt_level=params.get("opt_level", 3)),
        **kwargs)
    return {
        "exit_code": result.exit_code,
        "migrations": result.migration_count,
        "steps_by_isa": dict(result.steps_by_isa),
    }


def _run_experiment(params: Dict[str, Any], engine) -> Dict[str, Any]:
    runner = EXPERIMENT_RUNNERS[params["name"]]
    return runner(params, engine)


def _run_verify(params: Dict[str, Any], engine) -> Dict[str, Any]:
    from ..runtime.engine import Job, collect, get_default_engine
    targets = _targets_of(params)
    rules = params.get("rules") or None
    passes = params.get("passes") or None
    engine = engine or get_default_engine()
    jobs = [Job(key=f"verify:{name}", fn=verify_workload_job,
                args=(name, rules, passes), workload=name)
            for name in targets]
    reports = dict(zip(targets, collect(engine.run(jobs))))
    return {"ok": all(report.ok for report in reports.values()),
            "targets": {name: report.as_dict()
                        for name, report in reports.items()}}


def verify_workload_job(name: str, rules, passes):
    """Verify one workload; shared by CLI and serve paths (module-level
    so verify fans out across worker processes)."""
    from ..staticcheck import run_verifier
    from ..workloads import compile_workload
    return run_verifier(compile_workload(name), rules=rules, passes=passes)


def _run_transpile(params: Dict[str, Any], engine) -> Dict[str, Any]:
    from ..runtime.engine import Job, collect, get_default_engine
    targets = _targets_of(params)
    tiers = tuple(params.get("tiers", ["static", "fuzz"]))
    surface = bool(params.get("surface", False))
    fault_seed = params.get("fault_seed", 0)
    engine = engine or get_default_engine()
    jobs = [Job(key=f"transpile:{name}", fn=transpile_workload_job,
                args=(name, tiers, surface, fault_seed), workload=name)
            for name in targets]
    results = dict(zip(targets, collect(engine.run(jobs))))
    payload: Dict[str, Any] = {
        "ok": all(result["ok"] for result in results.values()),
        "targets": results,
    }
    fuzz = params.get("fuzz")
    if fuzz:
        from ..transpile import fuzz_run
        report = fuzz_run(fault_seed, fuzz, engine=engine)
        payload["fuzz"] = report.payload()
        payload["ok"] = payload["ok"] and report.ok
    return payload


def transpile_workload_job(name: str, tiers, surface: bool, seed: int):
    """Lift one workload and verify it; shared by CLI and serve paths."""
    from ..core import run_native
    from ..staticcheck import run_verifier
    from ..transpile import gadget_surface_row, transpile_binary
    from ..workloads import WORKLOADS, compile_workload

    binary = compile_workload(name)
    transpiled = transpile_binary(binary)
    result = {"workload": name, "lift_stats": dict(transpiled.lift_stats)}
    ok = True
    if "static" in tiers:
        report = run_verifier(transpiled)
        stats = report.facts.get("transpile", {})
        static_ok = report.ok and stats.get("unsupported", 0) == 0
        result["static"] = {
            "ok": static_ok,
            "stats": stats,
            "findings": [f.as_dict() for f in report.findings],
        }
        ok = ok and static_ok
    if "fuzz" in tiers:
        # the per-workload leg of the differential tier: the lifted
        # section must reproduce the native exit code on real inputs
        stdin = WORKLOADS[name].stdin
        native = run_native(binary, "x86like", stdin=stdin,
                            max_instructions=20_000_000).os.exit_code
        lifted = run_native(transpiled, "armlike", stdin=stdin,
                            max_instructions=20_000_000).os.exit_code
        exec_ok = native is not None and native == lifted
        result["exec"] = {"ok": exec_ok, "native_exit": native,
                          "lifted_exit": lifted}
        ok = ok and exec_ok
    if surface:
        result["surface"] = gadget_surface_row(
            name, binary, transpiled, seed=seed).to_dict()
    result["ok"] = ok
    return result


def _run_chaos(params: Dict[str, Any], engine) -> Dict[str, Any]:
    from ..faults.fuzz import ChaosReport, chaos_run, chaos_workloads
    from ..faults.plan import default_plan
    fault_seed = params.get("fault_seed", 0)
    rate_scale = float(params.get("rate_scale", 1.0))
    if params.get("workloads"):
        report = ChaosReport(fault_seed, chaos_workloads(
            fault_seed, rate_scale=rate_scale))
    else:
        plan = default_plan(fault_seed, rate_scale=rate_scale)
        report = chaos_run(fault_seed, params.get("iterations", 5),
                           plan=plan, engine=engine)
    return report.payload()


def _run_sleep(params: Dict[str, Any], engine) -> Dict[str, Any]:
    """Diagnostic kind: deterministic payload, controllable latency.

    Exists so deadline/drain behavior is testable end to end without
    depending on how long a real workload happens to take.
    """
    import time
    seconds = float(params.get("seconds", 0.0))
    time.sleep(seconds)
    return {"slept": seconds}


_KIND_RUNNERS: Dict[str, Callable[[Dict[str, Any], Any], Dict[str, Any]]] = {
    "compile": _run_compile,
    "migrate": _run_migrate,
    "experiment": _run_experiment,
    "verify": _run_verify,
    "transpile": _run_transpile,
    "chaos": _run_chaos,
    "sleep": _run_sleep,
}


# ----------------------------------------------------------------------
# Experiment payloads (plain-data mirrors of the analysis drivers)
# ----------------------------------------------------------------------
def _driver_kwargs(params: Dict[str, Any], engine) -> Dict[str, Any]:
    """The request's ``benchmarks`` and ``seed``, as driver keywords."""
    kwargs: Dict[str, Any] = {"engine": engine}
    if params.get("benchmarks"):
        kwargs["benchmarks"] = tuple(params["benchmarks"])
    if "seed" in params:
        kwargs["seed"] = params["seed"]
    return kwargs


def _rows_payload(rows, extra_of=None) -> Dict[str, Any]:
    payload_rows = []
    for row in rows:
        item = _plain(row)
        if extra_of is not None:
            item.update(extra_of(row))
        payload_rows.append(item)
    return {"rows": payload_rows}


def _exp_fig7(params, engine):
    from ..analysis import experiments
    lengths = list(experiments.CHAIN_LENGTHS)
    return {"lengths": lengths,
            "series": experiments.fig7_entropy(tuple(lengths))}


def _exp_fig8(params, engine):
    from ..analysis import experiments
    probabilities = list(experiments.PROBABILITY_STEPS)
    return {"probabilities": probabilities,
            "series": experiments.fig8_diversification(
                probabilities=tuple(probabilities),
                **_driver_kwargs(params, engine))}


def _exp_rows(driver_name, extra_of=None):
    def run(params, engine):
        from ..analysis import experiments
        driver = getattr(experiments, driver_name)
        return _rows_payload(driver(**_driver_kwargs(params, engine)),
                             extra_of)
    return run


def _exp_httpd(params, engine):
    from ..analysis import experiments
    return {"study": _plain(experiments.httpd_case_study(
        seed=params.get("seed", 0)))}


EXPERIMENT_RUNNERS: Dict[str, Callable[[Dict[str, Any], Any],
                                       Dict[str, Any]]] = {
    "fig3": _exp_rows("fig3_classic_rop", lambda r: {
        "obfuscated_fraction": r.obfuscated_fraction}),
    "fig4": _exp_rows("fig4_bruteforce_surface"),
    "fig5": _exp_rows("fig5_jitrop"),
    "fig6": _exp_rows("fig6_migration_safety"),
    "fig7": _exp_fig7,
    "fig8": _exp_fig8,
    "fig9": _exp_rows("fig9_opt_levels"),
    "fig10": _exp_rows("fig10_stack_sizes"),
    "fig11": _exp_rows("fig11_rat_sizes"),
    "fig12": _exp_rows("fig12_migration_overhead"),
    "fig13": _exp_rows("fig13_code_cache"),
    "fig14": _exp_rows("fig14_isomeron_comparison"),
    "table2": _exp_rows("table2_bruteforce"),
    "httpd": _exp_httpd,
}
