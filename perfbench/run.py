#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON result.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload perf-figures --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` alternates untraced and traced passes, prints the traced
pass's overhead against the untraced one, writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics.  The last line of standard output is the result object.  See
perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("perf-figures", "security-sweep", "serve-soak")


def _program_present() -> bool:
    return (common.SRC / "repro" / "__init__.py").is_file()


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _round_workload(name: str, seed: int, work: common.WorkDir,
                    checks: common.Checks):
    if name == "perf-figures":
        from perf_figures import PerfFigures
        return PerfFigures(seed, work, checks)
    from security_sweep import SecuritySweep
    return SecuritySweep(seed, work, checks)


def _untraced(workload, seconds: float) -> Dict[str, Dict[str, Any]]:
    imports = [common.import_seconds()
               for _ in range(common.SETUP_REPEATS)]
    results: List[Dict[str, Any]] = []
    common.rounds(seconds, lambda index: results.append(workload.round()))
    # set-up is cheap next to a round, so repeat it to a steady median
    compiles = [r["setup_s"] for r in results]
    while len(compiles) < common.SETUP_REPEATS:
        compiles.append(workload.setup())
    for index, result in enumerate(results):
        print(f"round {index}: setup {result['setup_s']:.3f}s "
              f"run {result['run_s']:.3f}s digests {result['digests']}")
    # a sweep's requests are its engine jobs; a job's latency is its median
    # over the run's rounds, so one scheduling hiccup moves no percentile
    by_job: Dict[str, List[float]] = {}
    for result in results:
        for key, seconds in result["jobs"]:
            by_job.setdefault(key, []).append(seconds)
    jobs = [statistics.median(times) for times in by_job.values()]
    finished = sum(len(times) for times in by_job.values())
    print(f"{finished} engine jobs ({len(jobs)} distinct) over "
          f"{len(results)} round(s)")
    return {
        "setup_s": _metric(statistics.median(imports)
                           + statistics.median(compiles), "s"),
        "run_s": _metric(statistics.median(r["run_s"] for r in results),
                         "s"),
        "peak_rss_mb": _metric(common.peak_rss_mb(), "MB"),
        "req_per_s": _metric(finished / sum(r["run_s"] for r in results),
                             "req/s"),
        "req_p50_ms": _metric(statistics.median(jobs) * 1000, "ms"),
        "req_p90_ms": _metric(common.percentile(jobs, 0.9) * 1000, "ms"),
    }


def _traced(workload, seconds: float, trace_path: Path,
            label: str) -> Dict[str, Dict[str, Any]]:
    import tracing
    plain: List[float] = []
    traced: List[Dict[str, float]] = []
    traced_s: List[float] = []
    last = None

    def body(index: int) -> None:
        nonlocal last
        plain.append(workload.round()["run_s"])
        recorder = tracing.Recorder()
        patches = tracing.install(recorder)
        try:
            result = workload.round()
        finally:
            patches.undo()
        traced_s.append(result["run_s"])
        traced.append(tracing.layer_metrics(recorder.summary()))
        last = recorder

    common.rounds(seconds, body)
    overhead = statistics.median(traced_s) / statistics.median(plain) - 1.0
    print(f"trace overhead: traced round {statistics.median(traced_s):.3f}s"
          f" vs untraced {statistics.median(plain):.3f}s "
          f"({overhead * 100:+.1f}%)")
    if last.absent:
        print(f"absent boundaries: {last.absent}")
    last.write_spans(str(trace_path), {
        "workload": label, "overhead": overhead,
        "untraced_run_s": plain, "traced_run_s": traced_s,
        "absent": last.absent})
    return _layer_result(traced)


def _layer_result(per_round: List[Dict[str, float]]
                  ) -> Dict[str, Dict[str, Any]]:
    import tracing
    return {name: _metric(statistics.median(r[name] for r in per_round),
                          unit)
            for name, unit, _better in tracing.LAYER_METRICS}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"error: no program sources under {common.SRC}",
              file=sys.stderr)
        return 2
    common.hermetic_env()
    sys.path.insert(0, str(common.SRC))
    checks = common.Checks()
    work = common.WorkDir(args.workload)
    trace_path = common.STATE / f"trace-{args.workload}-{args.seed}.jsonl"
    try:
        if args.workload == "serve-soak":
            from serve_soak import ServeSoak
            soak = ServeSoak(args.seed, work, checks)
            metrics = (soak.traced(trace_path) if args.trace
                       else soak.untraced(args.seconds))
        else:
            workload = _round_workload(args.workload, args.seed, work,
                                       checks)
            metrics = (_traced(workload, args.seconds, trace_path,
                               args.workload) if args.trace
                       else _untraced(workload, args.seconds))
    finally:
        work.close()
    for what in checks.wrong[:20]:
        print(f"WRONG: {what}")
    print(json.dumps({"correct": checks.correct,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
