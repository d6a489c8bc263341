#!/usr/bin/env python3
"""Traced ``repro serve``: install the benchmark's wrappers, then serve.

Started by serve_soak.py in place of ``python -m repro serve`` for the
traced pass.  After the SIGTERM drain it adds what only the daemon can
see — the server-side latency of every settled request (the journal's
``request_done.elapsed``) and the number of records its tracer still
holds — then writes the spans and the recorder summary and exits with
the daemon's own exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--journal", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()

    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro import obs
    from repro.runtime import durable
    from repro.serve.server import ServeConfig, run_server

    code = run_server(ServeConfig(journal_dir=Path(args.journal),
                                  host="127.0.0.1", port=0,
                                  cache_root=Path(args.cache_dir)))
    for info in durable.list_runs(args.journal):
        replay = durable.replay_journal(
            durable.journal_path(args.journal, info.run_id), repair=False)
        for record in replay.requests_settled.values():
            if record.get("type") == "request_done":
                recorder.sample("serve.server_ms",
                                record["elapsed"] * 1000.0)
    recorder.add("obs.trace_records", len(obs.get_tracer().records))
    recorder.write_spans(args.spans, {"workload": "serve-soak",
                                      "absent": recorder.absent})
    with open(args.summary, "w") as handle:
        json.dump(recorder.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
