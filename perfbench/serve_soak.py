"""serve-soak: a ``repro serve`` daemon driven closed-loop by two clients.

The daemon is started through the CLI (``python -m repro serve``) with
its own empty journal and cache directories.  One client process (this
one) runs two threads, one per tenant; each waits for every reply
before sending its next request, as every existing caller of the daemon
does.  A thread works through rounds of the same twenty requests in a
seeded order:

=========================================  =====  ===========================
request                                    count  checked against
=========================================  =====  ===========================
``migrate`` httpd                            5    httpd rendering (oracles)
``verify`` mcf/httpd/gobmk/lbm/sphinx3/milc  6    in-process ``run_verifier``
``transpile --tiers static`` mcf, httpd      2    zero errors; lift stats
``experiment`` fig3, fig6, table2 on one     3    in-process figure function
``experiment`` table2 httpd ``seed=5``       1    ``table2_bruteforce(seed=5)``
``compile`` one workload                     1    in-process ``compile_workload``
replay of an earlier settled request id      2    byte-identical, ``resumed``
=========================================  =====  ===========================

The ``seed=5`` table2 request is the one operation counted as failed: the
daemon's experiment runners drop ``params["seed"]`` and answer with seed
0's rows.  It fails every time on inputs that do not depend on
``--seed``, so its share of operations is exactly 1/20 in every run.

Each thread first runs one warm-up round (checked and counted, but not
timed) so that the per-tenant caches hold the experiment rows, as they
do in a long-lived daemon.  Latency and throughput are taken over the
window in which both clients are still sending.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oracles
from common import (Checks, ROOT, SETUP_REPEATS, WorkDir, child_env,
                    process_hwm_mb)

TENANTS = ("acme", "initech")
VERIFY = ("mcf", "httpd", "gobmk", "lbm", "sphinx3", "milc")
TRANSPILE = ("mcf", "httpd")
EXPERIMENTS = ("fig3", "fig6", "table2")
#: the seed-carrying table2 request; fixed, so it fails on every --seed
SEEDED_TABLE2 = {"name": "table2", "benchmarks": ["httpd"], "seed": 5}
MIGRATES = 5
REPLAYS = 2
#: rounds per thread after the warm-up in a traced soak (fixed, so the
#: per-layer counts repeat exactly)
TRACED_ROUNDS = 2
STARTUP_TIMEOUT = 60.0


def _strip_seconds(payload: Any) -> Any:
    """A verify payload without ``passes[].seconds`` (wall-clock)."""
    payload = json.loads(json.dumps(payload))
    for report in payload.get("targets", {}).values():
        for entry in report.get("passes", []):
            entry.pop("seconds", None)
    return payload


class Daemon:
    """One daemon process with its own journal and cache directories."""

    def __init__(self, work: WorkDir,
                 traced_out: Optional[Tuple[Path, Path]] = None):
        self.journal = work.fresh("journal")
        self.cache = work.fresh("serve-cache")
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--host",
                   "127.0.0.1", "--port", "0", "--journal",
                   str(self.journal), "--cache-dir", str(self.cache)]
        else:
            cmd = [sys.executable, str(Path(__file__).parent /
                                       "serve_launcher.py"),
                   "--journal", str(self.journal), "--cache-dir",
                   str(self.cache), "--spans", str(traced_out[0]),
                   "--summary", str(traced_out[1])]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._await_port()
            self._await_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise

    def _await_port(self) -> int:
        line = self.proc.stdout.readline()
        if not line.startswith("repro-serve ready"):
            raise RuntimeError(f"daemon failed to start: {line!r}")
        fields = dict(part.split("=", 1) for part in line.split()
                      if "=" in part)
        return int(fields["port"])

    def _await_ready(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("daemon never answered /readyz")

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120)
        try:
            connection.request(method, path, body=body, headers={
                "Content-Type": "application/json"} if body else {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def submit(self, spec: Dict[str, Any]) -> Tuple[int, bytes]:
        body = {k: v for k, v in spec.items() if k != "replay_of"}
        return self.request("POST", "/v1/requests",
                            json.dumps(body, sort_keys=True).encode())

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (130 after a drain)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


class ServeSoak:
    def __init__(self, seed: int, work: WorkDir, checks: Checks):
        self.seed = seed
        self.work = work
        self.checks = checks
        rng = random.Random(f"serve-soak:{seed}")
        from repro.workloads import WORKLOADS
        self.experiment_bench = rng.choice(sorted(WORKLOADS))
        self.compile_names = sorted(WORKLOADS)
        self.expected: Dict[str, Any] = {}

    # -- the mix ---------------------------------------------------------
    def round_specs(self, thread: int, index: int) -> List[Dict[str, Any]]:
        """One thread's round: twenty requests in a seeded order."""
        rng = random.Random(f"serve-soak:{self.seed}:{thread}:{index}")
        tenant = TENANTS[thread]
        work: List[Dict[str, Any]] = []
        # migrate runs at the daemon's default seed: some other seeds give
        # a wrong exit code (see CHANGES.md), which would make failures
        # depend on --seed
        work += [{"kind": "migrate", "params": {"workload": "httpd"}}
                 for _ in range(MIGRATES)]
        work += [{"kind": "verify", "params": {"workload": name}}
                 for name in VERIFY]
        work += [{"kind": "transpile", "params": {
            "workload": name, "tiers": ["static"]}} for name in TRANSPILE]
        work += [{"kind": "experiment", "params": {
            "name": name, "benchmarks": [self.experiment_bench]}}
            for name in EXPERIMENTS]
        work.append({"kind": "experiment", "params": dict(SEEDED_TABLE2)})
        work.append({"kind": "compile", "params": {
            "workload": rng.choice(self.compile_names)}})
        rng.shuffle(work)
        prefix = f"{tenant}-{index}"
        for position, spec in enumerate(work):
            spec["tenant"] = tenant
            spec["request_id"] = f"{prefix}-{position}"
            spec["schema"] = 1
        # replays go after an earlier, already-settled request
        candidates = [i for i, spec in enumerate(work)
                      if spec["params"] != SEEDED_TABLE2]
        for _ in range(REPLAYS):
            target = rng.choice(candidates[:-1])
            at = rng.randrange(target + 1, len(work) + 1)
            work.insert(at, {"replay_of": work[target]["request_id"],
                             **work[target]})
            candidates = [i if i < at else i + 1 for i in candidates]
        return work

    def prepare_expected(self) -> None:
        """In-process library answers, computed outside any timed window."""
        from repro.analysis import experiments as ex
        from repro.runtime.cache import configure_cache, digest
        from repro.staticcheck import run_verifier
        from repro.transpile import transpile_binary
        from repro.workloads import WORKLOADS, compile_workload
        configure_cache(root=self.work.fresh("reference-cache"))

        def rows(items, extra=None):
            out = []
            for row in items:
                item = dataclasses.asdict(row)
                item.update(extra(row) if extra else {})
                out.append(item)
            return json.loads(json.dumps({"rows": out}))

        bench = (self.experiment_bench,)
        self.expected["fig3"] = rows(
            ex.fig3_classic_rop(bench),
            lambda r: {"obfuscated_fraction": r.obfuscated_fraction})
        self.expected["fig6"] = rows(ex.fig6_migration_safety(bench))
        self.expected["table2"] = rows(ex.table2_bruteforce(bench))
        self.expected["table2-seeded"] = rows(ex.table2_bruteforce(
            ("httpd",), seed=SEEDED_TABLE2["seed"]))
        for name in VERIFY:
            report = run_verifier(compile_workload(name))
            target = dict(report.as_dict(), ok=report.ok)
            self.expected[f"verify:{name}"] = _strip_seconds(
                {"ok": report.ok, "targets": {name: target}})
        for name in TRANSPILE:
            self.expected[f"lift:{name}"] = json.loads(json.dumps(
                transpile_binary(compile_workload(name)).lift_stats))
        for name in self.compile_names:
            binary = compile_workload(name)
            self.expected[f"compile:{name}"] = {"workload": name, "sections": {
                isa: {"bytes": len(binary.sections[isa].data),
                      "symbols": len(binary.sections[isa].symbols),
                      "digest": digest("section", isa,
                                       bytes(binary.sections[isa].data))}
                for isa in binary.isa_names}}
        self.expected["httpd"] = oracles.httpd(
            WORKLOADS["httpd"].default_work, WORKLOADS["httpd"].stdin)

    # -- checking one response -------------------------------------------
    def check(self, spec: Dict[str, Any], status: int, raw: bytes,
              first: Dict[str, bytes]) -> None:
        what = f"{spec['request_id']} {spec['kind']} {spec['params']}"
        try:
            body = json.loads(raw)
        except ValueError:
            self.checks.check(False, f"{what}: unreadable reply {raw[:80]!r}")
            return
        if "replay_of" in spec:
            original = first.get(spec["request_id"], b"")
            self.checks.check(
                status == 200 and body.get("resumed") is True
                and raw == original.replace(b'"resumed": false',
                                            b'"resumed": true'),
                f"{what}: replay differs from the first response")
            return
        first[spec["request_id"]] = raw
        if status != 200 or body.get("status") != "ok":
            self.checks.check(False, f"{what}: HTTP {status} {body}")
            return
        payload = body["payload"]
        kind, params = spec["kind"], spec["params"]
        if params == SEEDED_TABLE2:
            self.checks.known_fault(
                payload != self.expected["table2-seeded"],
                "serve experiment runners drop params['seed']")
            return
        if kind == "migrate":
            ok = (payload["exit_code"] == self.expected["httpd"]
                  and payload["migrations"] > 0)
        elif kind == "verify":
            ok = _strip_seconds(payload) == \
                self.expected[f"verify:{params['workload']}"]
        elif kind == "transpile":
            target = payload["targets"][params["workload"]]
            ok = (payload["ok"] and not [
                f for f in target["static"]["findings"]
                if f["severity"] == "error"]
                and target["lift_stats"]
                == self.expected[f"lift:{params['workload']}"])
        elif kind == "experiment":
            ok = payload == self.expected[params["name"]]
        else:
            ok = payload == self.expected[f"compile:{params['workload']}"]
        self.checks.check(ok, f"{what}: got {json.dumps(payload)[:200]}")

    # -- driving the daemon ---------------------------------------------
    def _client(self, daemon: Daemon, thread: int, timed_rounds,
                barrier: threading.Barrier, samples: List,
                round_times: List, ends: List, errors: List) -> None:
        try:
            first: Dict[str, bytes] = {}
            for spec in self.round_specs(thread, 0):
                status, raw = daemon.submit(spec)
                self.check(spec, status, raw, first)
            barrier.wait()
            start = time.perf_counter()
            index = 1
            while timed_rounds(index, start):
                began = time.perf_counter()
                for spec in self.round_specs(thread, index):
                    sent = time.perf_counter()
                    status, raw = daemon.submit(spec)
                    done = time.perf_counter()
                    samples.append((done, done - sent, spec["kind"]))
                    self.check(spec, status, raw, first)
                round_times.append((time.perf_counter(),
                                    time.perf_counter() - began))
                index += 1
            ends.append(time.perf_counter())
        except BaseException as exc:       # reported by the caller
            errors.append(exc)
            barrier.abort()
            raise

    def soak(self, daemon: Daemon, timed_rounds,
             min_samples: int = 0) -> Dict[str, float]:
        barrier = threading.Barrier(len(TENANTS) + 1)
        samples: List[Tuple[float, float, str]] = []
        round_times: List[Tuple[float, float]] = []
        ends: List[float] = []
        errors: List[BaseException] = []
        threads = [threading.Thread(
            target=self._client, args=(daemon, thread, timed_rounds,
                                       barrier, samples, round_times, ends,
                                       errors))
            for thread in range(len(TENANTS))]
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        window_start = time.perf_counter()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(f"client failed: {errors[0]!r}")
        window_end = min(ends)
        inside = sorted(latency for done, latency, _ in samples
                        if done <= window_end)
        if len(inside) < min_samples:
            raise RuntimeError(f"only {len(inside)} requests in the window")
        p90_index = int(0.9 * len(inside))
        print(f"soak: {len(samples)} timed requests, {len(inside)} with "
              f"both clients active, {len(inside) - p90_index - 1} "
              f"beyond p90")
        by_kind: Dict[str, List[float]] = {}
        for done, latency, kind in samples:
            if done <= window_end:
                by_kind.setdefault(kind, []).append(latency * 1000)
        print("latency ms by kind (n, p50): " + ", ".join(
            f"{kind} ({len(v)}, {statistics.median(v):.1f})"
            for kind, v in sorted(by_kind.items())))
        whole = [took for done, took in round_times if done <= window_end]
        return {
            "run_s": statistics.median(
                whole or [took for _, took in round_times]),
            "req_per_s": len(inside) / (window_end - window_start),
            "req_p50_ms": statistics.median(inside) * 1000,
            "req_p90_ms": inside[p90_index] * 1000,
        }

    def _setup_once(self, traced_out: Optional[Tuple[Path, Path]] = None
                    ) -> Tuple[Daemon, float]:
        """Spawn until /readyz, then compile every workload in the mix."""
        daemon = Daemon(self.work, traced_out)
        for name in self.compile_names:
            status, _raw = daemon.submit({
                "schema": 1, "kind": "compile", "tenant": TENANTS[0],
                "params": {"workload": name},
                "request_id": f"setup-compile-{name}"})
            if status != 200:
                daemon.stop()
                raise RuntimeError(f"setup compile of {name}: {status}")
        return daemon, time.perf_counter() - daemon.started

    def untraced(self, seconds: float) -> Dict[str, Dict[str, Any]]:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            daemon, elapsed = self._setup_once()
            setups.append(elapsed)
            daemon.stop()
        daemon, elapsed = self._setup_once()
        setups.append(elapsed)
        try:
            self.prepare_expected()
            # at least ten latencies beyond p90 need a hundred samples,
            # which three rounds per client always give
            metrics = self.soak(daemon, lambda index, start: index <= 3
                                or time.perf_counter() - start < seconds,
                                min_samples=100)
            peak = process_hwm_mb(daemon.proc.pid)
        finally:
            code = daemon.stop()
        if code not in (0, 130):
            raise RuntimeError(f"daemon exited {code}")
        out = {name: {"value": value, "unit": unit} for name, value, unit in (
            ("run_s", metrics["run_s"], "s"),
            ("req_per_s", metrics["req_per_s"], "req/s"),
            ("req_p50_ms", metrics["req_p50_ms"], "ms"),
            ("req_p90_ms", metrics["req_p90_ms"], "ms"))}
        out["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        out["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        return out

    def traced(self, trace_path: Path) -> Dict[str, Dict[str, Any]]:
        """The same fixed soak untraced, then under the traced launcher."""
        import tracing
        self.prepare_expected()
        fixed = (lambda index, start: index <= TRACED_ROUNDS)
        results = []
        summary_path = self.work.path / "launcher-summary.json"
        for traced_out in (None, (trace_path, summary_path)):
            daemon, _elapsed = self._setup_once(traced_out)
            try:
                results.append(self.soak(daemon, fixed))
            finally:
                daemon.stop()
        overhead = results[0]["req_per_s"] / results[1]["req_per_s"] - 1.0
        print(f"trace overhead: {results[1]['req_per_s']:.2f} req/s traced "
              f"vs {results[0]['req_per_s']:.2f} untraced "
              f"({overhead * 100:+.1f}% time per request)")
        summary = json.loads(summary_path.read_text())
        if summary["absent"]:
            print(f"absent boundaries: {summary['absent']}")
        return {name: {"value": value, "unit": unit}
                for (name, unit, _better), value in zip(
                    tracing.LAYER_METRICS,
                    tracing.layer_metrics(summary).values())}
