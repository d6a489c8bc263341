"""Shared pieces of the three workloads: hermetic state, checks, stats."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: the checkout root (the directory holding ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything a run writes lives under here, and is removed afterwards
#: except the traced runs' span files
STATE = ROOT / ".perfbench"

#: ambient settings that would change what the program does or where it
#: writes; every run starts without them
CLEARED_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_WORKERS", "REPRO_BATCH",
               "REPRO_SUPERVISE", "REPRO_NO_CACHE", "REPRO_JOURNAL",
               "REPRO_CACHE_DIR")

#: how many times set-up is repeated inside one run (median reported)
SETUP_REPEATS = 3


def hermetic_env() -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)


def child_env() -> Dict[str, str]:
    """Environment for program processes the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class WorkDir:
    """A private directory for one run; removed by :meth:`close`."""

    def __init__(self, label: str):
        self.path = STATE / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Checks:
    """Operations attempted, failed (known fault) and wrongly answered."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.wrong.append(what)
        return ok

    def known_fault(self, reproduced: bool, what: str) -> None:
        """An operation hitting a named fault: failed while it reproduces."""
        self.attempted += 1
        if reproduced:
            self.failed += 1
        else:
            print(f"note: known fault no longer reproduces: {what}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program's layers."""
    code = ("import repro.analysis.experiments, repro.runtime.engine, "
            "repro.staticcheck, repro.transpile")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(),
                   cwd=str(ROOT), check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, read from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(payload: Any) -> str:
    """Short content digest of a figure payload (printed, not compared)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recording_engine(workers: int, seen: List[Tuple[str, float]]):
    """An ``ExperimentEngine(workers=N)`` that appends each finished job's
    key and ``JobResult.seconds`` to ``seen`` (the sweeps' requests)."""
    from repro.runtime.engine import ExperimentEngine

    class RecordingEngine(ExperimentEngine):
        def run(self, jobs):
            results = super().run(jobs)
            seen.extend((result.key, result.seconds) for result in results)
            return results

    return RecordingEngine(workers=workers)


def percentile(values: List[float], share: float) -> float:
    """The value ``share`` of the way up the sorted samples."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def rounds(seconds: float, body: Callable[[int], None]) -> int:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - start < seconds:
        body(count)
        count += 1
    return count
