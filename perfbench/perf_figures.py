"""perf-figures: the measured-performance figures on a serial engine.

One round compiles the two minis into a fresh, empty artifact cache
(set-up) and then calls the figure functions directly with the
benchmark's seed (the timed part).  The figures are split over the two
minis so that one round covers every knob the paper's performance
section turns — PSR levels (fig9), RAT sizes (fig11), forced migrations
(fig12), code-cache sizes (fig13) and Isomeron (fig14) — in 15 to 23
seconds on the 2-core reference host:

=======  ==========  ==========================================
figure   benchmark   parameters
=======  ==========  ==========================================
fig9     mcf         O1, O2, O3 against native
fig11    gobmk       RAT sizes 32 and 2048
fig12    mcf         one forced-migration checkpoint
fig13    gobmk       code caches of 2 KiB and 768 KiB
fig14    gobmk       diversification probability 0.5
=======  ==========  ==========================================

mcf chases pointers through a larger data footprint; gobmk is the
call-dense one (recursion plus function-pointer dispatch).  Every
measured run goes through the per-step interpreter loop with a timing
model attached, which is where this workload spends its time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict

from common import Checks, WorkDir, digest, recording_engine

BENCHMARKS = ("mcf", "gobmk")


class PerfFigures:
    def __init__(self, seed: int, work: WorkDir, checks: Checks):
        self.seed = seed
        self.work = work
        self.checks = checks
        self.jobs: list = []
        self.engine = recording_engine(1, self.jobs)

    def setup(self) -> float:
        """Fresh empty cache, then compile the minis into it."""
        from repro.analysis.experiments import PERF_WORK
        from repro.runtime.cache import configure_cache
        from repro.workloads import clear_compile_cache, compile_workload
        configure_cache(root=self.work.fresh("cache"))
        clear_compile_cache()
        start = time.perf_counter()
        for name in BENCHMARKS:
            compile_workload(name, PERF_WORK[name])
        return time.perf_counter() - start

    def timed(self) -> Dict[str, Any]:
        from repro.analysis import experiments as ex
        seed, engine = self.seed, self.engine
        return {
            "fig9": ex.fig9_opt_levels(("mcf",), seed=seed, engine=engine),
            "fig11": ex.fig11_rat_sizes(("gobmk",), seed=seed,
                                        sizes=(32, 2048), engine=engine),
            "fig12": ex.fig12_migration_overhead(("mcf",), seed=seed,
                                                 checkpoints=1,
                                                 engine=engine),
            "fig13": ex.fig13_code_cache(("gobmk",), seed=seed,
                                         sizes=(2048, 786432),
                                         engine=engine),
            "fig14": ex.fig14_isomeron_comparison(("gobmk",),
                                                  probabilities=(0.5,),
                                                  seed=seed, engine=engine),
        }

    def check(self, figures: Dict[str, Any]) -> Dict[str, str]:
        """The per-row properties ``benchmarks/test_fig*.py`` assert."""
        check = self.checks.check
        for row in figures["fig9"]:
            for level in ("O1", "O2", "O3"):
                value = row.relative[level]
                check(0.2 < value <= 1.2,
                      f"fig9 {row.benchmark} {level} relative {value}")
        for row in figures["fig11"]:
            check(row.overhead[2048] < 0.02,
                  f"fig11 {row.benchmark} RAT 2048 overhead "
                  f"{row.overhead[2048]}")
            check(row.overhead[32] < 0.25,
                  f"fig11 {row.benchmark} RAT 32 overhead "
                  f"{row.overhead[32]}")
        for row in figures["fig12"]:
            check(row.migrations > 0
                  and (0 < row.arm_to_x86_micros < 2000
                       or row.arm_to_x86_micros == 0)
                  and row.x86_to_arm_micros < 2000,
                  f"fig12 {row.benchmark} {row}")
        for row in figures["fig13"]:
            largest = row.by_size[max(row.by_size)]
            smallest = row.by_size[min(row.by_size)]
            check(largest["capacity_misses"] == 0,
                  f"fig13 {row.benchmark} misses at the largest cache")
            check(smallest["capacity_misses"] >= largest["capacity_misses"]
                  and smallest["security_events"]
                  >= largest["security_events"],
                  f"fig13 {row.benchmark} smallest vs largest cache")
        for row in figures["fig14"]:
            check(row.relative["hipstr-2m"] > row.relative["isomeron"],
                  f"fig14 p={row.probability} hipstr-2m vs isomeron "
                  f"{row.relative}")
            check(row.relative["hipstr-2m"] > row.relative["psr+isomeron"],
                  f"fig14 p={row.probability} hipstr-2m vs psr+isomeron "
                  f"{row.relative}")
        return {name: digest([dataclasses.asdict(row) for row in rows])
                for name, rows in figures.items()}

    def round(self) -> Dict[str, Any]:
        setup_s = self.setup()
        del self.jobs[:]
        start = time.perf_counter()
        figures = self.timed()
        run_s = time.perf_counter() - start
        return {"setup_s": setup_s, "run_s": run_s,
                "jobs": list(self.jobs),
                "digests": self.check(figures)}
