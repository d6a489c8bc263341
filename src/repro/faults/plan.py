"""Typed fault catalog and the seed-driven :class:`FaultPlan`.

A *fault* is one way the system can partially fail: a stack word that
rots mid-relocation, a cache artifact whose bytes flip on disk, a worker
job that hangs or dies, a migration request that never arrives.  The
plan assigns each fault kind a rate; the injector (:mod:`.injection`)
turns rates into deterministic per-site decisions so a whole chaos run
replays bit-identically from one ``--fault-seed``.

Every kind is matched by a recovery mechanism in the subsystem it
targets (see DESIGN.md "Fault injection & recovery"):

========================  ==========================  =====================
kind                      hook site                   recovery
========================  ==========================  =====================
``stack.corrupt_word``    migration transform         checkpoint/rollback
``transform.raise``       mid stack transform         checkpoint/rollback
``migration.drop``        migration request           re-queue on source ISA
``cache.flip_byte``       artifact cache ``put``      checksum → quarantine
                                                      → recompute
``job.kill``              engine job execution        retry w/ backoff, then
                                                      quarantine
``job.delay``             engine job execution        per-attempt timeout
                                                      escalation
``decode.flush``          interpreter decode cache    transparent re-decode
``worker.hang``           engine pool dispatch        watchdog kill +
                                                      replace + retry
``orchestrator.kill``     journaled job completion    ``repro resume``
                                                      replays the journal
``request.drop``          serve request dispatch      typed 503 to the
                                                      client, who retries
``server.kill``           serve request completion    journal re-attach on
                                                      restart, recomputed=0
``tenant.flood``          serve client harness        per-tenant quota
                                                      sheds load with 429s
========================  ==========================  =====================

``worker.hang`` is decided in the parent and shipped to the worker as an
instruction to stop heartbeating (so the supervisor's watchdog must
catch it), and ``orchestrator.kill`` SIGKILLs the engine's own process
right after a ``job_done`` record becomes durable — it only ever fires
when a run journal is active, because resume is its recovery.

The ``request.drop`` / ``server.kill`` / ``tenant.flood`` trio targets
the *service* layer (:mod:`repro.serve`): a dropped request surfaces as
a typed retryable rejection, ``server.kill`` SIGKILLs the daemon right
after a ``request_done`` record is durable (the differential client
harness restarts it and must read back identical responses), and
``tenant.flood`` is decided in the *client* harness — one tenant bursts
past its quota and the admission controller must shed exactly the
excess with typed 429s while other tenants proceed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError

#: every fault kind the injector knows how to fire, with its hook site
FAULT_SITES: Dict[str, str] = {
    "stack.corrupt_word": "migration.transform",
    "transform.raise": "stack_transform.pass2",
    "migration.drop": "migration.request",
    "cache.flip_byte": "cache.put",
    "job.kill": "engine.job",
    "job.delay": "engine.job",
    "decode.flush": "interpreter.decode",
    "worker.hang": "engine.worker",
    "orchestrator.kill": "engine.run",
    "request.drop": "serve.dispatch",
    "server.kill": "serve.request_done",
    "tenant.flood": "serve.client",
}

FAULT_KINDS: Tuple[str, ...] = tuple(sorted(FAULT_SITES))

#: rates used by ``default_plan`` — high enough that a 25-iteration
#: chaos run exercises every kind, low enough that most runs complete
DEFAULT_RATES: Dict[str, float] = {
    "stack.corrupt_word": 0.02,
    "transform.raise": 0.02,
    "migration.drop": 0.05,
    "cache.flip_byte": 0.25,
    "job.kill": 0.10,
    "job.delay": 0.10,
    "decode.flush": 0.01,
    "worker.hang": 0.10,
    "orchestrator.kill": 0.05,
    "request.drop": 0.06,
    "server.kill": 0.03,
    "tenant.flood": 0.10,
}


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault — the unit of the reproducible fault log."""

    site: str
    kind: str
    ordinal: int                     # per-(site, key) firing ordinal
    key: str = ""                    # discriminator (job key, cache path…)
    detail: str = ""

    def render(self) -> str:
        extra = f" key={self.key}" if self.key else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.site}#{self.ordinal} {self.kind}{extra}{detail}"


@dataclass(frozen=True)
class FaultPlan:
    """Seed plus per-kind rates; the whole configuration of a chaos run.

    Serializes to a flat ``seed=S;kind=rate;...`` spec string that rides
    in the ``REPRO_FAULTS`` environment variable so engine worker
    processes inherit the exact same plan.
    """

    seed: int
    rates: Dict[str, float] = field(default_factory=dict)
    #: cap on total fires per (site, kind); None = unlimited
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if kind not in FAULT_SITES:
                raise ConfigError(
                    f"unknown fault kind {kind!r}; known: "
                    f"{', '.join(FAULT_KINDS)}")
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate}")

    def rate(self, kind: str) -> float:
        return self.rates.get(kind, 0.0)

    def scaled(self, factor: float) -> "FaultPlan":
        """The same plan with every rate multiplied (and clamped to 1)."""
        return FaultPlan(
            seed=self.seed,
            rates={kind: min(rate * factor, 1.0)
                   for kind, rate in self.rates.items()},
            limit=self.limit)

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(seed=seed, rates=dict(self.rates), limit=self.limit)

    # -- env round-trip --------------------------------------------------
    def to_spec(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        for kind in sorted(self.rates):
            parts.append(f"{kind}={self.rates[kind]!r}")
        return ";".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        seed = 0
        limit: Optional[int] = None
        rates: Dict[str, float] = {}
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigError(f"malformed fault spec chunk {chunk!r}")
            name, _, value = chunk.partition("=")
            if name == "seed":
                seed = int(value)
            elif name == "limit":
                limit = int(value)
            else:
                rates[name] = float(value)
        return cls(seed=seed, rates=rates, limit=limit)


def default_plan(seed: int, rate_scale: float = 1.0,
                 only: Optional[Iterable[str]] = None) -> FaultPlan:
    """The default chaos plan: every fault kind at its catalog rate."""
    kinds: List[str] = list(only) if only is not None else list(FAULT_KINDS)
    rates = {kind: DEFAULT_RATES[kind] for kind in kinds}
    return FaultPlan(seed=seed, rates=rates).scaled(rate_scale)
