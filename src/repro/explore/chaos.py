"""Chaos harness: stall-shaped faults vs. the resilience runtime.

``repro chaos`` drives the differential corpus under seeded-random and
PCT schedules while the fault injector plants stall-shaped faults
(``delayed-release``, ``lost-release``, ``invert-order``). The contract
it enforces is the resilience layer's whole point:

* **recovery enabled** — every run terminates, reports no anomaly, and
  its semantic fingerprint equals the sequential baseline: the watchdog
  detected the stall or deadlock, a victim rolled back and retried (or
  the section degraded to the global lock), and no observer saw a torn
  state;
* **recovery disabled** — the same seeds still reproduce the PR 2
  canaries (``DeadlockError`` / ``LivelockError``), proving the faults
  are real and the harness is not vacuous.

Fault seeding is deliberately asymmetric:

* release kinds fire on ``occurrence=0`` of every ``(section, tid)``
  stream — a release fault is plan-independent, so an every-acquire
  seeding would re-stall each retry forever (the circuit breaker demotes
  *plans*, not releases);
* ``invert-order`` fires on every acquire of thread 0 only — if all
  threads invert, the inverted order is itself a consistent total order
  and never deadlocks.

All resilience events (deadlock-detected, lease-expired, rollback,
retry, degrade-*, restore-*, lock-reclaim, probe) flow through the PR 3
JSONL event schema, tagged with the case that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.events import envelope
from ..runtime.faults import (
    FaultInjector,
    RELEASE_FAULT_KINDS,
    STALL_FAULT_KINDS,
)
from ..runtime.resilience import ResilienceConfig
from ..sim import make_policy
from .diff import semantic_fingerprint, sequential_baseline
from .runner import ExploreTarget, resolve_target, run_schedule

CHAOS_FAULT_KINDS = STALL_FAULT_KINDS
CHAOS_POLICY_NAMES = ("random", "pct")

# the stall must outlive the lease (so the watchdog fires) and, without
# recovery, outlive the livelock window (so the canary fires)
CHAOS_RELEASE_DELAY = 12_000
CHAOS_LIVELOCK_WINDOW = 8_000
CHAOS_LEASE_TICKS = 1_500

# invert-order only deadlocks on schedules that interleave the inverted
# acquirer with a canonical one mid-plan; search this many seeds for the
# no-recovery canary
CANARY_SEED_TRIES = 12

# which corpus program exercises each fault best: release faults stall
# any section (the cheapest program does), invert-order needs a
# multi-node fine-grain plan to interlock
DEFAULT_PROGRAM_FOR_FAULT = {
    "delayed-release": "counter",
    "lost-release": "counter",
    "invert-order": "twocounter",
}


def make_chaos_injector(fault: str,
                        delay: int = CHAOS_RELEASE_DELAY) -> FaultInjector:
    """A terminating seeding of *fault* (see the module docstring)."""
    if fault in RELEASE_FAULT_KINDS:
        return FaultInjector(fault, occurrence=0, delay=delay)
    if fault == "invert-order":
        return FaultInjector(fault, tid=0)
    raise ValueError(
        f"chaos fault must be stall-shaped ({CHAOS_FAULT_KINDS}), "
        f"got {fault!r}"
    )


@dataclass
class ChaosOutcome:
    """One chaos cell: recovery runs + the no-recovery canary search."""

    program: str
    fault: str
    policy: str
    victim_policy: str
    seeds: List[int] = field(default_factory=list)
    recovered_runs: int = 0  # clean terminations with matching fingerprint
    fingerprint_mismatches: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    canary: Optional[str] = None  # violation seen with recovery disabled
    canary_checked: bool = False
    stats: Dict[str, object] = field(default_factory=dict)
    recovery_latencies: List[int] = field(default_factory=list)
    fault_firings: int = 0

    @property
    def ok(self) -> bool:
        if self.violations or self.fingerprint_mismatches:
            return False
        if self.canary_checked and self.canary is None:
            return False
        return True


@dataclass
class ChaosReport:
    threads: int
    ops: int
    outcomes: List[ChaosOutcome] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def describe(self) -> str:
        lines = [f"chaos: threads={self.threads} ops={self.ops} "
                 f"cells={len(self.outcomes)}"]
        for out in self.outcomes:
            status = "OK" if out.ok else "FAIL"
            canary = ("-" if not out.canary_checked
                      else (out.canary or "MISSING").split(":")[0])
            lines.append(
                f"  {out.program:11s} {out.fault:16s} {out.policy:6s} "
                f"victim={out.victim_policy:10s} "
                f"recovered {out.recovered_runs}/{len(out.seeds)} "
                f"canary={canary}: {status}"
            )
            for message in (out.violations + out.fingerprint_mismatches)[:2]:
                lines.append(f"    {message}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "threads": self.threads,
            "ops": self.ops,
            "ok": self.ok,
            "cells": [
                {
                    "program": out.program,
                    "fault": out.fault,
                    "policy": out.policy,
                    "victim_policy": out.victim_policy,
                    "recovered_runs": out.recovered_runs,
                    "runs": len(out.seeds),
                    "violations": len(out.violations),
                    "fingerprint_mismatches": len(out.fingerprint_mismatches),
                    "canary": out.canary,
                    "fault_firings": out.fault_firings,
                    "stats": out.stats,
                }
                for out in self.outcomes
            ],
        }


def _merge_stats(total: Dict[str, object], part: Dict[str, object]) -> None:
    for key, value in part.items():
        if key.startswith("recovery_latency"):
            continue  # recomputed from the raw latency list per cell
        if isinstance(value, (int, float)) and value is not None:
            base = total.get(key, 0) or 0
            total[key] = base + value
        elif key not in total:
            total[key] = value


def chaos_cell(
    target: ExploreTarget,
    fault: str,
    policy: str,
    seeds: Sequence[int],
    threads: int = 3,
    ops: int = 2,
    config: str = "fine+coarse",
    victim_policy: str = "youngest",
    check_canary: bool = True,
    events: Optional[List[Dict[str, object]]] = None,
) -> ChaosOutcome:
    """Run one (program, fault, policy) cell of the chaos matrix."""
    outcome = ChaosOutcome(program=target.name, fault=fault, policy=policy,
                           victim_policy=victim_policy)
    baseline = sequential_baseline(target, threads, ops)

    for seed in seeds:
        outcome.seeds.append(seed)
        injector = make_chaos_injector(fault)
        rconfig = ResilienceConfig(
            lease_ticks=CHAOS_LEASE_TICKS,
            victim_policy=victim_policy,
            jitter_seed=seed,
        )
        record, world = run_schedule(
            target, config, make_policy(policy, seed=seed),
            threads=threads, ops=ops, seed=seed,
            injector=injector, resilience=rconfig,
            livelock_window=CHAOS_LIVELOCK_WINDOW,
        )
        outcome.fault_firings += len(injector.fired)
        runtime = world.resilience
        if runtime is not None:
            _merge_stats(outcome.stats, runtime.stats.to_dict())
            outcome.recovery_latencies.extend(
                runtime.stats.recovery_latencies)
            if events is not None:
                context = {"program": target.name, "fault": fault,
                           "policy": policy, "seed": seed,
                           "victim_policy": victim_policy}
                for event in runtime.events:
                    tagged = dict(context)
                    tagged.update(event)
                    events.append(tagged)
        if record.violations:
            outcome.violations.extend(
                f"[seed {seed}] {violation}"
                for violation in record.violations
            )
            continue
        fingerprint = semantic_fingerprint(world, target, threads, ops)
        if fingerprint != baseline:
            outcome.fingerprint_mismatches.append(
                f"[seed {seed}] final state diverges from sequential "
                f"baseline under {fault}"
            )
        else:
            outcome.recovered_runs += 1

    latencies = outcome.recovery_latencies
    outcome.stats["recovery_latency_mean"] = (
        sum(latencies) / len(latencies) if latencies else None
    )
    outcome.stats["recovery_latency_max"] = (
        max(latencies) if latencies else None
    )

    if check_canary:
        outcome.canary_checked = True
        for seed in range(CANARY_SEED_TRIES):
            injector = make_chaos_injector(fault)
            record, _ = run_schedule(
                target, config, make_policy(policy, seed=seed),
                threads=threads, ops=ops, seed=seed,
                injector=injector, resilience=None,
                livelock_window=CHAOS_LIVELOCK_WINDOW,
            )
            canary = next(
                (v for v in record.violations
                 if v.startswith(("deadlock:", "livelock:"))), None
            )
            if canary is not None:
                outcome.canary = f"[seed {seed}] {canary}"
                if events is not None:
                    events.append(envelope(
                        "canary", program=target.name, fault=fault,
                        policy=policy, seed=seed,
                        kind=canary.split(":")[0],
                    ))
                break
    return outcome


def chaos_suite(
    faults: Sequence[str] = CHAOS_FAULT_KINDS,
    policies: Sequence[str] = CHAOS_POLICY_NAMES,
    program: Optional[str] = None,
    schedules: int = 3,
    seed: int = 0,
    threads: int = 3,
    ops: int = 2,
    victim_policy: str = "youngest",
    check_canary: bool = True,
) -> ChaosReport:
    """The chaos matrix: every fault kind under every schedule policy.

    Each cell runs *schedules* recovery-enabled seeds (all must terminate
    with the sequential fingerprint) and, when *check_canary*, searches
    the recovery-disabled canary. *program* overrides the per-fault
    default corpus program."""
    report = ChaosReport(threads=threads, ops=ops)
    for fault in faults:
        if fault not in CHAOS_FAULT_KINDS:
            raise ValueError(
                f"chaos fault must be one of {CHAOS_FAULT_KINDS}, "
                f"got {fault!r}"
            )
        name = program or DEFAULT_PROGRAM_FOR_FAULT[fault]
        target = resolve_target(name)
        for policy in policies:
            report.outcomes.append(chaos_cell(
                target, fault, policy,
                seeds=range(seed, seed + schedules),
                threads=threads, ops=ops, victim_policy=victim_policy,
                check_canary=check_canary, events=report.events,
            ))
    return report
