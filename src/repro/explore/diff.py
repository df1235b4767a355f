"""Differential conformance: inferred locks × global lock × TL2 STM.

The paper's claim is behavioural equivalence — a program transformed to
use inferred locks must exhibit exactly the executions the atomic-section
semantics allows. This harness checks a corollary that is decidable per
run: over the commutative corpus (``repro.explore.corpus``), the
*semantic fingerprint* of the final state (observer reads, plus the
canonical heap shape where meaningful) must equal the sequential
baseline on **every** explored schedule of **every** configuration, and
no run may report a race, protection violation, serializability cycle,
deadlock, or livelock.

Concrete heaps are compared through :func:`heap_fingerprint`, which
canonicalizes object identity by BFS discovery order from the globals
block — allocation order differs across configurations (TL2 aborts
re-execute allocations), so raw object ids never agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..bench.harness import build_world_for_source, run_seq
from ..interp import Loc, World
from ..sim import make_policy
from .runner import ExploreTarget, resolve_target, run_schedule

DIFF_CONFIGS = ("fine+coarse", "global", "stm")


def heap_fingerprint(world: World) -> str:
    """Canonical digest of the heap reachable from the globals block.

    Objects are renumbered in BFS discovery order (cells visited in
    sorted-offset order), so two heaps that differ only in allocation
    order — or in unreachable garbage — fingerprint identically.
    """
    root = world.globals.obj
    canon: Dict[int, int] = {root.oid: 0}
    queue = [root]
    shape: List[Tuple] = []
    while queue:
        obj = queue.pop(0)
        cells: List[Tuple] = []
        for off, value in sorted(obj.cells.items(), key=lambda kv: repr(kv[0])):
            if isinstance(value, Loc):
                target = value.obj
                if target.oid not in canon:
                    canon[target.oid] = len(canon)
                    queue.append(target)
                cells.append((repr(off), "ref", canon[target.oid],
                              repr(value.off)))
            else:
                cells.append((repr(off), "val", value))
        shape.append((canon[obj.oid], obj.label or obj.kind, tuple(cells)))
    return hashlib.sha1(repr(shape).encode()).hexdigest()[:16]


def semantic_fingerprint(world: World, target: ExploreTarget,
                         threads: int, ops: int) -> Tuple:
    """Observer results (run sequentially post-run) + optional heap shape."""
    parts: List[object] = []
    if target.observers is not None:
        for func, args in target.observers(threads, ops):
            result = run_seq(world, func, args)
            parts.append("ref" if isinstance(result, Loc) else result)
    if target.heap_fp:
        parts.append(heap_fingerprint(world))
    return tuple(parts)


def sequential_baseline(target: ExploreTarget, threads: int,
                        ops: int) -> Tuple:
    """Fingerprint of a fully sequential run of the same workload (one
    thread's ops after another, on the untransformed program)."""
    world, _ = build_world_for_source(
        target.source, "stm", check=False, setup=target.setup,
    )
    for thread_ops in target.schedule(threads, ops):
        for func, args in thread_ops:
            run_seq(world, func, args)
    return semantic_fingerprint(world, target, threads, ops)


@dataclass
class ConfigOutcome:
    """All explored schedules of one configuration."""

    config: str
    schedules: int = 0
    mismatches: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations


@dataclass
class DiffReport:
    program: str
    policy: str
    threads: int
    ops: int
    baseline: Tuple
    outcomes: List[ConfigOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def describe(self) -> str:
        lines = [f"differential: {self.program} policy={self.policy} "
                 f"threads={self.threads} ops={self.ops}"]
        for outcome in self.outcomes:
            status = "OK" if outcome.ok else "FAIL"
            lines.append(
                f"  {outcome.config:12s} {outcome.schedules} schedules: "
                f"{status} ({len(outcome.mismatches)} mismatches, "
                f"{len(outcome.violations)} violations)"
            )
            for message in (outcome.mismatches + outcome.violations)[:3]:
                lines.append(f"    {message}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "policy": self.policy,
            "threads": self.threads,
            "ops": self.ops,
            "ok": self.ok,
            "configs": {
                outcome.config: {
                    "schedules": outcome.schedules,
                    "mismatches": len(outcome.mismatches),
                    "violations": len(outcome.violations),
                }
                for outcome in self.outcomes
            },
        }


def differential_check(
    name,
    configs: Sequence[str] = DIFF_CONFIGS,
    policy: str = "random",
    seed: int = 0,
    schedules: int = 10,
    threads: int = 4,
    ops: int = 8,
    ncores: int = 2,
    depth: int = 3,
) -> DiffReport:
    """Run *schedules* seeded schedules of each configuration and compare
    every final state against the sequential baseline."""
    target = name if isinstance(name, ExploreTarget) else resolve_target(name)
    baseline = sequential_baseline(target, threads, ops)
    report = DiffReport(program=target.name, policy=policy,
                        threads=threads, ops=ops, baseline=baseline)
    for config in configs:
        outcome = ConfigOutcome(config=config)
        report.outcomes.append(outcome)
        for index in range(schedules):
            sched_policy = make_policy(policy, seed=seed + index, depth=depth)
            record, world = run_schedule(
                target, config, sched_policy, threads=threads, ops=ops,
                ncores=ncores, seed=seed + index,
            )
            outcome.schedules += 1
            for violation in record.violations:
                outcome.violations.append(f"[seed {record.seed}] {violation}")
            if record.violations:
                continue  # final state meaningless after an aborted run
            fingerprint = semantic_fingerprint(world, target, threads, ops)
            if fingerprint != baseline:
                outcome.mismatches.append(
                    f"[seed {record.seed}] final state diverges from "
                    f"sequential baseline"
                )
    return report
