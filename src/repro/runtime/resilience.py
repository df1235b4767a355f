"""Runtime resilience: deadlock watchdog, abort-and-rollback, degradation.

The paper's deadlock-freedom theorem holds only while every ``acquireAll``
follows the canonical-order protocol.  The fault injector
(:mod:`repro.runtime.faults`) and the schedule explorer exist precisely to
violate it, and a production-scale runtime must *survive* those violations
the way an STM survives conflicts: detect, abort a victim, roll its heap
writes back, and retry — degrading to a single global lock when a section
keeps misbehaving.  Three cooperating pieces live here:

* the **watchdog** (:meth:`ResilienceRuntime.on_tick`, installed as the
  scheduler's per-tick hook) maintains the waits-for graph from the
  :class:`~repro.runtime.manager.LockManager` holder/waiter state.  A cycle
  is a deadlock: a victim chosen by the pluggable
  :class:`VictimPolicy` (youngest section / least work, mirroring
  ``sim.policy``) is aborted.  A holder whose section has outlived its
  *lease* is aborted the same way, and locks still held by a thread with
  no open section (a lost release) are reclaimed outright;

* **abort-and-rollback recovery**: the interpreter records an undo log
  (first write per cell, like the TL2 write set in reverse) for every open
  atomic section.  Aborting a victim applies the undo log, publishes the
  thread's vector clock to the nodes it held (the grant order really does
  order the next holder after it), releases everything via
  ``release_all``, and the victim retries after exponential backoff with
  deterministic jitter.  Rollback happens *before* the locks are handed
  to anyone else, so no other thread ever observes an aborted write —
  weak atomicity is preserved (see SEMANTICS.md);

* the **circuit breaker**: after ``section_abort_threshold`` aborts of one
  section within ``breaker_window`` ticks the section is demoted to the
  single global lock (its plan becomes ``[(ROOT, X)]`` — still first in
  canonical order, conflicting with everything, hence trivially safe and
  deadlock-free).  After ``cooldown`` ticks the breaker half-opens: one
  probe acquisition runs with the inferred locks again, and a clean
  section completion closes the breaker.  Crossing
  ``global_abort_threshold`` total aborts demotes the *whole run* the
  same way.

Every decision is emitted as a JSONL-ready event dict (the PR 3 executor
schema: an ``event`` kind plus payload) so ``repro chaos`` / ``repro
explore`` can surface recovery behavior.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..memory import Loc
from ..obs.events import envelope
from ..obs.trace import get_tracer
from .manager import LockManager, ROOT
from .modes import X, compatible

VICTIM_POLICY_NAMES = ("youngest", "least-work")


class SectionAbort(Exception):
    """The open atomic section of this thread was aborted by the watchdog
    (deadlock victim, lease expiry); roll back and retry."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class ResilienceConfig:
    """Knobs for the resilience runtime (CLI: ``repro chaos`` flags)."""

    watchdog_interval: int = 64  # ticks between waits-for scans
    lease_ticks: int = 1500  # max ticks a section may stay open
    victim_policy: str = "youngest"
    backoff_base: int = 8  # ticks; doubles per attempt
    backoff_cap: int = 256
    jitter_seed: int = 0
    section_abort_threshold: int = 3  # aborts within window -> demote section
    global_abort_threshold: int = 12  # total aborts within window -> demote run
    breaker_window: int = 20_000  # ticks
    cooldown: int = 4_000  # ticks degraded before half-open probing
    start_degraded: bool = False  # begin in global-lock mode (benchmarks)


@dataclass
class ResilienceStats:
    aborts: int = 0
    deadlocks_detected: int = 0
    leases_expired: int = 0
    reclaims: int = 0
    rollback_cells: int = 0
    section_degradations: int = 0
    global_degradations: int = 0
    restores: int = 0
    recoveries: int = 0  # sections that completed after >= 1 abort
    recovery_latencies: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        latencies = self.recovery_latencies
        return {
            "aborts": self.aborts,
            "deadlocks_detected": self.deadlocks_detected,
            "leases_expired": self.leases_expired,
            "reclaims": self.reclaims,
            "rollback_cells": self.rollback_cells,
            "section_degradations": self.section_degradations,
            "global_degradations": self.global_degradations,
            "restores": self.restores,
            "recoveries": self.recoveries,
            "recovery_latency_mean": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "recovery_latency_max": max(latencies) if latencies else None,
        }


# ---------------------------------------------------------------------------
# victim selection (pluggable, mirroring sim.policy)
# ---------------------------------------------------------------------------


class VictimPolicy:
    """Chooses which thread of a deadlock cycle aborts."""

    name = "victim-policy"

    def choose(self, candidates: List[int],
               sections: Dict[int, "SectionState"]) -> int:
        raise NotImplementedError


class YoungestPolicy(VictimPolicy):
    """Abort the most recently started section (least progress lost);
    database-style 'youngest transaction dies'. Ties break on tid."""

    name = "youngest"

    def choose(self, candidates, sections):
        def key(tid: int):
            state = sections.get(tid)
            start = state.start_tick if state is not None else -1
            return (start, tid)

        return max(candidates, key=key)


class LeastWorkPolicy(VictimPolicy):
    """Abort the thread with the smallest undo log (cheapest rollback);
    ties break on youngest, then tid."""

    name = "least-work"

    def choose(self, candidates, sections):
        def key(tid: int):
            state = sections.get(tid)
            undo = len(state.undo) if state is not None else 0
            start = state.start_tick if state is not None else -1
            return (-undo, start, tid)

        return max(candidates, key=key)


def make_victim_policy(name: str) -> VictimPolicy:
    if name == "youngest":
        return YoungestPolicy()
    if name == "least-work":
        return LeastWorkPolicy()
    raise ValueError(f"unknown victim policy {name!r}; "
                     f"choose from {VICTIM_POLICY_NAMES}")


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"


class _Breaker:
    """One breaker: closed -> open after N aborts in a window -> half-open
    probe after cooldown -> closed on a clean completion."""

    __slots__ = ("threshold", "window", "cooldown", "state", "abort_ticks",
                 "opened_at", "probing")

    def __init__(self, threshold: int, window: int, cooldown: int) -> None:
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.state = _CLOSED
        self.abort_ticks: List[int] = []
        self.opened_at = 0
        self.probing = False

    def record_abort(self, now: int) -> bool:
        """Record one abort; True when this abort trips the breaker open."""
        if self.state == _HALF_OPEN:
            # the probe failed: re-open and restart the cooldown
            self.state = _OPEN
            self.opened_at = now
            self.probing = False
            return True
        self.abort_ticks = [t for t in self.abort_ticks
                            if now - t < self.window]
        self.abort_ticks.append(now)
        if self.state == _CLOSED and len(self.abort_ticks) >= self.threshold:
            self.state = _OPEN
            self.opened_at = now
            return True
        return False

    def degraded(self, now: int) -> bool:
        """Is the guarded plan demoted right now? Transitions open ->
        half-open once the cooldown elapses (the next plan is a probe)."""
        if self.state == _CLOSED:
            return False
        if self.state == _OPEN and now - self.opened_at >= self.cooldown:
            self.state = _HALF_OPEN
            self.probing = True
            return False  # this acquisition probes the inferred locks
        return self.state == _OPEN

    def record_success(self) -> bool:
        """A guarded section completed; True when a probe closed the
        breaker."""
        if self.state == _HALF_OPEN:
            self.state = _CLOSED
            self.abort_ticks = []
            self.probing = False
            return True
        return False

    def force_open(self, now: int) -> None:
        self.state = _OPEN
        self.opened_at = now
        self.cooldown = 1 << 62  # effectively forever


# ---------------------------------------------------------------------------
# per-thread section state
# ---------------------------------------------------------------------------


_MISSING = object()  # cell had no prior value (never happens today; guarded)


class SectionState:
    """One thread's open atomic section: undo log and abort accounting."""

    __slots__ = ("section_id", "start_tick", "attempts", "undo",
                 "first_detect_tick", "rolled_back", "released")

    def __init__(self, section_id: str, start_tick: int) -> None:
        self.section_id = section_id
        self.start_tick = start_tick
        self.attempts = 0
        self.undo: Dict[object, Tuple[Loc, object]] = {}
        self.first_detect_tick: Optional[int] = None
        self.rolled_back = False
        self.released = False


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------


class ResilienceRuntime:
    """Watchdog + recovery + degradation over one :class:`LockManager`.

    Install :meth:`on_tick` as the scheduler's watchdog hook; the
    interpreter calls the ``section_*`` / ``record_write`` /
    ``abort_pending`` hooks from the locks-mode execution path.
    """

    def __init__(self, config: ResilienceConfig,
                 manager: LockManager) -> None:
        self.config = config
        self.manager = manager
        self.policy = make_victim_policy(config.victim_policy)
        self.stats = ResilienceStats()
        self.events: List[Dict[str, object]] = []
        self.now = 0
        self.race = None  # set by World: race detector for clock publishing
        self.auditor = None  # set by World: aborted instances are discarded
        self.sections: Dict[int, SectionState] = {}
        self._pending_abort: Dict[int, str] = {}
        self._instances: Dict[int, int] = {}  # tid -> auditor instance id
        self._section_breakers: Dict[str, _Breaker] = {}
        self._global_breaker = _Breaker(
            config.global_abort_threshold, config.breaker_window,
            config.cooldown,
        )
        if config.start_degraded:
            self._global_breaker.force_open(0)
            self.stats.global_degradations += 1
            self._emit("degrade-global", reason="start-degraded")

    # -- events ---------------------------------------------------------------

    def _emit(self, event: str, **payload: object) -> None:
        record = envelope(event, tick=self.now, **payload)
        self.events.append(record)
        tracer = get_tracer()
        if tracer.enabled:
            # the same dict rides in both streams: a consumer tagging the
            # runtime's copy (repro chaos adds program/fault/seed) tags
            # the traced copy too, which is what correlation wants
            tracer.event(record)
            tracer.tick_instant(0, event, cat="resilience", **payload)

    # -- interpreter hooks ----------------------------------------------------

    def section_enter(self, tid: int, section_id: str) -> None:
        """Outermost acquireAll is starting (also called on each retry)."""
        state = self.sections.get(tid)
        if state is None or state.section_id != section_id:
            self.sections[tid] = SectionState(section_id, self.now)
        else:
            # retry of the same section: keep attempt/latency accounting
            state.start_tick = self.now
            state.undo.clear()
            state.rolled_back = False
            state.released = False

    def bind_instance(self, tid: int, instance: Optional[int]) -> None:
        """Associate the auditor instance opened for this attempt."""
        if instance is not None:
            self._instances[tid] = instance
        else:
            self._instances.pop(tid, None)

    def record_write(self, tid: int, loc: Loc) -> None:
        """Log the pre-image of the first write to each cell."""
        state = self.sections.get(tid)
        if state is None or loc.key in state.undo:
            return
        old = loc.obj.cells.get(loc.off, _MISSING)
        state.undo[loc.key] = (loc, old)

    def section_committed(self, tid: int) -> None:
        """Outermost releaseAll finished: the section's writes are final."""
        state = self.sections.pop(tid, None)
        self._pending_abort.pop(tid, None)
        self._instances.pop(tid, None)
        if state is None:
            return
        section_id = state.section_id
        if state.attempts > 0:
            self.stats.recoveries += 1
            if state.first_detect_tick is not None:
                self.stats.recovery_latencies.append(
                    self.now - state.first_detect_tick
                )
            self._emit("recovered", tid=tid, section=section_id,
                       attempts=state.attempts)
        breaker = self._section_breakers.get(section_id)
        if breaker is not None and breaker.record_success():
            self.stats.restores += 1
            self._emit("restore-section", section=section_id)
        if self._global_breaker.record_success():
            self.stats.restores += 1
            self._emit("restore-global")

    # -- abort plumbing -------------------------------------------------------

    def abort_pending(self, tid: int) -> bool:
        return tid in self._pending_abort

    def abort_reason(self, tid: int) -> str:
        return self._pending_abort.get(tid, "aborted")

    def request_abort(self, tid: int, reason: str) -> None:
        if tid not in self._pending_abort:
            self._pending_abort[tid] = reason
            state = self.sections.get(tid)
            if state is not None and state.first_detect_tick is None:
                state.first_detect_tick = self.now

    def _rollback(self, state: SectionState) -> int:
        """Apply the undo log (idempotent)."""
        if state.rolled_back:
            return 0
        cells = 0
        for loc, old in state.undo.values():
            if old is _MISSING:
                loc.obj.cells.pop(loc.off, None)
            else:
                loc.obj.cells[loc.off] = old
            cells += 1
        state.undo.clear()
        state.rolled_back = True
        self.stats.rollback_cells += cells
        return cells

    def _scrub_auditor(self, tid: int) -> None:
        instance = self._instances.pop(tid, None)
        if instance is not None and self.auditor is not None:
            discard = getattr(self.auditor, "discard_instance", None)
            if discard is not None:
                discard(instance)

    def _release_locks(self, tid: int) -> None:
        """Publish the thread's clock to its held nodes, then release.

        Publishing mirrors what the lock grant really enforces: the next
        holder of each node is ordered after the victim, so the race
        detector must see that edge or it would report false races
        against rolled-back state."""
        held = tuple(self.manager.held_names(tid))
        if held and self.race is not None:
            self.race.on_release(tid, held)
        self.manager.release_all(tid)

    def abort_thread(self, tid: int, reason: str) -> None:
        """Victimize *tid* right now: roll back, release, flag the thread.

        Safe to call from the watchdog while the victim is mid-section:
        the undo log is applied and the locks revoked *before* any other
        thread can acquire them, and the victim raises
        :class:`SectionAbort` at its next shared access, lock wait, or
        release."""
        self.request_abort(tid, reason)
        state = self.sections.get(tid)
        if state is not None:
            cells = self._rollback(state)
            state.released = True
            if cells:
                self._emit("rollback", tid=tid, section=state.section_id,
                           cells=cells)
        self._scrub_auditor(tid)
        self._release_locks(tid)

    def recover(self, tid: int, reason: str) -> int:
        """Victim-side recovery (called from the interpreter's retry loop
        after :class:`SectionAbort`); returns the backoff ticks to sleep.

        Everything here is idempotent with :meth:`abort_thread`, which may
        already have rolled back and released on the watchdog side."""
        self._pending_abort.pop(tid, None)
        state = self.sections.get(tid)
        self.stats.aborts += 1
        section_id = state.section_id if state is not None else "?"
        attempts = 1
        if state is not None:
            cells = self._rollback(state)
            if cells:
                self._emit("rollback", tid=tid, section=section_id,
                           cells=cells)
            state.attempts += 1
            attempts = state.attempts
        self._scrub_auditor(tid)
        self._release_locks(tid)
        self._record_breaker_abort(section_id)
        backoff = self.backoff_ticks(tid, attempts)
        self._emit("retry", tid=tid, section=section_id, attempts=attempts,
                   backoff=backoff, reason=reason)
        return backoff

    def _record_breaker_abort(self, section_id: str) -> None:
        config = self.config
        breaker = self._section_breakers.get(section_id)
        if breaker is None:
            breaker = _Breaker(config.section_abort_threshold,
                               config.breaker_window, config.cooldown)
            self._section_breakers[section_id] = breaker
        if breaker.record_abort(self.now):
            self.stats.section_degradations += 1
            self._emit("degrade-section", section=section_id,
                       cooldown=breaker.cooldown)
        if self._global_breaker.record_abort(self.now):
            self.stats.global_degradations += 1
            self._emit("degrade-global", cooldown=self._global_breaker.cooldown)

    def backoff_ticks(self, tid: int, attempts: int) -> int:
        """Exponential backoff with deterministic jitter (seeded per
        (thread, attempt) so chaos runs replay exactly)."""
        config = self.config
        base = min(config.backoff_base << min(attempts - 1, 8),
                   config.backoff_cap)
        # crc32, not hash(): stable across processes (no PYTHONHASHSEED)
        digest = zlib.crc32(
            repr((config.jitter_seed, tid, attempts)).encode()
        )
        return max(1, base + digest % (base // 2 + 1))

    # -- degradation ----------------------------------------------------------

    def plan_for(self, tid: int, section_id: str,
                 plan: List[Tuple[object, str]]) -> List[Tuple[object, str]]:
        """Demote the request plan to the single global lock when the
        section (or the whole run) is degraded."""
        if not plan:
            return plan
        if self._global_breaker.degraded(self.now):
            return [(ROOT, X)]
        breaker = self._section_breakers.get(section_id)
        if breaker is not None:
            if breaker.degraded(self.now):
                return [(ROOT, X)]
            if breaker.probing:
                self._emit("probe", section=section_id, tid=tid)
        return plan

    # -- the watchdog ---------------------------------------------------------

    def on_tick(self, scheduler) -> None:
        """Scheduler hook: run the waits-for / lease scan every
        ``watchdog_interval`` ticks, and always when every unfinished
        thread is blocked (the scheduler calls again right before it
        would raise DeadlockError)."""
        self.now = scheduler.stats.ticks
        all_blocked = any(t.state == "blocked" for t in scheduler.threads) \
            and not any(t.state == "runnable" for t in scheduler.threads)
        if self.now % self.config.watchdog_interval and not all_blocked:
            return
        self._scan()

    def _scan(self) -> None:
        self._reclaim_leaked()
        cycle = self._find_cycle()
        if cycle:
            self.stats.deadlocks_detected += 1
            victim = self.policy.choose(cycle, self.sections)
            self._emit("deadlock-detected", cycle=sorted(cycle),
                       victim=victim)
            self.abort_thread(victim, "deadlock victim")
            return
        self._check_leases()

    def _reclaim_leaked(self) -> None:
        """Locks held by a thread with no open section were leaked by a
        lost release; the section committed, so reclaiming is safe."""
        for tid in list(self.manager.held.keys()):
            if self.manager.held.get(tid) and tid not in self.sections:
                names = [node.name for node in self.manager.held[tid]]
                self.stats.reclaims += 1
                self._emit("lock-reclaim", tid=tid, nodes=len(names))
                self._release_locks(tid)

    def _check_leases(self) -> None:
        lease = self.config.lease_ticks
        for tid, state in list(self.sections.items()):
            if state.released or self.abort_pending(tid):
                continue
            if self.now - state.start_tick > lease:
                self.stats.leases_expired += 1
                self._emit("lease-expired", tid=tid,
                           section=state.section_id,
                           held_ticks=self.now - state.start_tick)
                self.abort_thread(tid, "lease expired")

    def waits_for_edges(self) -> Dict[int, Set[int]]:
        """The waits-for graph: waiter -> {threads it cannot overtake}.

        A waiter waits on every *holder* whose mode is incompatible with
        its request and on every *earlier waiter* it may not overtake
        (the FIFO grant rule makes that a real dependency)."""
        edges: Dict[int, Set[int]] = {}
        for node in self.manager.nodes.values():
            for tid, (order, mode) in node.waiters.items():
                deps = edges.setdefault(tid, set())
                for other, held in node.holders.items():
                    if other != tid and not compatible(mode, held):
                        deps.add(other)
                for other, (oorder, omode) in node.waiters.items():
                    if other != tid and oorder < order \
                            and not compatible(mode, omode):
                        deps.add(other)
        return edges

    def _find_cycle(self) -> Optional[List[int]]:
        """A cycle in the waits-for graph, as a list of tids, or None."""
        edges = self.waits_for_edges()
        color: Dict[int, int] = {}  # 1 = on stack, 2 = done
        stack: List[int] = []

        def visit(tid: int) -> Optional[List[int]]:
            color[tid] = 1
            stack.append(tid)
            for dep in sorted(edges.get(tid, ())):
                mark = color.get(dep)
                if mark == 1:
                    return stack[stack.index(dep):]
                if mark is None:
                    found = visit(dep)
                    if found is not None:
                        return found
            stack.pop()
            color[tid] = 2
            return None

        for tid in sorted(edges):
            if tid not in color:
                found = visit(tid)
                if found is not None:
                    return found
        return None
