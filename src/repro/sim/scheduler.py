"""Round-robin multi-core discrete-event scheduler.

Threads are generators. Each value they yield is an *event*:

* ``(WORK, n)`` or a bare ``int n`` — consume *n* ticks of CPU on a core
  (n ≥ 1; the thread stays runnable);
* ``(TRY, fn)`` — attempt ``fn()``; if it returns True the thread continues
  (the attempt consumed this tick); if False the thread is *blocked* and the
  scheduler re-attempts ``fn()`` on subsequent ticks without consuming core
  slots until it succeeds;
* ``(TRY, fn, node)`` — the same, keyed by the lock node ``fn`` reads: a
  blocked thread's ``fn()`` is re-attempted only on a tick where
  ``node.version`` differs from its value after the last failed attempt
  (a failed attempt on an unchanged node would fail again and change
  nothing).

On each tick, up to ``ncores`` runnable threads advance by one work unit, in
round-robin order (rotating the start index for fairness). At the start of
every tick the blocked threads are polled in blocking order (FIFO), which
lets lock-manager grant order stay deterministic: a bare wait is polled
every tick, a keyed wait only after its node changed.

A tick where no thread is runnable and none can unblock is a deadlock; the
scheduler raises :class:`DeadlockError` (the transformed programs must never
trigger this — that is the paper's deadlock-freedom guarantee). Distinct
from deadlock, a *livelock* is a bounded no-progress window: some thread
stays blocked for ``livelock_window`` consecutive ticks during which no
blocked thread is granted and no thread completes — runnable threads are
spinning without unblocking anyone. That raises :class:`LivelockError`
carrying the blocked-thread set, long before the ``max_ticks`` backstop.

Which runnable threads advance each tick is delegated to a
:class:`~repro.sim.policy.SchedulingPolicy`; the default
:class:`~repro.sim.policy.RoundRobinPolicy` reproduces the historical
rotating round-robin schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from ..obs.trace import get_tracer
from .deadline import CHECK_EVERY_TICKS, check_deadline
from .policy import RoundRobinPolicy, SchedulingPolicy

WORK = "work"
TRY = "try"

# While tracing is enabled, one occupancy counter sample (runnable /
# blocked / chosen) is emitted every this-many ticks; per-tick samples
# would dominate the trace for zero extra signal.
OCCUPANCY_SAMPLE_TICKS = 64


class DeadlockError(RuntimeError):
    """All unfinished threads are blocked and none can make progress."""


class LivelockError(RuntimeError):
    """Some threads stayed blocked for a full no-progress window while the
    rest spun: nobody was granted, nobody finished."""

    def __init__(self, message: str, blocked_tids=()) -> None:
        super().__init__(message)
        self.blocked_tids = frozenset(blocked_tids)


@dataclass
class SimStats:
    ticks: int = 0
    work_done: int = 0
    blocked_ticks: int = 0
    failed_tries: int = 0
    polls: int = 0  # wait predicates of blocked threads evaluated
    wakeups: int = 0  # polls that succeeded and unblocked their thread
    ncores: int = 1
    per_thread_work: Dict[int, int] = field(default_factory=dict)
    per_thread_blocked: Dict[int, int] = field(default_factory=dict)
    per_thread_failed_tries: Dict[int, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of core-ticks that did work (1.0 = fully parallel).

        A failed TRY attempt occupies its core slot for the tick but does
        no work: it is counted in ``failed_tries`` (and the thread's
        blocked time starts the same tick), never in ``work_done``.
        """
        if self.ticks == 0:
            return 0.0
        return self.work_done / (self.ticks * self.ncores)


class SimThread:
    """One simulated thread wrapping a coroutine generator.

    The next event is prefetched (``current``), so thread completion is
    detected together with its final work unit rather than a tick later.
    """

    __slots__ = ("tid", "gen", "state", "pending_work", "try_fn",
                 "wait_node", "wait_version", "blocked_at", "current")

    def __init__(self, tid: int, gen: Generator) -> None:
        self.tid = tid
        self.gen = gen
        self.state = "runnable"  # runnable | blocked | done
        self.pending_work = 0  # remaining ticks of the current work event
        self.try_fn: Optional[Callable[[], bool]] = None
        self.wait_node = None  # the node a keyed wait depends on
        self.wait_version = 0  # its version after the last failed attempt
        self.blocked_at = 0  # the tick the thread blocked
        self.current = None  # the prefetched event
        self.fetch()

    def fetch(self) -> None:
        try:
            self.current = next(self.gen)
        except StopIteration:
            self.state = "done"

    def __repr__(self) -> str:
        return f"<thread {self.tid}: {self.state}>"


class Scheduler:
    def __init__(self, ncores: int = 8, max_ticks: int = 100_000_000,
                 policy: Optional[SchedulingPolicy] = None,
                 livelock_window: Optional[int] = 50_000,
                 watchdog: Optional[Callable[["Scheduler"], None]] = None) -> None:
        self.ncores = ncores
        self.max_ticks = max_ticks
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.livelock_window = livelock_window
        # per-tick hook (the resilience runtime's deadlock/lease watchdog);
        # called again right before a DeadlockError would be raised, so it
        # can break the cycle by aborting a victim
        self.watchdog = watchdog
        self.threads: List[SimThread] = []
        self.stats = SimStats(ncores=ncores)
        self._blocked: List[SimThread] = []  # in blocking order (FIFO)
        self._stall = 0  # consecutive no-progress ticks with blocked threads

    def spawn(self, gen: Generator) -> SimThread:
        thread = SimThread(len(self.threads), gen)
        self.threads.append(thread)
        self.stats.per_thread_work[thread.tid] = 0
        self.stats.per_thread_blocked[thread.tid] = 0
        self.stats.per_thread_failed_tries[thread.tid] = 0
        return thread

    # -- event handling -------------------------------------------------------

    def _advance(self, thread: SimThread) -> bool:
        """Run *thread* for one unit of work on a core.

        Returns True when the tick performed work (a work unit consumed or
        a TRY attempt that succeeded), False when a TRY predicate failed
        and the thread blocked — the core slot was occupied but no work
        happened.
        """
        if thread.pending_work > 0:
            thread.pending_work -= 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        event = thread.current
        if event is None:
            thread.fetch()  # a bare `yield` = one tick of work
            return True
        if isinstance(event, int):
            if event < 1:
                raise ValueError(
                    f"work event must consume at least one tick, got {event}"
                )
            thread.pending_work = event - 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        kind = event[0]
        if kind == WORK:
            if event[1] < 1:
                raise ValueError(
                    f"work event must consume at least one tick, got {event[1]}"
                )
            thread.pending_work = event[1] - 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        if kind == TRY:
            fn = event[1]
            if fn():
                thread.fetch()
                return True
            thread.state = "blocked"
            thread.try_fn = fn
            node = event[2] if len(event) > 2 else None
            thread.wait_node = node
            if node is not None:
                thread.wait_version = node.version
            thread.blocked_at = self.stats.ticks
            self._blocked.append(thread)
            return False
        raise ValueError(f"unknown sim event {event!r}")

    def _wake(self) -> bool:
        """Re-try the wait predicate of each blocked thread (FIFO order); a
        thread whose predicate succeeds becomes runnable and leaves the
        blocked list. A keyed wait whose node has not changed since its
        last failed attempt is skipped. Returns whether any thread woke."""
        stats = self.stats
        woke = False
        for thread in self._blocked:
            node = thread.wait_node
            if node is not None and node.version == thread.wait_version:
                continue
            stats.polls += 1
            if thread.try_fn():
                stats.wakeups += 1
                # blocked from the end of tick blocked_at through this one
                stats.per_thread_blocked[thread.tid] += (
                    stats.ticks - thread.blocked_at + 1)
                thread.state = "runnable"
                thread.try_fn = None
                thread.wait_node = None
                thread.fetch()
                woke = True
            elif node is not None:
                thread.wait_version = node.version
        if woke:
            self._blocked[:] = [t for t in self._blocked
                                if t.state == "blocked"]
        return woke

    def _runnable(self) -> List[SimThread]:
        """The runnable threads in spawn order (the policy contract)."""
        return [t for t in self.threads if t.state == "runnable"]

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimStats:
        tracer = get_tracer()
        with tracer.span("sim.run", "runtime", ncores=self.ncores,
                         threads=len(self.threads)):
            return self._run_loop(tracer)

    def _run_loop(self, tracer) -> SimStats:
        stats = self.stats
        blocked = self._blocked
        per_thread_work = stats.per_thread_work
        per_thread_failed_tries = stats.per_thread_failed_tries
        runnable = self._runnable()
        while True:
            if tracer.enabled:
                # eval/runtime hooks read the current tick off the tracer
                # when opening/closing tick-clock spans
                tracer.now_ticks = stats.ticks
            if not runnable and not blocked:
                return stats
            if stats.ticks >= self.max_ticks:
                self._settle_blocked()
                raise RuntimeError(
                    f"simulation exceeded {self.max_ticks} ticks (livelock?)"
                )
            if stats.ticks % CHECK_EVERY_TICKS == 0:
                check_deadline()
            if self.watchdog is not None:
                self.watchdog(self)
            # 1. wake blocked threads whose predicates now succeed (FIFO)
            n_blocked = len(blocked)
            woke = n_blocked > 0 and self._wake()
            if woke:
                runnable = self._runnable()
            # 2. advance the policy's pick of the runnable threads
            if not runnable:
                if blocked:
                    if self.watchdog is not None:
                        # emergency scan: the watchdog may abort a victim,
                        # whose wait predicate then reports success (the
                        # abort flag) and unblocks it into its retry loop
                        self.watchdog(self)
                        if self._wake():
                            runnable = self._runnable()
                            self._stall = 0
                            continue
                    self._settle_blocked()
                    raise DeadlockError(
                        "all threads blocked: "
                        + ", ".join(repr(t) for t in blocked)
                    )
                continue  # every woken thread finished
            chosen = self.policy.choose(runnable, self.ncores, stats.ticks)
            if not chosen:
                chosen = runnable[:1]
            if tracer.enabled and stats.ticks % OCCUPANCY_SAMPLE_TICKS == 0:
                tracer.sample("sim.occupancy", {
                    "runnable": len(runnable),
                    "blocked": n_blocked,
                    "chosen": len(chosen),
                })
            stats.ticks += 1
            if tracer.enabled:
                tracer.now_ticks = stats.ticks
            changed = finished = False
            for thread in chosen:
                if self._advance(thread):
                    stats.work_done += 1
                    per_thread_work[thread.tid] += 1
                else:
                    stats.failed_tries += 1
                    per_thread_failed_tries[thread.tid] += 1
                if thread.state != "runnable":
                    changed = True
                    if thread.state == "done":
                        finished = True
            if changed:
                runnable = self._runnable()
            stats.blocked_ticks += len(blocked)
            # 3. livelock window: blocked threads exist but nobody was
            # granted and nobody finished — count the stall; a wake, a
            # completion, or an all-runnable tick resets it
            if not blocked or woke or finished:
                self._stall = 0
                continue
            self._stall += 1
            if (self.livelock_window is not None
                    and self._stall >= self.livelock_window):
                self._settle_blocked()
                still_blocked = sorted(blocked, key=lambda t: t.tid)
                raise LivelockError(
                    f"no progress for {self._stall} ticks; blocked: "
                    + ", ".join(repr(t) for t in still_blocked),
                    blocked_tids=[t.tid for t in still_blocked],
                )

    def _settle_blocked(self) -> None:
        """Charge the still-blocked threads their blocked ticks so far (a
        run that stops early; a woken thread is charged at its wake)."""
        per_thread_blocked = self.stats.per_thread_blocked
        for thread in self._blocked:
            per_thread_blocked[thread.tid] += (
                self.stats.ticks - thread.blocked_at + 1)
            thread.blocked_at = self.stats.ticks + 1


def run_threads(generators: List[Generator], ncores: int = 8,
                policy: Optional[SchedulingPolicy] = None,
                livelock_window: Optional[int] = 50_000,
                watchdog: Optional[Callable[["Scheduler"], None]] = None,
                ) -> SimStats:
    """Convenience: run *generators* to completion; return the statistics."""
    scheduler = Scheduler(ncores=ncores, policy=policy,
                          livelock_window=livelock_window,
                          watchdog=watchdog)
    for gen in generators:
        scheduler.spawn(gen)
    return scheduler.run()
