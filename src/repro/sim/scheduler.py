"""Round-robin multi-core discrete-event scheduler.

Threads are generators. Each value they yield is an *event*:

* ``(WORK, n)`` or a bare ``int n`` — consume *n* ticks of CPU on a core
  (n ≥ 1; the thread stays runnable);
* ``(TRY, fn)`` — attempt ``fn()``; if it returns True the thread continues
  (the attempt consumed this tick); if False the thread is *blocked* and the
  scheduler re-attempts ``fn()`` on subsequent ticks without consuming core
  slots until it succeeds.

On each tick, up to ``ncores`` runnable threads advance by one work unit, in
round-robin order (rotating the start index for fairness). Blocked threads
re-try their predicates at the start of every tick, in blocking order (FIFO),
which lets lock-manager grant order stay deterministic.

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
from typing import Callable, Dict, Generator, List, Optional, Tuple

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
                 "block_order", "current")

    def __init__(self, tid: int, gen: Generator) -> None:
        self.tid = tid
        self.gen = gen
        self.state = "runnable"  # runnable | blocked | done
        self.pending_work = 0  # remaining ticks of the current work event
        self.try_fn: Optional[Callable[[], bool]] = None
        self.block_order = 0
        self.current = None  # the prefetched event
        self.fetch()

    def fetch(self) -> None:
        try:
            self.current = next(self.gen)
        except StopIteration:
            self.state = "done"

    def __repr__(self) -> str:
        return f"<thread {self.tid}: {self.state}>"


def _wake(blocked: List[SimThread]) -> bool:
    """Re-try the wait predicate of each still-blocked thread in *blocked*
    (FIFO order); a thread whose predicate succeeds becomes runnable.
    Returns whether any thread woke."""
    woke = False
    for thread in blocked:
        if (thread.state == "blocked" and thread.try_fn is not None
                and thread.try_fn()):
            thread.state = "runnable"
            thread.try_fn = None
            thread.fetch()
            woke = True
    return woke


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
        self._block_counter = 0
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
            self._block_counter += 1
            thread.block_order = self._block_counter
            return False
        raise ValueError(f"unknown sim event {event!r}")

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimStats:
        tracer = get_tracer()
        with tracer.span("sim.run", "runtime", ncores=self.ncores,
                         threads=len(self.threads)):
            return self._run_loop(tracer)

    def _run_loop(self, tracer) -> SimStats:
        while True:
            if tracer.enabled:
                # eval/runtime hooks read the current tick off the tracer
                # when opening/closing tick-clock spans
                tracer.now_ticks = self.stats.ticks
            unfinished = [t for t in self.threads if t.state != "done"]
            if not unfinished:
                return self.stats
            if self.stats.ticks >= self.max_ticks:
                raise RuntimeError(
                    f"simulation exceeded {self.max_ticks} ticks (livelock?)"
                )
            if self.stats.ticks % CHECK_EVERY_TICKS == 0:
                check_deadline()
            if self.watchdog is not None:
                self.watchdog(self)
            # 1. wake blocked threads whose predicates now succeed (FIFO)
            blocked = sorted(
                (t for t in unfinished if t.state == "blocked"),
                key=lambda t: t.block_order,
            )
            woke = _wake(blocked)
            # 2. advance the policy's pick of the runnable threads
            runnable = [t for t in unfinished if t.state == "runnable"]
            if not runnable:
                if blocked:
                    if self.watchdog is not None:
                        # emergency scan: the watchdog may abort a victim,
                        # whose wait predicate then reports success (the
                        # abort flag) and unblocks it into its retry loop
                        self.watchdog(self)
                        _wake(blocked)
                        runnable = [t for t in unfinished
                                    if t.state == "runnable"]
                        if runnable:
                            self._stall = 0
                            continue
                    raise DeadlockError(
                        "all threads blocked: "
                        + ", ".join(repr(t) for t in blocked)
                    )
                return self.stats
            chosen = self.policy.choose(runnable, self.ncores, self.stats.ticks)
            if not chosen:
                chosen = runnable[:1]
            if tracer.enabled and self.stats.ticks % OCCUPANCY_SAMPLE_TICKS == 0:
                tracer.sample("sim.occupancy", {
                    "runnable": len(runnable),
                    "blocked": len(blocked),
                    "chosen": len(chosen),
                })
            self.stats.ticks += 1
            if tracer.enabled:
                tracer.now_ticks = self.stats.ticks
            finished = False
            for thread in chosen:
                did_work = self._advance(thread)
                if thread.state == "done":
                    finished = True
                if did_work:
                    self.stats.work_done += 1
                    self.stats.per_thread_work[thread.tid] += 1
                else:
                    self.stats.failed_tries += 1
                    self.stats.per_thread_failed_tries[thread.tid] += 1
            still_blocked = [t for t in unfinished if t.state == "blocked"]
            for thread in still_blocked:
                self.stats.blocked_ticks += 1
                self.stats.per_thread_blocked[thread.tid] += 1
            # 3. livelock window: blocked threads exist but nobody was
            # granted and nobody finished — count the stall; a wake, a
            # completion, or an all-runnable tick resets it
            if still_blocked and not (woke or finished):
                self._stall += 1
                if (self.livelock_window is not None
                        and self._stall >= self.livelock_window):
                    raise LivelockError(
                        f"no progress for {self._stall} ticks; blocked: "
                        + ", ".join(repr(t) for t in still_blocked),
                        blocked_tids=[t.tid for t in still_blocked],
                    )
            else:
                self._stall = 0


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
