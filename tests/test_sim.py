"""Discrete-event scheduler tests."""

import pytest

from repro.sim import DeadlockError, Scheduler
from repro.sim.scheduler import TRY, WORK, run_threads


def work(n):
    for _ in range(n):
        yield 1


def test_single_thread_makespan():
    stats = run_threads([work(10)], ncores=4)
    assert stats.ticks == 10
    assert stats.work_done == 10


def test_parallel_threads_share_cores():
    stats = run_threads([work(10) for _ in range(4)], ncores=4)
    assert stats.ticks == 10  # perfectly parallel
    assert stats.work_done == 40


def test_more_threads_than_cores_serializes():
    stats = run_threads([work(10) for _ in range(8)], ncores=4)
    # 80 work units / 4 cores = 20 ticks ideal; round-robin rotation may
    # cost one extra tick at the tail
    assert 20 <= stats.ticks <= 21
    assert stats.work_done == 80


def test_bulk_work_event():
    def bulk():
        yield (WORK, 5)
        yield 5

    stats = run_threads([bulk()], ncores=1)
    assert stats.ticks == 10


def test_try_event_blocks_until_predicate():
    state = {"ready": False, "polls": 0}

    def waiter():
        def predicate():
            state["polls"] += 1
            return state["ready"]

        yield (TRY, predicate)
        yield 1

    def signaler():
        for _ in range(5):
            yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([waiter(), signaler()], ncores=2)
    assert state["polls"] > 1
    assert stats.ticks >= 6


def test_blocked_threads_free_their_core():
    # one blocked thread + two workers on one core: the blocked thread must
    # not consume the core
    state = {"ready": False}

    def blocked():
        yield (TRY, lambda: state["ready"])
        yield 1

    def finisher():
        for _ in range(3):
            yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([blocked(), finisher()], ncores=1)
    assert stats.blocked_ticks > 0


def test_zero_length_work_event_rejected():
    def zero_int():
        yield 0

    with pytest.raises(ValueError):
        run_threads([zero_int()], ncores=1)


def test_zero_length_work_tuple_rejected():
    def zero_tuple():
        yield (WORK, 0)

    with pytest.raises(ValueError):
        run_threads([zero_tuple()], ncores=1)

    def negative():
        yield -3

    with pytest.raises(ValueError):
        run_threads([negative()], ncores=1)


def test_failed_try_not_counted_as_work():
    """Utilization pinned on a hand-built block/unblock schedule.

    Two cores. Thread A's TRY fails on tick 1 (occupies a core slot, does
    no work, blocks); thread B works ticks 1-3 and flips the flag at the
    end of tick 2; A wakes at the start of tick 3 and does its single work
    unit alongside B's last. Exactly 4 work units in 3 ticks on 2 cores.
    """
    state = {"ready": False}

    def a():
        yield (TRY, lambda: state["ready"])
        yield 1

    def b():
        yield 1
        yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([a(), b()], ncores=2)
    assert stats.ticks == 3
    assert stats.work_done == 4  # A: 1, B: 3 — the failed TRY is not work
    assert stats.failed_tries == 1
    assert stats.per_thread_failed_tries == {0: 1, 1: 0}
    assert stats.blocked_ticks == 2  # A blocked during ticks 1 and 2
    assert stats.per_thread_work == {0: 1, 1: 3}
    assert stats.utilization == pytest.approx(4 / (3 * 2))


def test_successful_try_counts_as_work():
    def taker():
        yield (TRY, lambda: True)  # succeeds inline: consumed the tick
        yield 1

    stats = run_threads([taker()], ncores=1)
    assert stats.ticks == 2
    assert stats.work_done == 2
    assert stats.failed_tries == 0


def test_deadlock_detected():
    def stuck():
        yield (TRY, lambda: False)

    with pytest.raises(DeadlockError):
        run_threads([stuck(), stuck()], ncores=2)


def test_livelock_guard():
    def forever():
        while True:
            yield 1

    scheduler = Scheduler(ncores=1, max_ticks=100)
    scheduler.spawn(forever())
    with pytest.raises(RuntimeError):
        scheduler.run()


def test_determinism():
    def noisy(n):
        for i in range(n):
            yield 1 + (i % 3)

    s1 = run_threads([noisy(20), noisy(15), work(10)], ncores=2)
    s2 = run_threads([noisy(20), noisy(15), work(10)], ncores=2)
    assert s1.ticks == s2.ticks
    assert s1.per_thread_work == s2.per_thread_work


def test_round_robin_fairness():
    stats = run_threads([work(100) for _ in range(3)], ncores=2)
    works = list(stats.per_thread_work.values())
    assert max(works) - min(works) == 0  # all finish with equal work


def test_try_as_final_event_is_not_a_deadlock():
    """A thread whose wait succeeds as its last event finishes at its wake;
    with nothing else left the run ends instead of reporting the finished
    thread as blocked."""
    state = {"ready": False}

    def waiter():
        yield (TRY, lambda: state["ready"])

    def signaler():
        yield 3
        state["ready"] = True

    stats = run_threads([waiter(), signaler()], ncores=2)
    assert stats.ticks == 3
    assert stats.wakeups == 1


# -- keyed lock waits: re-polled only when the lock node changes --------------


def _locked_section(manager, tid, log, lead, hold, runtime=None):
    """*lead* ticks of work, then acquire ROOT in X, hold it *hold* ticks,
    release; appends ("granted", tid) to *log* on the grant."""
    from repro.runtime.api import acquire_all, release_all
    from repro.runtime.manager import ROOT
    from repro.runtime.modes import X

    yield lead
    yield from acquire_all(manager, tid, [(ROOT, X)], runtime=runtime)
    log.append(("granted", tid))
    yield hold
    yield from release_all(manager, tid)


def test_blocked_lock_wait_is_not_repolled_while_its_node_is_unchanged():
    from repro.runtime.manager import LockManager

    manager = LockManager()
    log = []
    scheduler = Scheduler(ncores=2)
    scheduler.spawn(_locked_section(manager, 0, log, lead=1, hold=200))
    scheduler.spawn(_locked_section(manager, 1, log, lead=2, hold=1))
    stats = scheduler.run()
    assert log == [("granted", 0), ("granted", 1)]
    assert stats.per_thread_blocked[1] > 190
    # the attempt in acquire_all and the scheduler's first try fail; the
    # holder's release is the next change to the node, and that poll grants
    assert manager.stats.blocks == 2
    assert (stats.polls, stats.wakeups) == (1, 1)
    assert stats.blocked_ticks == stats.per_thread_blocked[1]


def test_lock_waiters_are_granted_in_fifo_order():
    from repro.runtime.manager import LockManager

    manager = LockManager()
    log = []
    scheduler = Scheduler(ncores=4)
    scheduler.spawn(_locked_section(manager, 0, log, lead=1, hold=20))
    # spawned 1, 2, 3 but blocking in the order 3, 2, 1
    for tid, lead in ((1, 6), (2, 4), (3, 2)):
        scheduler.spawn(_locked_section(manager, tid, log, lead=lead,
                                        hold=5))
    stats = scheduler.run()
    assert log == [("granted", t) for t in (0, 3, 2, 1)]
    assert stats.wakeups == 3
    assert not manager.nodes[("root",)].waiters


def test_watchdog_abort_unblocks_a_keyed_wait_into_section_abort():
    from repro.runtime.manager import LockManager
    from repro.runtime.resilience import (
        ResilienceConfig,
        ResilienceRuntime,
        SectionAbort,
    )

    manager = LockManager()
    runtime = ResilienceRuntime(ResilienceConfig(), manager)
    log = []

    def victim():
        try:
            yield from _locked_section(manager, 1, log, lead=2, hold=1,
                                       runtime=runtime)
        except SectionAbort as abort:
            log.append(("aborted", abort.reason, scheduler.stats.ticks))

    def watchdog(sched):
        if sched.stats.ticks == 20:
            runtime.abort_thread(1, "test abort")

    scheduler = Scheduler(ncores=2, watchdog=watchdog)
    scheduler.spawn(_locked_section(manager, 0, log, lead=1, hold=100))
    scheduler.spawn(victim())
    stats = scheduler.run()
    # woken at the start of tick 21 by the waiter drop, long before the
    # holder releases at about tick 102
    assert log == [("granted", 0), ("aborted", "test abort", 20)]
    assert stats.wakeups == 1
    assert 1 not in manager.nodes[("root",)].waiters


# Recorded from the scheduler that re-polled every blocked thread each tick:
# (ticks, work_done, blocked_ticks, failed_tries, per_thread_blocked,
#  per_thread_failed_tries) at schedule seed 0, 8 threads on 8 cores.
PINNED_CELLS = {
    ("vacation", "global", None, 16): (
        37583, 38091, 252860, 127,
        [31736, 33628, 30156, 30459, 31397, 31570, 31886, 32028],
        [16, 16, 15, 16, 16, 16, 16, 16]),
    ("hashtable-2", "fine+coarse", "high", 120): (
        11498, 34201, 50197, 342,
        [6210, 4645, 6898, 6808, 6993, 6499, 5316, 6828],
        [39, 33, 45, 43, 51, 49, 37, 45]),
}


@pytest.mark.parametrize("cell", sorted(PINNED_CELLS, key=str),
                         ids=lambda cell: f"{cell[0]}-{cell[1]}")
def test_event_driven_waits_keep_the_pinned_counters(cell):
    from repro.bench.configs import ALL_BENCHMARKS
    from repro.bench.harness import build_world
    from repro.interp import ThreadExec

    bench, config, setting, ops = cell
    spec = ALL_BENCHMARKS[bench]
    world, mode = build_world(spec, config, check=True)
    scheduler = Scheduler(ncores=8)
    for tid, thread_ops in enumerate(spec.schedule(setting, 8, ops, seed=0)):
        scheduler.spawn(ThreadExec(world, tid, mode=mode).run_ops(thread_ops))
    stats = scheduler.run()
    got = (stats.ticks, stats.work_done, stats.blocked_ticks,
           stats.failed_tries,
           [stats.per_thread_blocked[t] for t in range(8)],
           [stats.per_thread_failed_tries[t] for t in range(8)])
    assert got == PINNED_CELLS[cell]
    # a poll is made only after a change to the awaited node
    assert stats.wakeups <= stats.polls < stats.blocked_ticks // 10
