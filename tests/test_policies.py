"""Scheduling policies and livelock detection (repro.sim)."""

import pytest

from repro.sim import (
    DeadlockError,
    LivelockError,
    PCTPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
    ScriptedPolicy,
    TRY,
    make_policy,
    run_threads,
)


def worker(n, log=None, tid=None):
    for i in range(n):
        if log is not None:
            log.append((tid, i))
        yield 1


def trace_of(policy, nthreads=3, events=4, ncores=2):
    policy.enable_trace()
    scheduler = Scheduler(ncores=ncores, policy=policy)
    for _ in range(nthreads):
        scheduler.spawn(worker(events))
    scheduler.run()
    return list(policy.trace)


# -- round-robin --------------------------------------------------------------


def test_round_robin_matches_default_scheduler():
    # the explicit policy must replicate the historical built-in schedule
    log_default = []
    run_threads([worker(5, log_default, t) for t in range(3)], ncores=2)
    log_policy = []
    run_threads([worker(5, log_policy, t) for t in range(3)], ncores=2,
                policy=RoundRobinPolicy())
    assert log_default == log_policy


def test_round_robin_is_fair():
    stats = run_threads([worker(6) for _ in range(3)], ncores=1,
                        policy=RoundRobinPolicy())
    assert stats.per_thread_work == {0: 6, 1: 6, 2: 6}


# -- random -------------------------------------------------------------------


def test_random_policy_reproducible():
    assert trace_of(RandomPolicy(7)) == trace_of(RandomPolicy(7))


def test_random_policy_seeds_differ():
    traces = {tuple(trace_of(RandomPolicy(seed))) for seed in range(10)}
    assert len(traces) > 1


def test_random_policy_respects_ncores():
    for step in trace_of(RandomPolicy(3), nthreads=4, ncores=2):
        assert 1 <= len(step) <= 2
        assert len(set(step)) == len(step)


# -- PCT ----------------------------------------------------------------------


def test_pct_policy_reproducible():
    assert trace_of(PCTPolicy(5)) == trace_of(PCTPolicy(5))


def test_pct_serializes_one_thread_per_tick():
    for step in trace_of(PCTPolicy(1), nthreads=4, ncores=4):
        assert len(step) == 1


def test_pct_change_point_count():
    policy = PCTPolicy(0, depth=4, expected_steps=100)
    assert len(policy.change_points) == 3
    assert all(1 <= p <= 100 for p in policy.change_points)


def test_pct_depth_one_never_preempts_by_priority_change():
    policy = PCTPolicy(0, depth=1)
    assert policy.change_points == frozenset()


# -- scripted -----------------------------------------------------------------


def test_scripted_policy_follows_script_then_zero():
    policy = ScriptedPolicy([1])
    policy.enable_trace()
    scheduler = Scheduler(ncores=1, policy=policy)
    scheduler.spawn(worker(2))
    scheduler.spawn(worker(2))
    scheduler.run()
    # first decision picks index 1 (tid 1), then always index 0
    assert policy.trace[0] == (1,)
    assert policy.choices[0] == (1, 2)
    assert len(policy.choices) == 4
    assert all(index == 0 for index, _ in policy.choices[1:])


def test_make_policy_names():
    assert isinstance(make_policy("rr"), RoundRobinPolicy)
    assert isinstance(make_policy("round-robin"), RoundRobinPolicy)
    assert isinstance(make_policy("random", seed=3), RandomPolicy)
    assert isinstance(make_policy("pct", seed=3, depth=2), PCTPolicy)
    with pytest.raises(ValueError):
        make_policy("fifo")


# -- livelock vs deadlock -----------------------------------------------------


def spinner():
    while True:
        yield 1


def blocked_forever():
    yield (TRY, lambda: False)


def test_livelock_detected_with_blocked_thread_set():
    scheduler = Scheduler(ncores=1, livelock_window=20)
    scheduler.spawn(spinner())
    scheduler.spawn(blocked_forever())
    with pytest.raises(LivelockError) as excinfo:
        scheduler.run()
    assert excinfo.value.blocked_tids == frozenset({1})
    # the still-blocked thread is charged its blocked ticks when the run stops
    stats = scheduler.stats
    assert stats.per_thread_blocked == {0: 0, 1: stats.blocked_ticks}


def test_livelock_distinct_from_deadlock():
    # all threads blocked -> deadlock, not livelock
    scheduler = Scheduler(ncores=1, livelock_window=20)
    scheduler.spawn(blocked_forever())
    scheduler.spawn(blocked_forever())
    with pytest.raises(DeadlockError):
        scheduler.run()
    assert scheduler.stats.per_thread_blocked == {0: 2, 1: 1}  # 1 core
    assert scheduler.stats.blocked_ticks == 3


def test_no_livelock_when_blocker_completes():
    flag = []

    def releaser():
        for _ in range(5):
            yield 1
        flag.append(True)

    def waiter():
        yield (TRY, lambda: bool(flag))
        yield 1

    stats = run_threads([releaser(), waiter()], ncores=1, livelock_window=50)
    assert stats.ticks > 0  # completed without LivelockError


def test_pure_spinners_hit_max_ticks_not_livelock():
    # no thread is ever blocked -> the livelock window never applies;
    # the max_ticks backstop still catches runaway executions
    scheduler = Scheduler(ncores=1, max_ticks=100, livelock_window=10)
    scheduler.spawn(spinner())
    with pytest.raises(RuntimeError) as excinfo:
        scheduler.run()
    assert not isinstance(excinfo.value, (LivelockError, DeadlockError))


def test_livelock_window_none_disables_detection():
    scheduler = Scheduler(ncores=1, max_ticks=200, livelock_window=None)
    scheduler.spawn(spinner())
    scheduler.spawn(blocked_forever())
    with pytest.raises(RuntimeError) as excinfo:
        scheduler.run()
    assert not isinstance(excinfo.value, LivelockError)
