"""Regression tests for the disk-cache concurrency bugfix sweep.

Each test encodes a bug that shipped before the fix and fails on the
pre-fix code:

* ``_pickle`` raised and restored the *process-global* recursion limit
  with no mutual exclusion, so one thread's ``finally`` clobbered the
  raised limit underneath another thread mid-dump (and the last restorer
  leaked the raised limit);
* ``store_dirty`` merged into the table its instance had read earlier —
  an unlocked read-modify-write that silently dropped entries a
  concurrent writer had landed in between;
* a crashed writer's ``*.tmp.<pid>.*`` litter lived forever, and a torn
  or truncated entry crashed the reader with an unpickling traceback
  instead of degrading to a cache miss.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.inference import LockInference
from repro.inference import diskcache as dc
from repro.inference.diskcache import (
    AnalysisDiskCache,
    CacheLockTimeout,
    gc_stale_tmp,
)

SALT = "ab" * 32


class FakeEngine:
    """Just enough engine surface for ``store_dirty``."""

    def __init__(self, entries):
        self._entries = dict(entries)
        self.dirty_funcs = {key[1] for key in self._entries}

    def summary_items(self):
        return list(self._entries.items())


def _entry(func, value):
    return {("acc", func, ("ctx",)): value}


# ---------------------------------------------------------------------------
# satellite 1: recursion-limit raise/restore must be one critical section
# ---------------------------------------------------------------------------


def test_pickle_recursion_limit_survives_concurrent_dumps(monkeypatch):
    """Two threads pickling at once: the raised limit must hold for both,
    and the original limit must be restored exactly once at the end.

    Pre-fix, thread A's ``finally`` restored the low limit while thread B
    was still mid-dump, and B's ``finally`` then leaked the raised limit
    into the process for good."""
    limit0 = sys.getrecursionlimit()
    a_in_dump = threading.Event()
    release_a = threading.Event()
    b_in_dump = threading.Event()
    release_b = threading.Event()
    real_dumps = pickle.dumps

    def gated_dumps(value, protocol=None):
        if value == "A":
            a_in_dump.set()
            assert release_a.wait(timeout=30)
        else:
            b_in_dump.set()
            assert release_b.wait(timeout=30)
        return real_dumps(value, protocol)

    monkeypatch.setattr(dc.pickle, "dumps", gated_dumps)
    failures = []

    def run(tag):
        try:
            dc._pickle(tag)
        except Exception as err:  # noqa: BLE001
            failures.append(err)

    thread_a = threading.Thread(target=run, args=("A",))
    thread_a.start()
    assert a_in_dump.wait(timeout=30)
    thread_b = threading.Thread(target=run, args=("B",))
    thread_b.start()
    # A finishes first; post-fix B has been waiting on the pickle lock and
    # only now raises the limit and enters its dump
    release_a.set()
    thread_a.join(timeout=30)
    assert b_in_dump.wait(timeout=30)
    limit_during_b = sys.getrecursionlimit()
    release_b.set()
    thread_b.join(timeout=30)
    assert not failures, failures
    # pre-fix: A's finally had already dropped this back to limit0
    assert limit_during_b >= 100_000
    # pre-fix: B saved the raised limit and "restored" it, leaking 100_000
    assert sys.getrecursionlimit() == limit0


# ---------------------------------------------------------------------------
# satellite 2: store_dirty must not lose concurrent writers' entries
# ---------------------------------------------------------------------------


def test_store_dirty_interleaved_instances_lose_nothing(tmp_path):
    """The deterministic loss repro: both instances read the (empty)
    table, then write one function each.  Pre-fix the second write
    replaced the first instead of merging with it."""
    root = str(tmp_path / "analysis")
    cone = {"f1": "h1", "f2": "h2"}
    cache_a = AnalysisDiskCache(root, cone, SALT)
    cache_b = AnalysisDiskCache(root, cone, SALT)
    cache_a.load_bundle("f1")  # both read the empty table first
    cache_b.load_bundle("f2")
    assert cache_a.store_dirty(FakeEngine(_entry("f1", "va"))) == 1
    assert cache_b.store_dirty(FakeEngine(_entry("f2", "vb"))) == 1

    fresh = AnalysisDiskCache(root, cone, SALT)
    assert fresh.load_bundle("f1") == _entry("f1", "va")
    assert fresh.load_bundle("f2") == _entry("f2", "vb")


def _store_proc(root, func, value, barrier):
    cache = AnalysisDiskCache(root, {func: f"h-{func}"}, SALT)
    cache.load_bundle(func)  # read before anyone writes
    barrier.wait(timeout=30)
    cache.store_dirty(FakeEngine(_entry(func, value)))


def test_store_dirty_two_processes_lose_nothing(tmp_path):
    """The same race across real processes, synchronized past the read."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method")
    ctx = multiprocessing.get_context("fork")
    root = str(tmp_path / "analysis")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_store_proc, args=(root, func, f"v-{func}",
                                              barrier))
        for func in ("f1", "f2")
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    fresh = AnalysisDiskCache(root, {"f1": "h-f1", "f2": "h-f2"}, SALT)
    assert fresh.load_bundle("f1") == _entry("f1", "v-f1")
    assert fresh.load_bundle("f2") == _entry("f2", "v-f2")


def test_store_dirty_lock_timeout_is_counted_not_fatal(tmp_path,
                                                       monkeypatch):
    root = str(tmp_path / "analysis")
    cache = AnalysisDiskCache(root, {"f1": "h1"}, SALT)

    def always_timeout(path, timeout=0):
        raise CacheLockTimeout(path)

    class _TimeoutCtx:
        def __enter__(self):
            raise CacheLockTimeout("held elsewhere")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(dc, "_file_lock", lambda *a, **kw: _TimeoutCtx())
    assert cache.store_dirty(FakeEngine(_entry("f1", "v"))) == 0
    assert cache.stats["lock_timeouts"] == 1


def test_file_lock_excludes_and_times_out(tmp_path):
    if dc.fcntl is None:
        pytest.skip("no fcntl on this platform")
    path = str(tmp_path / "x.pkl")
    with dc._file_lock(path):
        with pytest.raises(CacheLockTimeout):
            with dc._file_lock(path, timeout=0.1):
                pass
    # released: immediately acquirable again
    with dc._file_lock(path, timeout=0.1):
        pass


# ---------------------------------------------------------------------------
# satellite 3: tmp-file GC and corrupt-entry tolerance
# ---------------------------------------------------------------------------


def _plant_tmp(root, name, age_s=0.0):
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, name)
    with open(path, "wb") as handle:
        handle.write(b"half-written")
    if age_s:
        import time

        old = time.time() - age_s
        os.utime(path, (old, old))
    return path


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_gc_reclaims_orphaned_tmp_files(tmp_path):
    root = str(tmp_path / "analysis")
    dead = _plant_tmp(root, f"a.pkl.tmp.{_dead_pid()}.140001")
    ancient = _plant_tmp(root, f"b.pkl.tmp.{os.getpid()}.140002",
                         age_s=2 * dc.TMP_TTL_S)
    unparseable = _plant_tmp(root, "c.pkl.tmp.notapid")
    fresh_live = _plant_tmp(root, f"d.pkl.tmp.{os.getpid()}.140003")
    removed = gc_stale_tmp(root)
    assert removed == 3
    assert not os.path.exists(dead)
    assert not os.path.exists(ancient)  # live pid, but older than the TTL
    assert not os.path.exists(unparseable)
    assert os.path.exists(fresh_live)  # a writer mid-flight is left alone


def test_open_cache_runs_tmp_gc(tmp_path):
    source = ALL_BENCHMARKS["list"].source
    cache_dir = str(tmp_path / "cache")
    LockInference(source, k=9, cache_dir=cache_dir).run()
    orphan = _plant_tmp(os.path.join(cache_dir, "analysis", "summ"),
                        f"x.pkl.tmp.{_dead_pid()}.1")
    LockInference(source, k=9, cache_dir=cache_dir).run()
    assert not os.path.exists(orphan)


def test_corrupt_entries_degrade_to_miss(tmp_path):
    root = str(tmp_path / "analysis")
    cache = AnalysisDiskCache(root, {"f1": "h1"}, SALT)
    cache.store_dirty(FakeEngine(_entry("f1", "v")))
    path = cache._summ_path()
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 this is not a pickle")
    fresh = AnalysisDiskCache(root, {"f1": "h1"}, SALT)
    assert fresh.load_bundle("f1") is None  # miss, not a traceback
    assert fresh.stats["corrupt_entries"] == 1
    assert fresh.stats["bundle_misses"] == 1
    assert not os.path.exists(path)  # unlinked so the re-store rewrites it
    # and the store after recomputation works on the cleaned slate
    assert fresh.store_dirty(FakeEngine(_entry("f1", "v2"))) == 1
    assert AnalysisDiskCache(root, {"f1": "h1"},
                             SALT).load_bundle("f1") == _entry("f1", "v2")


def test_truncated_entries_across_whole_cache_never_raise(tmp_path):
    """Corrupt *every* cache file after a warm run: the next run must
    still produce identical results, recomputing what it cannot read."""
    source = ALL_BENCHMARKS["hashtable"].source
    cache_dir = str(tmp_path / "cache")
    cold = LockInference(source, k=9, cache_dir=cache_dir).run()
    corrupted = 0
    for dirpath, _dirnames, filenames in os.walk(cache_dir):
        for filename in filenames:
            if filename.endswith(".pkl"):
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as handle:
                    payload = handle.read()
                with open(path, "wb") as handle:
                    handle.write(payload[: len(payload) // 2])
                corrupted += 1
    assert corrupted > 0
    before = dc.corrupt_entries_seen()
    rerun = LockInference(source, k=9, cache_dir=cache_dir).run()
    assert rerun.describe() == cold.describe()
    assert dc.corrupt_entries_seen() > before
