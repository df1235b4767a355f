"""Ctrl-C during a sweep: clean abort, no orphans, terminated stream.

Pre-fix, interrupting ``repro bench`` left pool workers running as
orphans and the JSONL event stream without a terminating record.  The
fix makes the coordinator cancel pending cells, terminate workers, emit
a final ``sweep-end`` with ``aborted: true``, and exit 130.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _read(path):
    with open(path) as handle:
        return handle.read()


@pytest.mark.skipif(not hasattr(signal, "SIGINT"), reason="needs SIGINT")
def test_sigint_mid_sweep_exits_130_and_terminates_stream(tmp_path):
    events = str(tmp_path / "events.jsonl")
    env = dict(os.environ, PYTHONPATH=SRC)
    # vacation cells run for seconds at this op count: plenty of runway to
    # interrupt mid-flight
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "bench", "table2",
         "--benches", "vacation", "--ops", "60", "--jobs", "2",
         "--cache-dir", str(tmp_path / "cache"), "--events", events,
         "--quiet"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)  # own process group: SIGINT hits only the
    # coordinator, which must clean up its own workers (a terminal would
    # signal the whole group; this is the harder case)
    try:
        deadline = time.monotonic() + 60
        while True:
            assert time.monotonic() < deadline, "sweep never started"
            if proc.poll() is not None:
                pytest.fail("sweep exited early: "
                            + proc.stderr.read().decode())
            if os.path.exists(events) and "cell-start" in _read(events):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert code == 130

    records = [json.loads(line) for line in _read(events).splitlines()]
    kinds = [record["event"] for record in records]
    assert kinds[0] == "sweep-start"
    # pre-fix: the stream just stopped mid-sweep with no terminator
    assert kinds[-1] == "sweep-end"
    assert records[-1]["aborted"] is True

    # no orphaned pool workers: the whole process group must be gone
    # (poll briefly; worker teardown races the coordinator's exit)
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break  # every process in the group has exited
        assert time.monotonic() < deadline, "pool workers left orphaned"
        time.sleep(0.1)
