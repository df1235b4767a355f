"""Workload ``serve-mixed``: a fresh ``repro serve`` and a closed loop of
two client connections.

Each client replays its own seeded request stream, sending the next
request only when the previous one has been answered. A stream mixes
three kinds of request, named by what the server must do:

* ``memo``: a repeat of a (source, k, effects) the stream already asked;
  answered from the server's memo;
* ``warm``: a new (k, effects) on a source the stream already sent; the
  server holds the front half and runs only the dataflow;
* ``computed``: a source the server has not seen; the full pipeline.

The two clients draw from disjoint sources, so a request's kind does not
depend on how their requests interleave. A round replays both streams to
the end; between rounds the benchmark sends ``flush``, which empties the
server's memo and fronts, so every round asks the same work.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.bench.configs import STAMP_BENCHMARKS
from repro.serve import ServeClient, ServeError

import gen
import layers
from common import (PER_LAYER, Outcome, check_lock_sets, repeated_setup,
                    until)
from pipeline import (add_inference_counts, import_cli_s, inference_metrics,
                      reference_locks)
from spans import Spans
from stats import median, ratio, tail

CLIENTS = 2
GENERATED_PER_CLIENT = 16
GENERATED_KLOC = (0.05, 0.3)  # sizes evenly spaced over this range
STREAM_LEN = 200
WARM_PER_STREAM = 50  # the rest after one computed request per source
                      # are memo repeats
CONFIGS = tuple((k, effects) for k in (0, 1, 3, 9)
                for effects in (True, False))
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

Request = Tuple[str, str, int, bool]  # kind, source name, k, effects


def make_inputs(seed: int) -> Tuple[Dict[str, str], List[List[Request]]]:
    """Sources and one request stream per client.

    The seed picks the program texts and the order of the requests. What
    a stream asks is fixed: each source is asked once as ``computed`` and
    two or three times as ``warm``, at configs taken in a fixed rotation,
    and the rest are memo repeats. Runs with different seeds therefore
    ask for comparable work."""
    stamp = sorted(STAMP_BENCHMARKS)
    sources: Dict[str, str] = {}
    streams: List[List[Request]] = []
    low, high = GENERATED_KLOC
    for c in range(CLIENTS):
        rng = gen.stable_rng("serve-stream", seed, c)
        pool = [name for i, name in enumerate(stamp) if i % CLIENTS == c]
        for name in pool:
            sources[name] = STAMP_BENCHMARKS[name].source
        for j in range(GENERATED_PER_CLIENT):
            name = f"client{c}-{j}"
            kloc = low + (high - low) * j / (GENERATED_PER_CLIENT - 1)
            sources[name] = gen.program(name, kloc, seed)
            pool.append(name)
        # source n's requests take configs n, n+1, ... of CONFIGS, cyclic;
        # the first WARM_PER_STREAM % len(pool) sources get one extra warm
        warm_quota = {name: WARM_PER_STREAM // len(pool)
                      + (n < WARM_PER_STREAM % len(pool))
                      for n, name in enumerate(pool)}
        configs = {name: [CONFIGS[(n + i) % len(CONFIGS)]
                          for i in range(1 + warm_quota[name])]
                   for n, name in enumerate(pool)}
        rng.shuffle(pool)
        kinds = (["computed"] * (len(pool) - 1) + ["warm"] * WARM_PER_STREAM
                 + ["memo"] * (STREAM_LEN - len(pool) - WARM_PER_STREAM))
        rng.shuffle(kinds)
        # a stream opens with a source, since the other kinds need one
        kinds.insert(0, "computed")
        held: List[str] = []
        asked: List[Tuple[str, int, bool]] = []
        stream: List[Request] = []
        for i, kind in enumerate(kinds):
            ready = [name for name in held if configs[name]]
            if kind == "warm" and not ready:
                # every held source has had its warm requests: bring the
                # next new source forward
                j = kinds.index("computed", i)
                kinds[i], kinds[j] = kinds[j], kinds[i]
                kind = "computed"
            if kind == "computed":
                name = pool.pop()
                held.append(name)
            elif kind == "warm":
                name = rng.choice(ready)
            if kind == "memo":
                name, k, effects = rng.choice(asked)
            else:
                k, effects = configs[name].pop(0)
                asked.append((name, k, effects))
            stream.append((kind, name, k, effects))
        streams.append(stream)
    return sources, streams


class Server:
    """A ``repro serve --no-disk-cache`` child process and its clients."""

    def __init__(self, ctx, tag: str) -> None:
        self.socket = os.path.join(os.path.relpath(ctx.out_dir, ctx.root),
                                   f"serve-{os.getpid()}-{tag}.sock")
        self.log_path = os.path.join(ctx.out_dir,
                                     f"serve-{os.getpid()}-{tag}.log")
        argv = [sys.executable, "-m", "repro", "serve", "--socket",
                self.socket, "--no-disk-cache"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env,
                                         stdout=log, stderr=log)
        self.clients: List[ServeClient] = []
        self.peak_rss_mb = 0.0
        try:
            self.clients = [self._connect() for _ in range(CLIENTS)]
        except BaseException:
            self.stop()
            raise

    def _connect(self) -> ServeClient:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode}")
            if os.path.exists(self.socket):
                try:
                    return ServeClient(socket_path=self.socket)
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening")
            time.sleep(0.01)

    def stop(self) -> None:
        """Ask for a graceful drain, reap the process, read its peak RSS."""
        try:
            if self.clients:
                self.clients[0].shutdown()
        except (OSError, ServeError):
            pass
        for client in self.clients:
            client.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        if self.proc.returncode == 0:
            os.unlink(self.log_path)


Sample = Tuple[str, float, Dict[str, object]]  # kind, seconds, response


def replay(client: ServeClient, c: int, stream, sources, spans: Spans,
           samples: List[Tuple[int, int, Sample]],
           errors: List[Tuple[int, int, str]]) -> None:
    for i, (kind, name, k, effects) in enumerate(stream):
        started = time.perf_counter()
        try:
            with spans.span("serve.request", f"c{c}-{i}"):
                response = client.analyze(sources[name], k=k,
                                          use_effects=effects)
        except Exception as err:  # noqa: BLE001 - a failed request is data
            # transport errors, server errors and retry exhaustion alike
            errors.append((c, i, f"{type(err).__name__}: {err}"))
            continue
        samples.append((c, i, (kind, time.perf_counter() - started,
                               response)))


def one_round(server: Server, streams, sources, spans: Spans):
    samples: List[Tuple[int, int, Sample]] = []
    errors: List[Tuple[int, int, str]] = []
    threads = [threading.Thread(target=replay, name=f"client-{c}",
                                args=(server.clients[c], c, streams[c],
                                      sources, spans, samples, errors))
               for c in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    # a client thread that ended early leaves requests unsent: each of
    # them failed too
    done = {(c, i) for c, i, _ in samples} | {(c, i) for c, i, _ in errors}
    errors.extend((c, i, "no answer") for c, stream in enumerate(streams)
                  for i in range(len(stream)) if (c, i) not in done)
    server.clients[0].flush()
    return wall, samples, errors


def run(ctx) -> Outcome:
    out = Outcome()
    sources, streams = make_inputs(ctx.seed)
    out.info["input_digest"] = gen.digest({"sources": sources,
                                           "streams": streams})
    tags = itertools.count()

    def setup() -> Server:
        make_inputs(ctx.seed)  # generating the inputs is set-up work too
        server = Server(ctx, str(next(tags)))
        warm = gen.program("warm-up", 0.1, ctx.seed)
        server.clients[0].analyze(warm, k=9)
        server.clients[0].flush()
        return server

    def stop(server: Server) -> None:
        server.stop()
        out.check(server.proc.returncode == 0,
                  f"server exited with code {server.proc.returncode}")

    server, setup_s, setup_walls = repeated_setup(setup, stop)
    out.info["setup_walls"] = setup_walls
    try:
        import_s = import_cli_s(ctx.root, ctx.env) if ctx.trace else 0.0
        spans = Spans(False)
        walls: Dict[bool, List[float]] = {False: [], True: []}
        rows = []
        all_samples: List[Tuple[int, int, Sample]] = []
        for n in until(ctx.seconds, 2 if ctx.trace else 1):
            spans.enabled = ctx.trace and n % 2 == 1
            wall, samples, errors = one_round(server, streams, sources,
                                              spans)
            for c, i, error in errors:
                out.op(False, f"client {c} request {i}: {error}")
            all_samples.extend(samples)
            walls[spans.enabled].append(wall)
            if spans.enabled:
                records = spans.clear()
                out.spans.extend(records)
                rows.append(round_row(records, wall, samples))
        status = server.clients[0].status()
        retries = sum(c.stats["retries"] for c in server.clients)
    finally:
        stop(server)
    check(out, all_samples, streams, sources)
    served_errors = sum(status["metrics"].get("serve.errors", {})
                        .get("values", {}).values())
    out.check(served_errors == 0, f"server reported {served_errors} errors")
    if ctx.trace:
        metrics = layers.finish(rows, walls, import_s)
        metrics["serve.errors"] = served_errors
        metrics["client.retries"] = retries
        out.metrics = metrics
        return out
    rtts = [s[1] * 1000.0 for _, _, s in all_samples]
    kinds = [s[0] for _, _, s in all_samples]
    p50 = median(rtts)
    tail_at = tail(rtts)
    req_per_s = len(rtts) / sum(walls[False])
    out.metrics = {"setup_s": setup_s, "peak_rss_mb": server.peak_rss_mb,
                   "op_p50_ms": p50, "work_per_s": req_per_s}
    out.named = {"serve_p50_ms": (p50, "ms"),
                 "serve_req_per_s": (req_per_s, "1/s"),
                 "requests": (len(rtts), "count"),
                 "rounds": (len(walls[False]), "count")}
    if tail_at is not None:
        pct, value, beyond = tail_at
        out.named["serve_tail_ms"] = (value, "ms")
        out.info["serve_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                  "samples": len(rtts)}
    for kind in ("memo", "warm", "computed"):
        # the latency split by kind, so that a change of mix shows
        mine = [rtt for rtt, of in zip(rtts, kinds) if of == kind]
        out.named[f"serve_p50_ms.{kind}"] = (median(mine), "ms")
    out.info["shares"] = {kind: kinds.count(kind) / len(kinds)
                          for kind in ("memo", "warm", "computed")}
    return out


def round_row(records, wall: float, samples) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    row = {name: 0.0 for name in PER_LAYER if name.startswith("inference.")}
    row.update(layers.trace_summary(records, wall))
    totals: Dict[str, int] = {}
    by_kind: Dict[str, List[float]] = {"memo": [], "warm": [],
                                       "computed": []}
    memo_served = 0
    for _, _, (kind, rtt, response) in samples:
        by_kind[kind].append(rtt * 1000.0)
        if response["served"] == "memo":
            memo_served += 1
        else:
            add_inference_counts(totals, response["profile"],
                                 response["counts"])
    row.update(inference_metrics(totals))
    rtts = [rtt for values in by_kind.values() for rtt in values]
    tail_at = tail(rtts)
    row.update({f"serve.rtt_ms.{kind}": median(values)
                for kind, values in by_kind.items()})
    row["serve.tail_ms"] = tail_at[1] if tail_at else 0.0
    row["serve.memo_hit_ratio"] = ratio(memo_served, len(samples))
    return row


def check(out: Outcome, samples, streams, sources) -> None:
    """Every answer's lock sets equal the reference engine's; a request
    the stream repeats is answered from the memo, and no other is."""
    answers: Dict[Tuple[str, int, bool], set] = {}
    for c, i, (kind, _rtt, response) in samples:
        out.op(True)
        _kind, name, k, effects = streams[c][i]
        answers.setdefault((name, k, effects), set()).add(
            response["sections"])
        from_memo = response["served"] == "memo"
        out.check(from_memo == (kind == "memo"),
                  f"client {c} request {i}: a {kind} request was served "
                  f"as {response['served']}")
    configs: Dict[str, List[Tuple[int, bool]]] = {}
    for name, k, effects in answers:
        configs.setdefault(name, []).append((k, effects))
    check_lock_sets(out, answers, {
        (name, k, effects): want for name, wanted in configs.items()
        for (k, effects), want in reference_locks(sources[name],
                                                  wanted).items()})
