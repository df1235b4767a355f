"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout. Workloads (README.md says why each):
``analyze-cold``, ``reproduce`` and ``serve-mixed``.

With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace
1`` it alternates untraced and traced passes and reports per-layer metrics
from spans recorded around the benchmark's own calls into each layer. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The full report (input digest,
environment fingerprint, the workload's own metrics, failures) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a traced run's
spans to ``...spans.jsonl`` beside it. The exit code is 0 only when every
output check passed.

The process re-executes itself with ``PYTHONHASHSEED=0`` so that set and
dict orders, and with them the analysis counters, are the same in every
run; its children get the same hash seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"

WORKLOADS = ("analyze-cold", "reproduce", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the program's source files, paths included."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fingerprint():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "commit": commit,
        "source_digest": source_digest(),
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]

    from common import END_TO_END, PER_LAYER, Ctx
    from spans import Spans

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = Ctx(root=ROOT, out_dir=out_dir, seed=args.seed,
              seconds=args.seconds, trace=bool(args.trace),
              env=dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=SRC))
    module = __import__(args.workload.replace("-", "_"))
    outcome = module.run(ctx)

    if outcome.attempted == 0:
        outcome.failures.append("no operation was attempted")
    catalogue = PER_LAYER if ctx.trace else END_TO_END
    missing = sorted(set(catalogue) - set(outcome.metrics))
    if missing:
        outcome.failures.append(f"metrics not measured: {missing}")
    metrics = {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
               for name, unit in catalogue.items()}
    failed = len(outcome.failures)
    attempted = max(1, outcome.attempted)  # the result line needs >= 1
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": fingerprint(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": outcome.failures,
        "metrics": metrics,
        "workload_metrics": {name: {"value": value, "unit": unit}
                             for name, (value, unit)
                             in outcome.named.items()},
        "info": outcome.info,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    if ctx.trace:
        Spans.write(stem + ".spans.jsonl", outcome.spans)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print(f"#   environment: {json.dumps(report['environment'])}")
    print(f"#   input digest: {outcome.info.get('input_digest')}")
    print(f"#   error_rate: {report['error_rate']:.4f} "
          f"({failed} of {attempted})")
    for failure in outcome.failures[:20]:
        print(f"#   FAILED: {failure}")
    for name, (value, unit) in outcome.named.items():
        print(f"#   {name}: {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"#   {name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
