"""Synthetic SPEC-like corpus tests (Table 1 substrate)."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.bench.programs.spec import SPEC_SIZES, generate_spec_program, spec_sources
from repro.inference import infer_locks
from repro.lang import ir, lower_program, parse_program


def test_corpus_has_paper_programs():
    assert set(SPEC_SIZES) == {
        "gzip", "parser", "vpr", "crafty", "twolf", "gap", "vortex",
    }
    assert SPEC_SIZES["vortex"] > SPEC_SIZES["gzip"]


def test_generator_is_deterministic():
    a = generate_spec_program("gzip", 1.0, seed=3)
    b = generate_spec_program("gzip", 1.0, seed=3)
    assert a == b
    c = generate_spec_program("gzip", 1.0, seed=4)
    assert a != c


def test_generated_size_tracks_target():
    small = generate_spec_program("gzip", 0.5)
    large = generate_spec_program("gzip", 2.0)
    assert large.count("\n") > 2.5 * small.count("\n")
    # within ~35% of the requested line count
    lines = large.count("\n")
    assert 0.65 * 2000 <= lines <= 1.35 * 2000


def test_generated_programs_parse_and_lower():
    source = generate_spec_program("parser", 0.4)
    program = lower_program(parse_program(source))
    assert "main" in program.functions
    atomics = [
        i
        for i in ir.walk_instrs(program.functions["main"].body)
        if isinstance(i, ir.IAtomic)
    ]
    assert len(atomics) == 1  # main wrapped in one atomic section


def test_generated_programs_analyze_at_both_ks():
    source = generate_spec_program("gzip", 0.3)
    for k in (0, 9):
        result = infer_locks(source, k=k)
        assert "main#1" in result.sections
        assert result.sections["main#1"].locks


def test_spec_sources_scaling():
    sources = spec_sources(scale=0.02)
    assert set(sources) == set(SPEC_SIZES)
    # relative ordering of sizes is preserved
    sizes = {name: src.count("\n") for name, src in sources.items()}
    assert sizes["vortex"] > sizes["gzip"]


SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# A timing figure such as "0.123s": everything else --profile prints is a
# deterministic count.
_TIMING = re.compile(r"\d+\.\d+s\b")


def _run_with_hash_seed(seed, argv):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
    proc = subprocess.run([sys.executable] + argv, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout


def test_corpus_and_analysis_do_not_depend_on_the_hash_seed(tmp_path):
    dump = ("import json; from repro.bench.programs.spec import spec_sources;"
            " print(json.dumps(spec_sources(scale=0.05), sort_keys=True))")
    texts = [_run_with_hash_seed(seed, ["-c", dump]) for seed in (1, 2)]
    assert texts[0] == texts[1]
    path = tmp_path / "gzip.mc"
    path.write_text(json.loads(texts[0])["gzip"])
    outputs = [
        _run_with_hash_seed(seed, ["-m", "repro", "analyze", str(path),
                                   "--no-disk-cache", "--profile"])
        for seed in (1, 2)
    ]
    counts = [[line for line in out.splitlines() if not _TIMING.search(line)]
              for out in outputs]
    assert any("dataflow steps" in line for line in counts[0])
    assert counts[0] == counts[1]
