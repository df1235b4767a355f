"""Golden equivalence: the optimized engine must match the naive engine.

The performance layer (term interning, the bitset dataflow kernel with its
gen/kill masks, substituter memoization, bottom-up summary precompute,
dependency-driven section convergence) is required to be
*result-preserving*: for every benchmark program and every configuration
(k ∈ {0, 1, 3, 9}, effects on/off) the optimized engine must produce lock
sets identical — down to the rendered text — to the reference engine with
``enable_caches=False`` (the seed's restart-until-globally-stable loop and
uncached, set-based transfer functions).  The two engines also solve
summaries in different orders: the optimized one bottom-up over the call
graph's SCCs, as ``LockInference`` runs it, the reference one lazily on
demand from inside section dataflows.

Both engines share one parse/lower/points-to front half per program so
points-to class ids are comparable across runs.
"""

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.cfg import build_cfgs
from repro.inference import Engine, precompute_summaries
from repro.lang import lower_program, parse_program
from repro.pointer import PointsTo

KS = (0, 1, 3, 9)


def _section_locks(program, cfgs, pointsto, k, use_effects, enable_caches):
    engine = Engine(program, cfgs, pointsto, k=k, use_effects=use_effects,
                    enable_caches=enable_caches)
    if enable_caches:
        precompute_summaries(engine)
    out = {}
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            result = engine.analyze_section(func_name, section)
            out[section.section_id] = result.locks
    return out


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_optimized_engine_matches_reference(name):
    spec = ALL_BENCHMARKS[name]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    for k in KS:
        for use_effects in (True, False):
            optimized = _section_locks(program, cfgs, pointsto, k,
                                       use_effects, True)
            reference = _section_locks(program, cfgs, pointsto, k,
                                       use_effects, False)
            assert optimized.keys() == reference.keys()
            for section_id in reference:
                assert optimized[section_id] == reference[section_id], (
                    f"{name} k={k} effects={use_effects} "
                    f"section={section_id}"
                )
                # byte-identical rendering, not merely set-equal objects
                assert (
                    sorted(str(lock) for lock in optimized[section_id])
                    == sorted(str(lock) for lock in reference[section_id])
                )


def test_reference_engine_reports_no_cache_activity():
    spec = ALL_BENCHMARKS["vacation"]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9, enable_caches=False)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["call_transfers"] == 0
    assert engine.stats["mask_hits"] == 0
    assert engine.stats["mask_fallbacks"] == 0
    # the reference path must stay pure: no substituter reuse, no
    # kernels, and no fact interner (bitsets never touched)
    assert not engine._substituters
    assert not engine._kernels
    assert not engine._kill_kernels
    assert engine._interner is None
    assert engine.fact_terms == 0
    assert engine.peak_bits == 0


def test_optimized_engine_actually_caches():
    spec = ALL_BENCHMARKS["vacation"]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9)
    precompute_summaries(engine)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    # statement transfers run on the bitset kernel: repeat visits must be
    # served by the identity-mask/memo fast path, not per-fact fallbacks
    assert engine.stats["mask_hits"] > 0
    assert engine.stats["mask_fallbacks"] > 0
    assert engine.stats["call_transfers"] > 0  # call nodes bypass the kernel
    assert engine.fact_terms > 0
    assert engine.peak_bits > 0
