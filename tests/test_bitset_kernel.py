"""The bitset dataflow kernel's fact encoding and engine equivalence.

Two layers of guarantees for :mod:`repro.inference.facts` and the bitset
engine core built on it:

* **encoding laws** (hypothesis over random term/effect sets) — the 2-bit
  fact encoding round-trips through ``encode``/``decode``, bitwise OR is
  exactly the effect-lattice join (``ro ⊔ rw = rw``) and popcount matches
  the fact-set shape;
* **engine equivalence** (hypothesis over k ∈ {0, 1, 9} × effects on/off,
  exhaustively per benchmark program) — the bitset engine's section locks
  render byte-identically to the set-based reference engine
  (``enable_caches=False``).

FactInterner unit tests (ID stability, reverse lookup, canonical bit
patterns) anchor the properties on pinned examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import ALL_BENCHMARKS
from repro.cfg import build_cfgs
from repro.inference import Engine
from repro.inference.facts import FactInterner, popcount
from repro.lang import lower_program, parse_program
from repro.locks.effects import RO, RW, eff_join
from repro.locks.terms import TPlus, TStar, TVar
from repro.pointer import PointsTo

# ---------------------------------------------------------------------------
# strategies: hash-consed terms and {term: effect} fact sets
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([TVar(name) for name in ("a", "b", "g", "p", "q")])
_TERMS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(TStar),
        st.tuples(inner, st.sampled_from(("f", "next"))).map(
            lambda pair: TPlus(pair[0], pair[1])),
    ),
    max_leaves=4,
)
_FACT_SETS = st.dictionaries(_TERMS, st.sampled_from((RO, RW)), max_size=10)


# ---------------------------------------------------------------------------
# FactInterner unit tests
# ---------------------------------------------------------------------------


def test_ids_are_stable_and_dense():
    interner = FactInterner()
    terms = [TVar("x"), TStar(TVar("x")), TPlus(TVar("y"), "f")]
    first = [interner.term_id(t) for t in terms]
    assert first == [0, 1, 2]  # dense, first-interning order
    again = [interner.term_id(t) for t in terms]
    assert again == first  # re-interning never moves an ID
    assert len(interner) == 3


def test_reverse_lookup():
    interner = FactInterner()
    term = TStar(TVar("p"))
    tid = interner.term_id(term)
    assert interner.term(tid) is term  # hash-consing: identity, not just eq
    assert interner.fact(interner.fact_id(term, RO)) == (term, RO)
    assert interner.fact(interner.fact_id(term, RW)) == (term, RW)


def test_canonical_bit_patterns():
    interner = FactInterner()
    term = TVar("x")
    ro = interner.bits_for(term, RO)
    rw = interner.bits_for(term, RW)
    assert ro == interner.term_bit(term)
    assert ro.bit_length() % 2 == 1  # presence bit sits at an even position
    assert rw == ro | (ro << 1)  # rw sets BOTH bits of the pair
    assert ro | rw == rw  # so OR is the effect join


def test_encode_joins_duplicate_terms():
    interner = FactInterner()
    term = TVar("x")
    bits = interner.encode([(term, RO), (term, RW)])
    assert bits == interner.bits_for(term, RW)
    assert interner.decode(bits) == {term: RW}


def test_decode_tolerates_lone_rw_bit():
    interner = FactInterner()
    term = TVar("x")
    lone_high = interner.term_bit(term) << 1
    assert interner.decode(lone_high) == {term: RW}


def test_popcount_py39_fallback_agrees():
    from repro.inference.facts import _bit_count
    for value in (0, 1, 0b1011, (1 << 75) | 7):
        assert _bit_count(value) == bin(value).count("1")
        assert popcount(value) == bin(value).count("1")


# ---------------------------------------------------------------------------
# encoding laws (hypothesis)
# ---------------------------------------------------------------------------


@given(facts=_FACT_SETS)
def test_encode_decode_round_trip(facts):
    interner = FactInterner()
    assert interner.decode(interner.encode(facts)) == facts


@given(left=_FACT_SETS, right=_FACT_SETS)
def test_or_is_the_fact_set_join(left, right):
    interner = FactInterner()
    joined = dict(left)
    for term, eff in right.items():
        joined[term] = eff_join(joined.get(term, eff), eff)
    assert (interner.encode(left) | interner.encode(right)
            == interner.encode(joined))


@given(facts=_FACT_SETS)
def test_popcount_matches_fact_shape(facts):
    interner = FactInterner()
    rw_count = sum(1 for eff in facts.values() if eff == RW)
    assert popcount(interner.encode(facts)) == len(facts) + rw_count


# ---------------------------------------------------------------------------
# engine equivalence: bitset kernel ≡ set-based reference
# ---------------------------------------------------------------------------

_FRONT_CACHE = {}


def _front(name):
    if name not in _FRONT_CACHE:
        program = lower_program(parse_program(ALL_BENCHMARKS[name].source))
        pointsto = PointsTo(program).analyze()
        cfgs = build_cfgs(program)
        _FRONT_CACHE[name] = (program, pointsto, cfgs)
    return _FRONT_CACHE[name]


def _rendered_locks(program, cfgs, pointsto, k, use_effects, enable_caches):
    engine = Engine(program, cfgs, pointsto, k=k, use_effects=use_effects,
                    enable_caches=enable_caches)
    out = {}
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            result = engine.analyze_section(func_name, section)
            out[section.section_id] = sorted(str(l) for l in result.locks)
    return out


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(k=st.sampled_from((0, 1, 9)), use_effects=st.booleans())
def test_bitset_engine_matches_reference(name, k, use_effects):
    program, pointsto, cfgs = _front(name)
    optimized = _rendered_locks(program, cfgs, pointsto, k, use_effects, True)
    reference = _rendered_locks(program, cfgs, pointsto, k, use_effects, False)
    assert optimized == reference, f"{name} k={k} effects={use_effects}"
