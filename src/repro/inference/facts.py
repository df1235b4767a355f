"""Dense fact interning for the bitset dataflow kernel.

The backward must-analysis of §4 tracks, per program point, a set of
``(lock-term, effect)`` facts.  The classic way to make such an analysis
fast is the bitvector representation: intern every fact to a dense integer
ID and keep each program point's fact set as one arbitrary-precision
``int``.  Joins become a single ``|``, fixpoint change detection becomes
integer equality, and transfer memos key on the bitset directly instead
of rebuilding a ``frozenset`` per lookup.

:class:`FactInterner` is that ID space for one engine run.  Every *term*
gets a dense ID in first-interning order; the two effects share the
term's ID through a two-bit encoding:

* bit ``2*tid``     — the term is present (with effect at least ``ro``);
* bit ``2*tid + 1`` — the term's effect is ``rw``.

An ``rw`` fact always sets **both** bits.  Under that invariant bitwise OR
is exactly the fact-set join (``ro ⊔ rw = rw`` falls out of the OR), and a
canonical set has one encoding, so ``int`` equality is set equality.  All
bit patterns produced by this module maintain the invariant; ``decode``
additionally tolerates a lone high bit (reading it as ``rw``) so it is
total on arbitrary ints.

IDs are engine-local and **never escape the engine**: summaries and disk
cache entries serialize terms, not IDs (see
:mod:`repro.inference.diskcache` — the salt/cone-hash scheme is untouched
by the kernel).

The interner keys its table by the hash-consed :class:`~repro.locks.terms.Term`
instances, so lookups hash and compare at identity speed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple, Union

from ..locks.effects import RO, RW
from ..locks.terms import Term

try:  # Python 3.10+
    _bit_count = int.bit_count
except AttributeError:  # pragma: no cover - py3.9 fallback
    def _bit_count(value: int) -> int:
        return bin(value).count("1")


def popcount(bits: int) -> int:
    """Number of set bits (used for the peak-bitset-popcount profile stat)."""
    return _bit_count(bits)


class FactInterner:
    """Per-run dense IDs for ``(term, effect)`` facts, with reverse lookup."""

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []

    def __len__(self) -> int:
        """Number of interned terms (each carries two fact IDs)."""
        return len(self._terms)

    # -- IDs -----------------------------------------------------------

    def term_id(self, term: Term) -> int:
        """The dense ID of *term*, interning it on first sight.

        IDs are assigned in first-interning order and never change or get
        reused for the interner's lifetime (ID stability).
        """
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def term(self, tid: int) -> Term:
        """Reverse lookup: the term with dense ID *tid*."""
        return self._terms[tid]

    def fact_id(self, term: Term, eff: str) -> int:
        """The bit position encoding the fact ``(term, eff)``."""
        return (self.term_id(term) << 1) | (1 if eff == RW else 0)

    def fact(self, fid: int) -> Tuple[Term, str]:
        """Reverse lookup: the ``(term, effect)`` fact at bit position *fid*."""
        return self._terms[fid >> 1], RW if fid & 1 else RO

    # -- bit patterns --------------------------------------------------

    def term_bit(self, term: Term) -> int:
        """The lone presence bit of *term* (its ``ro`` fact mask)."""
        return 1 << (self.term_id(term) << 1)

    def bits_for(self, term: Term, eff: str) -> int:
        """The canonical mask of one fact: one bit for ``ro``, two for ``rw``."""
        low = 1 << (self.term_id(term) << 1)
        return low | (low << 1) if eff == RW else low

    def encode(self, facts: Union[Dict[Term, str],
                                  Iterable[Tuple[Term, str]]]) -> int:
        """Bitset of a fact set given as ``{term: eff}`` or ``(term, eff)``
        pairs; duplicate terms join their effects (OR of the masks)."""
        bits = 0
        items = facts.items() if isinstance(facts, dict) else facts
        for term, eff in items:
            low = 1 << (self.term_id(term) << 1)
            bits |= low | (low << 1) if eff == RW else low
        return bits

    def iter_facts(self, bits: int) -> Iterator[Tuple[Term, str]]:
        """The facts of *bits*, in ascending term-ID order."""
        terms = self._terms
        while bits:
            low = bits & -bits
            idx = low.bit_length() - 1
            if idx & 1:  # lone rw bit (malformed): still means rw
                yield terms[idx >> 1], RW
                bits ^= low
                continue
            high = low << 1
            if bits & high:
                yield terms[idx >> 1], RW
                bits ^= low | high
            else:
                yield terms[idx >> 1], RO
                bits ^= low
        return

    def decode(self, bits: int) -> Dict[Term, str]:
        """The ``{term: effect}`` fact set *bits* encodes."""
        return dict(self.iter_facts(bits))
