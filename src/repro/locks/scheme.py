"""Abstract lock schemes (§3.3): the paper's parameterized framework.

An abstract lock scheme is a tuple ``Σ = (L, ≤, ⊤, ·̄, +, *)``: a bounded
join-semilattice of lock names plus three operators that inductively build
the lock protecting any expression::

    x̂ = x̄        ê+i = ê(ro) + i        *ê = * ê(ro)

This module implements the framework interface and the paper's example
instances (Σ_k expression locks, Σ_≡ unification points-to locks, Σ_ε
read/write locks, Σ_i field locks, and Cartesian products). The production
inference engine uses the specialized tree-shaped instantiation in
:mod:`repro.locks.paperlock`; this generic layer backs the formal examples,
the ``custom_scheme`` example, and the lattice-law property tests.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Tuple

from .effects import RO, RW, eff_join, eff_leq
from .terms import Term, TIndex, TPlus, TStar, TVar, term_size

TOP = "⊤"


class AbstractLockScheme:
    """Framework interface. Lock names are opaque hashables; ``top()`` is ⊤."""

    name = "abstract"

    def top(self) -> Hashable:
        raise NotImplementedError

    def leq(self, a: Hashable, b: Hashable) -> bool:
        raise NotImplementedError

    def join(self, a: Hashable, b: Hashable) -> Hashable:
        raise NotImplementedError

    # The three operators. ``p`` is a program point tag (opaque; the paper's
    # example schemes are all point-independent) and ``eff`` an effect.
    def var(self, x: str, p: object = None, eff: str = RW) -> Hashable:
        raise NotImplementedError

    def plus(self, lock: Hashable, fieldname: str, p: object = None,
             eff: str = RW) -> Hashable:
        raise NotImplementedError

    def star(self, lock: Hashable, p: object = None, eff: str = RW) -> Hashable:
        raise NotImplementedError

    # -- derived -------------------------------------------------------------

    def hat(self, term: Term, p: object = None, eff: str = RW) -> Hashable:
        """The inductive lock ê protecting the cell *term* denotes (§3.3)."""
        if isinstance(term, TVar):
            return self.var(term.name, p, eff)
        if isinstance(term, TStar):
            return self.star(self.hat(term.inner, p, RO), p, eff)
        if isinstance(term, TPlus):
            return self.plus(self.hat(term.inner, p, RO), term.fieldname, p, eff)
        if isinstance(term, TIndex):
            return self.plus(self.hat(term.inner, p, RO), "$idx", p, eff)
        raise TypeError(f"unknown term {term!r}")

    def some_locks(self) -> Iterable[Hashable]:
        """A finite sample of lock names (used by lattice-law tests)."""
        return [self.top()]


# ---------------------------------------------------------------------------
# Σ_ε: read / write locks
# ---------------------------------------------------------------------------


class EffectScheme(AbstractLockScheme):
    """L = Eff, ≤ = ⊑, ⊤ = rw; every operator returns the access effect."""

    name = "effects"

    def top(self) -> str:
        return RW

    def leq(self, a: str, b: str) -> bool:
        return eff_leq(a, b)

    def join(self, a: str, b: str) -> str:
        return eff_join(a, b)

    def var(self, x: str, p: object = None, eff: str = RW) -> str:
        return eff

    def plus(self, lock: str, fieldname: str, p: object = None,
             eff: str = RW) -> str:
        return eff

    def star(self, lock: str, p: object = None, eff: str = RW) -> str:
        return eff

    def some_locks(self) -> Iterable[str]:
        return [RO, RW]


# ---------------------------------------------------------------------------
# Σ_i: field-based locks
# ---------------------------------------------------------------------------


class FieldScheme(AbstractLockScheme):
    """L = 2^F (frozensets of field names), ≤ = ⊆, ⊤ = all fields.

    ``l + i = {i}``; variables and derefs are protected by ⊤.
    """

    name = "fields"

    def __init__(self, all_fields: Iterable[str]) -> None:
        self.all_fields = frozenset(all_fields)

    def top(self) -> frozenset:
        return self.all_fields

    def leq(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def var(self, x: str, p: object = None, eff: str = RW) -> frozenset:
        return self.all_fields

    def plus(self, lock: frozenset, fieldname: str, p: object = None,
             eff: str = RW) -> frozenset:
        if fieldname not in self.all_fields:
            return self.all_fields
        return frozenset((fieldname,))

    def star(self, lock: frozenset, p: object = None, eff: str = RW) -> frozenset:
        return self.all_fields

    def some_locks(self) -> Iterable[frozenset]:
        fields = sorted(self.all_fields)
        singles = [frozenset((f,)) for f in fields[:3]]
        return [frozenset(), *singles, self.all_fields]


# ---------------------------------------------------------------------------
# Σ_k: expression locks with k-limiting
# ---------------------------------------------------------------------------


class KLimitScheme(AbstractLockScheme):
    """Expression locks for terms of size ≤ k; anything larger is ⊤.

    Lock names are ``(term,)`` tuples or the string ⊤. All locks protect for
    read-write (the effect parameter is ignored, as in the paper's Σ_k).
    """

    name = "k-limit"

    def __init__(self, k: int) -> None:
        self.k = k

    def _limit(self, term: Term):
        if term_size(term) <= self.k:
            return ("expr", term)
        return TOP

    def top(self):
        return TOP

    def leq(self, a, b) -> bool:
        return b == TOP or a == b

    def join(self, a, b):
        return a if a == b else TOP

    def var(self, x: str, p: object = None, eff: str = RW):
        return self._limit(TVar(x))

    def plus(self, lock, fieldname: str, p: object = None, eff: str = RW):
        if lock == TOP:
            return TOP
        return self._limit(TPlus(lock[1], fieldname))

    def star(self, lock, p: object = None, eff: str = RW):
        if lock == TOP:
            return TOP
        return self._limit(TStar(lock[1]))

    def some_locks(self) -> Iterable[Hashable]:
        terms = [TVar("x"), TVar("y"), TStar(TVar("x")), TPlus(TStar(TVar("x")), "f")]
        return [TOP] + [self._limit(t) for t in terms]


# ---------------------------------------------------------------------------
# Σ_≡: unification-based points-to locks
# ---------------------------------------------------------------------------


class PointsToScheme(AbstractLockScheme):
    """Lock names are points-to class ids (plus ⊤); classes are disjoint.

    Requires a completed :class:`repro.pointer.steensgaard.PointsTo` analysis
    and the name of the function providing variable scope.
    """

    name = "points-to"

    def __init__(self, pointsto, func_name: str) -> None:
        self.pointsto = pointsto
        self.func_name = func_name

    def top(self):
        return TOP

    def leq(self, a, b) -> bool:
        return b == TOP or a == b

    def join(self, a, b):
        return a if a == b else TOP

    def var(self, x: str, p: object = None, eff: str = RW):
        return ("cls", self.pointsto.class_of_var(self.func_name, x))

    def plus(self, lock, fieldname: str, p: object = None, eff: str = RW):
        if lock == TOP:
            return TOP
        ecr = self.pointsto.ecr_of_class_id(lock[1])
        if ecr is None:
            return TOP
        return ("cls", self.pointsto.class_id(
            self.pointsto.offset_class(ecr, fieldname)))

    def star(self, lock, p: object = None, eff: str = RW):
        if lock == TOP:
            return TOP
        ecr = self.pointsto.ecr_of_class_id(lock[1])
        if ecr is None:
            return TOP
        return ("cls", self.pointsto.class_id(self.pointsto.pts_class(ecr)))


# ---------------------------------------------------------------------------
# Cartesian product
# ---------------------------------------------------------------------------


class ProductScheme(AbstractLockScheme):
    """Σ_1 × Σ_2: componentwise lattice and operators (§3.3.1)."""

    def __init__(self, *schemes: AbstractLockScheme) -> None:
        if len(schemes) < 2:
            raise ValueError("a product needs at least two schemes")
        self.schemes: Tuple[AbstractLockScheme, ...] = schemes
        self.name = " x ".join(s.name for s in schemes)

    def top(self) -> tuple:
        return tuple(s.top() for s in self.schemes)

    def leq(self, a: tuple, b: tuple) -> bool:
        return all(s.leq(x, y) for s, x, y in zip(self.schemes, a, b))

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(s.join(x, y) for s, x, y in zip(self.schemes, a, b))

    def var(self, x: str, p: object = None, eff: str = RW) -> tuple:
        return tuple(s.var(x, p, eff) for s in self.schemes)

    def plus(self, lock: tuple, fieldname: str, p: object = None,
             eff: str = RW) -> tuple:
        return tuple(
            s.plus(component, fieldname, p, eff)
            for s, component in zip(self.schemes, lock)
        )

    def star(self, lock: tuple, p: object = None, eff: str = RW) -> tuple:
        return tuple(
            s.star(component, p, eff) for s, component in zip(self.schemes, lock)
        )

    def some_locks(self) -> Iterable[tuple]:
        pools = [list(s.some_locks()) for s in self.schemes]
        return [tuple(combo) for combo in itertools.product(*pools)]
