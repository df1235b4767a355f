"""Lock access modes and the compatibility matrix of Figure 6.

Traditional modes: S (shared / read-only) and X (exclusive / read-write).
Multi-granularity locking adds intention modes (Gray et al. [15, 16]):
IS (intention to read below), IX (intention to write below), and SIX
(read everything here + intention to write some children).
"""

from __future__ import annotations

from typing import Optional

from ..locks.effects import RO

IS = "IS"
IX = "IX"
S = "S"
SIX = "SIX"
X = "X"

MODES = (IS, IX, S, SIX, X)

# Figure 6(b): which pairs of modes may be held concurrently by two threads.
_COMPAT = {
    (IS, IS): True, (IS, IX): True, (IS, S): True, (IS, SIX): True, (IS, X): False,
    (IX, IS): True, (IX, IX): True, (IX, S): False, (IX, SIX): False, (IX, X): False,
    (S, IS): True, (S, IX): False, (S, S): True, (S, SIX): False, (S, X): False,
    (SIX, IS): True, (SIX, IX): False, (SIX, S): False, (SIX, SIX): False, (SIX, X): False,
    (X, IS): False, (X, IX): False, (X, S): False, (X, SIX): False, (X, X): False,
}


def compatible(a: str, b: str) -> bool:
    """May one thread hold mode *a* while another holds mode *b*?"""
    return _COMPAT[(a, b)]


# The mode join used when one thread needs several modes on the same node:
# the partial order IS < IX < SIX < X and IS < S < SIX < X.
_ORDER = {IS: 0, IX: 1, S: 1, SIX: 2, X: 3}


def combine(a: Optional[str], b: str) -> str:
    """The weakest single mode granting both *a* and *b* to one thread."""
    if a is None or a == b:
        return b
    pair = frozenset((a, b))
    if pair == frozenset((IS, IX)):
        return IX
    if pair == frozenset((IS, S)):
        return S
    if pair == frozenset((IX, S)) or pair == frozenset((IX, SIX)) or pair == frozenset((S, SIX)) or pair == frozenset((IS, SIX)):
        return SIX
    if X in pair:
        return X
    return SIX if SIX in pair else X


def mode_for_effect(eff: str) -> str:
    """The leaf mode for a lock with effect *eff*: S for ro, X for rw."""
    return S if eff == RO else X


def intention_for_effect(eff: str) -> str:
    """The ancestor intention mode: IS below a read, IX below a write."""
    return IS if eff == RO else IX


def grants_read(mode: str) -> bool:
    """Does holding *mode* on a node permit reading every cell it covers?"""
    return mode in (S, SIX, X)


def grants_write(mode: str) -> bool:
    """Does holding *mode* on a node permit writing every cell it covers?"""
    return mode == X
