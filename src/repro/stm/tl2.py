"""TL2-style software transactional memory (the paper's STM baseline [7]).

Faithful reimplementation of the Transactional Locking II algorithm over the
interpreter heap:

* a global version clock;
* per-cell metadata: a version number and a commit-time write lock;
* transactions read the clock at start (``rv``), validate every read against
  it, buffer writes (lazy versioning, read-your-writes), and at commit time
  lock the write set in canonical order, re-validate the read set, write
  back with a fresh version, and release.

Conflicts raise :class:`TxAbort`; the interpreter rolls back the section's
local frame and re-executes after exponential backoff — the abort/retry cost
that dominates the paper's vacation and hashtable-high results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..memory import CellKey, Heap, Loc, Value


class TxAbort(Exception):
    """Transaction conflict: roll back and retry."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class STMStats:
    starts: int = 0
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    writes: int = 0

    @property
    def abort_rate(self) -> float:
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0


class TL2System:
    """Shared STM state: the global clock and per-cell version/lock words."""

    def __init__(self) -> None:
        self.clock = 0
        self.versions: Dict[CellKey, int] = {}
        self.lockers: Dict[CellKey, int] = {}  # cell -> owning thread id
        self.stats = STMStats()

    def version_of(self, key: CellKey) -> int:
        return self.versions.get(key, 0)

    def locked_by_other(self, key: CellKey, tid: int) -> bool:
        owner = self.lockers.get(key)
        return owner is not None and owner != tid


class TL2Tx:
    """One transaction attempt."""

    def __init__(self, system: TL2System, tid: int) -> None:
        self.system = system
        self.tid = tid
        self.rv = system.clock
        self.read_set: Dict[CellKey, int] = {}
        self.write_set: Dict[CellKey, Tuple[Loc, Value]] = {}
        system.stats.starts += 1

    # -- transactional accesses ----------------------------------------------

    def read(self, loc: Loc) -> Value:
        key = loc.key
        self.system.stats.reads += 1
        if key in self.write_set:
            return self.write_set[key][1]
        if self.system.locked_by_other(key, self.tid):
            raise TxAbort("read of locked cell")
        version = self.system.version_of(key)
        if version > self.rv:
            raise TxAbort("read of newer version")
        value = Heap.read(loc)
        # post-validation: the version must not have moved while reading
        if self.system.version_of(key) != version or self.system.locked_by_other(
            key, self.tid
        ):
            raise TxAbort("read raced with a commit")
        self.read_set[key] = version
        return value

    def write(self, loc: Loc, value: Value) -> None:
        self.system.stats.writes += 1
        self.write_set[loc.key] = (loc, value)

    # -- commit ----------------------------------------------------------------

    def commit(self) -> int:
        """Attempt to commit; returns the simulated tick cost. Raises
        :class:`TxAbort` (after releasing any commit locks) on conflict."""
        system = self.system
        if not self.write_set:
            system.stats.commits += 1
            return 1 + len(self.read_set) // 2
        acquired = []
        try:
            for key in sorted(self.write_set, key=_cell_sort_key):
                if system.locked_by_other(key, self.tid):
                    raise TxAbort("write lock busy")
                system.lockers[key] = self.tid
                acquired.append(key)
            wv = system.clock + 1
            system.clock = wv
            if wv != self.rv + 1:
                for key in self.read_set:
                    # A cell in our own write set is locked by us, but its
                    # version must still not have moved past rv since we
                    # read it (classic TL2 read-set validation).
                    if system.locked_by_other(key, self.tid):
                        raise TxAbort("validation: cell locked")
                    if system.version_of(key) > self.rv:
                        raise TxAbort("validation: cell changed")
            for key, (loc, value) in self.write_set.items():
                Heap.write(loc, value)
                system.versions[key] = wv
        except TxAbort:
            # stats.aborts is incremented once by the interpreter's retry
            # handler via abort(), covering read- and commit-time conflicts.
            for key in acquired:
                system.lockers.pop(key, None)
            raise
        for key in acquired:
            system.lockers.pop(key, None)
        system.stats.commits += 1
        return 2 + 2 * len(self.write_set) + len(self.read_set)

    def abort(self) -> None:
        self.system.stats.aborts += 1


def _cell_sort_key(key: CellKey):
    oid, off = key
    if off is None:
        return (oid, 0, "")
    if isinstance(off, str):
        return (oid, 1, off)
    return (oid, 2, off)


def backoff_ticks(attempts: int, tid: int) -> int:
    """Deterministic bounded backoff.

    TL2 v0.9.3 (the paper's baseline) retries almost immediately — the
    paper observes 1.7M aborts for 1k commits on vacation — so the bound
    is kept small; raising it would model a politer STM than the paper's.
    """
    base = 1 << min(attempts, 3)
    return min(base, 8) + (tid % 3)
