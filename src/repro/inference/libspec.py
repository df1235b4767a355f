"""Pre-compiled library support (paper §4.3, "Supporting pre-compiled
libraries").

The paper's compiler assumes whole-program source; for external functions it
sketches *function specifications*: a list of coarse-grain locks plus
effects, used to (a) protect whatever the callee touches and (b) decide
whether fine-grain lock expressions inferred after a call could have been
changed by it.

:class:`ExternalSpec` captures that sketch. Each parameter gets an effect
level:

* ``none``    — the callee never dereferences the argument;
* ``ro``      — reads cells reachable from the argument;
* ``rw``      — reads and writes cells reachable from the argument;

plus ``reads_globals`` / ``writes_globals`` flags and a ``returns``
description (``"fresh"`` — a newly allocated object, ``"param:i"`` — one of
the arguments or something reachable from it, or ``"unknown"``).

Given a spec, the call transfer:

1. emits coarse locks for every points-to class (transitively) reachable
   from the effectful arguments, with the spec's effect;
2. passes caller lock terms through unchanged when none of the cells they
   read lie in a class the callee may write, and widens them to their
   class's coarse lock otherwise (the paper's "replace the affected
   fine-grain locks by coarser locks");
3. resolves result-value terms per ``returns`` (fresh ⇒ dropped, param:i ⇒
   rebound to the argument, unknown ⇒ widened).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..pointer.steensgaard import ECR, PointsTo

PARAM_EFFECTS = ("none", "ro", "rw")
RETURN_KINDS = ("fresh", "unknown")  # or "param:<i>"


@dataclass(frozen=True)
class ExternalSpec:
    """Specification of one pre-compiled (source-unavailable) function."""

    name: str
    param_effects: Tuple[str, ...] = ()
    reads_globals: bool = False
    writes_globals: bool = False
    returns: str = "unknown"

    def __post_init__(self) -> None:
        for eff in self.param_effects:
            if eff not in PARAM_EFFECTS:
                raise ValueError(f"bad parameter effect {eff!r}")
        if self.returns not in RETURN_KINDS and not self.returns.startswith(
            "param:"
        ):
            raise ValueError(f"bad returns spec {self.returns!r}")

    @property
    def return_param(self) -> Optional[int]:
        if self.returns.startswith("param:"):
            return int(self.returns.split(":", 1)[1])
        return None


class SpecLibrary:
    """A set of external function specifications, consulted by the engine."""

    def __init__(self, specs: Sequence[ExternalSpec] = ()) -> None:
        self._specs: Dict[str, ExternalSpec] = {s.name: s for s in specs}

    def add(self, spec: ExternalSpec) -> None:
        self._specs[spec.name] = spec

    def get(self, name: str) -> Optional[ExternalSpec]:
        return self._specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


def reachable_classes(pointsto: PointsTo, start: ECR,
                      max_classes: int = 64) -> Set[int]:
    """Class ids of every cell (transitively) reachable from cells in
    *start*: follow pointees and all materialized fields to a fixpoint."""
    seen: Set[int] = set()
    ecrs: List[ECR] = [start.find()]
    visited = set()
    while ecrs and len(seen) < max_classes:
        ecr = ecrs.pop().find()
        if id(ecr) in visited:
            continue
        visited.add(id(ecr))
        seen.add(pointsto.class_id(ecr))
        if ecr.pts is not None:
            ecrs.append(ecr.pts.find())
        for sub in ecr.fields.values():
            ecrs.append(sub.find())
    return seen
