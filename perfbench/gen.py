"""Seeded inputs of the benchmark: generated mini-C programs and digests.

The generator has the shape of ``repro.bench.programs.spec`` (structs with
``next``/``data``/``key`` fields, list-building worker functions that call
earlier workers, a ``main`` wrapped in one atomic section), but seeds its
RNG from a SHA-256 digest of (name, size, seed). Python's ``hash()`` is
salted per process, so a generator seeded from it gives a different corpus
under every ``PYTHONHASHSEED``; this one gives the same text everywhere.

The STAMP and micro sources and their operation schedules come from
``repro.bench.configs``; only their schedules take the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

# Table 1 sizes (KLoC) of the SPEC programs the paper scales its analysis on.
TABLE1_KLOC = {
    "gzip": 10.3,
    "parser": 14.2,
    "vpr": 20.4,
    "crafty": 21.2,
    "twolf": 23.1,
    "gap": 71.4,
    "vortex": 71.5,
}

_LINES_PER_FUNC = 24


def stable_rng(*parts: object) -> random.Random:
    """A ``random.Random`` seeded from a digest of *parts*' ``repr``."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def program(name: str, kloc: float, seed: int) -> str:
    """A pointer-heavy mini-C program of about *kloc* KLoC whose ``main``
    is one atomic section calling a spread of the generated workers.

    The call graph (which earlier worker each worker calls) depends on
    *name* and *kloc* only; the seed picks the rest. The call graph sets
    how much of the program the atomic section reaches, and with it the
    analysis's work and peak memory: drawn from the seed, one 20-KLoC
    program peaked at 92 MB and another at 107 MB, and with it fixed,
    seven seeds peaked between 91 and 96 MB."""
    rng = stable_rng("program", name, kloc, seed)
    calls = stable_rng("calls", name, kloc)
    n_structs = max(2, int(kloc / 4) + 2)
    lines: List[str] = []
    for s in range(n_structs):
        lines.append(f"struct s{s} {{ s{s}* next; int* data; int key; }}")
    lines.append("")
    for s in range(n_structs):
        lines.append(f"s{s}* g{s};")
    lines.append("")
    n_funcs = max(4, (int(kloc * 1000) - n_structs * 2) // _LINES_PER_FUNC)
    struct_of: List[int] = []
    for f in range(n_funcs):
        s = rng.randrange(n_structs)
        struct_of.append(s)
        lines += [
            f"s{s}* work{f}(s{s}* p, int n) {{",
            f"  s{s}* head = p;",
            "  int i = 0;",
            "  while (i < n) {",
            f"    s{s}* fresh = new s{s};",
            "    fresh->key = i;",
            "    fresh->next = head;",
            "    head = fresh;",
            "    i = i + 1;",
            "  }",
            f"  s{s}* cur = head;",
            "  int total = 0;",
            "  while (cur != null) {",
            "    total = total + cur->key;",
            "    cur = cur->next;",
            "  }",
            f"  g{s} = head;",
        ]
        if f > 0:
            callee = calls.randrange(f)
            c = struct_of[callee]
            lines.append(f"  s{c}* other = work{callee}(g{c}, n % 7);")
            lines.append(f"  if (other != null) {{ g{c} = other; }}")
        lines += [
            "  if (total > n) { head = head->next; }",
            "  return head;",
            "}",
            "",
        ]
    # a global of the program's own, written in main's section, so no two
    # generated programs are the same text or the same lock sets
    tag = "tag_" + "".join(ch if ch.isalnum() else "_" for ch in name)
    lines.append(f"int {tag};")
    lines.append("")
    lines.append("void main() {")
    lines.append("  atomic {")
    lines.append(f"    {tag} = {seed % 1000 + 1};")
    for s in range(min(n_structs, 8)):
        lines.append(f"    g{s} = new s{s};")
    step = max(1, n_funcs // 24)
    for f in range(0, n_funcs, step):
        s = struct_of[f]
        lines.append(f"    s{s}* r{f} = work{f}(g{s}, {f % 11 + 1});")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def table1_corpus(seed: int, scale: float) -> Dict[str, str]:
    """Generated stand-ins for the Table 1 programs at *scale* × KLoC."""
    return {name: program(name, kloc * scale, seed)
            for name, kloc in TABLE1_KLOC.items()}


def ladder(seed: int, klocs) -> Dict[str, str]:
    """Large generated programs, one per size in *klocs*."""
    return {f"ladder-{kloc:g}k": program(f"ladder-{kloc:g}k", kloc, seed)
            for kloc in klocs}


def kloc_of(source: str) -> float:
    return source.count("\n") / 1000.0


def digest(value: object) -> str:
    """SHA-256 of *value*'s canonical JSON (sorted keys, tuples as lists)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
