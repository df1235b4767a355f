"""Synthetic SPEC-like corpus for analysis-scalability experiments (Table 1).

The paper uses SPECint2000 programs (10-72 KLoC) solely to measure how the
analysis scales with program size: each program's ``main`` is wrapped in one
atomic section and analyzed like the concurrent benchmarks. We generate a
deterministic corpus of pointer-heavy mini-C programs calibrated to the same
relative sizes (configurable via ``scale``; 1.0 ≈ the paper's KLoC).

Generated programs exercise the analysis' expensive paths: deep call chains
(function summaries), loops over recursive structures (fixpoints +
k-limiting), stores through may-aliased pointers, and a mix of struct
shapes (distinct points-to classes).
"""

from __future__ import annotations

import random
import zlib
from typing import List

# Paper Table 1 sizes in KLoC.
SPEC_SIZES = {
    "gzip": 10.3,
    "parser": 14.2,
    "vpr": 20.4,
    "crafty": 21.2,
    "twolf": 23.1,
    "gap": 71.4,
    "vortex": 71.5,
}


def _rng(name: str, seed: int) -> random.Random:
    """The program's RNG, seeded from a stable digest of its name (the
    builtin ``hash`` of a str is salted per process)."""
    return random.Random((zlib.crc32(name.encode()) & 0xFFFF) * 31 + seed)


def generate_spec_program(name: str, kloc: float, seed: int = 0) -> str:
    """Generate a deterministic mini-C program of roughly *kloc* KLoC whose
    ``main`` is wrapped in a single atomic section (the paper's setup)."""
    rng = _rng(name, seed)
    lines: List[str] = []
    n_structs = max(2, int(kloc / 4) + 2)
    for s in range(n_structs):
        lines.append(f"struct s{s} {{ s{s}* next; int* data; int key; }}")
    lines.append("")
    for s in range(n_structs):
        lines.append(f"s{s}* g{s};")
    lines.append("")

    # Each function body is ~22 lines; derive the function count from kloc.
    target_lines = int(kloc * 1000)
    approx_per_func = 24
    n_funcs = max(4, (target_lines - n_structs * 2) // approx_per_func)

    for f in range(n_funcs):
        s = rng.randrange(n_structs)
        lines.append(f"s{s}* work{f}(s{s}* p, int n) {{")
        lines.append(f"  s{s}* head = p;")
        lines.append("  int i = 0;")
        lines.append("  while (i < n) {")
        lines.append(f"    s{s}* fresh = new s{s};")
        lines.append("    fresh->key = i;")
        lines.append("    fresh->next = head;")
        lines.append("    head = fresh;")
        lines.append("    i = i + 1;")
        lines.append("  }")
        lines.append(f"  s{s}* cur = head;")
        lines.append("  int total = 0;")
        lines.append("  while (cur != null) {")
        lines.append("    total = total + cur->key;")
        lines.append("    cur = cur->next;")
        lines.append("  }")
        lines.append(f"  g{s} = head;")
        if f > 0:
            callee = rng.randrange(f)
            callee_struct = _struct_of(callee, name, seed, n_structs)
            lines.append(f"  s{callee_struct}* other = work{callee}(g{callee_struct}, n % 7);")
            lines.append(f"  if (other != null) {{ g{callee_struct} = other; }}")
        lines.append("  if (total > n) { head = head->next; }")
        lines.append("  return head;")
        lines.append("}")
        lines.append("")

    lines.append("void main() {")
    lines.append("  atomic {")
    for s in range(min(n_structs, 8)):
        lines.append(f"    g{s} = new s{s};")
    step = max(1, n_funcs // 24)
    for f in range(0, n_funcs, step):
        s = _struct_of(f, name, seed, n_structs)
        lines.append(f"    s{s}* r{f} = work{f}(g{s}, {f % 11 + 1});")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _struct_of(f: int, name: str, seed: int, n_structs: int) -> int:
    """The struct index function f was generated with (re-derives the RNG)."""
    rng = _rng(name, seed)
    # consume the same number of draws the generator used before function f
    value = 0
    for i in range(f + 1):
        value = rng.randrange(n_structs)
        if i > 0:
            rng.randrange(i)  # the callee draw
    return value


def spec_sources(scale: float = 0.1, seed: int = 0):
    """Generate the whole corpus; ``scale`` multiplies the paper's KLoC.

    The default 0.1 keeps the Python-based analysis runs in seconds while
    preserving Table 1's size ordering (documented in EXPERIMENTS.md).
    """
    return {
        name: generate_spec_program(name, kloc * scale, seed)
        for name, kloc in SPEC_SIZES.items()
    }
