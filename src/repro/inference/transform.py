"""Program transformation (§4.1): atomic{st} → acquireAll(N); st; releaseAll.

The transformation replaces every atomic section with an ``IAcquireAll``
carrying the inferred lock descriptors, followed by the section body, then
``IReleaseAll``. Nested sections keep their own acquire/release pair — the
runtime's nesting counter (§5.3) turns the inner pair into no-ops when the
section is dynamically nested.

``transform_global`` produces the single-global-lock baseline used as the
"Global" configuration of Table 2.
"""

from __future__ import annotations

from typing import Dict, List

from ..lang import ir
from ..locks.effects import RW
from ..locks.paperlock import global_lock
from .analysis import InferenceResult
from .engine import SectionLocks


def _transform_instrs(
    instrs: List[ir.Instr],
    locks_by_section: Dict[str, tuple],
) -> List[ir.Instr]:
    out: List[ir.Instr] = []
    for instr in instrs:
        if isinstance(instr, ir.IAtomic):
            locks = locks_by_section.get(instr.section_id, (global_lock(RW),))
            out.append(ir.IAcquireAll(instr.section_id, tuple(locks)))
            out.extend(_transform_instrs(instr.body, locks_by_section))
            out.append(ir.IReleaseAll(instr.section_id))
        elif isinstance(instr, ir.IIf):
            out.append(
                ir.IIf(
                    instr.cond,
                    _transform_instrs(instr.then, locks_by_section),
                    _transform_instrs(instr.orelse, locks_by_section),
                )
            )
        elif isinstance(instr, ir.IWhile):
            out.append(
                ir.IWhile(instr.cond, _transform_instrs(instr.body, locks_by_section))
            )
        else:
            out.append(instr)
    return out


def transform_program(
    program: ir.LoweredProgram,
    sections: Dict[str, SectionLocks],
) -> ir.LoweredProgram:
    """Rewrite atomic sections of *program* using the inferred *sections*."""
    locks_by_section = {
        section_id: tuple(sorted(info.locks, key=str))
        for section_id, info in sections.items()
    }
    functions = {}
    for name, func in program.functions.items():
        functions[name] = ir.LoweredFunction(
            name=func.name,
            params=list(func.params),
            body=_transform_instrs(func.body, locks_by_section),
            ret_type=func.ret_type,
            locals=dict(func.locals),
            param_types=list(func.param_types),
        )
    return ir.LoweredProgram(
        structs=dict(program.structs),
        globals=dict(program.globals),
        functions=functions,
        source=program.source,
    )


def transform_with_inference(result: InferenceResult) -> ir.LoweredProgram:
    return transform_program(result.program, result.sections)


def transform_global(program: ir.LoweredProgram) -> ir.LoweredProgram:
    """The Global baseline: every section guarded by the single ⊤ lock."""
    return transform_program(program, {})
