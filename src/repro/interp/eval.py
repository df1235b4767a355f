"""Concurrent interpreter for the lowered mini-C IR.

Each simulated thread executes via :class:`ThreadExec`, a coroutine that
yields simulator events (work ticks and lock-try events). Three execution
modes cover the paper's configurations:

* ``seq``   — plain execution (setup phases, golden results); atomic
  sections run unprotected.
* ``locks`` — executes a *transformed* program (acquireAll/releaseAll);
  every shared access inside an atomic section is validated against the
  held multi-granularity locks by the §4.2 protection checker.
* ``stm``   — executes the *original* program; atomic sections run as TL2
  transactions with rollback and retry.

Cost model (one simulated tick ≈ one machine operation):
each simple instruction costs 1 tick; STM instrumentation adds 1 tick per
transactional heap access; the multi-grain protocol costs 1 tick per lock
node visited; STM commits cost ~write-set size; aborts pay re-execution
plus bounded exponential backoff.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast, ir
from ..locks.effects import RO, RW
from ..locks.terms import (
    IBin,
    IConst,
    IndexExpr,
    IVar,
    Term,
    TIndex,
    TPlus,
    TStar,
    TVar,
)
from ..obs.trace import get_tracer
from ..pointer.steensgaard import PointsTo
from ..runtime.api import ThreadLockState, acquire_all, plan_requests, release_all
from ..runtime.faults import FaultInjector
from ..runtime.modes import combine
from ..runtime.manager import LockManager
from ..runtime.resilience import (
    ResilienceConfig,
    ResilienceRuntime,
    SectionAbort,
)
from ..stm.tl2 import TL2System, TL2Tx, TxAbort, backoff_ticks
from .checker import ProtectionChecker, SerializabilityAuditor
from .race import RaceDetector
from ..memory import Frame, Globals, Heap, InterpError, Loc, Value


class _Return(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


class World:
    """Shared execution state: program, heap, globals, and runtimes."""

    def __init__(
        self,
        program: ir.LoweredProgram,
        pointsto: Optional[PointsTo] = None,
        check: bool = True,
        audit: bool = False,
        race: Optional["RaceDetector"] = None,
        faults: Optional["FaultInjector"] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.program = program
        self.heap = Heap()
        defaults = {
            name: 0 if isinstance(decl.type, ast.IntType) else None
            for name, decl in program.globals.items()
        }
        self.globals = Globals(self.heap, program.globals.keys(), defaults)
        self.lock_manager = LockManager()
        self.stm = TL2System()
        self.pointsto = pointsto
        self.checker = (
            ProtectionChecker(pointsto) if (check and pointsto is not None) else None
        )
        self.auditor = SerializabilityAuditor() if audit else None
        self.race = race  # dynamic race detector (locks mode only)
        self.faults = faults  # acquisition fault injector (negative tests)
        self.resilience: Optional[ResilienceRuntime] = None
        if resilience is not None:
            self.resilience = ResilienceRuntime(resilience, self.lock_manager)
            self.resilience.race = race
            self.resilience.auditor = self.auditor
        self._scope_cache: Dict[Tuple[str, str], bool] = {}

    @property
    def watchdog(self):
        """Per-tick scheduler hook, or None when resilience is off."""
        return self.resilience.on_tick if self.resilience is not None else None

    def is_global_var(self, func_name: str, name: str) -> bool:
        key = (func_name, name)
        cached = self._scope_cache.get(key)
        if cached is not None:
            return cached
        if name.startswith("$") or name.startswith(ast.RET_PREFIX):
            result = False
        else:
            func = self.program.functions.get(func_name)
            shadowed = func is not None and (
                name in func.locals or name in func.params
            )
            result = not shadowed and name in self.program.globals
        self._scope_cache[key] = result
        return result


class ThreadExec:
    """One simulated thread's executor."""

    def __init__(self, world: World, tid: int, mode: str = "seq") -> None:
        if mode not in ("seq", "locks", "stm"):
            raise ValueError(f"unknown mode {mode!r}")
        self.world = world
        self.tid = tid
        self.mode = mode
        self.lock_state = ThreadLockState()
        self.tx: Optional[TL2Tx] = None
        self.extra_cost = 0
        self.atomic_depth = 0  # seq/stm nesting tracking
        self.instance: Optional[int] = None  # auditor instance id
        self.tx_attempts_total = 0
        self._fresh_objs: List = []  # objects allocated in the open section
        self.current_func: Optional[str] = None  # innermost active function
        self._section_token = None  # open tick-clock span of the section

    def _tag_fresh(self, loc: Loc) -> None:
        """Objects allocated inside an open locks-mode section are private
        to this thread until the section ends (paper Lemma 2)."""
        if self.mode == "locks" and self.lock_state.nlevel > 0:
            loc.obj.fresh_owner = self.tid
            self._fresh_objs.append(loc.obj)

    # ------------------------------------------------------------------
    # shared-memory access hooks
    # ------------------------------------------------------------------

    def _in_atomic(self) -> bool:
        if self.mode == "locks":
            return self.lock_state.nlevel > 0
        return self.atomic_depth > 0

    def _check_abort(self) -> None:
        """Raise :class:`SectionAbort` if the watchdog victimized us.

        Called at every shared access inside an open locks-mode section,
        so a revoked thread stops touching the heap promptly (its locks
        are already gone; continuing would race the new holders)."""
        runtime = self.world.resilience
        if (runtime is not None and self.mode == "locks"
                and self.lock_state.nlevel > 0
                and runtime.abort_pending(self.tid)):
            raise SectionAbort(runtime.abort_reason(self.tid))

    def shared_read(self, loc: Loc) -> Value:
        world = self.world
        if loc.obj.shared:
            self._check_abort()
        if self.tx is not None and loc.obj.shared:
            self.extra_cost += 3
            value = self.tx.read(loc)
        else:
            value = Heap.read(loc)
        if loc.obj.shared and self.mode == "locks":
            if world.race is not None and loc.obj.fresh_owner != self.tid:
                world.race.on_read(self.tid, loc, self.current_func,
                                   world.lock_manager.held_names(self.tid))
            if self._in_atomic():
                if world.checker is not None:
                    world.checker.check(self.tid, world.lock_manager, loc, RO)
                if world.auditor is not None and self.instance is not None:
                    world.auditor.record(self.instance, loc, RO)
        return value

    def shared_write(self, loc: Loc, value: Value) -> None:
        world = self.world
        if loc.obj.shared and self.mode == "locks":
            self._check_abort()
            if (world.resilience is not None
                    and self.lock_state.nlevel > 0):
                # undo log: pre-image of the first write to each cell
                world.resilience.record_write(self.tid, loc)
            if world.race is not None and loc.obj.fresh_owner != self.tid:
                world.race.on_write(self.tid, loc, self.current_func,
                                    world.lock_manager.held_names(self.tid))
            if self._in_atomic():
                if world.checker is not None:
                    world.checker.check(self.tid, world.lock_manager, loc, RW)
                if world.auditor is not None and self.instance is not None:
                    world.auditor.record(self.instance, loc, RW)
        if self.tx is not None and loc.obj.shared:
            self.extra_cost += 2
            self.tx.write(loc, value)
        else:
            Heap.write(loc, value)

    # ------------------------------------------------------------------
    # variable access
    # ------------------------------------------------------------------

    def var_cell(self, frame: Frame, name: str) -> Loc:
        if self.world.is_global_var(frame.func_name, name):
            return self.world.globals.cell(name)
        return frame.cell(name)

    def read_var(self, frame: Frame, name: str) -> Value:
        if self.world.is_global_var(frame.func_name, name):
            return self.shared_read(self.world.globals.cell(name))
        return frame.get(name)

    def write_var(self, frame: Frame, name: str, value: Value) -> None:
        if self.world.is_global_var(frame.func_name, name):
            self.shared_write(self.world.globals.cell(name), value)
        else:
            frame.set(name, value)

    def eval_atom(self, frame: Frame, atom: ir.Atom) -> Value:
        if isinstance(atom, ir.VarAtom):
            return self.read_var(frame, atom.name)
        if isinstance(atom, ir.ConstAtom):
            return atom.value
        return None

    # ------------------------------------------------------------------
    # top-level entry points
    # ------------------------------------------------------------------

    def call(self, func_name: str, args: Sequence[Value]):
        """Coroutine: execute *func_name(args)*; returns its value."""
        func = self.world.program.functions.get(func_name)
        if func is None:
            raise InterpError(f"unknown function {func_name!r}")
        frame = Frame(self.world.heap, func_name)
        for param, arg in zip(func.params, args):
            frame.set(param, arg)
        caller_func = self.current_func
        self.current_func = func_name
        try:
            yield from self.exec_instrs(func.body, frame)
        except _Return as ret:
            return ret.value
        finally:
            self.current_func = caller_func
        return None

    def run_ops(self, ops: Sequence[Tuple[str, Sequence[Value]]]):
        """Coroutine: execute a schedule of calls (a workload thread)."""
        for func_name, args in ops:
            yield from self.call(func_name, args)

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------

    def exec_instrs(self, instrs: List[ir.Instr], frame: Frame):
        index = 0
        count = len(instrs)
        while index < count:
            instr = instrs[index]
            if (isinstance(instr, ir.IAcquireAll) and self.mode == "locks"
                    and self.world.resilience is not None
                    and self.lock_state.nlevel == 0):
                # outermost section with recovery: run the whole
                # acquire/body/release span under the abort-retry loop
                end = self._matching_release(instrs, index)
                yield from self.exec_section_resilient(
                    instr, instrs[index + 1:end], instrs[end], frame
                )
                index = end + 1
                continue
            index += 1
            if isinstance(instr, ir.IAssign):
                yield from self.exec_assign(instr, frame)
            elif isinstance(instr, ir.IStore):
                addr = self.read_var(frame, instr.addr)
                if not isinstance(addr, Loc):
                    raise InterpError(f"store through non-pointer: *{instr.addr}")
                value = self.eval_atom(frame, instr.value)
                self.shared_write(addr, value)
                yield 1 + self._take_cost()
            elif isinstance(instr, ir.IIf):
                yield 1
                if self.eval_cond(frame, instr.cond):
                    yield from self.exec_instrs(instr.then, frame)
                else:
                    yield from self.exec_instrs(instr.orelse, frame)
            elif isinstance(instr, ir.IWhile):
                yield 1
                while self.eval_cond(frame, instr.cond):
                    yield from self.exec_instrs(instr.body, frame)
                    yield 1
            elif isinstance(instr, ir.INop):
                yield instr.cost
            elif isinstance(instr, ir.IReturn):
                yield 1
                value = (
                    self.eval_atom(frame, instr.value)
                    if instr.value is not None
                    else None
                )
                raise _Return(value)
            elif isinstance(instr, ir.IAtomic):
                yield from self.exec_atomic(instr, frame)
            elif isinstance(instr, ir.IAcquireAll):
                yield from self.exec_acquire(instr, frame)
            elif isinstance(instr, ir.IReleaseAll):
                yield from self.exec_release(instr)
            else:
                raise InterpError(f"unknown instruction {instr!r}")

    def _take_cost(self) -> int:
        cost, self.extra_cost = self.extra_cost, 0
        return cost

    def exec_assign(self, instr: ir.IAssign, frame: Frame):
        rhs = instr.rhs
        if isinstance(rhs, ir.RCall):
            args = [self.eval_atom(frame, a) for a in rhs.args]
            yield 1 + self._take_cost()
            value = yield from self.call(rhs.func, args)
            self.write_var(frame, instr.dest, value)
            return
        value = self.eval_rhs(instr, rhs, frame)
        self.write_var(frame, instr.dest, value)
        yield 1 + self._take_cost()

    def eval_rhs(self, instr: ir.IAssign, rhs: ir.RHS, frame: Frame) -> Value:
        if isinstance(rhs, ir.RVar):
            return self.read_var(frame, rhs.src)
        if isinstance(rhs, ir.RConst):
            return rhs.value
        if isinstance(rhs, ir.RNull):
            return None
        if isinstance(rhs, ir.RAddrVar):
            return self.var_cell(frame, rhs.src)
        if isinstance(rhs, ir.RLoad):
            addr = self.read_var(frame, rhs.src)
            if not isinstance(addr, Loc):
                raise InterpError(f"load through non-pointer: *{rhs.src}")
            return self.shared_read(addr)
        if isinstance(rhs, ir.RFieldAddr):
            base = self.read_var(frame, rhs.src)
            if not isinstance(base, Loc):
                raise InterpError(f"field access on non-pointer: {rhs.src}")
            return base.offset(rhs.fieldname)
        if isinstance(rhs, ir.RIndexAddr):
            base = self.read_var(frame, rhs.src)
            index = self.eval_atom(frame, rhs.index)
            if not isinstance(base, Loc) or not isinstance(index, int):
                raise InterpError(f"bad index address: {rhs.src}[{rhs.index}]")
            return base.offset(index)
        if isinstance(rhs, ir.RNew):
            struct = self.world.program.structs.get(rhs.type_name)
            if struct is not None:
                fields = [
                    (name, 0 if isinstance(ftype, ast.IntType) else None)
                    for ftype, name in struct.fields
                ]
                base_default: Value = None
            else:
                fields = []
                base_default = 0 if rhs.type_name == "int" else None
            loc = self.world.heap.alloc_struct(instr.site, fields,
                                                label=rhs.type_name,
                                                base_default=base_default)
            self._tag_fresh(loc)
            return loc
        if isinstance(rhs, ir.RNewArray):
            length = self.eval_atom(frame, rhs.size)
            if not isinstance(length, int):
                raise InterpError("array length must be an int")
            default: Value = 0 if rhs.type_name == "int" else None
            loc = self.world.heap.alloc_array(instr.site, length,
                                              label=rhs.type_name + "[]",
                                              default=default)
            self._tag_fresh(loc)
            return loc
        if isinstance(rhs, ir.RArith):
            return self._arith(frame, rhs)
        raise InterpError(f"unknown RHS {rhs!r}")

    def _arith(self, frame: Frame, rhs: ir.RArith) -> Value:
        left = self.eval_atom(frame, rhs.left)
        if rhs.right is None:
            raise InterpError(f"unary arithmetic not supported: {rhs!r}")
        right = self.eval_atom(frame, rhs.right)
        op = rhs.op
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if not isinstance(left, int) or not isinstance(right, int):
            if op in ("<", "<=", ">", ">="):
                raise InterpError(f"ordered comparison of non-ints: {rhs!r}")
            raise InterpError(f"arithmetic on non-ints: {rhs!r}")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpError("division by zero")
            return left // right
        if op == "%":
            if right == 0:
                raise InterpError("modulo by zero")
            return left % right
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise InterpError(f"unknown operator {op!r}")

    def eval_cond(self, frame: Frame, cond: ir.Cond) -> bool:
        left = self.eval_atom(frame, cond.left)
        right = self.eval_atom(frame, cond.right)
        op = cond.op
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if not isinstance(left, int) or not isinstance(right, int):
            raise InterpError(f"ordered comparison of non-ints: {cond}")
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise InterpError(f"unknown comparison {op!r}")

    # ------------------------------------------------------------------
    # atomic sections
    # ------------------------------------------------------------------

    def exec_atomic(self, instr: ir.IAtomic, frame: Frame):
        if self.mode == "locks":
            raise InterpError(
                "atomic section reached in locks mode; run the transformed "
                "program (inference.transform_program) instead"
            )
        if self.mode == "seq" or self.tx is not None or self.atomic_depth > 0:
            self.atomic_depth += 1
            try:
                yield from self.exec_instrs(instr.body, frame)
            finally:
                self.atomic_depth -= 1
            return
        # STM: retry loop with frame rollback
        attempts = 0
        while True:
            snapshot = frame.snapshot()
            self.tx = TL2Tx(self.world.stm, self.tid)
            self.atomic_depth += 1
            try:
                yield from self.exec_instrs(instr.body, frame)
                cost = self.tx.commit()
                yield cost
                self.tx = None
                self.atomic_depth -= 1
                return
            except TxAbort:
                self.tx.abort()
                self.tx = None
                self.atomic_depth -= 1
                frame.restore(snapshot)
                attempts += 1
                self.tx_attempts_total += 1
                yield backoff_ticks(attempts, self.tid)

    @staticmethod
    def _matching_release(instrs: List[ir.Instr], start: int) -> int:
        """Index of the IReleaseAll matching the IAcquireAll at *start*.

        The transform always splices an acquire/release pair into the same
        instruction list, so a flat depth count over this list finds it
        (nested sections inside if/while bodies live in sub-lists and are
        invisible here; directly nested sections raise the depth)."""
        depth = 0
        for index in range(start, len(instrs)):
            instr = instrs[index]
            if isinstance(instr, ir.IAcquireAll):
                depth += 1
            elif isinstance(instr, ir.IReleaseAll):
                depth -= 1
                if depth == 0:
                    return index
        raise InterpError(
            f"unmatched acquireAll at instruction {start}: no releaseAll "
            "in the same block"
        )

    def exec_section_resilient(self, acq: ir.IAcquireAll,
                               body: List[ir.Instr],
                               rel: ir.IReleaseAll, frame: Frame):
        """Run one outermost atomic section with abort-and-rollback.

        On :class:`SectionAbort` (watchdog victimization) the heap undo
        log was — or is now — applied by the runtime, the frame is
        restored from a snapshot, and the section retries after backoff.
        The validator forbids ``return`` inside atomic sections, so no
        ``_Return`` can escape this span mid-section."""
        runtime = self.world.resilience
        while True:
            snapshot = frame.snapshot()
            try:
                yield from self.exec_acquire(acq, frame)
                yield from self.exec_instrs(body, frame)
                yield from self.exec_release(rel)
                return
            except SectionAbort as abort:
                # unwind interpreter-side section state (nested levels may
                # have been open when the abort surfaced)
                self.lock_state.nlevel = 0
                self.instance = None
                if self._section_token is not None:
                    get_tracer().end_section(self._section_token,
                                             outcome="aborted")
                    self._section_token = None
                for obj in self._fresh_objs:
                    obj.fresh_owner = None
                self._fresh_objs.clear()
                backoff = runtime.recover(self.tid, abort.reason)
                frame.restore(snapshot)
                yield backoff

    def exec_acquire(self, instr: ir.IAcquireAll, frame: Frame):
        if self.mode != "locks":
            # seq/stm runs of a transformed program: sections are not
            # lock-protected (setup phases run single-threaded)
            self.atomic_depth += 1
            yield 1
            return
        state = self.lock_state
        state.nlevel += 1
        if state.nlevel > 1:
            yield 1
            return
        tracer = get_tracer()
        if tracer.enabled:
            # the span opens before acquisition so the per-node "blocked"
            # spans from acquire_all nest inside it — that is what lets a
            # trace attribute a section's latency to specific lock terms
            self._section_token = tracer.begin_section(
                self.tid, f"section:{instr.section_id}",
                section=instr.section_id,
                locks=sorted(str(lock) for lock in instr.locks),
            )

        def evaluate(lock):
            return self.eval_lock_term(frame, lock.term)

        runtime = self.world.resilience
        if runtime is not None:
            runtime.section_enter(self.tid, instr.section_id)
        faults = self.world.faults
        inject = faults is not None and faults.arm(self.tid, instr.section_id)
        attempts = 0
        while True:
            plan = plan_requests(instr.locks, evaluate)
            degraded = False
            if runtime is not None:
                demoted = runtime.plan_for(self.tid, instr.section_id, plan)
                degraded = demoted != plan
                plan = demoted
            if inject:
                plan = faults.apply(plan)
            yield max(1, len(instr.locks))  # descriptor evaluation cost
            yield from acquire_all(self.world.lock_manager, self.tid, plan,
                                   runtime=runtime,
                                   section_id=instr.section_id)
            if degraded:
                # the single global X lock protects everything; there are
                # no fine-grain terms left to revalidate
                break
            # Validate-and-retry: fine-grain descriptors were evaluated
            # before the locks were held, so a racing thread may have
            # redirected a pointer on the path meanwhile. Re-evaluate under
            # the held locks — the lock set read-protects every cell the
            # descriptors read (paper Lemma 1 covers all subexpressions of
            # an access), so once we hold the right locks the re-evaluation
            # is stable; a mismatch means we lost the race and must retry.
            revalidated = plan_requests(instr.locks, evaluate)
            if inject:
                revalidated = faults.apply(revalidated)
            yield max(1, len(instr.locks))
            held = dict(plan)
            if all(
                name in held and combine(held[name], mode) == held[name]
                for name, mode in revalidated
            ):
                break
            yield from release_all(self.world.lock_manager, self.tid)
            attempts += 1
            yield min(1 << min(attempts, 4), 16)
        if self.world.race is not None:
            self.world.race.on_acquire(
                self.tid, [name for name, _ in plan], instr.section_id
            )
        if self.world.auditor is not None:
            self.instance = self.world.auditor.begin_instance(instr.section_id)
        if runtime is not None:
            runtime.bind_instance(self.tid, self.instance)

    def exec_release(self, instr: ir.IReleaseAll):
        if self.mode != "locks":
            self.atomic_depth -= 1
            yield 1
            return
        state = self.lock_state
        if state.nlevel == 1:
            runtime = self.world.resilience
            faults = self.world.faults
            action = (faults.take_release_action(self.tid)
                      if faults is not None else None)
            if action is not None and action[0] == "delay":
                # stuck critical section: stall while holding the locks,
                # in chunks so a watchdog revocation is noticed promptly
                remaining = action[1]
                while remaining > 0:
                    step = min(remaining, 128)
                    yield step
                    remaining -= step
                    if (runtime is not None
                            and runtime.abort_pending(self.tid)):
                        raise SectionAbort(runtime.abort_reason(self.tid))
            if runtime is not None and runtime.abort_pending(self.tid):
                raise SectionAbort(runtime.abort_reason(self.tid))
            for obj in self._fresh_objs:
                obj.fresh_owner = None
            self._fresh_objs.clear()
            if self.world.race is not None:
                # publish this thread's clock to every node it is about to
                # release (the nodes stay held until release_all runs, so
                # no acquirer can join the published clock too early)
                self.world.race.on_release(
                    self.tid,
                    tuple(self.world.lock_manager.held_names(self.tid)),
                )
            if action is not None and action[0] == "lose":
                yield 1  # the release never reaches the lock manager
            else:
                yield from release_all(self.world.lock_manager, self.tid)
            self.instance = None
            if runtime is not None:
                # the section's writes are final (even under a lost
                # release: the leaked locks are reclaimed, not rolled back)
                runtime.section_committed(self.tid)
            if self._section_token is not None:
                get_tracer().end_section(self._section_token,
                                         outcome="committed")
                self._section_token = None
        else:
            yield 1
        state.nlevel -= 1

    # ------------------------------------------------------------------
    # lock descriptor evaluation (fine-grain expression locks)
    # ------------------------------------------------------------------

    def eval_lock_term(self, frame: Frame, term: Optional[Term]) -> Optional[Loc]:
        """Evaluate a lock term to the concrete cell it protects, or None
        when the expression does not denote a heap cell in this state."""
        if term is None:
            return None
        if isinstance(term, TVar):
            return self.var_cell(frame, term.name)
        if isinstance(term, TStar):
            cell = self.eval_lock_term(frame, term.inner)
            if cell is None:
                return None
            try:
                value = Heap.read(cell)
            except InterpError:
                return None
            return value if isinstance(value, Loc) else None
        if isinstance(term, TPlus):
            cell = self.eval_lock_term(frame, term.inner)
            if cell is None:
                return None
            return cell.offset(term.fieldname)
        if isinstance(term, TIndex):
            cell = self.eval_lock_term(frame, term.inner)
            index = self.eval_index(frame, term.index)
            if cell is None or index is None:
                return None
            return cell.offset(index)
        raise InterpError(f"unknown lock term {term!r}")

    def eval_index(self, frame: Frame, ie: IndexExpr) -> Optional[int]:
        if isinstance(ie, IConst):
            return ie.value
        if isinstance(ie, IVar):
            value = (
                Heap.read(self.world.globals.cell(ie.name))
                if self.world.is_global_var(frame.func_name, ie.name)
                else frame.get(ie.name)
            )
            return value if isinstance(value, int) else None
        if isinstance(ie, IBin):
            left = self.eval_index(frame, ie.left)
            right = self.eval_index(frame, ie.right)
            if left is None or right is None:
                return None
            try:
                if ie.op == "+":
                    return left + right
                if ie.op == "-":
                    return left - right
                if ie.op == "*":
                    return left * right
                if ie.op == "/":
                    return left // right
                if ie.op == "%":
                    return left % right
            except ZeroDivisionError:
                return None
            return None
        return None  # IUnknown
