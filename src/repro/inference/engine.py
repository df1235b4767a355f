"""The lock-inference dataflow engine (paper §4).

A backward dataflow over each atomic section's CFG region tracks sets of
symbolic lock terms (with effects). Statements transfer terms via the
pre-image substitution of :mod:`repro.inference.subst`; accesses generate
new terms (the G sets of Figure 4); k-limiting widens inadmissible terms to
coarse points-to-class locks, which are flow-insensitive and accumulate
out-of-band (§4.3: "our tool only tracks k-limited expressions until they
become ⊤, at which point ... the corresponding points-to set lock is added
to the analysis solution").

Function calls use *function summaries* (§4.3):

* a **transfer summary** ``(f, term, eff)`` maps a lock term at f's exit to
  the terms/coarse locks protecting the same locations at f's entry
  (the paper's ``f_s``, with ``src(l)`` bookkeeping replaced by explicit
  per-seed runs);
* an **access summary** ``(f,)`` covers every access inside f (and its
  callees) with terms at f's entry.

Summaries are solved by a global worklist fixpoint with dependency
re-enqueueing; the section analysis re-runs until the summaries it
(transitively) demanded are stable (both lattices are finite thanks to
k-limiting, so this terminates).

Performance machinery (all result-preserving; ``enable_caches=False``
recovers the naive engine, which the golden-equivalence tests compare
against):

* section runs converge by **dependency-driven invalidation**: a section is
  re-run only when a summary it actually demanded changed, not whenever any
  summary anywhere moved;
* the dataflow core runs on **int bitsets** (see
  :mod:`repro.inference.facts`): every ``(term, effect)`` fact is interned
  to a dense per-run ID, per-node IN/OUT sets are arbitrary-precision
  ``int``s, the join is a single bitwise OR and fixpoint change detection
  is integer equality;
* statement transfers are distributive over the fact set and
  effect-linear, so each node gets a memoized **gen/kill kernel**: a
  precomputed gen bitset plus an *identity mask* of fact pairs proven to
  pass through the node's write unchanged — a repeat visit is two integer
  ops — with a per-term memo of pre-image bits and coarse emissions for
  the non-identity remainder (the per-fact fallback path);
* call-node transfers read the summary table (non-distributive), so they
  decode the OUT bitset, run the set-based ``_transfer`` and encode the
  result (counted as ``call_transfers``);
* **worklist prioritization**: dataflow runs pop nodes in reverse
  postorder of the reversed CFG (exit first), so exit-side facts reach
  their predecessors in one sweep per loop nest and re-enqueued
  predecessors of changed nodes are processed closest-to-exit first;
* **substituter reuse**: the pre-image substituter for a given (write,
  scope) pair is built once and its memo tables persist across fixpoint
  iterations (see :class:`~repro.inference.subst.Substituter`).

One worklist driver per fact representation serves both section regions
and whole-function summaries: ``_run_bits`` on the bitset kernel and
``_run_dict`` on plain term dicts for the reference engine, which stays
independent of the kernel.

Two cross-run layers sit on top (see :mod:`repro.inference.schedule` and
:mod:`repro.inference.diskcache`): :meth:`Engine.precompute_funcs` solves
access summaries bottom-up over the call-graph condensation, and an
optional persistent disk cache serves whole summary bundles and section
lock sets keyed by content hashes of the function's SCC cone.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import CFG, Node, SectionInfo
from ..lang import ast, ir
from ..locks.effects import RO, RW, eff_join
from ..locks.paperlock import Lock, coarse_lock, fine_lock, global_lock, reduce_locks
from ..locks.terms import (
    IVar,
    Term,
    TIndex,
    TPlus,
    TStar,
    TVar,
    term_free_vars,
    term_has_unknown,
    term_size,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from ..pointer.aliasing import AliasOracle
from ..pointer.steensgaard import PointsTo
from ..sim.deadline import check_deadline
from .facts import FactInterner, popcount
from .libspec import SpecLibrary, reachable_classes
from .subst import (
    Substituter,
    WriteInfo,
    atom_to_index,
    write_for_assign,
    write_for_return,
    write_for_store,
)

# A dataflow fact set: term -> strongest effect required.
TermSet = Dict[Term, str]
# A coarse emission: (class id or None for the global lock, effect).
CoarseSet = FrozenSet[Tuple[Optional[int], str]]

ACCESS = "$access"

# How many worklist pops between cooperative-deadline polls.  A caller
# that armed :func:`repro.sim.deadline.set_deadline` (the serve worker's
# per-request budget, or the executor's off-main-thread cell timeout) gets
# a :class:`~repro.sim.deadline.DeadlineExceeded` from inside the solve;
# with no deadline armed the poll is one thread-local read.
DEADLINE_POLL_EVERY = 128

# The engine's solver counters, grouped in one registry-backed bundle.
# ``dataflow_steps`` counts executed transfers; with caches on, every step
# is exactly one of: a call-node transfer (``call_transfers``), a kernel
# visit fully served by masks/memos (``mask_hits``), or a kernel visit that
# had to build at least one per-term memo entry (``mask_fallbacks``).
STAT_NAMES = (
    "dataflow_steps",
    "summary_runs",
    "section_reruns",
    "call_transfers",
    "mask_hits",
    "mask_fallbacks",
    "summaries_from_disk",
    "sections_from_disk",
)


@dataclass(frozen=True)
class SummaryResult:
    """Entry-point terms and coarse emissions for one summary key."""

    terms: FrozenSet[Tuple[Term, str]] = frozenset()
    coarse: CoarseSet = frozenset()

    @staticmethod
    def empty() -> "SummaryResult":
        return SummaryResult()


@dataclass
class SectionLocks:
    """Analysis result for one atomic section."""

    section_id: str
    func_name: str
    locks: FrozenSet[Lock] = frozenset()

    @property
    def fine(self) -> List[Lock]:
        return [lock for lock in self.locks if lock.is_fine]

    @property
    def coarse(self) -> List[Lock]:
        return [lock for lock in self.locks if lock.is_coarse]

    @property
    def has_global(self) -> bool:
        return any(lock.is_global for lock in self.locks)


class _RunContext:
    """Per-dataflow-run state: coarse emissions and summary demands."""

    def __init__(self, engine: "Engine", requester: tuple) -> None:
        self.engine = engine
        self.requester = requester
        self.coarse: Set[Tuple[Optional[int], str]] = set()

    def emit_coarse(self, cls: Optional[int], eff: str) -> None:
        self.coarse.add((cls, eff))

    def get_summary(self, key: tuple) -> SummaryResult:
        return self.engine._demand_summary(key, self.requester)


class _GenRecorder:
    """Minimal ``_RunContext`` stand-in for kernel construction: collects
    the coarse emissions of a node's constant G set so they can be
    replayed into the real context on every visit."""

    __slots__ = ("coarse",)

    def __init__(self) -> None:
        self.coarse: Set[Tuple[Optional[int], str]] = set()

    def emit_coarse(self, cls: Optional[int], eff: str) -> None:
        self.coarse.add((cls, eff))


class _KillKernel:
    """The kill side of one ``(WriteInfo, scope)`` pair's transfer.

    ``identity_mask`` covers the fact pairs proven to pass through the
    write unchanged; it starts empty and grows as ``_build_fact_memo``
    discovers identities, so a warmed-up visit is
    ``(out & identity_mask) | gen_bits``.  ``memo`` holds the per-term
    pre-image for everything else (keyed by term ID; one entry serves both
    effects — see ``Engine._build_fact_memo``).  ``set_memo`` caches the
    whole non-identity remainder: the kill transfer distributes over
    union, so its image of a given ``rest`` bitset is a pure function of
    ``rest`` and a repeat visit with the same remainder is one dict hit
    instead of a per-pair walk (entries stay valid as ``identity_mask``
    grows — a shrunken remainder is just a new key).  Kill kernels are
    shared by every node performing the same write in the same scope —
    and by a node's ``with_g`` on/off kernel variants — so each
    (write, term) pre-image is computed once per engine.
    """

    __slots__ = ("func", "sub", "identity_mask", "memo", "set_memo")

    def __init__(self, func: str, sub: Substituter) -> None:
        self.func = func
        self.sub = sub
        self.identity_mask = 0
        self.memo: Dict[int, Tuple[int, tuple]] = {}
        self.set_memo: Dict[int, Tuple[int, tuple]] = {}


class _NodeKernel:
    """One statement node's precomputed transfer: a constant gen side
    (bitset + coarse emissions, replayed per visit) over a shared
    :class:`_KillKernel` (``None`` for write-less nodes, whose transfer is
    pure passthrough-plus-gen)."""

    __slots__ = ("kill", "gen_bits", "gen_coarse")

    def __init__(self, kill: Optional["_KillKernel"], gen_bits: int,
                 gen_coarse: FrozenSet[Tuple[Optional[int], str]]) -> None:
        self.kill = kill
        self.gen_bits = gen_bits
        self.gen_coarse = gen_coarse


class Engine:
    """Whole-program lock inference for one (k, use_effects) configuration."""

    def __init__(
        self,
        program: ir.LoweredProgram,
        cfgs: Dict[str, CFG],
        pointsto: PointsTo,
        k: int = 3,
        use_effects: bool = True,
        specs: Optional[SpecLibrary] = None,
        oracle: Optional[AliasOracle] = None,
        enable_caches: bool = True,
        disk_cache=None,
        budget=None,
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self.pointsto = pointsto
        self.oracle = oracle if oracle is not None else AliasOracle(pointsto)
        self.specs = specs
        self.k = k
        self.use_effects = use_effects
        self.enable_caches = enable_caches
        # the persistent cross-run cache (inference.diskcache); the golden
        # reference path must stay pure, so it is ignored without caches
        self._disk = disk_cache if enable_caches else None
        # summary machinery
        self._summaries: Dict[tuple, SummaryResult] = {}
        self._deps: Dict[tuple, Set[tuple]] = {}
        self._worklist: deque = deque()
        self._queued: Set[tuple] = set()
        self._version = 0
        # disk-cache bookkeeping: functions whose bundle was already looked
        # up, functions served (at least partially) from disk, and functions
        # whose summary set gained or changed entries since (re-store set)
        self._bundle_checked: Set[str] = set()
        self.loaded_funcs: Set[str] = set()
        self.computed_funcs: Set[str] = set()
        self.dirty_funcs: Set[str] = set()
        # anytime analysis: an optional AnalysisBudget polled alongside the
        # cooperative deadline, and a snapshot of the summary table taken at
        # safe points (worklist drained) so a partial unwind only ever
        # persists *final* summaries — mid-fixpoint values are below the
        # fixpoint (= fewer locks) and must never reach the disk cache
        self.budget = budget
        self.track_finals = False
        self._final_items: Optional[Dict[tuple, SummaryResult]] = None
        self._final_dirty: Set[str] = set()
        # per-function write-effect memo (for caller-local terms across calls)
        self._written_classes: Dict[str, Optional[FrozenSet[int]]] = {}
        # performance caches (see module docstring); all bypassed when
        # enable_caches is False
        self._substituters: Dict[Tuple[WriteInfo, str], Substituter] = {}
        # the bitset kernel: the per-run fact-ID space, per-(node, with_g)
        # gen/kill kernels, and engine-local node ids (``Node.uid`` is only
        # unique within one function's CFG, so kernel keys use a gid
        # assigned per node object; the cfgs keep every node alive)
        self._interner = FactInterner() if enable_caches else None
        self._kernels: Dict[Tuple[int, bool], _NodeKernel] = {}
        self._kill_kernels: Dict[Tuple[WriteInfo, str], _KillKernel] = {}
        self._node_gids: Dict[int, int] = {}
        self.peak_bits = 0  # max popcount over any converged IN set
        self._backward_ranks: Dict[str, Dict[int, int]] = {}
        self._tracer = get_tracer()
        # solver counters live in a metrics registry; ``stats`` is the
        # dict-shaped view the rest of the code mutates, so every
        # increment lands in the registry.  The kernel increments through
        # ``raw`` (the same backing dict) to skip MutableMapping dispatch
        # on the per-node path.
        self.metrics = MetricsRegistry()
        self.stats = self.metrics.counter_bundle(
            "engine", STAT_NAMES, help="lock-inference solver counters")
        self._stats_raw = self.stats.raw
        if enable_caches:
            # every executed transfer is exactly one counted call-node
            # transfer, kernel mask hit, or kernel fallback — double
            # accounting anywhere breaks this partition
            stats = self.stats
            self.metrics.add_invariant(
                "transfer-partition",
                lambda _reg: (stats["call_transfers"]
                              + stats["mask_hits"]
                              + stats["mask_fallbacks"]
                              == stats["dataflow_steps"]),
                lambda _reg: (
                    f"call_transfers {stats['call_transfers']} + mask_hits "
                    f"{stats['mask_hits']} + mask_fallbacks "
                    f"{stats['mask_fallbacks']} != dataflow_steps "
                    f"{stats['dataflow_steps']}"),
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def fact_terms(self) -> int:
        """Terms in the run's fact interner (0 on the reference path)."""
        return len(self._interner) if self._interner is not None else 0

    def _poll(self) -> None:
        """One budget/deadline poll: raises ``DeadlineExceeded`` or
        ``BudgetExhausted`` the moment either ceiling is hit."""
        check_deadline()
        if self.budget is not None:
            self.budget.check(self.stats["dataflow_steps"])

    def mark_converged(self) -> None:
        """Snapshot the summary table at a drained-worklist safe point.

        Called at level boundaries in ``precompute_summaries`` and after
        each converged section.  Only these snapshots may be persisted by
        a partial (budget-exhausted) unwind; anything newer may contain
        below-fixpoint values.  No-op unless ``track_finals`` is set, so
        full runs pay nothing.
        """
        if not self.track_finals:
            return
        self._final_items = dict(self._summaries)
        self._final_dirty = set(self.dirty_funcs)

    def converged_snapshot(self):
        """The latest safe-point snapshot as ``(items, dirty)``.

        ``items`` is ``None`` when no safe point has been reached yet.
        """
        return self._final_items, self._final_dirty

    def analyze_section(self, func_name: str, section: SectionInfo) -> SectionLocks:
        """Infer the lock set protecting one atomic section."""
        self._poll()  # at least one poll per section, however small
        with self._tracer.span("section.analyze", "inference",
                               func=func_name, section=section.section_id):
            result = self._analyze_section(func_name, section)
        # the section converged, so the worklist is drained and every
        # summary in the table is at its fixpoint: a safe point
        self.mark_converged()
        if self._tracer.enabled:
            self._tracer.instant(
                "locks-chosen", "inference", section=section.section_id,
                func=func_name, k=self.k,
                locks=sorted(str(lock) for lock in result.locks))
        return result

    def _analyze_section(self, func_name: str, section: SectionInfo) -> SectionLocks:
        if self._disk is not None:
            locks = self._disk.load_section(func_name, section.section_id)
            if locks is not None:
                self.stats["sections_from_disk"] += 1
                return SectionLocks(section.section_id, func_name, locks)
        requester = ("section", section.section_id)
        if self.enable_caches:
            # dependency-driven convergence: re-run the region only when a
            # summary this section demanded (now or in a previous iteration;
            # _deps persists) actually changed during the solve
            while True:
                ctx = _RunContext(self, requester)
                entry_terms = self._run(func_name, section.nodes,
                                        section.enter, None, {}, True, ctx)
                changed = self._solve_summaries()
                deps = self._deps
                if not any(requester in deps.get(key, ()) for key in changed):
                    break
                self.stats["section_reruns"] += 1
        else:
            # naive restart-until-globally-stable loop (golden reference)
            while True:
                version = self._version
                ctx = _RunContext(self, requester)
                entry_terms = self._run(func_name, section.nodes,
                                        section.enter, None, {}, True, ctx)
                self._solve_summaries()
                if self._version == version:
                    break
        locks = self._assemble_locks(func_name, entry_terms, ctx.coarse)
        if self._disk is not None:
            self._disk.store_section(func_name, section.section_id, locks)
        return SectionLocks(section.section_id, func_name, locks)

    # ------------------------------------------------------------------
    # lock assembly
    # ------------------------------------------------------------------

    def _assemble_locks(
        self,
        func_name: str,
        entry_terms: TermSet,
        coarse: Set[Tuple[Optional[int], str]],
    ) -> FrozenSet[Lock]:
        locks: Set[Lock] = set()
        for cls, eff in coarse:
            eff = eff if self.use_effects else RW
            if cls is None:
                locks.add(global_lock(RW))
            else:
                locks.add(coarse_lock(cls, eff))
        for term, eff in entry_terms.items():
            eff = eff if self.use_effects else RW
            cls = self.oracle.class_of_term(func_name, term)
            locks.add(fine_lock(term, cls, eff, func_name))
        return reduce_locks(locks)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def _demand_summary(self, key: tuple, requester: tuple) -> SummaryResult:
        self._deps.setdefault(key, set()).add(requester)
        if key not in self._summaries:
            func_name = key[1]
            if (self._disk is not None
                    and func_name not in self._bundle_checked):
                self._load_bundle(func_name)
            if key not in self._summaries:
                self._summaries[key] = SummaryResult.empty()
                self.dirty_funcs.add(func_name)
                self._enqueue(key)
        return self._summaries[key]

    def _load_bundle(self, func_name: str) -> None:
        """Pull *func_name*'s persisted summaries into the table.

        Loaded entries are final: the cone hash that keyed them guarantees
        every transitive callee is byte-identical, so their fixpoint values
        cannot move — they are never enqueued, and the solver never
        recomputes them.  Keys already in flight (demanded before the
        bundle arrived) keep their in-progress value.
        """
        self._bundle_checked.add(func_name)
        bundle = self._disk.load_bundle(func_name)
        if not bundle:
            return
        loaded = 0
        for bkey, value in bundle.items():
            if bkey not in self._summaries:
                self._summaries[bkey] = value
                loaded += 1
        if loaded:
            self.stats["summaries_from_disk"] += loaded
            self.loaded_funcs.add(func_name)

    def _enqueue(self, key: tuple) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._worklist.append(key)

    def _solve_summaries(self) -> Set[tuple]:
        """Run the summary fixpoint; returns the keys whose value changed."""
        changed: Set[tuple] = set()
        tracer = self._tracer
        while self._worklist:
            self._poll()  # each pop is a whole function dataflow
            key = self._worklist.popleft()
            self._queued.discard(key)
            if tracer.enabled:
                with tracer.span("summary.compute", "inference",
                                 func=key[1], kind=key[0]):
                    result = self._compute_summary(key)
            else:
                result = self._compute_summary(key)
            if result != self._summaries.get(key):
                self._summaries[key] = result
                self.dirty_funcs.add(key[1])
                self._version += 1
                changed.add(key)
                for dep in self._deps.get(key, ()):
                    if dep[0] not in ("section", "pre"):
                        self._enqueue(dep)
        return changed

    # -- bottom-up precomputation hooks (inference.schedule) ------------

    def precompute_funcs(self, funcs) -> None:
        """Demand and solve the access summaries of *funcs* in order.

        Called with one call-graph SCC at a time, bottom-up, so every
        summary a member demands from outside the component is already at
        its final value; the solve therefore only iterates within the
        component (mutual recursion) and the computed entries are final.
        """
        for func_name in funcs:
            self._demand_summary(("acc", func_name), ("pre", func_name))
        self._solve_summaries()

    def summary_items(self):
        """Live view of the summary table (what the disk cache stores)."""
        return self._summaries.items()

    def _compute_summary(self, key: tuple) -> SummaryResult:
        self.stats["summary_runs"] += 1
        self.computed_funcs.add(key[1])
        func_name = key[1]
        cfg = self.cfgs.get(func_name)
        func = self.program.functions.get(func_name)
        if cfg is None or func is None:
            return SummaryResult(coarse=frozenset(((None, RW),)))
        ctx = _RunContext(self, key)
        if key[0] == "acc":
            seed: TermSet = {}
            with_g = True
        else:  # ("xfer", func, term, eff)
            seed = {key[2]: key[3]}
            with_g = False
        entry = self._run(func_name, cfg.nodes, cfg.entry, cfg.exit, seed,
                          with_g, ctx)
        terms: Set[Tuple[Term, str]] = set()
        allowed = set(func.params) | set(self.program.globals)
        for term, eff in entry.items():
            free = term_free_vars(term)
            locals_used = {
                v for v in free
                if v not in self.program.globals or self._shadowed(func_name, v)
            }
            if locals_used - set(func.params):
                # references callee locals with no entry value: widen
                ctx.emit_coarse(self.oracle.class_of_term(func_name, term), eff)
            elif isinstance(term, TVar) and term.name in func.params:
                pass  # the formal's own (fresh, thread-local) cell
            else:
                terms.add((term, eff))
        return SummaryResult(frozenset(terms), frozenset(ctx.coarse))

    def _shadowed(self, func_name: str, name: str) -> bool:
        func = self.program.functions.get(func_name)
        if func is None:
            return False
        return name in func.locals or name in func.params

    def _is_global(self, func_name: str, name: str) -> bool:
        return self.pointsto.var_key(func_name, name)[0] == ""

    # ------------------------------------------------------------------
    # dataflow runs
    # ------------------------------------------------------------------

    def _backward_rank(self, func_name: str) -> Dict[int, int]:
        """Memoized exit-first priority order for *func_name*'s CFG."""
        rank = self._backward_ranks.get(func_name)
        if rank is None:
            rank = self.cfgs[func_name].backward_order()
            self._backward_ranks[func_name] = rank
        return rank

    def _run(
        self,
        func_name: str,
        nodes: List[Node],
        entry: Node,
        exit_node: Optional[Node],
        exit_seed: TermSet,
        with_g: bool,
        ctx: _RunContext,
    ) -> TermSet:
        """Backward dataflow over *nodes*; returns the IN set at *entry*.

        A section region passes ``exit_node=None``: successors outside the
        region contribute nothing.  A whole-function summary passes the
        CFG's exit, whose IN set stays pinned to *exit_seed*.
        """
        run = self._run_bits if self.enable_caches else self._run_dict
        return run(func_name, nodes, entry, exit_node, exit_seed, with_g, ctx)

    def _run_dict(self, func_name: str, nodes: List[Node], entry: Node,
                  exit_node: Optional[Node], exit_seed: TermSet,
                  with_g: bool, ctx: _RunContext) -> TermSet:
        """The reference driver: plain ``{term: eff}`` sets per node."""
        rank = self._backward_rank(func_name)
        in_sets: Dict[int, TermSet] = {n.uid: {} for n in nodes}
        exit_uid = None
        if exit_node is not None:
            exit_uid = exit_node.uid
            in_sets[exit_uid] = dict(exit_seed)
        worklist = [(rank[n.uid], n.uid, n) for n in nodes]
        heapq.heapify(worklist)
        queued = {n.uid for n in nodes}
        pops = 0
        while worklist:
            pops += 1
            if not pops % DEADLINE_POLL_EVERY:
                self._poll()
            _, uid, node = heapq.heappop(worklist)
            queued.discard(uid)
            if uid == exit_uid:
                continue
            out: TermSet = {}
            for succ in node.succs:
                if succ.uid in in_sets:
                    _join_into(out, in_sets[succ.uid])
            new_in = self._transfer(func_name, node, out, ctx, with_g=with_g)
            if new_in != in_sets[uid]:
                in_sets[uid] = new_in
                for pred in node.preds:
                    if pred.uid in in_sets and pred.uid not in queued:
                        queued.add(pred.uid)
                        heapq.heappush(
                            worklist, (rank[pred.uid], pred.uid, pred))
        return in_sets[entry.uid]

    def _run_bits(self, func_name: str, nodes: List[Node], entry: Node,
                  exit_node: Optional[Node], exit_seed: TermSet,
                  with_g: bool, ctx: _RunContext) -> TermSet:
        """The kernel driver: one ``int`` bitset per node."""
        rank = self._backward_rank(func_name)
        in_bits: Dict[int, int] = {n.uid: 0 for n in nodes}
        exit_uid = None
        if exit_node is not None:
            exit_uid = exit_node.uid
            in_bits[exit_uid] = self._interner.encode(exit_seed)
        worklist = [(rank[n.uid], n.uid, n) for n in nodes]
        heapq.heapify(worklist)
        queued = {n.uid for n in nodes}
        pops = 0
        while worklist:
            pops += 1
            if not pops % DEADLINE_POLL_EVERY:
                self._poll()
            _, uid, node = heapq.heappop(worklist)
            queued.discard(uid)
            if uid == exit_uid:
                continue
            out = 0
            for succ in node.succs:
                out |= in_bits.get(succ.uid, 0)
            new_in = self._transfer_bits(func_name, node, out, ctx, with_g)
            if new_in != in_bits[uid]:
                in_bits[uid] = new_in
                for pred in node.preds:
                    if pred.uid in in_bits and pred.uid not in queued:
                        queued.add(pred.uid)
                        heapq.heappush(
                            worklist, (rank[pred.uid], pred.uid, pred))
        self._note_peak(in_bits)
        return self._interner.decode(in_bits[entry.uid])

    def _note_peak(self, in_bits: Dict[int, int]) -> None:
        """Fold one converged run's IN sets into ``peak_bits`` (profile)."""
        peak = self.peak_bits
        for bits in in_bits.values():
            if bits:
                n = popcount(bits)
                if n > peak:
                    peak = n
        self.peak_bits = peak

    # ------------------------------------------------------------------
    # transfer functions
    # ------------------------------------------------------------------

    def _transfer_bits(
        self,
        func_name: str,
        node: Node,
        out_bits: int,
        ctx: _RunContext,
        with_g: bool,
    ) -> int:
        """One bitset transfer: the gen/kill kernel for statement nodes;
        call nodes read the summary table, so they decode, run the
        set-based ``_transfer`` and encode."""
        if (node.kind == "instr"
                and isinstance(node.instr, ir.IAssign)
                and isinstance(node.instr.rhs, ir.RCall)):
            self._stats_raw["call_transfers"] += 1
            interner = self._interner
            return interner.encode(self._transfer(
                func_name, node, interner.decode(out_bits), ctx,
                with_g=with_g))
        gids = self._node_gids
        gid = gids.get(id(node))
        if gid is None:
            gid = gids[id(node)] = len(gids)
        kern = self._kernels.get((gid, with_g))
        if kern is None:
            kern = self._build_kernel(func_name, node, with_g)
            self._kernels[(gid, with_g)] = kern
        return self._kernel_transfer(kern, out_bits, ctx)

    def _build_kernel(self, func_name: str, node: Node,
                      with_g: bool) -> "_NodeKernel":
        """Precompute a statement node's gen/kill kernel.

        The node's G set is constant, so its admitted terms become a fixed
        gen bitset and its widened classes a fixed coarse set, both built
        once here (through the very same ``_gen_*``/``_admit`` helpers the
        reference path runs) and replayed per visit.  The kill side is the
        node's :class:`WriteInfo` (``None`` for write-less nodes, whose
        transfer is pure passthrough-plus-gen).
        """
        write: Optional[WriteInfo] = None
        gens: TermSet = {}
        rec = _GenRecorder()
        if node.kind == "branch":
            if with_g:
                for atom in (node.cond.left, node.cond.right):
                    self._gen_var_read(func_name, atom, gens, rec)
        elif node.kind == "instr":
            instr = node.instr
            if isinstance(instr, ir.IAssign):
                write = write_for_assign(func_name, instr)
                if with_g:
                    self._gen_assign(func_name, instr, gens, rec)
            elif isinstance(instr, ir.IStore):
                write = write_for_store(func_name, instr)
                if with_g:
                    self._admit(func_name, TStar(TVar(instr.addr)), RW,
                                gens, rec)
                    self._gen_var_read(func_name, ir.VarAtom(instr.addr),
                                       gens, rec)
                    self._gen_var_read(func_name, instr.value, gens, rec)
            elif isinstance(instr, ir.IReturn):
                write = write_for_return(func_name, instr)
                if write is not None and with_g:
                    self._gen_var_read(func_name, instr.value, gens, rec)
        kill = None
        if write is not None:
            kill = self._kill_kernels.get((write, func_name))
            if kill is None:
                kill = _KillKernel(func_name,
                                   self._substituter(write, func_name))
                self._kill_kernels[(write, func_name)] = kill
        return _NodeKernel(kill, self._interner.encode(gens),
                           frozenset(rec.coarse))

    def _kernel_transfer(self, kern: "_NodeKernel", out_bits: int,
                         ctx: _RunContext) -> int:
        raw = self._stats_raw
        raw["dataflow_steps"] += 1
        if kern.gen_coarse:
            ctx.coarse |= kern.gen_coarse
        gen = kern.gen_bits
        kill = kern.kill
        if kill is None:
            # write-less node: every fact passes through untouched
            raw["mask_hits"] += 1
            return out_bits | gen
        result = (out_bits & kill.identity_mask) | gen
        rest = out_bits & ~kill.identity_mask
        if not rest:
            raw["mask_hits"] += 1
            return result
        cached = kill.set_memo.get(rest)
        if cached is not None:
            raw["mask_hits"] += 1
            if cached[1]:
                ctx.coarse.update(cached[1])
            return result | cached[0]
        memo = kill.memo
        key = rest
        image = 0
        pairs: list = []
        fresh = False
        while rest:
            low = rest & -rest
            # canonical bitsets always carry the even (presence) bit of a
            # pair, so the lowest set bit identifies the term directly
            tid = (low.bit_length() - 1) >> 1
            high = low << 1
            is_rw = bool(rest & high)
            rest &= ~(low | high)
            entry = memo.get(tid)
            if entry is None:
                fresh = True
                entry = self._build_fact_memo(kill, tid)
            ro_bits, classes = entry
            if is_rw:
                image |= ro_bits | (ro_bits << 1)
                for cls in classes:
                    pairs.append((cls, RW))
            else:
                image |= ro_bits
                for cls in classes:
                    pairs.append((cls, RO))
        kill.set_memo[key] = (image, tuple(pairs))
        if pairs:
            ctx.coarse.update(pairs)
        if fresh:
            raw["mask_fallbacks"] += 1
        else:
            raw["mask_hits"] += 1
        return result | image

    def _build_fact_memo(self, kill: "_KillKernel",
                         tid: int) -> Tuple[int, tuple]:
        """Memoize one term's pre-image under *kill*'s write.

        Statement transfers are effect-linear (``_apply_write`` threads the
        fact's effect through ``_admit`` unchanged), so one memo entry —
        the admitted pre-terms as an RO bitset plus the widened classes —
        serves both effects: an RW source fact ORs in the doubled bits and
        emits the classes at RW.  A term whose pre-image is exactly itself
        (no widening) is promoted into the kernel's identity mask, making
        every later visit carrying it two integer ops.
        """
        interner = self._interner
        term = interner.term(tid)
        func_name = kill.func
        k = self.k
        is_global = self._is_global
        ro_bits = 0
        classes = set()
        for pre in kill.sub.pre_terms(term):
            # inlined _admit, recording instead of mutating a result dict
            if isinstance(pre, TVar) and not is_global(func_name, pre.name):
                continue
            if term_size(pre) > k or term_has_unknown(pre):
                classes.add(self.oracle.class_of_term(func_name, pre))
            else:
                ro_bits |= interner.term_bit(pre)
        entry = (ro_bits, tuple(classes))
        kill.memo[tid] = entry
        if not classes and ro_bits == 1 << (tid << 1):
            kill.identity_mask |= ro_bits | (ro_bits << 1)
        return entry

    def _transfer(
        self,
        func_name: str,
        node: Node,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool = True,
    ) -> TermSet:
        self.stats["dataflow_steps"] += 1
        if node.kind == "branch":
            result = dict(out)
            if with_g:
                for atom in (node.cond.left, node.cond.right):
                    self._gen_var_read(func_name, atom, result, ctx)
            return result
        if node.kind != "instr":
            return dict(out)
        instr = node.instr
        if isinstance(instr, ir.IAssign):
            if isinstance(instr.rhs, ir.RCall):
                return self._transfer_call(func_name, instr, out, ctx, with_g)
            return self._transfer_assign(func_name, instr, out, ctx, with_g)
        if isinstance(instr, ir.IStore):
            return self._transfer_store(func_name, instr, out, ctx, with_g)
        if isinstance(instr, ir.IReturn):
            return self._transfer_return(func_name, instr, out, ctx, with_g)
        # INop / IAcquireAll / IReleaseAll
        return dict(out)

    def _transfer_assign(
        self,
        func_name: str,
        instr: ir.IAssign,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool,
    ) -> TermSet:
        write = write_for_assign(func_name, instr)
        result = self._apply_write(func_name, write, out, ctx)
        if with_g:
            self._gen_assign(func_name, instr, result, ctx)
        return result

    def _transfer_store(
        self,
        func_name: str,
        instr: ir.IStore,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool,
    ) -> TermSet:
        write = write_for_store(func_name, instr)
        result = self._apply_write(func_name, write, out, ctx)
        if with_g:
            self._admit(func_name, TStar(TVar(instr.addr)), RW, result, ctx)
            self._gen_var_read(func_name, ir.VarAtom(instr.addr), result, ctx)
            self._gen_var_read(func_name, instr.value, result, ctx)
        return result

    def _transfer_return(
        self,
        func_name: str,
        instr: ir.IReturn,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool,
    ) -> TermSet:
        write = write_for_return(func_name, instr)
        if write is None:  # bare return: nothing written
            return dict(out)
        result = self._apply_write(func_name, write, out, ctx)
        if with_g:
            self._gen_var_read(func_name, instr.value, result, ctx)
        return result

    def _substituter(self, write: WriteInfo, term_func: str) -> Substituter:
        """The memoizing substituter for (write, scope), reused across runs
        (its answers depend only on the write, the scope, and the oracle —
        all fixed for the engine's lifetime)."""
        if not self.enable_caches:
            return Substituter(self.oracle, write, term_func)
        key = (write, term_func)
        sub = self._substituters.get(key)
        if sub is None:
            sub = Substituter(self.oracle, write, term_func)
            self._substituters[key] = sub
        return sub

    def _apply_write(
        self, func_name: str, write: WriteInfo, out: TermSet, ctx: _RunContext
    ) -> TermSet:
        result: TermSet = {}
        if not out:
            return result
        sub = self._substituter(write, func_name)
        for term, eff in out.items():
            for pre in sub.pre_terms(term):
                self._admit(func_name, pre, eff, result, ctx)
        return result

    # ------------------------------------------------------------------
    # G sets (access lock generation)
    # ------------------------------------------------------------------

    def _gen_assign(
        self, func_name: str, instr: ir.IAssign, result: TermSet, ctx: _RunContext
    ) -> None:
        if self._is_global(func_name, instr.dest):
            self._admit(func_name, TVar(instr.dest), RW, result, ctx)
        rhs = instr.rhs
        if isinstance(rhs, ir.RVar):
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), result, ctx)
        elif isinstance(rhs, ir.RLoad):
            self._admit(func_name, TStar(TVar(rhs.src)), RO, result, ctx)
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), result, ctx)
        elif isinstance(rhs, (ir.RFieldAddr, ir.RIndexAddr)):
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), result, ctx)
            if isinstance(rhs, ir.RIndexAddr):
                self._gen_var_read(func_name, rhs.index, result, ctx)
        elif isinstance(rhs, ir.RNewArray):
            self._gen_var_read(func_name, rhs.size, result, ctx)
        elif isinstance(rhs, ir.RArith):
            self._gen_var_read(func_name, rhs.left, result, ctx)
            if rhs.right is not None:
                self._gen_var_read(func_name, rhs.right, result, ctx)
        # RAddrVar, RNew, RNull, RConst: no shared access

    def _gen_var_read(
        self, func_name: str, atom: ir.Atom, result: TermSet, ctx: _RunContext
    ) -> None:
        if isinstance(atom, ir.VarAtom) and self._is_global(func_name, atom.name):
            self._admit(func_name, TVar(atom.name), RO, result, ctx)

    def _admit(
        self,
        func_name: str,
        term: Term,
        eff: str,
        result: TermSet,
        ctx: _RunContext,
    ) -> None:
        """Add *term* to the tracked set, or widen it to a coarse lock."""
        if isinstance(term, TVar) and not self._is_global(func_name, term.name):
            return  # a thread-local variable cell needs no lock (§4.3)
        if term_size(term) > self.k or term_has_unknown(term):
            ctx.emit_coarse(self.oracle.class_of_term(func_name, term), eff)
            return
        result[term] = eff_join(eff, result.get(term, RO))

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _transfer_call(
        self,
        func_name: str,
        instr: ir.IAssign,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool,
    ) -> TermSet:
        rhs = instr.rhs
        assert isinstance(rhs, ir.RCall)
        callee = self.program.functions.get(rhs.func)
        result: TermSet = {}
        if callee is None:
            spec = self.specs.get(rhs.func) if self.specs is not None else None
            if spec is not None:
                return self._transfer_spec_call(func_name, instr, spec, out,
                                                ctx, with_g)
            # Unknown function without a spec: protect everything.
            ctx.emit_coarse(None, RW)
            for term, eff in out.items():
                result[term] = eff_join(eff, result.get(term, RO))
            return result
        ret = ast.return_var(rhs.func)
        bind_ret = WriteInfo(
            definite=TVar(instr.dest),
            func=func_name,
            ptr_content=TStar(TVar(ret)),
            int_content=IVar(ret),
        )
        sub = self._substituter(bind_ret, func_name)
        for term, eff in out.items():
            for t1 in sub.pre_terms(term):
                self._route_through_callee(
                    func_name, rhs, callee, t1, eff, result, ctx
                )
        # the callee's own accesses
        acc = ctx.get_summary(("acc", rhs.func))
        self._apply_summary(func_name, rhs, callee, acc, result, ctx)
        if with_g:
            if self._is_global(func_name, instr.dest):
                self._admit(func_name, TVar(instr.dest), RW, result, ctx)
            for arg in rhs.args:
                self._gen_var_read(func_name, arg, result, ctx)
        return result

    def _transfer_spec_call(
        self,
        func_name: str,
        instr: ir.IAssign,
        spec,
        out: TermSet,
        ctx: _RunContext,
        with_g: bool,
    ) -> TermSet:
        """Call transfer for a pre-compiled function described only by an
        :class:`ExternalSpec` (paper §4.3, library support)."""
        rhs = instr.rhs
        result: TermSet = {}
        written: Set[int] = set()
        # 1. protect everything the callee may touch, per the spec
        for param_eff, arg in zip(spec.param_effects, rhs.args):
            if param_eff == "none" or not isinstance(arg, ir.VarAtom):
                continue
            start = self.pointsto.pts_class(
                self.pointsto.var_ecr(func_name, arg.name)
            )
            classes = reachable_classes(self.pointsto, start)
            eff = RO if param_eff == "ro" else RW
            for cls in classes:
                ctx.emit_coarse(cls, eff)
            if param_eff == "rw":
                written |= classes
        if spec.reads_globals or spec.writes_globals:
            eff = RW if spec.writes_globals else RO
            for name in self.program.globals:
                cell = self.pointsto.var_ecr("", name)
                classes = reachable_classes(self.pointsto, cell)
                for cls in classes:
                    ctx.emit_coarse(cls, eff)
                if spec.writes_globals:
                    written |= classes
        # 2. carry caller terms across the call
        ret_param = spec.return_param
        if spec.returns == "fresh":
            ptr_content: Optional[Term] = None
        elif ret_param is not None and ret_param < len(rhs.args) and isinstance(
            rhs.args[ret_param], ir.VarAtom
        ):
            ptr_content = TStar(TVar(rhs.args[ret_param].name))
        else:
            ptr_content = None  # only safe together with the check below
        returns_unknown = spec.returns == "unknown"
        bind = WriteInfo(
            definite=TVar(instr.dest),
            func=func_name,
            ptr_content=ptr_content,
            int_content=None,
        )
        sub = self._substituter(bind, func_name)
        for term, eff in out.items():
            if returns_unknown and instr.dest in term_free_vars(term):
                # result value inexpressible: widen anything built on it
                ctx.emit_coarse(self.oracle.class_of_term(func_name, term), eff)
                continue
            for pre in sub.pre_terms(term):
                if written and written & self._read_classes(func_name, pre):
                    ctx.emit_coarse(
                        self.oracle.class_of_term(func_name, pre), eff
                    )
                else:
                    self._admit(func_name, pre, eff, result, ctx)
        if with_g:
            if self._is_global(func_name, instr.dest):
                self._admit(func_name, TVar(instr.dest), RW, result, ctx)
            for arg in rhs.args:
                self._gen_var_read(func_name, arg, result, ctx)
        return result

    def _route_through_callee(
        self,
        func_name: str,
        call: ir.RCall,
        callee: ir.LoweredFunction,
        term: Term,
        eff: str,
        result: TermSet,
        ctx: _RunContext,
    ) -> None:
        ret = ast.return_var(call.func)
        free = term_free_vars(term)
        has_ret = ret in free
        caller_locals = {
            v
            for v in free
            if v != ret and not self._is_global(func_name, v)
        }
        if has_ret and not caller_locals:
            summary = ctx.get_summary(("xfer", call.func, term, eff))
            self._apply_summary(func_name, call, callee, summary, result, ctx)
        elif has_ret:
            # mixed caller/callee scopes: not expressible, widen
            ctx.emit_coarse(self.oracle.class_of_term(func_name, term), eff)
        else:
            if self._callee_may_affect(call.func, func_name, term):
                ctx.emit_coarse(self.oracle.class_of_term(func_name, term), eff)
            else:
                self._admit(func_name, term, eff, result, ctx)

    def _apply_summary(
        self,
        func_name: str,
        call: ir.RCall,
        callee: ir.LoweredFunction,
        summary: SummaryResult,
        result: TermSet,
        ctx: _RunContext,
    ) -> None:
        for cls, eff in summary.coarse:
            ctx.emit_coarse(cls, eff)
        mapping: Dict[str, Tuple[Optional[Term], object]] = {}
        for param, arg in zip(callee.params, call.args):
            if isinstance(arg, ir.VarAtom):
                mapping[param] = (TStar(TVar(arg.name)), IVar(arg.name))
            elif isinstance(arg, ir.ConstAtom):
                mapping[param] = (None, atom_to_index(arg))
            else:
                mapping[param] = (None, None)
        for term, eff in summary.terms:
            unmapped = _unmap_term(term, mapping)
            if unmapped is _DROPPED:
                continue
            if unmapped is _INEXPRESSIBLE:
                ctx.emit_coarse(
                    self.oracle.class_of_term(call.func, term), eff
                )
                continue
            # residual callee vars mean the term is not caller-expressible
            residual = {
                v
                for v in term_free_vars(unmapped)
                if self._shadowed(call.func, v)
                and not self._is_global(func_name, v)
            }
            if residual:
                ctx.emit_coarse(self.oracle.class_of_term(call.func, term), eff)
            else:
                self._admit(func_name, unmapped, eff, result, ctx)

    # ------------------------------------------------------------------
    # callee write effects (for caller-scoped terms crossing a call)
    # ------------------------------------------------------------------

    def _callee_may_affect(self, callee_name: str, func_name: str, term: Term) -> bool:
        written = self._written_classes_of(callee_name)
        if written is None:
            return True  # callee (transitively) calls unknown code
        for cls in self._read_classes(func_name, term):
            if cls in written:
                return True
        return False

    def _read_classes(self, func_name: str, term: Term) -> Set[int]:
        """Classes of every cell a term's evaluation reads (deref steps and
        index variables)."""
        classes: Set[int] = set()

        def visit_term(t: Term) -> None:
            if isinstance(t, TStar):
                classes.add(self.oracle.class_of_term(func_name, t.inner))
                visit_term(t.inner)
            elif isinstance(t, TPlus):
                visit_term(t.inner)
            elif isinstance(t, TIndex):
                visit_term(t.inner)
                visit_index(t.index)

        def visit_index(ie) -> None:
            if isinstance(ie, IVar):
                classes.add(
                    self.pointsto.class_id(
                        self.oracle.var_cell_class(func_name, ie.name)
                    )
                )
            elif hasattr(ie, "left"):
                visit_index(ie.left)
                visit_index(ie.right)

        visit_term(term)
        return classes

    def _written_classes_of(self, func_name: str) -> Optional[FrozenSet[int]]:
        """Classes of cells *func_name* (transitively) writes; None = unknown."""
        if func_name in self._written_classes:
            return self._written_classes[func_name]
        self._written_classes[func_name] = frozenset()  # cycle base
        func = self.program.functions.get(func_name)
        if func is None:
            self._written_classes[func_name] = None
            return None
        classes: Set[int] = set()
        unknown = False
        for instr in ir.walk_instrs(func.body):
            if isinstance(instr, ir.IStore):
                ecr = self.pointsto.pts_class(
                    self.pointsto.var_ecr(func_name, instr.addr)
                )
                classes.add(self.pointsto.class_id(ecr))
            elif isinstance(instr, ir.IAssign):
                if self._is_global(func_name, instr.dest):
                    classes.add(self.pointsto.class_of_var(func_name, instr.dest))
                if isinstance(instr.rhs, ir.RCall):
                    sub = self._written_classes_of(instr.rhs.func)
                    if sub is None:
                        unknown = True
                    else:
                        classes.update(sub)
        result: Optional[FrozenSet[int]] = None if unknown else frozenset(classes)
        self._written_classes[func_name] = result
        return result


# A couple of private sentinels for unmapping outcomes.
_DROPPED = object()
_INEXPRESSIBLE = object()


def _unmap_term(term: Term, mapping: Dict[str, Tuple[Optional[Term], object]]):
    """Rewrite a callee-entry term into caller scope: every deref of a formal
    becomes the actual's content; every index use of a formal becomes the
    actual's integer value. Returns the rewritten term, ``_DROPPED`` (the
    binding's content is null/const so the path is stuck or fresh), or
    ``_INEXPRESSIBLE``."""
    if isinstance(term, TVar):
        return term
    if isinstance(term, TStar):
        inner = term.inner
        if isinstance(inner, TVar) and inner.name in mapping:
            ptr, _ = mapping[inner.name]
            return ptr if ptr is not None else _DROPPED
        sub = _unmap_term(inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        return TStar(sub)
    if isinstance(term, TPlus):
        sub = _unmap_term(term.inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        return TPlus(sub, term.fieldname)
    if isinstance(term, TIndex):
        sub = _unmap_term(term.inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        index = _unmap_index(term.index, mapping)
        if index is None:
            return _INEXPRESSIBLE
        return TIndex(sub, index)
    raise TypeError(f"unknown term {term!r}")


def _unmap_index(ie, mapping):
    from ..locks.terms import IBin, IConst, IUnknown

    if isinstance(ie, IVar):
        if ie.name in mapping:
            _, intval = mapping[ie.name]
            return intval if intval is not None else IUnknown()
        return ie
    if isinstance(ie, (IConst, IUnknown)):
        return ie
    if isinstance(ie, IBin):
        left = _unmap_index(ie.left, mapping)
        right = _unmap_index(ie.right, mapping)
        if left is None or right is None:
            return None
        return IBin(ie.op, left, right)
    raise TypeError(f"unknown index {ie!r}")


def _join_into(target: TermSet, source: TermSet) -> None:
    for term, eff in source.items():
        target[term] = eff_join(eff, target.get(term, RO))
