"""The bytecode VM: one iterative trampoline, the engine's default path.

The generator path executes compiled clauses through a ladder of
Python generators — ``solve_goal`` → ``_solve_user_compiled`` →
``_solve_body`` — paying roughly three generator frames per predicate
call and one resume hop per frame per solution. This module flattens
that ladder into an explicit machine: clause bodies are lowered to the
linear bytecode of :meth:`~repro.prolog.compile.CompiledClause.vm_code`
and executed by :func:`solve_vm`, a single iterative loop with

* an explicit **choice-point stack** instead of
  suspended generators — each entry is a plain Python list/tuple
  (picklable data, the prerequisite the ROADMAP names for a
  multi-process or native backend);
* an explicit **continuation chain** — the caller's registers are
  saved as one immutable tuple per in-flight call, so yielding a
  solution is O(1) instead of O(depth) generator hops;
* **native deterministic builtins** (:data:`DET_BUILTINS`) — ``is/2``,
  the arithmetic comparisons, ``=/2``, the identity/order tests, and
  the type tests run as one function call: no generator, no choice
  point, no undo (any later backtrack undoes to an older trail mark,
  which subsumes their bindings).

Counter discipline is byte-identical to ``Engine._solve_user_compiled``
(the differential suite and ``BENCH_engine.json`` pin it): the machine
charges ``record_backtrack``/``record_fast_reject``/
``record_instantiation``/``record_unification`` at exactly the same
points, including the scan-plan bulk charges from PR 8.

Three choice-point kinds:

``CP_CLAUSES``
    ``[kind, cont, goal_args, clauses, program, cursor, processed,
    mark, frame, body_depth, goal_keys, bound_positions]`` — the
    machine's own clause selection (the WAM's RETRY chain). When the
    last candidate unifies, the entry is dropped eagerly (TRUST).
``CP_PLAN``
    Same layout, with the clause list replaced by a database scan plan
    (the cursor indexes plan steps, ``processed`` counts clauses) so
    runs of fingerprint-rejected clauses are skipped and charged in
    bulk.
``CP_ITER``
    ``[kind, cont, iterator, frame, barrier]`` — a delegated goal
    (non-deterministic builtin, tabled call, control construct via
    ``Engine.solve_goal``) held as an iterator. The escape hatch that
    keeps every delegated construct's semantics — cut transparency,
    tabling, exceptions — literally the engine's existing code.

Cut is eager: ``VM_CUT`` prunes the stack down to the call's barrier
(the stack height captured at call entry), closing delegated iterators
in LIFO order; the trail is deliberately *not* undone (bindings made
left of the cut are part of the committed solution).

The machine runs only on the uninstrumented fast path: when a tracer,
event bus or recorder is attached, ``Engine._solve_user_vm`` routes the
call to the generator path instead — the same precedent as the scan
plans, which also only run when the bus is off — and engines with a
bottom-up dispatcher never select the machine. Instrumented runs are
therefore event-for-event identical to the generator path by
construction.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import DepthLimitExceeded, ExistenceError
from .builtins.arith import evaluate
from .compile import (
    ARG_CODE,
    ARG_CONST,
    ARG_SLOT,
    VM_BUILTIN,
    VM_CALL,
    VM_CUT,
    VM_DET,
    VM_FAIL,
    VM_GENERIC,
    _run,
)
from .database import first_arg_key
from .tabling import solve_tabled
from .terms import (
    Atom,
    Struct,
    Var,
    deref,
    is_number,
    is_proper_list,
    structural_eq,
    term_is_ground,
    term_ordering_key,
)
from .unify import unify

__all__ = [
    "Frame",
    "Machine",
    "solve_vm",
    "DET_BUILTINS",
    "disassemble_clause",
    "disassemble_predicate",
    "disassemble_database",
]

class Frame:
    """A cut barrier: one per predicate call (and per local-cut context)."""

    __slots__ = ("cut",)

    def __init__(self) -> None:
        self.cut = False


#: Choice-point kinds (first element of every stack entry).
CP_CLAUSES = 0
CP_PLAN = 1
CP_ITER = 2

#: Sentinel distinguishing "iterator exhausted" from a yielded None.
_EXHAUSTED = object()


# -- native deterministic builtins ------------------------------------------
#
# Each mirrors its generator twin in repro.prolog.builtins line for
# line (same evaluation order, same failure-time undo), minus the
# success-time redo-undo: the machine never resumes a det op, and any
# backtrack that could observe its bindings first undoes to an older
# trail mark, which subsumes them. All are module-level named functions
# so the bytecode tuples that carry them stay picklable.


def _det_is(engine, args):
    value = evaluate(args[1])
    trail = engine.trail
    mark = trail.mark()
    if unify(args[0], value, trail):
        return True
    trail.undo_to(mark)
    return False


def _det_eq_num(engine, args):
    return evaluate(args[0]) == evaluate(args[1])


def _det_ne_num(engine, args):
    return evaluate(args[0]) != evaluate(args[1])


def _det_lt(engine, args):
    return evaluate(args[0]) < evaluate(args[1])


def _det_gt(engine, args):
    return evaluate(args[0]) > evaluate(args[1])


def _det_le(engine, args):
    return evaluate(args[0]) <= evaluate(args[1])


def _det_ge(engine, args):
    return evaluate(args[0]) >= evaluate(args[1])


def _det_unify(engine, args):
    trail = engine.trail
    mark = trail.mark()
    if unify(args[0], args[1], trail, occurs_check=engine.occurs_check):
        return True
    trail.undo_to(mark)
    return False


def _det_not_unify(engine, args):
    trail = engine.trail
    mark = trail.mark()
    unified = unify(args[0], args[1], trail, occurs_check=engine.occurs_check)
    trail.undo_to(mark)
    return not unified


def _det_identical(engine, args):
    return structural_eq(args[0], args[1])


def _det_not_identical(engine, args):
    return not structural_eq(args[0], args[1])


def _order_sign(args):
    left = term_ordering_key(args[0])
    right = term_ordering_key(args[1])
    return (left > right) - (left < right)


def _det_before(engine, args):
    return _order_sign(args) < 0


def _det_after(engine, args):
    return _order_sign(args) > 0


def _det_before_eq(engine, args):
    return _order_sign(args) <= 0


def _det_after_eq(engine, args):
    return _order_sign(args) >= 0


def _det_var(engine, args):
    return isinstance(deref(args[0]), Var)


def _det_nonvar(engine, args):
    return not isinstance(deref(args[0]), Var)


def _det_atom(engine, args):
    return isinstance(deref(args[0]), Atom)


def _det_number(engine, args):
    return is_number(deref(args[0]))


def _det_integer(engine, args):
    term = deref(args[0])
    return isinstance(term, int) and not isinstance(term, bool)


def _det_float(engine, args):
    return isinstance(deref(args[0]), float)


def _det_atomic(engine, args):
    term = deref(args[0])
    return isinstance(term, Atom) or is_number(term)


def _det_compound(engine, args):
    return isinstance(deref(args[0]), Struct)


def _det_callable(engine, args):
    return isinstance(deref(args[0]), (Atom, Struct))


def _det_is_list(engine, args):
    return is_proper_list(deref(args[0]))


def _det_ground(engine, args):
    return term_is_ground(deref(args[0]))


#: Deterministic builtins the machine runs natively: ``fn(engine,
#: args) -> bool``. Anything registered here must succeed at most once
#: and leave bindings only on success (the generator twin's redo-undo
#: is subsumed by outer trail marks — see the module docstring).
DET_BUILTINS = {
    ("is", 2): _det_is,
    ("=:=", 2): _det_eq_num,
    ("=\\=", 2): _det_ne_num,
    ("<", 2): _det_lt,
    (">", 2): _det_gt,
    ("=<", 2): _det_le,
    (">=", 2): _det_ge,
    ("=", 2): _det_unify,
    ("\\=", 2): _det_not_unify,
    ("==", 2): _det_identical,
    ("\\==", 2): _det_not_identical,
    ("@<", 2): _det_before,
    ("@>", 2): _det_after,
    ("@=<", 2): _det_before_eq,
    ("@>=", 2): _det_after_eq,
    ("var", 1): _det_var,
    ("nonvar", 1): _det_nonvar,
    ("atom", 1): _det_atom,
    ("number", 1): _det_number,
    ("integer", 1): _det_integer,
    ("float", 1): _det_float,
    ("atomic", 1): _det_atomic,
    ("compound", 1): _det_compound,
    ("callable", 1): _det_callable,
    ("is_list", 1): _det_is_list,
    ("ground", 1): _det_ground,
}


def _prune(cps: List[list], barrier: int) -> None:
    """Cut: drop choice points above ``barrier``, closing delegated
    iterators rightmost-first (the order the generator ladder's
    ``finally`` chain unwound in)."""
    for position in range(len(cps) - 1, barrier - 1, -1):
        cp = cps[position]
        if cp[0] == CP_ITER:
            cp[2].close()
    del cps[barrier:]


def solve_vm(engine, indicator, args, depth: int, cps: List[list]) -> Iterator[None]:
    """Run one root user-predicate call; yield once per answer.

    ``solve_goal`` has already charged, resolved and routed the root
    call, so the machine starts at call entry: the same memoised,
    lazy-choice-point routine every ``VM_CALL`` goes through. Bindings
    for an answer live on the engine trail while the caller holds the
    yield, exactly like the generator path; resuming backtracks.
    ``cps`` is the (initially empty) choice-point stack, owned by the
    caller so a :class:`Machine` can inspect it.

    The ``finally`` pops the whole stack when the enumeration is
    abandoned (``ask(limit=)``, a budget abort, an exception), closing
    delegated iterators in LIFO order. The trail is *not* undone there:
    ``Engine.solve`` owns the query-level undo, and a committed answer's
    bindings must survive its own cleanup.
    """
    trail = engine.trail
    undo_to = trail.undo_to
    trail_mark = trail.mark
    metrics = engine.metrics
    occurs = engine.occurs_check
    database = engine.database
    tabled = database.tabled
    table_all = engine.table_all
    max_depth = engine.max_depth
    charge_call = engine._charge_call
    budget = engine._active_budget
    call_cache = engine._vm_call_cache
    cps_append = cps.append

    # Activation registers (restored from a choice point or a
    # continuation tuple on every transfer). ``saved`` is the
    # continuation of the call being entered; the root's is None, so
    # reaching it yields an answer.
    ops: tuple = ()
    pc = 0
    frame_slots = ()
    frame: Optional[Frame] = None
    barrier = 0
    cont = None
    saved = None
    calling = True
    failing = False
    try:
        while True:
            if budget is not None:
                # One step per machine transition bounds redo storms
                # that never issue a new call (the generator path's
                # per-body-iteration charge, at the machine's cadence)
                # and keeps deadline/cancellation checks live.
                budget.charge_step()
            if failing:
                # ---------------- backtracking ----------------
                if not cps:
                    return
                cp = cps[-1]
                kind = cp[0]
                if kind == CP_ITER:
                    value = next(cp[2], _EXHAUSTED)
                    if value is _EXHAUSTED:
                        cps.pop()
                        if cp[3].cut:
                            # A delegated construct executed a cut that
                            # escapes into its clause: discard the
                            # call's remaining alternatives.
                            _prune(cps, cp[4])
                        continue
                    (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                    failing = False
                    continue
                # Retry a call's clauses from the stored cursor.
                (kind, saved, args, candidates, program, cursor, processed,
                 mark, call_frame, body_depth, goal_keys,
                 bound_positions) = cp
                undo_to(mark)
            else:
                if not calling:
                    # ---------------- forward execution ----------------
                    if pc == len(ops):
                        # PROCEED: the body is done — pop the continuation.
                        if cont is None:
                            yield  # a root answer; resume = backtrack
                            failing = True
                            continue
                        (ops, pc, frame_slots, frame, barrier, depth, cont) = cont
                        continue
                    op = ops[pc]
                    tag = op[0]
                    if tag == VM_CALL:
                        indicator = op[1]
                        args = op[2](frame_slots)
                        charge_call(indicator)
                        if table_all or indicator in tabled:
                            if not database.defines(indicator):
                                raise ExistenceError(indicator)
                            goal = (
                                Struct(indicator[0], args) if args
                                else Atom(indicator[0])
                            )
                            iterator = solve_tabled(engine, goal, indicator, depth)
                        else:
                            iterator = None
                            saved = (ops, pc + 1, frame_slots, frame, barrier,
                                     depth, cont)
                    elif tag == VM_DET:
                        charge_call(op[1])
                        if op[2](engine, op[3](frame_slots)):
                            pc += 1
                        else:
                            failing = True
                        continue
                    elif tag == VM_CUT:
                        if len(cps) > barrier:
                            _prune(cps, barrier)
                        pc += 1
                        continue
                    elif tag == VM_FAIL:
                        # Never charged, like the engine's inline
                        # handling of ``fail``/``false``.
                        failing = True
                        continue
                    elif tag == VM_BUILTIN:
                        charge_call(op[1])
                        iterator = op[2](engine, op[3](frame_slots), depth, frame)
                    else:  # VM_GENERIC
                        code = op[1]
                        goal = op[2] if code is None else _run(code, frame_slots)
                        # solve_goal charges, dispatches (control
                        # constructs, runtime builtins behind variables,
                        # nested user calls) and boxes — verbatim reuse.
                        iterator = engine.solve_goal(goal, depth, frame)
                    if iterator is not None:
                        # A delegated goal: its first answer now, the
                        # rest through an iterator choice point.
                        value = next(iterator, _EXHAUSTED)
                        if value is _EXHAUSTED:
                            if frame.cut:
                                _prune(cps, barrier)
                            failing = True
                            continue
                        cps_append(
                            [CP_ITER,
                             (ops, pc + 1, frame_slots, frame, barrier, depth, cont),
                             iterator, frame, barrier]
                        )
                        pc += 1
                        continue
                calling = False
                # ---------------- call entry ----------------
                # Clause selection is memoised per (indicator, arg
                # keys): index probes depend on the arguments only
                # through first_arg_key, so a cell validated against the
                # database generation replays the exact lookup — clause
                # list, compiled program, fingerprint keys and scan plan
                # — without touching the index. The memo is bypassed
                # whenever IndexEvents are being observed.
                goal_keys = tuple([first_arg_key(arg) for arg in args])
                cache_key = (indicator, goal_keys)
                cached = call_cache.get(cache_key)
                if (
                    cached is None
                    or cached[0] != database.generation
                    or database.events is not None
                ):
                    cached = None
                    if not database.defines(indicator):
                        raise ExistenceError(indicator)
                if depth >= max_depth:
                    raise DepthLimitExceeded(
                        f"depth {max_depth} exceeded at "
                        f"{indicator[0]}/{indicator[1]}"
                    )
                if cached is not None:
                    (_, candidates, program, goal_keys, bound_positions,
                     kind) = cached
                else:
                    candidates = database.matching_for(
                        indicator, args, goal_keys or None
                    )
                    program = database.compiled_program(indicator)
                    bound_positions = ()
                    kind = CP_CLAUSES
                    if goal_keys and len(candidates) > 1:
                        bound_positions = tuple(
                            [p for p, key in enumerate(goal_keys)
                             if key is not None]
                        )
                        if not bound_positions:
                            goal_keys = None
                        elif goal_keys[0] is not None:
                            plan = database.scan_plan(
                                indicator, candidates, goal_keys[0]
                            )
                            if plan is not None:
                                candidates = plan
                                kind = CP_PLAN
                    else:
                        goal_keys = None
                    if database.events is None:
                        if len(call_cache) > 4096:
                            call_cache.clear()
                        call_cache[cache_key] = (
                            database.generation, candidates, program,
                            goal_keys, bound_positions, kind,
                        )
                if not candidates:
                    failing = True
                    continue
                # The first attempt runs with no choice point: one is
                # pushed only when alternatives remain, so a
                # deterministic call never touches the stack.
                cp = None
                cursor = processed = 0
                mark = trail_mark()
                body_depth = depth + 1

            # ---------------- clause attempt ----------------
            # The first attempt of a call (``cp`` None) or a retry from
            # its choice point. The counter charges transcribe
            # Engine._solve_user_compiled verbatim — every record_* call
            # below has a line-for-line twin there.
            slots = None
            if kind == CP_CLAUSES:
                total = len(candidates)
                while cursor < total:
                    if cursor:
                        metrics.record_backtrack()
                    compiled = program[candidates[cursor].index]
                    cursor += 1
                    if goal_keys is not None:
                        head_keys = compiled.head_keys
                        rejected = False
                        for position in bound_positions:
                            head_key = head_keys[position]
                            if head_key is not None and head_key != goal_keys[position]:
                                rejected = True
                                break
                        if rejected:
                            metrics.record_fast_reject()
                            continue
                    slots = compiled.unify_head(args, trail, occurs)
                    metrics.record_instantiation()
                    if slots is not None:
                        metrics.record_unification(True)
                        break
                    metrics.record_unification(False)
                    undo_to(mark)
                more = cursor < total
            else:
                # A scan plan: runs of fingerprint-rejected clauses are
                # skipped and charged in bulk (``cursor`` indexes plan
                # steps, ``processed`` counts clauses).
                total = len(candidates)
                while cursor < total:
                    skipped, clause = candidates[cursor]
                    cursor += 1
                    if skipped:
                        metrics.unifications += skipped
                        metrics.head_fast_rejects += skipped
                        metrics.backtracks += skipped if processed else skipped - 1
                        processed += skipped
                    if clause is None:
                        break
                    if processed:
                        metrics.record_backtrack()
                    processed += 1
                    compiled = program[clause.index]
                    head_keys = compiled.head_keys
                    rejected = False
                    for position in bound_positions:
                        head_key = head_keys[position]
                        if head_key is not None and head_key != goal_keys[position]:
                            rejected = True
                            break
                    if rejected:
                        metrics.record_fast_reject()
                        continue
                    slots = compiled.unify_head(args, trail, occurs)
                    metrics.record_instantiation()
                    if slots is not None:
                        metrics.record_unification(True)
                        break
                    metrics.record_unification(False)
                    undo_to(mark)
                # Only the empty trailing sentinel left means no
                # alternative remains.
                more = not (cursor == total - 1 and candidates[cursor][0] == 0)
            if slots is None:
                if cp is not None:
                    cps.pop()
                failing = True
                continue
            if cp is None:
                barrier = len(cps)
                frame = Frame()
                if more:
                    cps_append(
                        [kind, saved, args, candidates, program, cursor,
                         processed, mark, frame, body_depth, goal_keys,
                         bound_positions]
                    )
            else:
                barrier = len(cps) - 1
                frame = call_frame
                if more:
                    cp[5] = cursor
                    cp[6] = processed
                else:
                    cps.pop()  # TRUST: no alternative left
            ops = compiled.vm_code()
            pc = 0
            frame_slots = slots
            depth = body_depth
            cont = saved
            failing = False
    finally:
        _prune(cps, 0)


class Machine:
    """One root user-predicate call as a steppable object.

    ``next_solution()`` runs the machine to its next answer (``True``)
    or to exhaustion (``False``); ``cps`` is the live choice-point
    stack (plain lists — picklable when no delegated iterator is on
    it). ``close()`` discards the remaining choice points, closing
    delegated iterators in LIFO order. The engine drives
    :func:`solve_vm` directly; this handle is for inspection.
    """

    __slots__ = ("cps", "_run")

    def __init__(self, engine, goal, indicator, depth: int):
        goal = deref(goal)
        self.cps: List[list] = []
        args = goal.args if isinstance(goal, Struct) else ()
        self._run = solve_vm(engine, indicator, args, depth, self.cps)

    def next_solution(self) -> bool:
        """Advance to the next answer; ``False`` when exhausted."""
        return next(self._run, _EXHAUSTED) is not _EXHAUSTED

    def close(self) -> None:
        """Discard all remaining choice points (idempotent)."""
        self._run.close()


def _build_args(specs, frame) -> tuple:
    """Materialize a goal's argument tuple from its argspecs."""
    if not specs:
        return ()
    return tuple(
        payload
        if tag == ARG_CONST
        else frame[payload]
        if tag == ARG_SLOT
        else _run(payload, frame)
        for tag, payload in specs
    )


# -- disassembler -----------------------------------------------------------

_OP_NAMES = {
    VM_CALL: "CALL",
    VM_DET: "DET_BUILTIN",
    VM_BUILTIN: "BUILTIN",
    VM_GENERIC: "GENERIC",
    VM_CUT: "CUT",
    VM_FAIL: "FAIL",
}


def _display_frame(compiled) -> list:
    """A frame of named free variables for rendering bytecode operands."""
    return [Var(name) for name in compiled.var_names]


def _render(term) -> str:
    from .writer import term_to_string

    return term_to_string(term)


def _render_args(specs, frame) -> str:
    if not specs:
        return ""
    return "(" + ", ".join(_render(arg) for arg in _build_args(specs, frame)) + ")"


def _head_spec_text(tag: int, payload, frame) -> str:
    from .compile import _ARG_BUILD, _ARG_CONST, _ARG_FRESH, _ARG_SLOT

    if tag == _ARG_FRESH:
        return f"fresh {frame[payload].name}@{payload}"
    if tag == _ARG_SLOT:
        return f"slot {frame[payload].name}@{payload}"
    if tag == _ARG_CONST:
        return f"const {_render(payload)}"
    assert tag == _ARG_BUILD
    return f"build {_render(_run(payload, frame))}"


def disassemble_clause(compiled, position: Optional[int] = None) -> List[str]:
    """Human-readable bytecode listing for one compiled clause."""
    frame = _display_frame(compiled)
    lines = []
    label = "clause" if position is None else f"clause {position}"
    lines.append(f"  {label}: frame={len(frame)} slots")
    if compiled.head_args:
        specs = ", ".join(
            _head_spec_text(tag, payload, frame)
            for tag, payload in compiled.head_args
        )
        lines.append(f"    UNIFY_HEAD   {specs}")
    lines.append("    NECK")
    for op in compiled.vm_code():
        tag = op[0]
        name = _OP_NAMES[tag]
        if tag == VM_CALL:
            indicator = op[1]
            lines.append(
                f"    {name:<12} {indicator[0]}/{indicator[1]}"
                f"{_render_args(op[3], frame)}"
            )
        elif tag in (VM_DET, VM_BUILTIN):
            indicator = op[1]
            lines.append(
                f"    {name:<12} {indicator[0]}/{indicator[1]}"
                f"{_render_args(op[4], frame)}"
            )
        elif tag == VM_GENERIC:
            code, const = op[1], op[2]
            goal = const if code is None else _run(code, frame)
            lines.append(f"    {name:<12} {_render(goal)}")
        else:
            lines.append(f"    {name}")
    lines.append("    PROCEED")
    return lines


def disassemble_predicate(database, indicator) -> List[str]:
    """Bytecode listing for every clause of one predicate."""
    program = database.compiled_program(indicator)
    lines = [f"% {indicator[0]}/{indicator[1]} ({len(program)} clauses)"]
    for position, compiled in enumerate(program):
        lines.extend(disassemble_clause(compiled, position))
    return lines


def disassemble_database(database) -> str:
    """Bytecode listing for every predicate, in definition order."""
    lines: List[str] = []
    for indicator in database.predicates():
        lines.extend(disassemble_predicate(database, indicator))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
