"""Bytecode VM unit tests: the trampoline's own guarantees.

The three-way differential suite (`test_compiled_differential.py`)
pins answers and counters against the generator oracles; this file
covers what only the machine can promise — constant Python stack
depth, plain-data (picklable) choice points, deterministic `close()`,
budget aborts from inside the trampoline, and the disassembler.
"""

import pickle
import sys

import pytest

from repro.analysis.modes import parse_mode_string
from repro.errors import BudgetExceededError, DepthLimitExceeded, ExistenceError
from repro.experiments.harness import mode_queries
from repro.experiments.tables import reorder_program
from repro.observability import attach, detach
from repro.observability.streaming.recorder import (
    StreamingRecorder,
    attach_recorder,
    detach_recorder,
)
from repro.programs import family_tree
from repro.prolog import Engine, Struct, Var
from repro.prolog.compile import VM_BUILTIN, VM_CALL, VM_CUT, VM_DET, VM_GENERIC
from repro.prolog.vm import (
    DET_BUILTINS,
    Machine,
    disassemble_database,
    disassemble_predicate,
)
from repro.robustness.budget import Budget

COUNTDOWN = """
    count(0).
    count(N) :- N > 0, M is N - 1, count(M).
"""

MEMBER = """
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).
"""


class TestTrampolineDepth:
    def test_deep_recursion_without_python_stack(self):
        """20k-deep SLD recursion on a few hundred Python frames.

        The generator ladder needs a Python frame per depth level (the
        engine raises the interpreter recursion limit to cope); the
        machine's depth is data on the choice-point stack.
        """
        engine = Engine.from_source(
            COUNTDOWN, vm=True, max_depth=30_000, adjust_recursion_limit=False
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(500)
        try:
            assert len(engine.ask("count(20000)")) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_depth_limit_still_enforced(self):
        engine = Engine.from_source(
            "spin :- spin.", vm=True, max_depth=50
        )
        with pytest.raises(DepthLimitExceeded):
            engine.ask("spin")

    def test_undefined_predicate_raises(self):
        engine = Engine.from_source("p(a).", vm=True)
        with pytest.raises(ExistenceError):
            engine.ask("missing(X)")


class TestChoicePointData:
    def test_cp_stack_is_picklable_mid_enumeration(self):
        engine = Engine.from_source("p(X) :- q(X). q(1). q(2). q(3).", vm=True)
        machine = Machine(engine, Struct("p", (Var("X"),)), ("p", 1), 0)
        try:
            assert machine.next_solution()
            assert machine.cps, "expected a live choice point"
            restored = pickle.loads(pickle.dumps(machine.cps))
            assert [cp[0] for cp in restored] == [cp[0] for cp in machine.cps]
        finally:
            machine.close()

    def test_close_is_idempotent_and_final(self):
        engine = Engine.from_source("q(1). q(2).", vm=True)
        machine = Machine(engine, Struct("q", (Var("X"),)), ("q", 1), 0)
        assert machine.next_solution()
        machine.close()
        machine.close()
        assert not machine.next_solution()
        assert machine.cps == []

    def test_close_preserves_committed_bindings(self):
        """Cut-committed bindings survive cleanup (the answer is read
        off the trail after the machine is discarded)."""
        engine = Engine.from_source(
            MEMBER + "first(X) :- member(X, [a, b, c]), !.", vm=True
        )
        solutions = engine.ask("first(X)")
        assert [str(s.bindings["X"]) for s in solutions] == ["a"]


class TestBudgetsOnVmPath:
    @pytest.mark.parametrize(
        "query",
        [
            "first(X)",                      # cut
            "pick(X)",                       # if-then-else
            "lonely(9)",                     # negation as failure
        ],
    )
    def test_step_budget_aborts_control_constructs(self, query):
        source = MEMBER + """
            first(X) :- member(X, [a, b, c]), !.
            pick(X) :- (member(X, [1, 2]) -> true ; X = none).
            lonely(X) :- \\+ member(X, [1, 2, 3]).
        """
        engine = Engine.from_source(source, vm=True)
        with pytest.raises(BudgetExceededError):
            engine.ask(query, budget=Budget(steps=2))
        # The abort unwound the trail; the engine stays usable.
        assert engine.trail.mark() == 0
        assert len(engine.ask(query)) >= 1

    def test_call_budget_trips_inside_machine(self):
        engine = Engine.from_source(COUNTDOWN, vm=True, max_depth=5000)
        with pytest.raises(BudgetExceededError):
            engine.ask("count(1000)", budget=Budget(calls=50))
        assert engine.trail.mark() == 0


class TestAskLimitUnwind:
    def test_limit_pops_the_whole_stack(self):
        engine = Engine.from_source(MEMBER, vm=True)
        solutions = engine.ask("member(X, [a, b, c, d])", limit=2)
        assert len(solutions) == 2
        assert engine.trail.mark() == 0
        # Fresh enumeration still sees every answer.
        assert len(engine.ask("member(X, [a, b, c, d])")) == 4


class TestBytecodeShape:
    def test_goal_classification(self):
        source = """
            body(X, Y) :- q(X), Y is X + 1, Y > 0, !, (q(Y) ; true).
            q(1).
        """
        engine = Engine.from_source(source, vm=True)
        program = engine.database.compiled_program(("body", 2))
        tags = [op[0] for op in program[0].vm_code()]
        assert tags == [VM_CALL, VM_DET, VM_DET, VM_CUT, VM_GENERIC]

    def test_nondet_builtin_stays_delegated(self):
        engine = Engine.from_source("up(X) :- between(1, 3, X).", vm=True)
        program = engine.database.compiled_program(("up", 1))
        assert [op[0] for op in program[0].vm_code()] == [VM_BUILTIN]
        assert [str(s.bindings["X"]) for s in engine.ask("up(X)")] == [
            "1", "2", "3"
        ]

    def test_det_table_covers_hot_builtins(self):
        for indicator in [("is", 2), ("=", 2), ("<", 2), ("==", 2)]:
            assert indicator in DET_BUILTINS


class TestDisassembler:
    def test_predicate_listing(self):
        engine = Engine.from_source(COUNTDOWN, vm=True)
        text = "\n".join(disassemble_predicate(engine.database, ("count", 1)))
        assert "count/1 (2 clauses)" in text
        assert "DET_BUILTIN  is/2" in text
        assert "CALL         count/1" in text
        assert "PROCEED" in text

    def test_database_listing_covers_every_predicate(self):
        engine = Engine.from_source("a. b :- a.", vm=True)
        text = disassemble_database(engine.database)
        assert "% a/0" in text and "% b/0" in text


class TestPathSelection:
    """Which clause-try path a call takes. Only the VM fills the
    engine's clause-selection memo, so an empty memo after a query
    means the query ran on the generator (or the seed interpreter)."""

    SOURCE = "p(X) :- q(X). q(1). q(2)."

    def test_default_engine_runs_the_vm(self):
        engine = Engine.from_source(self.SOURCE)
        assert engine.vm
        assert len(engine.ask("p(X)")) == 2
        assert engine._vm_call_cache

    def test_generator_baseline_skips_the_vm(self):
        engine = Engine.from_source(self.SOURCE, vm=False)
        assert len(engine.ask("p(X)")) == 2
        assert not engine._vm_call_cache

    def test_compiled_false_is_the_seed_interpreter(self):
        engine = Engine.from_source(self.SOURCE, compiled=False)
        assert not engine.compiled and not engine.vm
        assert len(engine.ask("p(X)")) == 2
        assert not engine._vm_call_cache
        # The interpreter renames whole clauses: no skeleton charges.
        assert engine.metrics.skeleton_instantiations == 0

    @pytest.mark.parametrize("channel", ["recorder", "bus"])
    def test_attaching_mid_session_sends_the_next_call_to_the_generator(
        self, channel
    ):
        engine = Engine.from_source(self.SOURCE)
        expected = engine.ask("p(X)")
        engine._vm_call_cache.clear()
        if channel == "recorder":
            attach_recorder(engine, StreamingRecorder())
        else:
            attach(engine)
        assert engine.ask("p(X)") == expected
        assert not engine._vm_call_cache
        if channel == "recorder":
            detach_recorder(engine)
        else:
            detach(engine)
        assert engine.ask("p(X)") == expected
        assert engine._vm_call_cache

    def test_table2_queries_match_the_generator(self):
        """Answers and every counter, query by query, on the reordered
        family tree's Table II sweep ((+,+) over the first eight
        persons: its full 3025 calls per predicate cost seconds)."""
        reordered = reorder_program(family_tree.database())
        vm_engine = reordered.engine()
        generator = reordered.engine(vm=False)
        assert vm_engine.vm and not generator.vm
        for name, arity in family_tree.TESTED_PREDICATES:
            for mode_text in ("--", "-+", "+-", "++"):
                mode = parse_mode_string(mode_text)
                version = reordered.version_name((name, arity), mode) or name
                persons = family_tree.PERSONS
                if mode_text == "++":
                    persons = persons[:8]
                for query in mode_queries(version, mode, persons):
                    vm_solutions, vm_metrics = vm_engine.run(query)
                    solutions, metrics = generator.run(query)
                    assert [s.key() for s in vm_solutions] == [
                        s.key() for s in solutions
                    ], query
                    assert vm_metrics == metrics, query
