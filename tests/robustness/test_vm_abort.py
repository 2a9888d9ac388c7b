"""Mid-solution aborts on the bytecode VM path.

The machine replaces the generator ladder's implicit GC-time cleanup
with an explicit ``close()``: whatever interrupts an enumeration —
``ask(limit=)``, a budget exhaustion, a CLI deadline — must pop the
whole choice-point stack deterministically and leave the engine
reusable, with the trail unwound by the owning ``solve()`` frame.
"""

import time

import pytest

from repro.cli import EXIT_RESOURCE, main
from repro.errors import BudgetExceededError
from repro.prolog import Engine
from repro.robustness.budget import Budget

SEARCH = """
    mem(X, [X|_]).
    mem(X, [_|T]) :- mem(X, T).
    pair(A, B) :- mem(A, [1, 2, 3, 4]), mem(B, [1, 2, 3, 4]).
"""

#: Bounded depth, effectively unbounded backtracking: every goal is a
#: VM-run user predicate, so the deadline must trip inside the machine.
STORM_PROGRAM = SEARCH + """
    storm :- mem(A, [1,2,3,4,5,6,7,8,9]), mem(B, [1,2,3,4,5,6,7,8,9]),
             mem(C, [1,2,3,4,5,6,7,8,9]), mem(D, [1,2,3,4,5,6,7,8,9]),
             mem(E, [1,2,3,4,5,6,7,8,9]), mem(F, [1,2,3,4,5,6,7,8,9]),
             mem(G, [1,2,3,4,5,6,7,8,9]), A = none.
"""


class TestAskLimitAbort:
    def test_limit_unwinds_stack_and_trail(self):
        engine = Engine.from_source(SEARCH, vm=True)
        partial = engine.ask("pair(A, B)", limit=3)
        assert len(partial) == 3
        assert engine.trail.mark() == 0, "abandoned bindings left on trail"
        # The engine is reusable and complete enumeration still works.
        assert len(engine.ask("pair(A, B)")) == 16

    def test_abandoned_solve_generator_closes_machine(self):
        engine = Engine.from_source(SEARCH, vm=True)
        generator = engine.solve("pair(A, B)")
        next(generator)
        generator.close()
        assert engine.trail.mark() == 0
        assert len(engine.ask("pair(A, B)")) == 16


class TestBudgetAbort:
    def test_step_budget_mid_enumeration(self):
        engine = Engine.from_source(SEARCH, vm=True)
        with pytest.raises(BudgetExceededError):
            engine.ask("pair(A, B)", budget=Budget(steps=20))
        assert engine.trail.mark() == 0
        assert len(engine.ask("pair(A, B)")) == 16

    def test_deadline_budget_mid_enumeration(self):
        engine = Engine.from_source(STORM_PROGRAM, vm=True)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            engine.ask("storm", budget=Budget(deadline=0.2))
        assert time.perf_counter() - start < 2.0
        assert engine.trail.mark() == 0


class TestCliTimeoutOnVm:
    def test_run_vm_timeout_exits_resource(self, tmp_path, capsys):
        program = tmp_path / "storm.pl"
        program.write_text(STORM_PROGRAM)
        start = time.perf_counter()
        exit_code = main(
            ["run", str(program), "storm", "--timeout", "0.3"]
        )
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert exit_code == EXIT_RESOURCE == 3
        assert elapsed < 2.0, f"took {elapsed:.2f}s to honour a 0.3s deadline"
        assert "Traceback" not in captured.err
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(error_lines) == 1

    def test_run_vm_completes_within_generous_timeout(self, family_file,
                                                      capsys):
        exit_code = main(
            ["run", family_file, "grandmother(X, Y)", "--timeout", "30"]
        )
        assert exit_code == 0
        assert "solution(s)" in capsys.readouterr().out
