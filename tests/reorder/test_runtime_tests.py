"""Unit tests for the §V-D run-time-test transformation."""

import pytest

from repro.prolog import Database, Engine
from repro.reorder.system import ReorderOptions, Reorderer

SOURCE = """
big(1). big(2). big(3). big(4). big(5). big(6). big(7). big(8).
tiny(2). tiny(4).
pair(X, Y) :- big(X), big(Y), tiny(X), tiny(Y).
"""


def reorder(source=SOURCE, **options):
    return Reorderer(
        Database.from_source(source),
        ReorderOptions(specialize=False, runtime_tests=True, **options),
    ).reorder()


def answers(engine, query):
    return sorted(s.key() for s in engine.ask(query))


class TestGuardShape:
    def test_guarded_clause_emitted(self):
        program = reorder()
        (clause,) = program.database.clauses(("pair", 2))
        text = str(clause.body)
        assert "nonvar(X)" in text and "nonvar(Y)" in text
        assert "->" in text

    def test_report_mentions_guards(self):
        program = reorder()
        assert "run-time nonvar tests" in program.report.summary()

    def test_no_guard_when_orders_agree(self):
        # A clause whose best order is the same in every mode stays bare.
        program = reorder("solo(X) :- only(X). only(1).")
        (clause,) = program.database.clauses(("solo", 1))
        assert "nonvar" not in str(clause.body)

    @pytest.mark.parametrize(
        "clause",
        [
            "s(X) :- \\+ q(X).",
            "s(L) :- findall(X, q(X), L).",
            "s(X) :- ( q(X) ; r(X) ).",
        ],
    )
    def test_no_guard_when_control_orders_agree(self, clause):
        # Inner-control reordering rebuilds these goals for every mode;
        # equal orders still mean no guard and no note.
        program = reorder(clause + " q(1). r(2).")
        (guarded,) = program.database.clauses(("s", 1))
        assert "nonvar" not in str(guarded.body)
        assert "run-time nonvar tests" not in program.report.summary()

    def test_disabled_by_default(self):
        program = Reorderer(
            Database.from_source(SOURCE), ReorderOptions(specialize=False)
        ).reorder()
        (clause,) = program.database.clauses(("pair", 2))
        assert "nonvar" not in str(clause.body)


class TestGuardSemantics:
    def test_set_equivalent_all_modes(self):
        database = Database.from_source(SOURCE)
        program = reorder()
        for query in ["pair(X, Y)", "pair(2, Y)", "pair(X, 4)", "pair(2, 4)",
                      "pair(1, 1)"]:
            assert answers(Engine(database), query) == answers(
                program.engine(), query
            ), query

    def test_open_mode_cheaper(self):
        database = Database.from_source(SOURCE)
        program = reorder()
        _, original = Engine(database).run("pair(X, Y)")
        _, guarded = program.engine().run("pair(X, Y)")
        assert guarded.calls < original.calls

    def test_instantiated_mode_roughly_source_cost(self):
        database = Database.from_source(SOURCE)
        program = reorder()
        _, original = Engine(database).run("pair(2, 4)")
        _, guarded = program.engine().run("pair(2, 4)")
        # Two nonvar tests plus the optimistic body: a constant overhead.
        assert guarded.calls <= original.calls + 3

    def test_set_equivalent_after_clause_reordering(self):
        # Clause ordering moves the cheap second clause first; each guard
        # must still pair a clause's optimistic body with its own
        # generic body.
        source = """
        big(1). big(2). big(3). big(4). big(5). big(6). big(7). big(8).
        tiny(2). tiny(4).
        pair(A, B) :- big(A), big(B), big(C), big(D), A > 100, C < D.
        pair(X, Y) :- big(X), big(Y), tiny(X), tiny(Y).
        """
        database = Database.from_source(source)
        program = reorder(source)
        summary = program.report.summary()
        assert "clauses reordered" in summary
        assert "run-time nonvar tests" in summary
        for query in ["pair(X, Y)", "pair(2, Y)", "pair(2, 4)"]:
            assert answers(Engine(database), query) == answers(
                program.engine(), query
            ), query
