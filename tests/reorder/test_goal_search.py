"""Unit tests for goal-order search: exhaustive, A*, and their agreement."""

import pytest

from repro.analysis.declarations import Declarations
from repro.analysis.modes import bind_head_states, parse_mode_string
from repro.markov.predicate_model import CostModel
from repro.prolog import Database, parse_term
from repro.prolog.database import body_goals
from repro.reorder.goal_search import astar_search, exhaustive_search, find_best_order


SOURCE = """
big(X) :- gen(X).
gen(1). gen(2). gen(3). gen(4). gen(5). gen(6). gen(7). gen(8).
small(a). small(b).
check(1).
link(1, a). link(2, b).
"""


def setup(source=SOURCE):
    database = Database.from_source(source)
    return CostModel(database, Declarations.from_database(database))


def goals_and_states(model, head_text, body_text, mode_text):
    head = parse_term(head_text)
    # Reparse body in the same variable scope via a whole clause.
    clause = parse_term(f"{head_text} :- {body_text}")
    head, body = clause.args
    goals = body_goals(body)
    states = {}
    bind_head_states(head, parse_mode_string(mode_text), states)
    return head, goals, states


class TestExhaustive:
    def test_puts_test_before_generator(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X)", "gen(X), check(X)", "-"
        )
        result = exhaustive_search(goals, states, model, set())
        # check/1 with X unbound is still a generator of 1 solution;
        # gen/1 makes 8: the cheaper order runs check first.
        assert result.order == (1, 0)

    def test_respects_constraints(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X)", "gen(X), check(X)", "-"
        )
        result = exhaustive_search(goals, states, model, {(0, 1)})
        assert result.order == (0, 1)

    def test_no_legal_order_returns_none(self):
        model = setup("f(1).")
        _, goals, states = goals_and_states(model, "g(X)", "X > 0, X < 9", "-")
        assert exhaustive_search(goals, states, model, set()) is None

    def test_skips_illegal_orders(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X, Y)", "gen(X), Y is X + 1", "--"
        )
        result = exhaustive_search(goals, states, model, set())
        assert result.order == (0, 1)  # 'is' cannot run first


class TestAStar:
    def test_matches_exhaustive(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X, Y)", "gen(X), link(X, Y), small(Y)", "--"
        )
        best_exhaustive = exhaustive_search(goals, dict(states), model, set())
        best_astar = astar_search(goals, dict(states), model, set())
        assert best_astar.order == best_exhaustive.order

    def test_respects_constraints(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X)", "gen(X), check(X)", "-"
        )
        result = astar_search(goals, states, model, {(0, 1)})
        assert result.order == (0, 1)

    def test_none_when_no_legal_order(self):
        model = setup("f(1).")
        _, goals, states = goals_and_states(model, "g(X)", "X > 0, X < 9", "-")
        assert astar_search(goals, states, model, set()) is None

    def test_explores_fewer_nodes_than_factorial(self):
        model = setup()
        _, goals, states = goals_and_states(
            model,
            "f(A, B)",
            "gen(A), gen(B), link(A, X1), link(B, X2), small(X1), small(X2)",
            "--",
        )
        result = astar_search(goals, states, model, set())
        assert result is not None
        # 6 goals: 720 complete orders, many more partial expansions;
        # A* should not touch anywhere near all of them... but at least
        # check it reports the count.
        assert result.explored > 0


class TestFindBestOrder:
    def test_single_goal_fixed(self):
        model = setup()
        _, goals, states = goals_and_states(model, "f(X)", "gen(X)", "-")
        result = find_best_order(goals, states, model)
        assert result.strategy == "fixed"
        assert result.order == (0,)

    def test_small_block_exhaustive(self):
        model = setup()
        _, goals, states = goals_and_states(model, "f(X)", "gen(X), check(X)", "-")
        result = find_best_order(goals, states, model)
        assert result.strategy == "exhaustive"

    def test_large_block_astar(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X)", "gen(X), check(X), small(Y), gen(Y)", "-"
        )
        result = find_best_order(goals, states, model, exhaustive_limit=2)
        assert result.strategy == "astar"

    def test_astar_equals_exhaustive_cost(self):
        model = setup()
        _, goals, states = goals_and_states(
            model, "f(X, Y)", "gen(X), link(X, Y), small(Y), check(X)", "--"
        )
        exhaustive = find_best_order(
            goals, dict(states), model, exhaustive_limit=10
        )
        astar = find_best_order(goals, dict(states), model, exhaustive_limit=1)
        assert astar.evaluation.total_cost == pytest.approx(
            exhaustive.evaluation.total_cost
        )

    def test_states_propagated(self):
        from repro.analysis.modes import Inst

        model = setup()
        head, goals, states = goals_and_states(model, "f(X)", "gen(X), check(X)", "-")
        result = find_best_order(goals, states, model)
        x = head.args[0]
        assert result.states[id(x)] is Inst.GROUND


class TestAStarNodeBudget:
    SOURCE = "p(1, a). p(2, b). p(3, c). q(a). q(b)."

    def _search(self, node_budget):
        from repro.reorder.goal_search import SearchCounters

        model = setup(self.SOURCE)
        _, goals, states = goals_and_states(model, "f(X, Y)", "p(X, Y), q(Y)", "--")
        counters = SearchCounters()
        result = astar_search(
            goals, states, model, set(), counters=counters, node_budget=node_budget
        )
        return result, counters

    def test_complete_node_at_budget_is_optimal_astar(self):
        # The fourth child completes the optimal order just as the
        # budget runs out: it is A*'s answer, not a greedy fallback.
        unbudgeted, _ = self._search(None)
        result, counters = self._search(4)
        assert unbudgeted.order == (1, 0) and unbudgeted.strategy == "astar"
        assert result.order == unbudgeted.order
        assert result.strategy == "astar"
        assert counters.astar_budget_exhausted == 0

    def test_partial_node_at_budget_completes_greedily(self):
        result, counters = self._search(2)
        assert result.strategy == "astar-greedy"
        assert counters.astar_budget_exhausted == 1
