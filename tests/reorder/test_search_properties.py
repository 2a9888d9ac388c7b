"""Property-based tests of the goal-order search.

Random programs are synthesised whose per-goal statistics are fixed by
``:- cost`` declarations, so the search operates on a known cost
surface. Invariants:

* A* returns an order with the same model cost as exhaustive search
  (optimality of the admissible-prefix best-first search);
* both respect arbitrary (acyclic) precedence constraints;
* the chosen order's model cost is never above the source order's.
"""

import heapq
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.declarations import Declarations
from repro.analysis.modes import bind_head_states, parse_mode_string
from repro.markov.clause_model import evaluate_sequence
from repro.markov.predicate_model import CostModel
from repro.prolog import Database, parse_term
from repro.prolog.database import body_goals, split_clause
from repro.reorder.goal_search import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    OrderResult,
    SearchCounters,
    astar_search,
    exhaustive_search,
    find_best_order,
)


@st.composite
def cost_programs(draw):
    """(source text, goal count, constraints) with declared costs."""
    goal_count = draw(st.integers(min_value=2, max_value=5))
    lines = []
    for index in range(goal_count):
        cost = draw(st.floats(min_value=0.5, max_value=40.0))
        solutions = draw(st.floats(min_value=0.05, max_value=12.0))
        prob = min(1.0, solutions)
        lines.append(f"g{index}(1).")
        lines.append(
            f":- cost(g{index}/1, [?], {cost:.3f}, {prob:.3f}, {solutions:.3f})."
        )
    body = ", ".join(f"g{i}(X)" for i in range(goal_count))
    lines.append(f"target(X) :- {body}.")
    # Random acyclic constraints: i before j for i < j only.
    constraints = set()
    for i in range(goal_count):
        for j in range(i + 1, goal_count):
            if draw(st.booleans()) and draw(st.booleans()):
                constraints.add((i, j))
    return "\n".join(lines), goal_count, frozenset(constraints)


#: Goal templates over the head variables A, B and body variables C, D;
#: ``L`` is filled with a fresh variable per findall.
_CONTROL_GOALS = [
    "e0({0})",
    "e1({0}, {1})",
    "e2({1}, {0})",
    "{0} = a",
    "{0} \\== {1}",
    "{1} is {0} + 1",
    "\\+ e1({0}, {1})",
    "( e0({0}) -> e1({0}, {1}) ; e2({1}, {0}) )",
    "( e0({0}) -> e1({0}, {1}) )",
    "( e0({0}) ; e2({0}, {1}) )",
    "findall({0}, e1({0}, {1}), {2})",
    "findall({0}-{1}, ( e0({0}), \\+ e2({0}, {1}) ), {2})",
]


@st.composite
def control_blocks(draw):
    """(model, goals, states, constraints): one generated clause body
    mixing plain calls with negation, if-then-else and findall."""
    constants = ["a", "b", "c"]
    lines = []
    for name, arity in (("e0", 1), ("e1", 2), ("e2", 2)):
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(constants)] * arity),
                min_size=1, max_size=4, unique=True,
            )
        )
        lines.extend(f"{name}({', '.join(row)})." for row in rows)
    variables = st.sampled_from(["A", "B", "C", "D"])
    # Largest first: hypothesis favours the early entries of a sample.
    goal_count = draw(st.sampled_from([7, 6, 5, 4, 3, 2, 1]))
    goals = []
    for index in range(goal_count):
        template = draw(st.sampled_from(_CONTROL_GOALS))
        goals.append(template.format(draw(variables), draw(variables), f"L{index}"))
    lines.append(f"t(A, B) :- {', '.join(goals)}.")
    database = Database.from_source("\n".join(lines))
    model = CostModel(database, Declarations.from_database(database))
    clause = database.clauses(("t", 2))[0]
    states = {}
    mode = draw(st.sampled_from(["++", "+-", "-+", "--"]))
    bind_head_states(clause.head, parse_mode_string(mode), states)
    constraints = {
        (i, j)
        for i in range(goal_count)
        for j in range(i + 1, goal_count)
        if draw(st.integers(0, 3)) == 0
    }
    return model, body_goals(clause.body), states, constraints


def _setup(source):
    database = Database.from_source(source)
    model = CostModel(database, Declarations.from_database(database))
    clause = database.clauses(("target", 1))[0]
    goals = body_goals(clause.body)
    states = {}
    bind_head_states(clause.head, parse_mode_string("-"), states)
    return model, goals, states


class TestAStarOptimality:
    @given(cost_programs())
    @settings(max_examples=60, deadline=None)
    def test_astar_matches_exhaustive(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        exhaustive = exhaustive_search(
            goals, dict(states), model, set(constraints)
        )
        astar = astar_search(goals, dict(states), model, set(constraints))
        assert (exhaustive is None) == (astar is None)
        if exhaustive is not None:
            assert astar.evaluation.total_cost == pytest.approx(
                exhaustive.evaluation.total_cost, rel=1e-9
            )

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_constraints_respected(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        for search in (exhaustive_search, astar_search):
            result = search(goals, dict(states), model, set(constraints))
            if result is None:
                continue
            position = {g: r for r, g in enumerate(result.order)}
            for before, after in constraints:
                assert position[before] < position[after]

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_source_order(self, program):
        source, goal_count, constraints = program
        model, goals, states = _setup(source)
        result = exhaustive_search(goals, dict(states), model, set(constraints))
        assert result is not None  # declared-cost goals are legal anywhere
        source_eval = model.evaluate_goals(list(goals), dict(states))
        assert result.evaluation.total_cost <= source_eval.total_cost * (1 + 1e-9)

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        first = astar_search(goals, dict(states), model, set(constraints))
        second = astar_search(goals, dict(states), model, set(constraints))
        assert first.order == second.order


# -- memo equivalence ---------------------------------------------------------
#
# The strategies read goal statistics through a per-call memo. The
# reference below is the search without it: every permutation is costed
# by ``model.evaluate_goals`` and every A* child by ``model.goal_stats``.
# Both must agree on everything a caller or the telemetry can see.


def _reference_find_best_order(
    goals, states, model, constraints=None, multi_solution=True,
    exhaustive_limit=DEFAULT_EXHAUSTIVE_LIMIT, counters=None,
    node_budget=None, budget=None,
):
    constraints = constraints or set()
    counters.blocks += 1
    n = len(goals)

    def cost_of(evaluation):
        return evaluation.total_cost if multi_solution else evaluation.single_cost

    if n <= 1:
        scratch = dict(states)
        evaluation = model.evaluate_goals(list(goals), scratch)
        if evaluation is None:
            return None
        return OrderResult(tuple(range(n)), evaluation, scratch, 1, "fixed")
    if n <= exhaustive_limit:
        counters.exhaustive_blocks += 1
        best, explored = None, 0
        for permutation in itertools.permutations(range(n)):
            position = {g: r for r, g in enumerate(permutation)}
            if not all(position[a] < position[b] for a, b in constraints):
                continue
            explored += 1
            counters.exhaustive_permutations += 1
            scratch = dict(states)
            evaluation = model.evaluate_goals([goals[i] for i in permutation], scratch)
            if evaluation is None:
                counters.exhaustive_illegal += 1
                continue
            if best is None or cost_of(evaluation) < cost_of(best.evaluation):
                best = OrderResult(
                    permutation, evaluation, scratch, explored, "exhaustive"
                )
        if best is not None:
            best.explored = explored
        return best
    counters.astar_blocks += 1
    blocked_by = {i: set() for i in range(n)}
    for before, after in constraints:
        blocked_by[after].add(before)
    tiebreak = itertools.count()
    heap = [(0.0, next(tiebreak), (), [], dict(states))]
    explored, exhausted = 0, False
    while heap:
        cost, _, order, stats_list, node_states = heapq.heappop(heap)
        if len(order) == n:
            return OrderResult(
                order, evaluate_sequence(stats_list), node_states, explored, "astar"
            )
        if node_budget is not None and explored >= node_budget:
            if not exhausted:
                counters.astar_budget_exhausted += 1
            exhausted = True
            chosen, chosen_stats = list(order), list(stats_list)
            chosen_states = node_states
            while len(chosen) < n:
                step = None
                for candidate in range(n):
                    if candidate in chosen or blocked_by[candidate] - set(chosen):
                        continue
                    scratch = dict(chosen_states)
                    stats = model.goal_stats(goals[candidate], scratch)
                    if stats is None:
                        continue
                    explored += 1
                    trial = cost_of(evaluate_sequence(chosen_stats + [stats]))
                    if step is None or trial < step[0]:
                        step = (trial, candidate, stats, scratch)
                if step is None:
                    break
                chosen.append(step[1])
                chosen_stats.append(step[2])
                chosen_states = step[3]
            else:
                return OrderResult(
                    tuple(chosen), evaluate_sequence(chosen_stats),
                    chosen_states, explored, "astar-greedy",
                )
            continue
        for candidate in range(n):
            if candidate in order or blocked_by[candidate] - set(order):
                continue
            explored += 1
            child_states = dict(node_states)
            stats = model.goal_stats(goals[candidate], child_states)
            if stats is None:
                counters.astar_pruned += 1
                continue
            child_stats = stats_list + [stats]
            child_cost = cost_of(evaluate_sequence(child_stats))
            counters.astar_expanded += 1
            if child_cost < cost - 1e-9:
                counters.admissibility_violations += 1
            heapq.heappush(
                heap,
                (
                    child_cost, next(tiebreak), order + (candidate,),
                    child_stats, child_states,
                ),
            )
            counters.astar_heap_peak = max(counters.astar_heap_peak, len(heap))
    return None


def _assert_memo_matches_reference(goals, states, model, constraints, **options):
    """Run both searches on copies of ``states``; return the strategy."""
    expected_counters, actual_counters = SearchCounters(), SearchCounters()
    expected = _reference_find_best_order(
        goals, dict(states), model, set(constraints),
        counters=expected_counters, **options,
    )
    actual = find_best_order(
        goals, dict(states), model, set(constraints),
        counters=actual_counters, **options,
    )
    assert actual_counters.to_dict() == expected_counters.to_dict()
    if expected is None:
        assert actual is None
        return None
    assert actual is not None
    assert actual.order == expected.order
    assert actual.evaluation == expected.evaluation
    assert actual.states == expected.states
    assert actual.explored == expected.explored
    assert actual.strategy == expected.strategy
    return actual.strategy


class TestMemoEquivalence:
    def test_every_golden_block(self, monkeypatch):
        from repro.reorder import Reorderer
        from repro.reorder.pipeline import build

        from .test_golden import FIXTURES, database_for, load_fixture

        searched = find_best_order
        strategies = []

        def checked(goals, states, model, constraints=None, **options):
            counters = options.pop("counters")
            strategies.append(
                _assert_memo_matches_reference(
                    goals, states, model, constraints or set(), **options
                )
            )
            return searched(
                goals, states, model, constraints, counters=counters, **options
            )

        monkeypatch.setattr(build, "find_best_order", checked)
        for path in FIXTURES:
            fixture = load_fixture(path)
            program = Reorderer(database_for(fixture["name"])).reorder()
            assert program.source() == fixture["source"]
        assert {"exhaustive", "astar"} <= set(strategies)

    @given(control_blocks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_blocks(self, block, data):
        model, goals, states, constraints = block
        _assert_memo_matches_reference(
            goals, states, model, constraints,
            multi_solution=data.draw(st.booleans()),
            exhaustive_limit=data.draw(st.sampled_from([1, 3, 6])),
            node_budget=data.draw(st.one_of(st.none(), st.integers(0, 12))),
        )
