"""Searching for the cheapest legal goal order (paper §VI-A-3).

Two strategies over the permutations of a mobile block:

* **exhaustive** — evaluate every constraint-respecting, mode-legal
  permutation with the Markov chain and keep the cheapest ("It permutes
  other blocks exhaustively and computes their cost, saving the least
  expensive order");
* **A-star** — "or, if too many permutations are possible, it reorders them
  using best-first search", adapting Smith & Genesereth: nodes are
  ordered prefixes of the block, the evaluation function is the
  all-solutions chain cost of the prefix, which is admissible because
  appending goals to a prefix can only add cost (every visit count and
  every per-visit cost is nonnegative, and the prefix's visit counts do
  not decrease when goals are appended... they can only grow through
  extra backtracking into the prefix). The first complete node popped is
  optimal.

Both prune illegal orders as soon as a prefix calls a goal in an
illegal mode ("As soon as an illegal mode arises, we backtrack to
generate another order, so that we test only legal orders").

Costs: multi-solution blocks are ranked by the all-solutions total
cost; single-solution blocks (goals committed by a cut) by the Fig. 4
single-solution expected cost.

Every strategy reads goal statistics through one :class:`_GoalMemo` per
:func:`find_best_order` call. A goal's statistics and the states it
leaves behind depend only on the states of the goal's own variables
(:meth:`CostModel.goal_stats` reads and writes nothing else), so the
memo keys on (goal index, those states) and each distinct calling
context is costed once, however many permutations or prefixes share it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..markov.clause_model import SequenceEvaluation, evaluate_sequence
from ..markov.goal_stats import GoalStats
from ..markov.predicate_model import CostModel
from ..analysis.modes import Inst, VarState
from ..prolog.terms import Term, term_variables
from ..robustness.budget import Budget

__all__ = [
    "OrderResult",
    "SearchCounters",
    "find_best_order",
    "exhaustive_search",
    "astar_search",
]

#: Block sizes up to this bound are permuted exhaustively by default
#: (the paper: "An n-goal clause has n! permutations; for n > 3, trying
#: all of these can be expensive" — modern hardware affords a bit more).
DEFAULT_EXHAUSTIVE_LIMIT = 6

Constraint = Tuple[int, int]


@dataclass
class SearchCounters:
    """Search-internals telemetry, accumulated across blocks.

    One instance rides along a whole :class:`~repro.reorder.system.Reorderer`
    run (the observability layer exports it as a ``search`` record), so
    the counters describe the pipeline's total search effort.
    """

    #: Blocks handed to :func:`find_best_order`.
    blocks: int = 0
    #: Blocks solved by each strategy.
    exhaustive_blocks: int = 0
    astar_blocks: int = 0
    #: Exhaustive: constraint-respecting permutations fully evaluated,
    #: and how many of those the legality filter rejected.
    exhaustive_permutations: int = 0
    exhaustive_illegal: int = 0
    #: A*: child nodes generated, children pruned as mode-illegal,
    #: and the largest open-list size seen.
    astar_expanded: int = 0
    astar_pruned: int = 0
    astar_heap_peak: int = 0
    #: A*: children whose f-value *decreased* relative to their parent —
    #: each one is a violation of the admissibility argument (appending
    #: a goal should never lower the prefix cost).
    admissibility_violations: int = 0
    #: A*: blocks whose node budget ran out, forcing the greedy
    #: admissible-fallback completion (strategy ``astar-greedy``).
    astar_budget_exhausted: int = 0

    def to_dict(self) -> Dict[str, int]:
        """All counters as a flat dict (JSONL-ready)."""
        return {
            "blocks": self.blocks,
            "exhaustive_blocks": self.exhaustive_blocks,
            "astar_blocks": self.astar_blocks,
            "exhaustive_permutations": self.exhaustive_permutations,
            "exhaustive_illegal": self.exhaustive_illegal,
            "astar_expanded": self.astar_expanded,
            "astar_pruned": self.astar_pruned,
            "astar_heap_peak": self.astar_heap_peak,
            "admissibility_violations": self.admissibility_violations,
            "astar_budget_exhausted": self.astar_budget_exhausted,
        }

    def to_record(self) -> Dict[str, object]:
        """The counters as one typed JSONL record."""
        record: Dict[str, object] = {"type": "search"}
        record.update(self.to_dict())
        return record


@dataclass
class OrderResult:
    """Outcome of a block search."""

    #: Chosen order as indices into the original goal list.
    order: Tuple[int, ...]
    #: Chain evaluation of the chosen order.
    evaluation: SequenceEvaluation
    #: Final variable states after the ordered goals.
    states: VarState
    #: Number of (partial or complete) orders evaluated.
    explored: int
    #: Which strategy ran ('exhaustive' or 'astar' or 'fixed').
    strategy: str


def _respects(order: Sequence[int], constraints: Set[Constraint]) -> bool:
    position = {goal_index: rank for rank, goal_index in enumerate(order)}
    return all(position[a] < position[b] for a, b in constraints)


def _order_cost(evaluation: SequenceEvaluation, multi_solution: bool) -> float:
    return evaluation.total_cost if multi_solution else evaluation.single_cost


class _GoalMemo:
    """Goal statistics of one block, costed once per calling context.

    Entries are keyed by (goal index, the states of that goal's own
    variables, None where a variable has none yet) and hold the goal's
    :class:`GoalStats` (None when the call is illegal) with the states
    of those variables afterwards. Exact because ``goal_stats`` reads
    and writes no other variable; bounded because one memo serves one
    :func:`find_best_order` call and dies with it.
    """

    def __init__(self, goals: Sequence[Term], model: CostModel):
        self.goals = goals
        self.model = model
        self._variables = [
            tuple(id(variable) for variable in term_variables(goal))
            for goal in goals
        ]
        self._entries: Dict[
            Tuple[int, Tuple[Optional[Inst], ...]],
            Tuple[Optional[GoalStats], Tuple[Tuple[int, Inst], ...]],
        ] = {}

    def stats(self, index: int, states: VarState) -> Optional[GoalStats]:
        """``model.goal_stats(goals[index], states)``, from the memo when
        this context was seen before; ``states`` is advanced in place
        (and is unspecified after an illegal call)."""
        variables = self._variables[index]
        key = (index, tuple(map(states.get, variables)))
        entry = self._entries.get(key)
        if entry is None:
            stats = self.model.goal_stats(self.goals[index], states)
            after = tuple((v, states[v]) for v in variables if v in states)
            self._entries[key] = (stats, after)
            return stats
        states.update(entry[1])
        return entry[0]

    def evaluate(
        self, order: Sequence[int], states: VarState
    ) -> Optional[SequenceEvaluation]:
        """``model.evaluate_goals`` over the goals in ``order``: None at
        the first illegal call, else the chain evaluation."""
        stats_list: List[GoalStats] = []
        for index in order:
            stats = self.stats(index, states)
            if stats is None:
                return None
            stats_list.append(stats)
        return evaluate_sequence(stats_list)


def exhaustive_search(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Set[Constraint],
    multi_solution: bool = True,
    counters: Optional[SearchCounters] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Evaluate every legal permutation; None if none is legal."""
    memo = _GoalMemo(goals, model)
    best: Optional[OrderResult] = None
    explored = 0
    for permutation in itertools.permutations(range(len(goals))):
        if not _respects(permutation, constraints):
            continue
        explored += 1
        if budget is not None:
            budget.check("goal_search.exhaustive")
        if counters is not None:
            counters.exhaustive_permutations += 1
        scratch = dict(states)
        evaluation = memo.evaluate(permutation, scratch)
        if evaluation is None:
            if counters is not None:
                counters.exhaustive_illegal += 1
            continue
        cost = _order_cost(evaluation, multi_solution)
        if best is None or cost < _order_cost(best.evaluation, multi_solution):
            best = OrderResult(
                order=permutation,
                evaluation=evaluation,
                states=scratch,
                explored=explored,
                strategy="exhaustive",
            )
    if best is not None:
        best.explored = explored
    return best


def _greedy_complete(
    memo: _GoalMemo,
    blocked_by: Dict[int, Set[int]],
    order: Tuple[int, ...],
    stats_list: List[GoalStats],
    node_states: VarState,
    multi_solution: bool,
    explored: int,
) -> Optional[OrderResult]:
    """Finish a prefix greedily: cheapest legal goal next, every step.

    The admissible fallback when the A* node budget runs out: the
    prefix handed in is the cheapest open node (its f-value is a lower
    bound on any completion), and the greedy tail keeps every
    mode-legality guarantee — only optimality of the *suffix* is
    surrendered. Ties break toward the lower goal index, keeping the
    fallback deterministic. Returns None from a legality dead end.
    """
    n = len(memo.goals)
    chosen = list(order)
    chosen_stats = list(stats_list)
    states = dict(node_states)
    while len(chosen) < n:
        used = set(chosen)
        best_step: Optional[Tuple[float, int, GoalStats, VarState]] = None
        for candidate in range(n):
            if candidate in used:
                continue
            if blocked_by[candidate] - used:
                continue
            scratch = dict(states)
            stats = memo.stats(candidate, scratch)
            if stats is None:
                continue
            explored += 1
            trial = evaluate_sequence(chosen_stats + [stats])
            cost = _order_cost(trial, multi_solution)
            if best_step is None or cost < best_step[0]:
                best_step = (cost, candidate, stats, scratch)
        if best_step is None:
            return None
        _, candidate, stats, states = best_step
        chosen.append(candidate)
        chosen_stats.append(stats)
    evaluation = evaluate_sequence(chosen_stats)
    return OrderResult(
        order=tuple(chosen),
        evaluation=evaluation,
        states=states,
        explored=explored,
        strategy="astar-greedy",
    )


def astar_search(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Set[Constraint],
    multi_solution: bool = True,
    counters: Optional[SearchCounters] = None,
    node_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Best-first search over ordered prefixes (Smith & Genesereth / A*).

    ``node_budget`` caps the number of generated children; when it runs
    out, the cheapest open prefix is completed greedily (strategy
    ``astar-greedy``) so the block still gets a legal order instead of
    an unbounded search. A complete node popped first is optimal and
    returned as ``astar`` whatever the budget. ``budget`` adds
    deadline/cancel checks per expansion.
    """
    n = len(goals)
    memo = _GoalMemo(goals, model)
    blocked_by: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for before, after in constraints:
        blocked_by[after].add(before)

    counter = itertools.count()  # deterministic tie-breaking
    # Heap entries: (cost, tiebreak, order, stats list, states)
    start: Tuple[float, int, Tuple[int, ...], List[GoalStats], VarState] = (
        0.0, next(counter), (), [], dict(states),
    )
    heap = [start]
    explored = 0
    exhausted = False
    while heap:
        cost, _, order, stats_list, node_states = heapq.heappop(heap)
        if budget is not None:
            budget.check("goal_search.astar")
        if len(order) == n:
            evaluation = evaluate_sequence(stats_list)
            return OrderResult(
                order=order,
                evaluation=evaluation,
                states=node_states,
                explored=explored,
                strategy="astar",
            )
        if node_budget is not None and explored >= node_budget:
            if counters is not None and not exhausted:
                counters.astar_budget_exhausted += 1
            exhausted = True
            # Greedily finish the cheapest open prefixes until one
            # completes legally; every pop is still best-first.
            result = _greedy_complete(
                memo, blocked_by, order, stats_list, node_states,
                multi_solution, explored,
            )
            if result is not None:
                return result
            continue
        used = set(order)
        for candidate in range(n):
            if candidate in used:
                continue
            if blocked_by[candidate] - used:
                continue  # a must-precede goal is not placed yet
            explored += 1
            child_states = dict(node_states)
            stats = memo.stats(candidate, child_states)
            if stats is None:
                if counters is not None:
                    counters.astar_pruned += 1
                continue  # illegal in this position: prune
            child_stats = stats_list + [stats]
            child_eval = evaluate_sequence(child_stats)
            child_cost = _order_cost(child_eval, multi_solution)
            if counters is not None:
                counters.astar_expanded += 1
                if child_cost < cost - 1e-9:
                    counters.admissibility_violations += 1
            heapq.heappush(
                heap,
                (
                    child_cost,
                    next(counter),
                    order + (candidate,),
                    child_stats,
                    child_states,
                ),
            )
            if counters is not None and len(heap) > counters.astar_heap_peak:
                counters.astar_heap_peak = len(heap)
    return None


def find_best_order(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Optional[Set[Constraint]] = None,
    multi_solution: bool = True,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    counters: Optional[SearchCounters] = None,
    node_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Best legal order of a block: exhaustive for small blocks, A* above
    the limit. None when no order is legal (caller falls back to the
    source order and reports). ``node_budget`` bounds the A* expansion
    (greedy admissible fallback past it); ``budget`` adds
    deadline/cancel checks inside both strategies."""
    constraints = constraints or set()
    if counters is not None:
        counters.blocks += 1
    if len(goals) <= 1:
        scratch = dict(states)
        evaluation = model.evaluate_goals(list(goals), scratch)
        if evaluation is None:
            return None
        return OrderResult(
            order=tuple(range(len(goals))),
            evaluation=evaluation,
            states=scratch,
            explored=1,
            strategy="fixed",
        )
    if len(goals) <= exhaustive_limit:
        if counters is not None:
            counters.exhaustive_blocks += 1
        return exhaustive_search(
            goals, states, model, constraints, multi_solution, counters,
            budget=budget,
        )
    if counters is not None:
        counters.astar_blocks += 1
    return astar_search(
        goals, states, model, constraints, multi_solution, counters,
        node_budget=node_budget, budget=budget,
    )
