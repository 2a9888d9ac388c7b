"""The whole-program cost model (paper §VI-A-4 and §VI-B-2).

"Cost and probability of a clause come from those of its goals ...
these come from costs and probabilities of facts." :class:`CostModel`
implements exactly that propagation:

* **facts** cost one call; their match probabilities come from Warren
  domain estimation (:mod:`repro.analysis.domains`);
* **builtins** come from the hand-written table
  (:mod:`repro.analysis.builtin_modes`);
* **rule predicates** get, per calling mode, a Markov-chain evaluation
  of each clause body (with modes propagated goal by goal) combined with
  the head-match probabilities;
* **recursive predicates** use their ``:- cost(...)`` declarations;
  without one, a conservative fallback estimate is used and a warning
  recorded (the paper: "probabilities and costs for recursive
  predicates" are part of the information the programmer provides).

All results are memoised per ``(predicate, input mode)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.builtin_modes import builtin_profile
from ..analysis.declarations import Declarations
from ..analysis.domains import DomainAnalysis
from ..analysis.mode_inference import ModeInference
from ..analysis.modes import (
    Inst,
    Mode,
    ModeItem,
    VarState,
    apply_output,
    bind_head_states,
    call_mode,
    mode_str,
)
from ..prolog.builtins import is_builtin
from ..prolog.database import Clause, Database, body_goals
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    term_variables,
)
from .clause_model import SequenceEvaluation, evaluate_sequence
from .goal_stats import GoalStats

__all__ = ["CostModel", "FACT_BODY_EVALUATION", "head_match_probability"]

Indicator = Tuple[str, int]

#: Fallback stats for recursive predicates without declarations.
_RECURSIVE_FALLBACK = GoalStats(cost=20.0, solutions=1.0, prob=0.5)
#: Default match probability for a non-constant (structured) head
#: argument against an instantiated call argument.
_STRUCT_MATCH_PROB = 0.5
#: Chain evaluation of a ``true`` body: one free, certain goal, whatever
#: the calling mode.
FACT_BODY_EVALUATION = evaluate_sequence(
    [GoalStats(cost=0.0, solutions=1.0, prob=1.0)]
)


def head_match_probability(
    clause: Clause, mode: Mode, domains: DomainAnalysis
) -> float:
    """Probability that a call in ``mode`` unifies with this clause head.

    Per §VI-A-4: ``Π |domain_i|^{-1}`` over positions instantiated in
    both the call (``+`` in the mode) and the head (a constant there);
    structured head arguments against instantiated calls get a default
    0.5; variable head arguments always match.
    """
    head = deref(clause.head)
    if isinstance(head, Atom):
        return 1.0
    assert isinstance(head, Struct)
    probability = 1.0
    for position, (arg, item) in enumerate(zip(head.args, mode), start=1):
        if item is not ModeItem.PLUS:
            continue
        arg = deref(arg)
        if isinstance(arg, Var):
            continue
        if isinstance(arg, Struct):
            probability *= _STRUCT_MATCH_PROB
        else:  # atom or number: one point of the domain
            probability *= 1.0 / domains.domain_size(clause.indicator, position)
    return probability


class CostModel:
    """Expected cost / solutions / success probability for every call."""

    def __init__(
        self,
        database: Database,
        declarations: Optional[Declarations] = None,
        mode_inference: Optional[ModeInference] = None,
        domains: Optional[DomainAnalysis] = None,
        table_all: bool = False,
    ):
        self.database = database
        self.declarations = declarations or Declarations()
        self.modes = mode_inference or ModeInference(database, self.declarations)
        self.domains = domains or DomainAnalysis(database, self.declarations)
        #: Treat every user predicate as tabled (engine ``--table-all``).
        self.table_all = table_all
        self._memo: Dict[Tuple[Indicator, Mode], Optional[GoalStats]] = {}
        self._in_progress: Set[Tuple[Indicator, Mode]] = set()
        self.warnings: List[str] = []

    def is_tabled(self, indicator: Indicator) -> bool:
        """Will the engine serve this predicate from a variant table?"""
        if self.table_all and self.database.defines(indicator):
            return True
        return (
            indicator in self.database.tabled
            or indicator in self.declarations.tabled
        )

    # -- predicate-level stats ------------------------------------------------

    def override_stats(
        self, indicator: Indicator, mode: Mode, stats: Optional[GoalStats]
    ) -> None:
        """Install externally computed stats for a (predicate, mode).

        The reorderer uses this to propagate the statistics of the
        *reordered* version of each predicate upward ("Working upwards,
        the reorderer handles every user predicate", §VI-B-2), so
        callers are ordered against the costs they will actually see.
        """
        self._memo[(indicator, mode)] = stats

    def remove_override(self, indicator: Indicator, mode: Mode) -> None:
        """Drop an installed override (and any memoized value) for one
        (predicate, mode), so the next :meth:`predicate_stats` call
        recomputes it from the program text. The pipeline's degrade
        path uses this to roll back the overrides of a failed build.
        """
        self._memo.pop((indicator, mode), None)

    def predicate_stats(
        self, indicator: Indicator, mode: Mode
    ) -> Optional[GoalStats]:
        """Stats for a call in ``mode``; None when the mode is illegal."""
        key = (indicator, mode)
        if key in self._memo:
            return self._memo[key]

        declared = self.declarations.cost_for(indicator, mode)
        if declared is not None:
            stats = GoalStats(
                cost=declared.cost,
                solutions=declared.expected_solutions,
                prob=declared.prob,
            )
            stats = self._amortize_if_tabled(indicator, stats)
            self._memo[key] = stats
            return stats

        profile = builtin_profile(indicator)
        if profile is not None:
            entry = profile.accepting(mode)
            stats = (
                None
                if entry is None
                else GoalStats(
                    cost=entry.cost,
                    solutions=entry.expected_solutions,
                    prob=entry.prob,
                )
            )
            self._memo[key] = stats
            return stats

        if not self.database.defines(indicator):
            if is_builtin(indicator):
                stats = GoalStats(cost=1.0, solutions=0.5, prob=0.5)
            else:
                stats = None
            self._memo[key] = stats
            return stats

        if not self.modes.is_legal(indicator, mode):
            self._memo[key] = None
            return None

        if key in self._in_progress:
            if self.is_tabled(indicator):
                # A recursive occurrence of a tabled predicate is a
                # back edge that consumes stored answers, not a fresh
                # derivation: cheap, no declaration needed.
                from ..prolog.tabling.cost import TABLED_RECURSIVE_STATS

                return TABLED_RECURSIVE_STATS
            # Recursive call without a declaration: conservative estimate.
            self.warnings.append(
                f"no cost declaration for recursive "
                f"{indicator[0]}/{indicator[1]} in mode {mode_str(mode)}; "
                f"using fallback estimate"
            )
            return _RECURSIVE_FALLBACK

        self._in_progress.add(key)
        try:
            stats = self._combine_clauses(indicator, mode)
        finally:
            self._in_progress.discard(key)
        stats = self._amortize_if_tabled(indicator, stats)
        self._memo[key] = stats
        return stats

    def _amortize_if_tabled(
        self, indicator: Indicator, stats: Optional[GoalStats]
    ) -> Optional[GoalStats]:
        """Mix first-call and table-re-call cost for tabled predicates."""
        if stats is None or not self.is_tabled(indicator):
            return stats
        from ..prolog.tabling.cost import tabled_stats

        return tabled_stats(stats)

    def _combine_clauses(
        self, indicator: Indicator, mode: Mode
    ) -> Optional[GoalStats]:
        total_cost = 1.0  # the call itself
        total_solutions = 0.0
        miss_probability = 1.0
        any_legal = False
        for clause in self.database.clauses(indicator):
            match = head_match_probability(clause, mode, self.domains)
            if match == 0.0:
                continue
            body = self.clause_body_evaluation(clause, mode)
            if body is None:
                continue  # clause illegal in this mode
            any_legal = True
            total_cost += match * body.total_cost
            total_solutions += match * body.solutions
            miss_probability *= 1.0 - match * body.p_success
        if not any_legal:
            return None
        return GoalStats(
            cost=total_cost,
            solutions=total_solutions,
            prob=1.0 - miss_probability,
        )

    # -- clause-level evaluation ------------------------------------------------

    def clause_body_evaluation(
        self, clause: Clause, input_mode: Mode
    ) -> Optional[SequenceEvaluation]:
        """Chain evaluation of a clause body under an input mode."""
        if clause.is_fact:
            return FACT_BODY_EVALUATION
        states: VarState = {}
        bind_head_states(clause.head, input_mode, states)
        goals = body_goals(clause.body)
        return self.evaluate_goals(goals, states)

    def evaluate_goals(
        self, goals: List[Term], states: VarState
    ) -> Optional[SequenceEvaluation]:
        """Evaluate a goal sequence, updating ``states`` in place.

        Returns None as soon as any goal would be called illegally —
        the caller (the reorderer's legality filter) rejects the order.
        """
        stats_list: List[GoalStats] = []
        for goal in goals:
            stats = self.goal_stats(goal, states)
            if stats is None:
                return None
            stats_list.append(stats)
        return evaluate_sequence(stats_list)

    # -- goal-level stats ----------------------------------------------------------

    def goal_stats(self, goal: Term, states: VarState) -> Optional[GoalStats]:
        """Stats of one goal under the current variable states.

        Handles control constructs structurally; updates ``states`` with
        the goal's output bindings on (assumed) success.
        """
        goal = deref(goal)
        if isinstance(goal, Var):
            return None  # variable goals forbidden
        if isinstance(goal, Atom):
            if goal.name in ("true", "!"):
                return GoalStats(cost=0.0, solutions=1.0, prob=1.0)
            if goal.name in ("fail", "false"):
                return GoalStats(cost=0.0, solutions=0.0, prob=0.0)
            return self._call_stats(goal, states)
        assert isinstance(goal, Struct)
        name, arity = goal.name, goal.arity

        if name == "," and arity == 2:
            inner = self.evaluate_goals(body_goals(goal), states)
            return None if inner is None else inner.as_goal_stats()
        if name == ";" and arity == 2:
            return self._disjunction_stats(goal, states)
        if name == "->" and arity == 2:
            return self._if_then_else_stats(goal.args[0], goal.args[1], None, states)
        if name in ("\\+", "not") and arity == 1:
            return self._negation_stats(goal.args[0], states)
        if name in ("call", "once") and arity == 1:
            scratch = dict(states)
            inner_stats = self.goal_stats(goal.args[0], scratch)
            if inner_stats is None:
                return None
            states.update(scratch)
            if name == "once":
                return GoalStats(
                    cost=inner_stats.cost,
                    solutions=inner_stats.prob,
                    prob=inner_stats.prob,
                )
            return inner_stats
        if name in ("findall", "bagof", "setof") and arity == 3:
            inner = self.goal_stats(_strip_carets(goal.args[1]), dict(states))
            if inner is None:
                return None
            for variable in term_variables(goal.args[2]):
                states[id(variable)] = Inst.GROUND
            prob = 1.0 if name == "findall" else inner.prob
            return GoalStats(cost=1.0 + inner.cost, solutions=prob, prob=prob)
        return self._call_stats(goal, states)

    def _call_stats(self, goal: Term, states: VarState) -> Optional[GoalStats]:
        indicator = functor_indicator(goal)
        mode = call_mode(goal, states)
        stats = self.predicate_stats(indicator, mode)
        if stats is None:
            return None
        output = self.modes.output_mode(indicator, mode)
        if output is None:
            return None
        apply_output(goal, output, states)
        return stats

    def _disjunction_stats(
        self, goal: Struct, states: VarState
    ) -> Optional[GoalStats]:
        left, right = goal.args
        left_deref = deref(left)
        if (
            isinstance(left_deref, Struct)
            and left_deref.name == "->"
            and left_deref.arity == 2
        ):
            return self._if_then_else_stats(
                left_deref.args[0], left_deref.args[1], right, states
            )
        left_states = dict(states)
        left_stats = self.goal_stats(left, left_states)
        right_states = dict(states)
        right_stats = self.goal_stats(right, right_states)
        # Either branch illegal makes the whole construct illegal:
        # Prolog would hit the run-time error when it tries that branch.
        if left_stats is None or right_stats is None:
            return None
        _merge_states(states, left_states, right_states)
        return GoalStats(
            cost=left_stats.cost + right_stats.cost,
            solutions=left_stats.solutions + right_stats.solutions,
            prob=1.0 - (1.0 - left_stats.prob) * (1.0 - right_stats.prob),
        )

    def _if_then_else_stats(
        self,
        condition: Term,
        then_part: Term,
        else_part: Optional[Term],
        states: VarState,
    ) -> Optional[GoalStats]:
        condition_states = dict(states)
        condition_stats = self.goal_stats(condition, condition_states)
        if condition_stats is None:
            return None
        then_states = dict(condition_states)
        then_stats = self.goal_stats(then_part, then_states)
        if then_stats is None:
            return None
        p_condition = condition_stats.prob
        if else_part is None:
            states.update(then_states)
            return GoalStats(
                cost=condition_stats.cost + p_condition * then_stats.cost,
                solutions=p_condition * then_stats.solutions,
                prob=p_condition * then_stats.prob,
            )
        else_states = dict(states)
        else_stats = self.goal_stats(else_part, else_states)
        if else_stats is None:
            return None
        _merge_states(states, then_states, else_states)
        return GoalStats(
            cost=condition_stats.cost
            + p_condition * then_stats.cost
            + (1.0 - p_condition) * else_stats.cost,
            solutions=p_condition * then_stats.solutions
            + (1.0 - p_condition) * else_stats.solutions,
            prob=p_condition * then_stats.prob
            + (1.0 - p_condition) * else_stats.prob,
        )

    def _negation_stats(self, inner: Term, states: VarState) -> Optional[GoalStats]:
        inner_stats = self.goal_stats(inner, dict(states))  # bindings stay local
        if inner_stats is None:
            return None
        prob = 1.0 - inner_stats.prob
        # Cost: negation runs the goal once (to its first solution).
        return GoalStats(cost=1.0 + inner_stats.cost, solutions=prob, prob=prob)


def _merge_states(states: VarState, first: VarState, second: VarState) -> None:
    from ..analysis.modes import join_inst

    keys = set(first) | set(second)
    for key in keys:
        states[key] = join_inst(
            first.get(key, Inst.FREE), second.get(key, Inst.FREE)
        )


def _strip_carets(term: Term) -> Term:
    term = deref(term)
    while isinstance(term, Struct) and term.name == "^" and term.arity == 2:
        term = deref(term.args[1])
    return term
