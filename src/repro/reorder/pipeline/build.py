"""The per-predicate phases: version building and its sub-phases.

Goal-sequence reordering (§III-B/§VI-A), inner-control reordering
(§IV-D-2/5/6), §V-D runtime guards, and the per-mode version build that
drives them. Like :mod:`.phases`, the bodies are operation-order
preserving transplants from the pre-pipeline ``Reorderer`` — golden
fixtures pin the cold-path output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...analysis.modes import (
    Mode,
    ModeItem,
    VarState,
    bind_head_states,
    call_mode,
)
from ...markov.clause_model import SequenceEvaluation
from ...markov.goal_stats import GoalStats
from ...markov.predicate_model import head_match_probability
from ...prolog.database import Clause, body_goals, goals_to_body
from ...prolog.terms import Atom, Struct, Term, deref, functor_indicator
from ..clause_order import ClauseRanking, order_clauses
from ..goal_search import find_best_order
from ..restrictions import order_constraints, partition_body
from ..specialize import rename_goal, specialized_name
from .phases import Phase
from .types import Indicator, ModeVersion

__all__ = [
    "SequenceRequest",
    "ControlRequest",
    "GuardRequest",
    "GoalSequencePhase",
    "InnerControlPhase",
    "RuntimeGuardPhase",
    "VersionBuildPhase",
    "reorder_clause_goals",
]


@dataclass
class SequenceRequest:
    """One conjunction to reorder: inputs plus result slots.

    ``multi_default=False`` ranks every block by the single-solution
    chain (used for contexts that need only the first answer, e.g.
    inside negation). ``states`` is advanced in place across blocks.
    """

    indicator: Indicator
    mode: Mode
    body: Term
    states: VarState
    multi_default: bool = True
    #: Result: the reordered goal list.
    goals: List[Term] = field(default_factory=list)
    #: Result: False when some block had no legal order.
    legal: bool = True


@dataclass
class ControlRequest:
    """One already-reordered goal list whose control constructs
    (negation, set predicates, disjunction halves) still need their
    inner conjunctions reordered."""

    indicator: Indicator
    mode: Mode
    goals: List[Term]
    states: VarState
    #: Result: the rebuilt goal list.
    rebuilt: List[Term] = field(default_factory=list)


@dataclass
class GuardRequest:
    """One in-place version to consider for §V-D runtime guards."""

    indicator: Indicator
    clauses: Sequence[Clause]
    version: ModeVersion
    generic_mode: Mode
    legal_modes: List[Mode]


class GoalSequencePhase(Phase):
    """Block-partition one conjunction and search every mobile block
    for its cheapest legal order; advances the request's states."""

    name = "goal sequence"
    inputs = (
        "sequence_request",
        "fixity",
        "semifixity",
        "model",
        "options",
        "spans",
        "search_counters",
    )
    outputs = ("sequence_request.goals", "sequence_request.legal", "report.decisions")

    def run(self, state) -> None:
        """Process ``state.sequence_request`` (fills goals/legal)."""
        request = state.sequence_request
        indicator, mode, states = request.indicator, request.mode, request.states
        partition = partition_body(request.body, state.fixity)
        new_goals: List[Term] = []
        legal = True
        for block in partition.blocks:
            multi = block.multi_solution and request.multi_default
            if (
                not block.mobile
                or not state.options.reorder_goals
                or len(block) <= 1
            ):
                evaluation = state.model.evaluate_goals(block.goals, states)
                if evaluation is None:
                    legal = False
                new_goals.extend(block.goals)
                continue
            constraints = order_constraints(block.goals, state.semifixity, states)
            with state.spans.span("goal search"):
                result = find_best_order(
                    block.goals,
                    states,
                    state.model,
                    constraints,
                    multi_solution=multi,
                    exhaustive_limit=state.options.exhaustive_limit,
                    counters=state.search_counters,
                    node_budget=state.options.astar_node_budget,
                    budget=(
                        state.phase_budget
                        if state.phase_budget is not None
                        else state.budget
                    ),
                )
            if result is None:
                state.report.note(
                    indicator, mode,
                    f"no legal order for a {len(block)}-goal block; kept source order",
                )
                state.model.evaluate_goals(block.goals, states)
                new_goals.extend(block.goals)
                legal = False
                continue
            if result.order != tuple(range(len(block.goals))):
                state.report.note(
                    indicator, mode,
                    f"goals reordered to {[i + 1 for i in result.order]} "
                    f"({result.strategy}, {result.explored} orders examined)",
                )
            new_goals.extend(block.goals[i] for i in result.order)
            states.clear()
            states.update(result.states)
        request.goals = new_goals
        request.legal = legal

    def reorder(
        self,
        state,
        indicator: Indicator,
        mode: Mode,
        body: Term,
        states: VarState,
        multi_default: bool = True,
    ) -> Tuple[List[Term], bool]:
        """Run the phase on one conjunction (nesting-safe)."""
        request = SequenceRequest(indicator, mode, body, states, multi_default)
        previous = getattr(state, "sequence_request", None)
        state.sequence_request = request
        try:
            self.run(state)
        finally:
            state.sequence_request = previous
        return request.goals, request.legal


class InnerControlPhase(Phase):
    """Reorder the conjunctions *inside* negation, the set predicates,
    and disjunction halves ("we reorder multiple goals within its
    argument", "we reorder the internal goals"). One nesting level;
    deeper structure is left as written."""

    name = "inner control"
    inputs = ("control_request", "modes")
    outputs = ("control_request.rebuilt",)

    def __init__(self, goal_sequence: GoalSequencePhase):
        self.goal_sequence = goal_sequence

    def run(self, state) -> None:
        """Process ``state.control_request`` (fills rebuilt)."""
        request = state.control_request
        rebuilt: List[Term] = []
        for goal in request.goals:
            rebuilt.append(
                self._reorder_compound(
                    state, request.indicator, request.mode, goal, request.states
                )
            )
            state.modes.abstract_execute(goal, request.states)
        request.rebuilt = rebuilt

    def reorder(
        self,
        state,
        indicator: Indicator,
        mode: Mode,
        goals: List[Term],
        states: VarState,
    ) -> List[Term]:
        """Run the phase on one goal list (nesting-safe)."""
        request = ControlRequest(indicator, mode, goals, states)
        previous = getattr(state, "control_request", None)
        state.control_request = request
        try:
            self.run(state)
        finally:
            state.control_request = previous
        return request.rebuilt

    def _reorder_compound(
        self, state, indicator: Indicator, mode: Mode, goal: Term, states: VarState
    ) -> Term:
        goal_deref = deref(goal)
        if not isinstance(goal_deref, Struct):
            return goal
        name, arity = goal_deref.name, goal_deref.arity
        if name in ("\\+", "not", "once") and arity == 1:
            # Only the first solution of the argument matters.
            inner = self._reorder_subbody(
                state, indicator, mode, goal_deref.args[0], dict(states), multi=False
            )
            return Struct(name, (inner,))
        if name in ("findall", "bagof", "setof") and arity == 3:
            rebuilt = self._reorder_caret_body(
                state, indicator, mode, goal_deref.args[1], dict(states)
            )
            return Struct(
                name, (goal_deref.args[0], rebuilt, goal_deref.args[2])
            )
        if name == ";" and arity == 2:
            left = deref(goal_deref.args[0])
            if isinstance(left, Struct) and left.name == "->" and left.arity == 2:
                # The premise is immobile "exactly like goals before a
                # cut" (§IV-D-3); then/else halves reorder.
                condition_states = dict(states)
                state.modes.abstract_execute(left.args[0], condition_states)
                then_part = self._reorder_subbody(
                    state, indicator, mode, left.args[1], condition_states
                )
                else_part = self._reorder_subbody(
                    state, indicator, mode, goal_deref.args[1], dict(states)
                )
                return Struct(
                    ";", (Struct("->", (left.args[0], then_part)), else_part)
                )
            left_part = self._reorder_subbody(
                state, indicator, mode, goal_deref.args[0], dict(states)
            )
            right_part = self._reorder_subbody(
                state, indicator, mode, goal_deref.args[1], dict(states)
            )
            return Struct(";", (left_part, right_part))
        return goal

    def _reorder_subbody(
        self,
        state,
        indicator: Indicator,
        mode: Mode,
        body: Term,
        states: VarState,
        multi: bool = True,
    ) -> Term:
        goals, _legal = self.goal_sequence.reorder(
            state, indicator, mode, body, states, multi_default=multi
        )
        return goals_to_body(goals)

    def _reorder_caret_body(
        self, state, indicator: Indicator, mode: Mode, term: Term, states: VarState
    ) -> Term:
        term_deref = deref(term)
        if (
            isinstance(term_deref, Struct)
            and term_deref.name == "^"
            and term_deref.arity == 2
        ):
            return Struct(
                "^",
                (
                    term_deref.args[0],
                    self._reorder_caret_body(
                        state, indicator, mode, term_deref.args[1], states
                    ),
                ),
            )
        return self._reorder_subbody(state, indicator, mode, term, states)


def reorder_clause_goals(
    state,
    goal_sequence: GoalSequencePhase,
    inner_control: InnerControlPhase,
    indicator: Indicator,
    clause: Clause,
    mode: Mode,
) -> Tuple[List[Term], Optional[SequenceEvaluation]]:
    """Reorder one clause body for one input mode.

    Returns the new goal list (original predicate names — renaming
    happens later) and the chain evaluation of the new order. A fact
    has nothing to reorder: its ``true`` body comes back as is, with
    the model's constant fact evaluation."""
    if clause.is_fact:
        evaluation = state.model.clause_body_evaluation(clause, mode)
        return [deref(clause.body)], evaluation
    states: VarState = {}
    bind_head_states(clause.head, mode, states)
    new_goals, legal = goal_sequence.reorder(
        state, indicator, mode, clause.body, states
    )
    if state.options.reorder_goals:
        inner_states: VarState = {}
        bind_head_states(clause.head, mode, inner_states)
        new_goals = inner_control.reorder(
            state, indicator, mode, new_goals, inner_states
        )
    evaluation = (
        state.model.clause_body_evaluation(
            Clause(clause.head, goals_to_body(new_goals)), mode
        )
        if legal
        else None
    )
    return new_goals, evaluation


class RuntimeGuardPhase(Phase):
    """§V-D: wrap clauses in ``nonvar``-guarded if-then-else when the
    fully-instantiated mode prefers a different goal order.

    The guarded clause replaces the version's corresponding clause:
    ``head :- ( nonvar(A1), ... -> optimistic body ; generic body )``.
    Both bodies are the reorderer's output for their respective
    modes, so either branch is safe; the tests cost a few tag
    checks (the paper: "we use the new order and gain efficiency;
    if they fail, we use the original order and lose only the cost
    of the tests").
    """

    name = "runtime guards"
    inputs = ("guard_request", "options", "model")
    outputs = ("guard_request.version.clauses", "report.decisions")

    def __init__(
        self, goal_sequence: GoalSequencePhase, inner_control: InnerControlPhase
    ):
        self.goal_sequence = goal_sequence
        self.inner_control = inner_control

    def run(self, state) -> None:
        """Process ``state.guard_request`` (rewrites version.clauses)."""
        request = state.guard_request
        indicator = request.indicator
        version = request.version
        generic_mode = request.generic_mode
        optimistic_mode = (ModeItem.PLUS,) * indicator[1]
        if (
            optimistic_mode == generic_mode
            or optimistic_mode not in request.legal_modes
        ):
            return
        guarded: List[Clause] = []
        changed = False
        for clause, generic_clause in zip(request.clauses, version.clauses):
            optimistic_goals, evaluation = reorder_clause_goals(
                state, self.goal_sequence, self.inner_control,
                indicator, clause, optimistic_mode,
            )
            generic_goals = body_goals(generic_clause.body)
            optimistic_body = goals_to_body(optimistic_goals)
            if evaluation is None or _same_goal_sequence(
                optimistic_goals, generic_goals
            ):
                guarded.append(generic_clause)
                continue
            head = deref(clause.head)
            if not isinstance(head, Struct):
                guarded.append(generic_clause)
                continue
            condition = goals_to_body(
                [Struct("nonvar", (arg,)) for arg in head.args]
            )
            body = Struct(
                ";",
                (
                    Struct("->", (condition, optimistic_body)),
                    generic_clause.body,
                ),
            )
            guarded.append(Clause(clause.head, body))
            changed = True
        if changed:
            version.clauses = guarded
            state.report.note(
                indicator, generic_mode,
                "run-time nonvar tests added (different order when instantiated)",
            )


class VersionBuildPhase(Phase):
    """Build every version of the current predicate: one per legal mode
    when specialising, one in-place version (optionally runtime-guarded)
    otherwise, verbatim when no legal mode exists."""

    name = "version build"
    inputs = (
        "current",
        "current_modes",
        "database",
        "options",
        "model",
        "modes",
        "domains",
        "fixity",
        "spans",
    )
    outputs = (
        "current_versions",
        "current_specialized",
        "current_overrides",
        "version_names",
        "report.decisions",
    )

    def __init__(
        self,
        goal_sequence: GoalSequencePhase,
        inner_control: InnerControlPhase,
        runtime_guards: RuntimeGuardPhase,
    ):
        self.goal_sequence = goal_sequence
        self.inner_control = inner_control
        self.runtime_guards = runtime_guards

    def run(self, state) -> None:
        """Build ``state.current_versions`` for the current predicate."""
        indicator = state.current
        clauses = state.database.clauses(indicator)
        modes = state.current_modes
        state.current_specialized = False
        should_specialize = (
            state.options.specialize
            and indicator[1] > 0
            and 0 < len(modes) <= state.options.max_versions
        )
        if not modes:
            # Keep the predicate verbatim (still reachable via output build).
            version = ModeVersion(
                indicator=indicator,
                mode=(),
                name=indicator[0],
                clauses=list(clauses),
                estimate=None,
                original_estimate=None,
            )
            state.version_names[(indicator, ())] = indicator[0]
            state.current_versions = [version]
            return
        if not should_specialize:
            mode = _generic_mode(indicator, modes)
            version = self._build_version(state, indicator, clauses, mode, rename=False)
            version.name = indicator[0]
            state.version_names[(indicator, mode)] = indicator[0]
            for other in modes:
                state.version_names.setdefault((indicator, other), indicator[0])
            if state.options.runtime_tests and indicator[1] > 0:
                previous = getattr(state, "guard_request", None)
                state.guard_request = GuardRequest(
                    indicator, clauses, version, mode, modes
                )
                try:
                    self.runtime_guards.run(state)
                finally:
                    state.guard_request = previous
            state.current_versions = [version]
            return
        state.current_specialized = True
        state.current_versions = [
            self._build_version(state, indicator, clauses, mode, rename=True)
            for mode in modes
        ]

    # -- building one version ---------------------------------------------

    def _build_version(
        self,
        state,
        indicator: Indicator,
        clauses: Sequence[Clause],
        mode: Mode,
        rename: bool,
    ) -> ModeVersion:
        name = specialized_name(indicator[0], mode) if rename else indicator[0]
        state.version_names[(indicator, mode)] = name
        original_estimate = state.model.predicate_stats(indicator, mode)
        rankings: List[ClauseRanking] = []
        evaluations: List[Tuple[float, Optional[SequenceEvaluation]]] = []
        for clause in clauses:
            new_goals, evaluation = reorder_clause_goals(
                state, self.goal_sequence, self.inner_control,
                indicator, clause, mode,
            )
            if rename:
                with state.spans.span("specialize"):
                    renamed_goals = self._rename_goals(state, clause, new_goals, mode)
            else:
                renamed_goals = new_goals
            head = rename_goal(clause.head, name) if rename else clause.head
            new_clause = Clause(head, goals_to_body(renamed_goals))
            match = head_match_probability(clause, mode, state.domains)
            evaluations.append((match, evaluation))
            if evaluation is None:
                stats = GoalStats(cost=1.0, solutions=0.0, prob=0.0)
                p, c = 0.0, 1.0
            else:
                stats = evaluation.as_goal_stats()
                p = match * evaluation.p_success
                c = max(match * evaluation.single_cost, 1e-6)
            rankings.append(ClauseRanking(clause=new_clause, stats=stats, p=p, c=c))

        if state.options.reorder_clauses and len(rankings) > 1:
            with state.spans.span("clause order"):
                ordered = order_clauses(rankings, state.fixity)
            if [r.clause for r in ordered] != [r.clause for r in rankings]:
                state.report.note(
                    indicator, mode,
                    "clauses reordered to "
                    + str([rankings.index(r) + 1 for r in ordered]),
                )
            rankings = ordered

        new_clauses = [ranking.clause for ranking in rankings]
        # Propagate the reordered version's statistics upward so callers
        # are ordered against the costs they will actually see.
        estimate = _combined_stats(evaluations)
        if estimate is not None and state.model.is_tabled(indicator):
            # Callers of a tabled predicate mostly pay the amortized
            # re-call cost, not the first derivation.
            from ...prolog.tabling.cost import tabled_stats

            estimate = tabled_stats(estimate)
        if estimate is not None:
            state.model.override_stats(indicator, mode, estimate)
            state.current_overrides.append((mode, estimate))
            if (
                original_estimate is not None
                and estimate.cost < original_estimate.cost * 0.999
            ):
                # The paper stores mode, probability and cost with each
                # version; surface the estimated gain in the report.
                state.report.note(
                    indicator, mode,
                    f"estimated cost {original_estimate.cost:.1f} -> "
                    f"{estimate.cost:.1f} "
                    f"(p {original_estimate.prob:.2f} -> {estimate.prob:.2f})",
                )
        return ModeVersion(
            indicator=indicator,
            mode=mode,
            name=name,
            clauses=new_clauses,
            estimate=estimate,
            original_estimate=original_estimate,
        )

    def _rename_goals(
        self, state, clause: Clause, goals: List[Term], mode: Mode
    ) -> List[Term]:
        """Rename subgoals to their mode-specialised versions."""
        if not state.options.specialize:
            return goals
        states: VarState = {}
        bind_head_states(clause.head, mode, states)
        renamed: List[Term] = []
        for goal in goals:
            target = self._rename_one(state, goal, states)
            state.modes.abstract_execute(goal, states)
            renamed.append(target)
        return renamed

    #: Control constructs whose goal arguments are renamed recursively
    #: (position tuples index the goal-valued arguments).
    _CONTROL_GOAL_ARGS = {
        ("\\+", 1): (0,),
        ("not", 1): (0,),
        ("call", 1): (0,),
        ("once", 1): (0,),
    }

    def _rename_one(self, state, goal: Term, states: VarState) -> Term:
        """Rename a goal (recursively through control constructs) to the
        specialised versions matching its call modes. ``states`` is not
        mutated; the caller advances it afterwards. Renaming is purely
        an optimisation — unrenamed calls go through the (correct)
        dispatcher — so any part we cannot track stays as written."""
        goal_deref = deref(goal)
        if not isinstance(goal_deref, (Atom, Struct)):
            return goal
        if isinstance(goal_deref, Struct):
            name, arity = goal_deref.name, goal_deref.arity
            if name == "," and arity == 2:
                left = self._rename_one(state, goal_deref.args[0], states)
                after_left = dict(states)
                state.modes.abstract_execute(goal_deref.args[0], after_left)
                right = self._rename_one(state, goal_deref.args[1], after_left)
                return Struct(",", (left, right))
            if name == ";" and arity == 2:
                first = deref(goal_deref.args[0])
                if isinstance(first, Struct) and first.name == "->" and first.arity == 2:
                    condition = self._rename_one(state, first.args[0], states)
                    after_condition = dict(states)
                    state.modes.abstract_execute(first.args[0], after_condition)
                    then_part = self._rename_one(state, first.args[1], after_condition)
                    else_part = self._rename_one(
                        state, goal_deref.args[1], dict(states)
                    )
                    return Struct(
                        ";", (Struct("->", (condition, then_part)), else_part)
                    )
                left = self._rename_one(state, goal_deref.args[0], dict(states))
                right = self._rename_one(state, goal_deref.args[1], dict(states))
                return Struct(";", (left, right))
            if name == "->" and arity == 2:
                condition = self._rename_one(state, goal_deref.args[0], states)
                after_condition = dict(states)
                state.modes.abstract_execute(goal_deref.args[0], after_condition)
                then_part = self._rename_one(
                    state, goal_deref.args[1], after_condition
                )
                return Struct("->", (condition, then_part))
            control = self._CONTROL_GOAL_ARGS.get((name, arity))
            if control is not None:
                args = list(goal_deref.args)
                for position in control:
                    args[position] = self._rename_one(
                        state, args[position], dict(states)
                    )
                return Struct(name, tuple(args))
            if name in ("findall", "bagof", "setof") and arity == 3:
                args = list(goal_deref.args)
                args[1] = self._rename_under_carets(state, args[1], dict(states))
                return Struct(name, tuple(args))
        try:
            indicator = functor_indicator(goal_deref)
        except TypeError:
            return goal
        if not state.database.defines(indicator):
            return goal
        goal_mode = call_mode(goal_deref, states)
        if any(item is ModeItem.ANY for item in goal_mode):
            return goal  # unknown instantiation: go through the dispatcher
        target = state.version_names.get((indicator, goal_mode))
        if target is None or target == indicator[0]:
            return goal
        return rename_goal(goal_deref, target)

    def _rename_under_carets(self, state, term: Term, states: VarState) -> Term:
        term_deref = deref(term)
        if (
            isinstance(term_deref, Struct)
            and term_deref.name == "^"
            and term_deref.arity == 2
        ):
            return Struct(
                "^",
                (
                    term_deref.args[0],
                    self._rename_under_carets(state, term_deref.args[1], states),
                ),
            )
        return self._rename_one(state, term, states)


def _generic_mode(indicator: Indicator, modes: List[Mode]) -> Mode:
    all_free = (ModeItem.MINUS,) * indicator[1]
    return all_free if all_free in modes else modes[0]


def _combined_stats(
    evaluations: List[Tuple[float, Optional[SequenceEvaluation]]]
) -> Optional[GoalStats]:
    """Predicate stats from per-clause (match prob, evaluation)."""
    total_cost = 1.0
    solutions = 0.0
    miss = 1.0
    any_legal = False
    for match, evaluation in evaluations:
        if evaluation is None or match == 0.0:
            continue
        any_legal = True
        total_cost += match * evaluation.total_cost
        solutions += match * evaluation.solutions
        miss *= 1.0 - match * evaluation.p_success
    if not any_legal:
        return None
    return GoalStats(cost=total_cost, solutions=solutions, prob=1.0 - miss)


def _same_goal_sequence(first: List[Term], second: List[Term]) -> bool:
    if len(first) != len(second):
        return False
    return all(a is b for a, b in zip(first, second))
