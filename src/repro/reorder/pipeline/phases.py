"""The whole-program steps of the reordering pipeline, and version dedup.

Plain functions over the shared
:class:`~repro.reorder.pipeline.runner.PipelineState`. The cold-path
output must stay byte-identical to the committed golden fixtures in
``tests/reorder/golden/``, so the operation *order* here is load
bearing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...analysis.modes import Mode, ModeItem
from ...analysis.recursion import recursive_predicates, strongly_connected_components
from ...analysis.stratify import stratify
from ...markov.backend import choose_backend
from ...prolog.database import Clause, Database, body_goals, goals_to_body
from ...prolog.terms import Atom, Struct, Term, deref, indicator_str
# clause_to_string stays bound here for perfbench/tracing.py, which
# wraps this module's binding as a writer span.
from ...prolog.writer import clause_key, clause_to_string  # noqa: F401
from ..specialize import build_dispatcher
from .types import Indicator, ModeVersion

__all__ = [
    "build_output",
    "dedup_versions",
    "legal_modes",
    "processing_order",
    "select_backends",
    "summarize_analyses",
]


def summarize_analyses(state) -> None:
    """Copy the analysis verdicts (fixed/recursive/semifixed/tabled)
    into the report, before any reordering decisions are made."""
    state.report.fixed_predicates = set(state.fixity.fixed_predicates)
    state.report.recursive_predicates = set(
        recursive_predicates(state.callgraph)
    ) | set(state.declarations.recursive)
    state.report.semifixed_predicates = {
        indicator
        for indicator in state.database.predicates()
        if state.semifixity.is_semifixed(indicator)
    }
    state.report.tabled_predicates = {
        indicator
        for indicator in state.database.predicates()
        if state.model.is_tabled(indicator)
    }


def processing_order(state) -> List[Indicator]:
    """User predicates, callees before callers (Tarjan emission order
    is reverse topological over the condensation)."""
    order: List[Indicator] = []
    for component in strongly_connected_components(state.callgraph.callees):
        for indicator in sorted(component):
            if state.database.defines(indicator):
                order.append(indicator)
    return order


def legal_modes(state, indicator: Indicator) -> List[Mode]:
    """Legal {+,-} input modes of one predicate (warning when none
    could be inferred or declared)."""
    legal = state.modes.legal_input_modes(indicator)
    if not legal:
        state.report.warnings.append(
            f"{indicator_str(indicator)}: no legal {{+,-}} input modes "
            f"inferred or declared; keeping the original definition"
        )
    return legal


def dedup_versions(
    state, indicator: Indicator, versions: List[ModeVersion]
) -> List[ModeVersion]:
    """Merge one specialised predicate's versions whose clause lists
    are identical, returning the distinct ones.

    "In many cases, the reorderer produces only one or two distinct
    versions of a predicate" (§VII). The canonical version is the
    first mode producing each body; later duplicates are dropped and
    all references rewritten — including self-references inside this
    predicate's own (possibly recursive) clauses. Clauses are compared
    by :func:`~repro.prolog.writer.clause_key`, which tells clauses
    apart as their rendered text does, without rendering them.
    """
    by_shape: Dict[Tuple[object, ...], ModeVersion] = {}
    rename_map: Dict[str, str] = {}
    kept: List[ModeVersion] = []
    for version in versions:
        shape = tuple(
            clause_key(Clause(_strip_name(c.head), c.body).to_term())
            for c in version.clauses
        )
        canonical = by_shape.get(shape)
        if canonical is None:
            by_shape[shape] = version
            kept.append(version)
        else:
            rename_map[version.name] = canonical.name
            state.version_names[(indicator, version.mode)] = canonical.name
            state.report.note(
                indicator, version.mode,
                f"identical to version {canonical.name}; merged",
            )
    if len(kept) == 1:
        # A single distinct version: give it back the original name
        # and skip the dispatcher entirely ("predicates with clauses
        # of one goal cannot be reordered" end up here too).
        only = kept[0]
        rename_map[only.name] = indicator[0]
        only.name = indicator[0]
        for (ind, mode) in list(state.version_names):
            if ind == indicator:
                state.version_names[(ind, mode)] = indicator[0]
    if not rename_map:
        return versions
    for version in kept:
        version.clauses = [
            Clause(
                _rewrite_one_name(clause.head, rename_map),
                goals_to_body(
                    _rewrite_goal_names(body_goals(clause.body), rename_map)
                ),
            )
            for clause in version.clauses
        ]
    return kept


def build_output(
    state, versions: Dict[Tuple[Indicator, Mode], ModeVersion]
) -> Database:
    """The output database: dispatchers first (they carry the original
    names), then every distinct version's clauses, with tabling
    propagated to the specialised names."""
    output = Database(indexing=state.options.indexing)
    output.operators = state.database.operators
    dispatched: Set[Indicator] = set()
    for (indicator, _mode), version in versions.items():
        if version.name == indicator[0]:
            continue  # in-place version keeps the original name
        if indicator in dispatched:
            continue
        dispatched.add(indicator)
        mode_map = {
            mode: name
            for (ind, mode), name in state.version_names.items()
            if ind == indicator
        }
        with state.spans.span("specialize"):
            output.add_clause(build_dispatcher(indicator, mode_map))
    seen_versions: Set[Indicator] = set()
    for version in versions.values():
        if version.version_indicator in seen_versions:
            continue
        seen_versions.add(version.version_indicator)
        for clause in version.clauses:
            output.add_clause(Clause(clause.head, clause.body))
        # A tabled predicate stays tabled under its specialised
        # names, so the emitted program memoizes the same calls.
        if version.indicator in state.database.tabled:
            output.tabled.add(version.version_indicator)
    return output


def select_backends(state) -> None:
    """Pick the evaluation backend (top-down SLD vs bottom-up
    semi-naive) for every user predicate, per recursion component.

    This is the reorder-time face of the ``--eval=auto`` dispatcher:
    the program is stratified with :func:`repro.analysis.stratify`,
    and each stratum gets a :class:`~repro.markov.backend.BackendChoice`
    verdict — datalog-eligible recursive strata go bottom-up, eligible
    non-recursive strata are decided by comparing the cost model's
    all-free-mode estimate against the materialization bound, and
    everything else stays top-down. The verdicts land in
    ``report.backends`` (and the JSONL report's ``backends`` key) so a
    user can see which strata the engine would materialize before ever
    running the program.
    """
    stratification = stratify(state.database, state.callgraph)
    for stratum in stratification.strata:
        for indicator in stratum.predicates:
            if not state.database.defines(indicator):
                continue
            topdown = None
            if stratum.eligible and not stratum.recursive:
                mode = (ModeItem.MINUS,) * indicator[1]
                topdown = state.model.predicate_stats(indicator, mode)
            state.report.backends[indicator] = choose_backend(
                eligible=stratum.eligible,
                recursive=stratum.recursive,
                fact_count=stratum.fact_count,
                rule_count=stratum.rule_count,
                topdown=topdown,
            )


def _strip_name(head: Term) -> Term:
    """Replace the head functor with a placeholder for shape comparison."""
    head = deref(head)
    if isinstance(head, Struct):
        return Struct("$head", head.args)
    return Atom("$head")


def _rewrite_one_name(term: Term, mapping: Dict[str, str]) -> Term:
    term_deref = deref(term)
    if isinstance(term_deref, Struct) and term_deref.name in mapping:
        return Struct(mapping[term_deref.name], term_deref.args)
    if isinstance(term_deref, Atom) and term_deref.name in mapping:
        return Atom(mapping[term_deref.name])
    return term


def _rewrite_goal_names(goals: List[Term], mapping: Dict[str, str]) -> List[Term]:
    return [_rewrite_one_name(goal, mapping) for goal in goals]
