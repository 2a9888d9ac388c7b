"""Tests for the staged pipeline's incremental AnalysisContext.

These pin the invalidation contract: a warm re-reorder over an
unchanged database is a pure cache replay; an edit recomputes exactly
the edited predicate's SCC plus its transitive callers; and either way
the output is byte-identical to a cold run.
"""

import json

from repro.observability.events import CacheEvent, EventBus
from repro.programs import REGISTRY
from repro.prolog import Database
from repro.reorder import AnalysisContext, Reorderer, ReorderOptions
from repro.reorder.pipeline.context import ANALYSIS_STAGES, BUILD_STAGE

SMALL = """
p(X) :- q(X), r(X).
q(1). q(2).
r(2).
s(X) :- q(X).
"""


def fingerprint(program):
    """Byte-comparable rendering of a reorder result."""
    return (
        json.dumps(program.report.to_dict(), sort_keys=True),
        program.source(),
    )


def reorder_with(database, context, **options):
    return Reorderer(
        database, ReorderOptions(**options), context=context
    ).reorder()


class TestWarmReplay:
    def test_unchanged_database_is_all_hits(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        cold = reorder_with(database, context)
        context.reset_counters()
        warm = reorder_with(database, context)
        assert not context.misses
        for stage in ANALYSIS_STAGES:
            assert context.hits[stage] == 1
        assert context.hits[BUILD_STAGE] == len(database.predicates())
        assert context.last_dirty == frozenset()
        assert context.last_affected == frozenset()
        assert fingerprint(warm) == fingerprint(cold)

    def test_warm_matches_cold_on_paper_programs(self):
        for name in ("family_tree", "meal"):
            database = Database.from_source(REGISTRY[name].source())
            context = AnalysisContext(database)
            cold = reorder_with(database, context)
            warm = reorder_with(database, context)
            assert fingerprint(warm) == fingerprint(cold), name


class TestIncrementalInvalidation:
    def edit(self, database, indicator):
        """A no-op edit: replace a predicate with its own clauses,
        which still bumps the predicate's generation mark."""
        database.replace_predicate(indicator, database.clauses(indicator))

    def test_edit_recomputes_only_scc_and_callers(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        self.edit(database, ("r", 1))
        context.reset_counters()
        incremental = reorder_with(database, context)
        # r/1 was edited; p/1 calls it; q/2 and s/1 are untouched.
        assert context.last_dirty == frozenset({("r", 1)})
        assert context.last_affected == frozenset({("r", 1), ("p", 1)})
        assert context.misses[BUILD_STAGE] == 2
        assert context.hits[BUILD_STAGE] == 2
        # The incremental result equals a cold run over an equal program.
        cold = Reorderer(Database.from_source(SMALL)).reorder()
        assert fingerprint(incremental) == fingerprint(cold)

    def test_edit_matches_cold_on_family_tree(self):
        source = REGISTRY["family_tree"].source()
        database = Database.from_source(source)
        context = AnalysisContext(database)
        reorder_with(database, context)
        self.edit(database, ("wife", 2))
        context.reset_counters()
        incremental = reorder_with(database, context)
        assert context.last_dirty == frozenset({("wife", 2)})
        assert ("wife", 2) in context.last_affected
        # Some predicates stayed cached: the closure is a strict subset.
        defined_affected = [
            indicator
            for indicator in context.last_affected
            if database.defines(indicator)
        ]
        assert context.misses[BUILD_STAGE] == len(defined_affected)
        assert context.hits[BUILD_STAGE] == len(database.predicates()) - len(
            defined_affected
        )
        assert context.hits[BUILD_STAGE] > 0
        cold = Reorderer(Database.from_source(source)).reorder()
        assert fingerprint(incremental) == fingerprint(cold)

    def test_options_change_invalidates_builds_not_analyses(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        context.reset_counters()
        reorder_with(database, context, runtime_tests=True)
        # Same program: analyses replay; different knobs: builds rerun.
        for stage in ANALYSIS_STAGES:
            assert context.hits[stage] == 1
        assert context.misses[BUILD_STAGE] == len(database.predicates())
        assert BUILD_STAGE not in context.hits


class TestObservability:
    def test_cache_events_emitted(self):
        database = Database.from_source(SMALL)
        bus = EventBus()
        context = AnalysisContext(database, events=bus)
        reorder_with(database, context)
        reorder_with(database, context)
        cache_events = bus.by_kind("cache")
        assert cache_events
        assert all(isinstance(event, CacheEvent) for event in cache_events)
        stages = {event.stage for event in cache_events}
        assert BUILD_STAGE in stages and "fixity" in stages
        assert {event.hit for event in cache_events} == {True, False}
        # Build consultations carry the predicate; analysis ones do not.
        build_event = next(e for e in cache_events if e.stage == BUILD_STAGE)
        assert build_event.indicator in set(database.predicates())
        record = build_event.to_record()
        assert record["kind"] == "cache" and "predicate" in record

    def test_counters_record_shape(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        record = context.counters_record()
        assert record["type"] == "cache"
        assert record["misses"][BUILD_STAGE] == len(database.predicates())
        assert record["dirty"] == sorted(["p/1", "q/1", "r/1", "s/1"])
        assert record["affected"] == record["dirty"]


class TestFacadeSafety:
    def test_swapped_analysis_disables_caching(self):
        # The ablation benchmarks overwrite analysis attributes on the
        # facade before calling reorder(); the cache must silently stand
        # aside rather than replay results for the wrong model.
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        context.reset_counters()
        reorderer = Reorderer(database, context=context)
        fresh = AnalysisContext(database).refresh(ReorderOptions())
        reorderer.model = fresh.model
        reorderer.reorder()
        assert BUILD_STAGE not in context.hits
        assert BUILD_STAGE not in context.misses

    def test_context_requires_matching_database(self):
        first = Database.from_source(SMALL)
        second = Database.from_source(SMALL)
        context = AnalysisContext(first)
        try:
            Reorderer(second, context=context)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for foreign context")

