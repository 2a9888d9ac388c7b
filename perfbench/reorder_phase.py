"""The reorder phase: cold source-to-source passes, then a seeded edit stream.

A cold pass takes every program of ``repro.programs.REGISTRY`` from
source text to reordered source text (parse, ``Reorderer``,
``reorder()``, ``source()``). The edit stream then asserts or retracts
one fact of a base relation (a predicate defined only by ground facts)
and re-reorders that program against the ``AnalysisContext`` the last
cold pass left behind, which is the cache the cold pass can only miss.
A relation's odd-numbered edits retract a seeded fact and its
even-numbered edits assert that fact back.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter
from typing import Dict, List, Tuple

from repro.observability.spans import SpanRecorder
from repro.programs import REGISTRY
from repro.prolog.database import Clause, Database
from repro.reorder import Reorderer
from repro.reorder.pipeline.context import BUILD_STAGE

from util import Pace, median

#: Every Nth incremental re-reorder, and the last, is compared byte for
#: byte with a cold reorder of a copy of the same edited database.
VERIFY_EVERY = 16


def load_sources() -> Tuple[Dict[str, str], Dict[str, Database]]:
    """Every program's source text and its parsed original database."""
    sources = {name: module.source() for name, module in REGISTRY.items()}
    return sources, {name: Database.from_source(text) for name, text in sources.items()}


def cold_pass(sources: Dict[str, str], spans: SpanRecorder, pace: Pace):
    """One cold pass; returns (each program's (start, end) as measured,
    its seconds at the reference pace, reorderers, programs, texts)."""
    windows, seconds, reorderers, programs, texts = {}, {}, {}, {}, {}
    for name, text in sources.items():
        started = perf_counter()
        reorderer = Reorderer(Database.from_source(text), spans=spans)
        programs[name] = reorderer.reorder()
        texts[name] = programs[name].source()
        windows[name] = (started, perf_counter())
        seconds[name] = pace.scale(windows[name][1] - started)
        reorderers[name] = reorderer
    return windows, seconds, reorderers, programs, texts


def _base_relations(database: Database) -> List[Tuple[str, int]]:
    return [
        indicator
        for indicator in database.predicates()
        if indicator[1] > 0
        and database.clauses(indicator)
        and all(clause.is_fact for clause in database.clauses(indicator))
    ]


def edit_cycle(databases: Dict[str, Database]) -> List[Tuple[str, Tuple[str, int]]]:
    """Every base relation once, programs interleaved, so the first
    edits of a cycle touch every program."""
    relations = {name: _base_relations(db) for name, db in databases.items()}
    cycle = []
    for depth in range(max(len(found) for found in relations.values())):
        for name, found in relations.items():
            if depth < len(found):
                cycle.append((name, found[depth]))
    return cycle


def apply_edit(database: Database, indicator, retracted: Dict, rng: random.Random) -> None:
    """Retract a seeded fact of ``indicator``, or assert back the fact
    its previous edit retracted, so the stream keeps every program at
    the paper's size however long it runs."""
    clauses = database.clauses(indicator)
    fact = retracted.pop(indicator, None)
    if fact is not None:
        database.add_clause(Clause(fact.head, fact.body))
        return
    victim = rng.randrange(len(clauses))
    retracted[indicator] = clauses[victim]
    database.replace_predicate(indicator, clauses[:victim] + clauses[victim + 1:])


def run(
    sources: Dict[str, str],
    rng: random.Random,
    passes: int,
    edits: int,
    pace: Pace,
    tracer=None,
) -> Dict[str, object]:
    """``passes`` cold passes, then ``edits`` edits walking the cycle.

    Times are at the reference pace (:class:`util.Pace`); the tracer's
    windows are as measured."""
    result: Dict[str, object] = {"errors": []}
    cold_spans = SpanRecorder()
    mark = tracer.mark() if tracer else 0
    windows: List[Tuple[float, float]] = []
    per_program: Dict[str, List[float]] = {name: [] for name in sources}
    for _ in range(passes):
        spans, seconds, reorderers, programs, texts = cold_pass(sources, cold_spans, pace)
        windows.extend(spans.values())
        for name, value in seconds.items():
            per_program[name].append(value)
    result["cold_window"] = (mark, tracer.mark() if tracer else 0, windows)
    result["passes"] = passes
    # A sum of per-program medians: a burst of load from elsewhere on
    # the host slows a few programs of one pass, not the result.
    result["reorder_s"] = sum(median(values) for values in per_program.values())
    result["programs"], result["texts"] = programs, texts
    result["output_clauses"] = sum(len(p.database) for p in programs.values())
    result["versions"] = sum(
        len({v.version_indicator for v in p.versions.values()})
        for p in programs.values()
    )
    result["search_permutations"] = sum(
        r.search_counters.exhaustive_permutations for r in reorderers.values()
    )
    result["astar_expanded"] = sum(
        r.search_counters.astar_expanded for r in reorderers.values()
    )
    specialize = cold_spans.get("specialize")
    result["specialize_s"] = (specialize.seconds if specialize else 0.0) / passes

    cycle = edit_cycle({name: r.database for name, r in reorderers.items()})
    retracted: Dict[str, Dict] = {name: {} for name in reorderers}
    edit_spans = SpanRecorder()
    edit_times: List[Tuple[float, float]] = []
    edit_ms: List[float] = []
    hits = lookups = 0
    to_verify: List[Tuple[str, Database, str]] = []
    mark = tracer.mark() if tracer else 0
    pace.skip()
    for name, indicator in itertools.islice(itertools.cycle(cycle), edits):
        reorderer = reorderers[name]
        database, context = reorderer.database, reorderer.context
        context.reset_counters()
        begin = perf_counter()
        apply_edit(database, indicator, retracted[name], rng)
        text = Reorderer(database, context=context, spans=edit_spans).reorder().source()
        edit_times.append((begin, perf_counter()))
        edit_ms.append(pace.scale(edit_times[-1][1] - begin) * 1e3)
        hits += context.hits.get(BUILD_STAGE, 0)
        lookups += context.hits.get(BUILD_STAGE, 0) + context.misses.get(BUILD_STAGE, 0)
        if len(edit_times) % VERIFY_EVERY == 0:
            to_verify.append((name, database.copy(), text))
    result["edit_window"] = (mark, tracer.mark() if tracer else 0, edit_times)
    if len(edit_times) % VERIFY_EVERY:
        to_verify.append((name, database.copy(), text))
    for name, snapshot, text in to_verify:
        if Reorderer(snapshot).reorder().source() != text:
            result["errors"].append(
                f"reorder: incremental output of {name} differs from a cold reorder"
            )
    result["edit_ms"] = edit_ms
    result["context_hit_ratio"] = hits / lookups if lookups else 0.0
    result["rebuilt_predicates"] = (lookups - hits) / len(edit_times)
    result["attempted"] = passes * len(sources) + len(edit_times)
    return result
