"""The paper-query phase: the §VII methodology run on the reordered programs.

Every predicate in every mode, one call per instantiation (Tables
II–IV), asked of each reordered program through its mode-specialised
entry points, the way the paper measures it. The original program
answers the same queries first, as the oracle: reordered answers must
be set-equal to the original's (the §II contract).
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Tuple

from repro.analysis.modes import parse_mode_string
from repro.experiments.harness import label_to_mode, mode_queries
from repro.programs import corporate, family_tree, kmbench, meal, p58, team
from repro.prolog.engine import Engine

from util import Pace, median, percentile

#: (program, original query, reordered query)
Query = Tuple[str, str, str]

TABLE2_MODES = ("--", "-+", "+-", "++")
#: Queries timed between two samples of the host pace.
CHUNK = 400
#: The ``Engine.metrics`` counters reported per pass.
COUNTERS = (
    "calls", "unifications", "backtracks",
    "skeleton_instantiations", "head_fast_rejects",
)


def table_queries(programs, with_table2: bool = True) -> List[Query]:
    """The Table II–IV query set (Tables III–IV only without Table II)."""
    queries: List[Query] = []
    if with_table2:
        reordered = programs["family_tree"]
        for name, arity in family_tree.TESTED_PREDICATES:
            for mode_text in TABLE2_MODES:
                mode = parse_mode_string(mode_text)
                version = reordered.version_name((name, arity), mode) or name
                queries.extend(
                    ("family_tree", original, new)
                    for original, new in zip(
                        mode_queries(name, mode, family_tree.PERSONS),
                        mode_queries(version, mode, family_tree.PERSONS),
                    )
                )
    labelled = [("corporate", label, [query]) for label, query in corporate.TABLE3_QUERIES]
    for module in (p58, meal, team, kmbench):
        program = module.__name__.rsplit(".", 1)[1]
        labelled.extend((program, label, texts) for label, texts in module.TABLE4_QUERIES)
    for program, label, texts in labelled:
        for query in texts:
            if "(" not in label:
                queries.append((program, query, query))
                continue
            name, mode = query[: query.index("(")], label_to_mode(label)
            version = programs[program].version_name((name, len(mode)), mode) or name
            queries.append((program, query, version + query[len(name):]))
    return queries


def answer_set(solutions) -> frozenset:
    return frozenset(solution.key() for solution in solutions)


def compile_programs(databases, names) -> float:
    """First-use compile of every predicate's clause skeletons; seconds."""
    started = perf_counter()
    for name in names:
        database = databases[name]
        for indicator in database.predicates():
            database.compiled_program(indicator)
    return perf_counter() - started


def oracle(originals, queries: List[Query]) -> Tuple[List[frozenset], int]:
    """The original program's answer set per query, and its total calls."""
    engines = {name: Engine(originals[name]) for name in {q[0] for q in queries}}
    answers = [answer_set(engines[name].ask(query)) for name, query, _ in queries]
    return answers, sum(engine.metrics.calls for engine in engines.values())


def run(
    programs,
    queries: List[Query],
    expected: List[frozenset],
    rng: random.Random,
    passes: int,
    pace: Pace,
    tracer=None,
) -> Dict[str, object]:
    """Answer every query on the reordered programs, in a seeded order,
    ``passes`` times.

    Latencies are at the reference pace (:class:`util.Pace`, sampled
    every :data:`CHUNK` queries); the tracer's windows are as measured."""
    order = list(range(len(queries)))
    rng.shuffle(order)
    names = sorted({q[0] for q in queries})
    result: Dict[str, object] = {"errors": [], "pass_calls": [], "wrong": 0}
    latencies: List[List[float]] = []
    windows: List[Tuple[float, float]] = []
    counters = dict.fromkeys(COUNTERS, 0)
    mark = tracer.mark() if tracer else 0
    for _ in range(passes):
        engines = {name: Engine(programs[name].database) for name in names}
        answers: List[object] = [None] * len(queries)
        latency = [0.0] * len(queries)
        pace.skip()
        for first in range(0, len(order), CHUNK):
            chunk = order[first:first + CHUNK]
            begin = perf_counter()
            for index in chunk:
                name, _original, query = queries[index]
                asked = perf_counter()
                answers[index] = engines[name].ask(query)
                latency[index] = perf_counter() - asked
            windows.append((begin, perf_counter()))
            factor = pace.factor()
            for index in chunk:
                latency[index] *= factor
        latencies.append(latency)
        metrics = [engine.metrics for engine in engines.values()]
        result["pass_calls"].append(sum(m.calls for m in metrics))
        for field in COUNTERS:
            counters[field] += sum(getattr(m, field) for m in metrics)
        wrong = sum(
            1 for index, solutions in enumerate(answers)
            if answer_set(solutions) != expected[index]
        )
        if wrong:
            result["errors"].append(
                f"paper queries: {wrong} reordered answer sets differ from the original's"
            )
        result["wrong"] += wrong
    result["window"] = (mark, tracer.mark() if tracer else 0, windows)
    # Each query's median over the passes, summed: a burst of load from
    # elsewhere on the host slows some queries of one pass, not the result.
    result["query_s"] = sum(median(times) for times in zip(*latencies))
    result["query_p99_ms"] = percentile([t for p in latencies for t in p], 0.99) * 1e3
    result["counters"] = {key: value / passes for key, value in counters.items()}
    result["passes"] = passes
    result["attempted"] = len(queries) * passes
    return result
