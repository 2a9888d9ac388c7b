"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` replaces a function at the module or class binding its
callers look it up through with a wrapper that records one span per
call: name, start, end, parent span and, where the call carries one,
the request id. Spans stay in memory until the benchmark reads them (or,
in the traced server, writes them out at exit). Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` puts every original back.

Parents follow a :class:`contextvars.ContextVar`, so nesting is tracked
per thread and per asyncio task. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (span name, "module[:Class]", attribute) — the reorder-phase bindings.
REORDER_POINTS = (
    ("prolog.reader.parse", "repro.prolog.database:Database", "from_source"),
    ("analysis.build", "repro.reorder.system:Reorderer", "__init__"),
    ("reorder.pipeline", "repro.reorder.system:Reorderer", "reorder"),
    ("markov.evaluate", "repro.markov.predicate_model:CostModel", "evaluate_goals"),
    ("markov.evaluate", "repro.reorder.goal_search", "evaluate_sequence"),
    ("reorder.goal_search", "repro.reorder.pipeline.build", "find_best_order"),
    ("reorder.clause_order", "repro.reorder.pipeline.build", "order_clauses"),
    ("prolog.writer.program", "repro.reorder.pipeline.types", "program_to_string"),
    ("prolog.writer.clause", "repro.prolog.writer", "clause_to_string"),
    ("prolog.writer.clause", "repro.reorder.pipeline.phases", "clause_to_string"),
)

#: The query-phase bindings (engine, reader, clause compiler).
QUERY_POINTS = (
    ("prolog.engine.solve", "repro.prolog.engine:Engine", "ask"),
    ("prolog.reader.query_parse", "repro.prolog.engine", "parse_term"),
    ("prolog.database.compile", "repro.prolog.compile", "compile_clause"),
)

#: The bindings installed inside the traced server process.
SERVER_POINTS = (
    ("serve.server.line", "repro.serve.server:QueryServer", "_serve_line"),
    ("serve.protocol.decode", "repro.serve.server", "decode_line"),
    ("serve.protocol.encode", "repro.serve.protocol", "encode"),
    ("serve.admission.wait", "repro.serve.admission:AdmissionController", "acquire"),
    ("serve.executor.query", "repro.serve.executor", "execute_query"),
    ("prolog.engine.ask", "repro.prolog.engine:Engine", "ask"),
    ("prolog.reader.query_parse", "repro.prolog.engine", "parse_term"),
    ("prolog.writer.render", "repro.serve.executor", "term_to_string"),
    ("serve.snapshots.build", "repro.serve.snapshots:SnapshotStore", "build"),
    ("prolog.database.compile", "repro.prolog.compile", "compile_clause"),
)

# One finished span: (id, name, start, end, parent id or -1, request id).
Span = Tuple[int, str, float, float, int, Optional[str]]


def _line_request_id(args) -> Optional[str]:
    """The ``id`` of a raw request line (``_serve_line(self, line, ...)``)."""
    try:
        value = json.loads(args[1]).get("id")
    except (ValueError, AttributeError, IndexError):
        return None
    return None if value is None else str(value)


class Tracer:
    """Records spans for every call through the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._installed: List[Tuple[object, str, object]] = []

    # -- installing wrappers ---------------------------------------------

    def install(self, points: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every ``(name, "module[:Class]", attribute)`` binding."""
        for name, target, attribute in points:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attribute]
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, self._wrap(raw, name))

    def uninstall(self) -> None:
        """Restore every wrapped binding (newest first)."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def _wrap(self, raw, name: str):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        # Only the server's request line carries an id.
        request_id: Callable = (
            _line_request_id if name == "serve.server.line" else (lambda args: None)
        )
        current = self._current
        ids = self._ids
        record = self.spans.append

        if inspect.iscoroutinefunction(raw):

            @functools.wraps(raw)
            async def async_wrapper(*args, **kwargs):
                span_id = next(ids)
                token = current.set(span_id)
                parent = token.old_value
                started = perf_counter()
                try:
                    return await raw(*args, **kwargs)
                finally:
                    record((span_id, name, started, perf_counter(),
                            -1 if parent is contextvars.Token.MISSING else parent,
                            request_id(args)))
                    current.reset(token)

            return async_wrapper

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            token = current.set(span_id)
            parent = token.old_value
            started = perf_counter()
            try:
                return raw(*args, **kwargs)
            finally:
                record((span_id, name, started, perf_counter(),
                        -1 if parent is contextvars.Token.MISSING else parent,
                        request_id(args)))
                current.reset(token)

        return wrapper

    # -- reading spans ----------------------------------------------------

    def mark(self) -> int:
        """A position in the span list: ``spans[a:b]`` between two marks
        holds the spans that finished in between."""
        return len(self.spans)

    def dump(self, path: str) -> None:
        """Write every span as JSON (the traced server does this at exit)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    """Spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def self_times(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """``{name: [self seconds, calls]}`` — duration minus direct children.

    A child whose parent is not among ``spans`` (it finished in another
    window) is ignored, so windows never subtract foreign time.
    """
    child_time: Dict[int, float] = {}
    for _id, _name, start, end, parent, _rid in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, List[float]] = {}
    for span_id, name, start, end, _parent, _rid in spans:
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - child_time.get(span_id, 0.0)
        entry[1] += 1
    return totals


def root_seconds(spans: Sequence[Span], start: float, end: float) -> float:
    """Time inside ``[start, end]`` covered by root spans (no parent)."""
    covered = 0.0
    for _id, _name, span_start, span_end, parent, _rid in spans:
        if parent < 0:
            covered += max(0.0, min(end, span_end) - max(start, span_start))
    return covered
