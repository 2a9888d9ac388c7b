"""Execution order of the reordering pipeline.

:class:`ReorderPipeline` runs the pipeline's functions over a
:class:`PipelineState` and — when an :class:`AnalysisContext` is
attached — replays cached per-predicate builds instead of recomputing
them. The cold path performs exactly the operations of the
pre-pipeline ``Reorderer.reorder()`` in exactly the same order, so its
output is byte-identical (pinned by ``tests/reorder/golden/``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...analysis.modes import Mode
from ...errors import BudgetExceededError
from ...robustness import faults
from ...robustness.budget import Budget
from .build import build_versions, verbatim_version
from .context import AnalysisContext, CachedPredicateBuild
from .phases import (
    build_output,
    dedup_versions,
    legal_modes,
    processing_order,
    select_backends,
    summarize_analyses,
)
from .types import Indicator, ModeVersion, ReorderedProgram

__all__ = ["PipelineState", "ReorderPipeline"]


class PipelineState:
    """Everything the pipeline's functions read and write while
    reordering one program: the analyses, the shared report/telemetry
    objects, and the per-predicate budget and model overrides."""

    def __init__(
        self,
        *,
        options,
        database,
        report,
        spans,
        search_counters,
        declarations,
        callgraph,
        fixity,
        semifixity,
        modes,
        domains,
        model,
        version_names,
        context: Optional[AnalysisContext] = None,
        budget: Optional[Budget] = None,
        events=None,
    ):
        self.options = options
        self.database = database
        self.report = report
        self.spans = spans
        self.search_counters = search_counters
        self.declarations = declarations
        self.callgraph = callgraph
        self.fixity = fixity
        self.semifixity = semifixity
        self.modes = modes
        self.domains = domains
        self.model = model
        #: (indicator, mode) → final specialised name (shared with the
        #: facade so later runs and explain() see the same mapping).
        self.version_names: Dict[Tuple[Indicator, Mode], str] = version_names
        #: None disables build caching (cold one-shot run).
        self.context = context
        #: Whole-run resource budget (None = unbounded). Exhaustion of
        #: *this* budget aborts the run; per-predicate failures degrade.
        self.budget = budget
        #: Per-predicate deadline budget, rebuilt by the runner for each
        #: indicator when ``options.phase_timeout`` is set.
        self.phase_budget: Optional[Budget] = None
        #: Optional event bus (degraded/budget events).
        self.events = events
        #: Cost-model overrides of the predicate being built, reset per
        #: fresh build so a failed build can take them back.
        self.current_overrides: List[Tuple[Mode, object]] = []
        # Run-local warning accumulators: the mode-inference and
        # cost-model warning streams of *this* run, in emission order.
        # With a reused context the underlying analyses keep warnings
        # from previous runs (memo-guarded, so they would not re-emit);
        # per-predicate deltas + cached replays reconstruct the stream.
        self.run_modes_warnings: List[str] = []
        self.run_model_warnings: List[str] = []


class ReorderPipeline:
    """Runs the pipeline's functions, in order, over one PipelineState."""

    def __init__(self, state: PipelineState):
        self.state = state

    def run(self) -> ReorderedProgram:
        """Run the whole pipeline and return the reordered program.

        Per-predicate failure isolation: any exception out of one
        predicate's build (injected fault, per-predicate deadline, a
        bug in an analysis) rolls back that predicate's side effects
        and degrades it to source order, leaving every other
        predicate's output untouched. Only exhaustion of the
        *whole-run* budget (deadline expiry / cancellation) aborts.
        """
        state = self.state
        if state.budget is not None:
            state.budget.start()
        summarize_analyses(state)
        versions: Dict[Tuple[Indicator, Mode], ModeVersion] = {}
        for indicator in processing_order(state):
            if state.budget is not None:
                state.budget.check("phase.build")
            if state.options.phase_timeout is not None:
                state.phase_budget = Budget(
                    deadline=state.options.phase_timeout
                ).start()
            snapshot = self._snapshot()
            try:
                if faults.ACTIVE is not None:
                    faults.ACTIVE.hit("phase.build")
                built = self._replay_cached(indicator)
                if built is None:
                    built = self._build_fresh(indicator, snapshot)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if self._whole_run_exhausted(exc):
                    raise
                built = self._degrade(indicator, exc, snapshot)
            finally:
                state.phase_budget = None
            for version in built:
                versions[(version.indicator, version.mode)] = version
        output = build_output(state, versions)
        select_backends(state)
        state.report.warnings.extend(state.run_modes_warnings)
        state.report.warnings.extend(state.run_model_warnings)
        return ReorderedProgram(
            output,
            versions,
            state.report,
            state.database,
            version_names=dict(state.version_names),
        )

    # -- failure isolation -------------------------------------------------

    def _whole_run_exhausted(self, exc: Exception) -> bool:
        """Is this exception the *whole-run* budget giving out (which
        must propagate), rather than a per-predicate failure (which
        degrades)?"""
        budget = self.state.budget
        if budget is None or not isinstance(exc, BudgetExceededError):
            return False
        return budget.expired or (
            budget.token is not None and budget.token.cancelled
        )

    def _snapshot(self) -> Tuple[int, int, int, int, int, int, int]:
        """Lengths of every append-only stream a build mutates, taken
        before the build so :meth:`_rollback` can truncate them."""
        state = self.state
        return (
            len(state.report._log),
            len(state.report.warnings),
            len(state.modes.warnings),
            len(state.model.warnings),
            len(state.version_names),
            len(state.run_modes_warnings),
            len(state.run_model_warnings),
        )

    def _rollback(self, indicator: Indicator, snapshot) -> None:
        """Undo every side effect of a failed build: report notes and
        warnings, analysis warning streams, version-name registrations,
        and cost-model overrides."""
        state = self.state
        (
            log_start, warn_start, modes_start, model_start,
            names_start, run_modes_start, run_model_start,
        ) = snapshot
        report = state.report
        for ind, mode, _line in reversed(report._log[log_start:]):
            notes = report.decisions.get((ind, mode))
            if notes:
                notes.pop()
                if not notes:
                    del report.decisions[(ind, mode)]
        del report._log[log_start:]
        del report.warnings[warn_start:]
        del state.modes.warnings[modes_start:]
        del state.model.warnings[model_start:]
        del state.run_modes_warnings[run_modes_start:]
        del state.run_model_warnings[run_model_start:]
        for key in list(state.version_names.keys())[names_start:]:
            del state.version_names[key]
        for mode, _stats in state.current_overrides:
            state.model.remove_override(indicator, mode)
        state.current_overrides = []

    def _degrade(
        self, indicator: Indicator, exc: Exception, snapshot
    ) -> List[ModeVersion]:
        """Fall back to the predicate's source clauses after a failed
        build: roll back the build's side effects, register a verbatim
        version under the original name (exactly the shape the
        no-legal-modes path emits, so the output builder adds no
        dispatcher), and record the degradation."""
        state = self.state
        self._rollback(indicator, snapshot)
        reason = f"{type(exc).__name__}: {exc}"
        version = verbatim_version(state, indicator)
        state.report.degraded[indicator] = reason
        state.report.warnings.append(
            f"degraded {indicator[0]}/{indicator[1]} to source order: {reason}"
        )
        if state.events is not None:
            from ...observability.events import DegradedEvent

            state.events.emit(
                DegradedEvent(indicator=indicator, phase="build", reason=reason)
            )
        return [version]

    # -- one predicate, fresh ---------------------------------------------

    def _build_fresh(self, indicator: Indicator, snapshot) -> List[ModeVersion]:
        """Run mode enumeration, version build and dedup for one
        predicate, capturing every side effect for later replay when a
        context is attached. ``snapshot`` is :meth:`_snapshot`'s, taken
        just before."""
        state = self.state
        log_start, warn_start, modes_start, model_start, names_start = snapshot[:5]
        state.current_overrides = []

        built, specialized = build_versions(
            state, indicator, legal_modes(state, indicator)
        )
        if specialized:
            built = dedup_versions(state, indicator, built)

        modes_delta = list(state.modes.warnings[modes_start:])
        model_delta = list(state.model.warnings[model_start:])
        state.run_modes_warnings.extend(modes_delta)
        state.run_model_warnings.extend(model_delta)
        if state.context is None:
            return built
        # Capture this predicate's registrations in insertion order.
        # Dedup rewrites names in place (no reinsertion), so slicing the
        # ordered dict view from names_start is exact for new entries;
        # a predicate is processed once, so all its entries are new.
        new_names = [
            (mode, name)
            for (ind, mode), name in list(state.version_names.items())[names_start:]
            if ind == indicator
        ]
        notes = [
            (mode, line)
            for (ind, mode, line) in state.report._log[log_start:]
            if ind == indicator
        ]
        state.context.store_build(
            indicator,
            CachedPredicateBuild(
                indicator=indicator,
                versions=list(built),
                version_names=new_names,
                notes=notes,
                report_warnings=list(state.report.warnings[warn_start:]),
                modes_warnings=modes_delta,
                model_warnings=model_delta,
                overrides=list(state.current_overrides),
            ),
        )
        return built

    # -- one predicate, from cache ----------------------------------------

    def _replay_cached(self, indicator: Indicator) -> Optional[List[ModeVersion]]:
        """Serve one predicate's versions from the context cache,
        replaying the side effects a fresh build would have had.
        Returns None on a miss (or when no context is attached)."""
        state = self.state
        if state.context is None:
            return None
        build = state.context.build_for(indicator)
        if build is None:
            return None
        for mode, name in build.version_names:
            state.version_names[(indicator, mode)] = name
        for mode, stats in build.overrides:
            state.model.override_stats(indicator, mode, stats)
        for mode, line in build.notes:
            state.report.note(indicator, mode, line)
        state.report.warnings.extend(build.report_warnings)
        state.run_modes_warnings.extend(build.modes_warnings)
        state.run_model_warnings.extend(build.model_warnings)
        return list(build.versions)
