"""The staged reordering pipeline.

``reorder/system.py`` used to be a 900-line monolith running all steps
inline; this package splits it into plain functions over a shared
:class:`PipelineState` (whole-program steps in :mod:`.phases`, the
per-predicate version build in :mod:`.build`), run in order by
:class:`ReorderPipeline`, with an incremental :class:`AnalysisContext`
caching analyses and per-predicate builds across runs. ``Reorderer``
(in :mod:`repro.reorder.system`) survives as the thin facade everyone
imports. See docs/REORDER_PIPELINE.md.
"""

from .context import ANALYSIS_STAGES, AnalysisContext, CachedPredicateBuild
from .runner import PipelineState, ReorderPipeline
from .types import ModeVersion, ReorderOptions, ReorderReport, ReorderedProgram

__all__ = [
    "ANALYSIS_STAGES",
    "AnalysisContext",
    "CachedPredicateBuild",
    "ModeVersion",
    "PipelineState",
    "ReorderOptions",
    "ReorderPipeline",
    "ReorderReport",
    "ReorderedProgram",
]
