"""Analyses reproducing the paper's evaluation (§4).

Each ``tableN``/``figure3`` module computes one published artifact
from a :class:`~repro.crawler.dataset.StudyDataset`; ``classify``
applies the derived A&A labels to socket records; ``blocking`` runs
the §4.2 post-hoc filter-list analysis; ``stats`` computes the §4.1
prose statistics; ``report`` renders fixed-width text tables.

The streaming layer (:mod:`repro.analysis.engine`) folds every stage
accumulator (:mod:`repro.analysis.stage`) in one O(views) sweep,
restoring each dataset slice's per-stage state from the
content-addressed cache (:mod:`repro.analysis.cache`) where it can, so
only uncached slices are folded; every run finalizes.
Underscore-prefixed modules (``repro.analysis._codecs``) are
package-private — importing them from outside ``repro.analysis`` trips
the ``API-PRIVATE`` lint.
"""

from repro.analysis.blocking import BlockingStats, compute_blocking_stats
from repro.analysis.cache import StageCache, labeler_fingerprint
from repro.analysis.classify import SocketView, classify_sockets
from repro.analysis.drift import (
    InitiatorDrift,
    compute_initiator_drift,
    render_drift,
)
from repro.analysis.engine import (
    AnalysisEngine,
    AnalysisResult,
    DatasetSource,
    fold_shard,
    merge_stage_lists,
)
from repro.analysis.figure3 import Figure3Series, compute_figure3
from repro.analysis.stage import (
    AnalysisStage,
    StageContext,
    default_stages,
    register_stage,
    registered_stages,
    study_stages,
)
from repro.analysis.stats import OverallStats, compute_overall_stats
from repro.analysis.table1 import Table1Row, compute_table1
from repro.analysis.table2 import Table2Row, compute_table2
from repro.analysis.table3 import Table3Row, compute_table3
from repro.analysis.table4 import Table4, Table4Row, compute_table4
from repro.analysis.table5 import Table5, compute_table5
from repro.crawler.persistence import SegmentSlice

__all__ = [
    # Classification.
    "SocketView",
    "classify_sockets",
    # The streaming engine and stage protocol.
    "AnalysisEngine",
    "AnalysisResult",
    "AnalysisStage",
    "DatasetSource",
    "SegmentSlice",
    "StageCache",
    "StageContext",
    "default_stages",
    "fold_shard",
    "labeler_fingerprint",
    "merge_stage_lists",
    "register_stage",
    "registered_stages",
    "study_stages",
    # Materialized per-artifact entry points.
    "Table1Row",
    "compute_table1",
    "Table2Row",
    "compute_table2",
    "Table3Row",
    "compute_table3",
    "Table4",
    "Table4Row",
    "compute_table4",
    "Table5",
    "compute_table5",
    "Figure3Series",
    "compute_figure3",
    "BlockingStats",
    "compute_blocking_stats",
    "OverallStats",
    "compute_overall_stats",
    "InitiatorDrift",
    "compute_initiator_drift",
    "render_drift",
]
