"""Incremental micro-batch cleaning with mergeable profiles.

The batch pipeline (:mod:`repro.core`) answers "clean this table"; this
package answers "keep this table clean as rows keep arriving" — the
continuous-ingestion workload of the ROADMAP's production north-star:

* :mod:`repro.stream.engine` — :class:`StreamingCleaner`: prime once on the
  first micro-batch, then replay the cached per-column cleaning plan on
  every further batch with **zero LLM calls**;
* :mod:`repro.stream.state` — cross-batch replay of the table-level steps
  (duplicate removal, key uniqueness) with retraction support, mirroring the
  batch QUALIFY semantics exactly;
* :mod:`repro.stream.drift` — profile-distance drift detection over the
  per-column counts of :class:`~repro.profiling.mergeable.MergeableColumnProfile`
  against baselines frozen at plan time, triggering selective re-prompting
  of only the drifted columns;
* :mod:`repro.stream.service` — :class:`StreamService`: many streams on the
  shared :class:`~repro.service.pool.WorkerPool` with bounded-queue
  backpressure;
* :mod:`repro.stream.source` — micro-batch sources (table slices, chunked
  CSV reads, landing-directory tailing);
* :mod:`repro.stream.cli` — ``python -m repro.stream``.

Determinism: streaming a table in any micro-batch partitioning emits the
same cleaned cells as the whole-table pipeline while no drift fires (see
``tests/stream/test_parity.py``).
"""

from repro.stream.drift import ColumnDrift, DriftConfig, DriftDetector, profile_distance
from repro.stream.engine import StreamBatchResult, StreamStats, StreamingCleaner
from repro.stream.service import (
    ManagedStream,
    StreamBackpressure,
    StreamBatchJob,
    StreamService,
    StreamServiceStats,
)
from repro.stream.source import (
    DirectoryTailer,
    iter_csv_batches,
    iter_table_batches,
    partition_table,
    steady_state_stream,
)
from repro.stream.state import TableLevelState, table_level_survivors

__all__ = [
    "StreamingCleaner",
    "StreamBatchResult",
    "StreamStats",
    "StreamService",
    "StreamServiceStats",
    "StreamBatchJob",
    "StreamBackpressure",
    "ManagedStream",
    "DriftConfig",
    "DriftDetector",
    "ColumnDrift",
    "profile_distance",
    "TableLevelState",
    "table_level_survivors",
    "DirectoryTailer",
    "iter_csv_batches",
    "iter_table_batches",
    "partition_table",
    "steady_state_stream",
]
