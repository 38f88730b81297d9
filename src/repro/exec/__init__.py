"""Parallel execution engine: scheduled work units on one worker runtime.

Campaigns, chaos campaigns, ``(omega, I_TEC)`` sweeps, heat-map
batches, and LUT builds are all embarrassingly parallel; this package
decomposes them into picklable :class:`WorkUnit`\\ s (stage-grained for
campaigns) and runs them either serially in-process or on one resident,
supervised process pool (:class:`WorkerPool`) whose workers keep their
caches warm across runs.  Every path merges deterministically
(submission order) — parallel campaigns produce bit-identical JSON to
serial ones — and per-unit telemetry re-parents worker spans under the
coordinating trace.

See docs/PARALLELISM.md for the worker model, the determinism
contract, and the cache-locality story.
"""

from .journal import (
    JOURNAL_VERSION,
    JournalRecovery,
    JournalWriter,
    read_journal,
    unit_fingerprint,
)
from .pool import (
    START_METHOD_ENV,
    QuarantinedUnit,
    SupervisedOutcome,
    SupervisionPolicy,
    WorkerPool,
    WorkerPoolError,
)
from .scheduler import (
    CampaignMerge,
    WORKERS_ENV,
    chunk_sizes,
    default_chunk,
    evaluate_points,
    resolve_workers,
    run_campaign_units,
    run_oftec_units,
    run_units,
    run_units_supervised,
    solve_fields,
    worker_statistics,
)
from .units import UNIT_KINDS, UnitResult, WorkUnit, WorkerContext
from .workers import run_unit

__all__ = [
    "CampaignMerge",
    "JOURNAL_VERSION",
    "JournalRecovery",
    "JournalWriter",
    "QuarantinedUnit",
    "START_METHOD_ENV",
    "SupervisedOutcome",
    "SupervisionPolicy",
    "UNIT_KINDS",
    "UnitResult",
    "WORKERS_ENV",
    "WorkUnit",
    "WorkerContext",
    "WorkerPool",
    "WorkerPoolError",
    "chunk_sizes",
    "default_chunk",
    "evaluate_points",
    "read_journal",
    "resolve_workers",
    "run_campaign_units",
    "run_oftec_units",
    "run_unit",
    "run_units",
    "run_units_supervised",
    "solve_fields",
    "unit_fingerprint",
    "worker_statistics",
]
