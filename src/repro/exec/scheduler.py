"""The work-unit scheduler: fan out, run, merge deterministically.

The coordinator's half of the engine, and the only way campaigns,
sweeps, heat-map batches and LUT builds run at any worker count.  A
job is decomposed into :class:`~repro.exec.units.WorkUnit`\\ s, the
shared inputs are pickled once into a
:class:`~repro.exec.units.WorkerContext`, and the units run either
in-process (``workers <= 1``) or on a
:class:`~repro.exec.pool.WorkerPool` (``workers >= 2``).  A campaign
is one kind of unit — ``(benchmark, stages)`` — run by one executor
and reassembled by one merge (:func:`run_campaign_units`).  Three
properties the rest of the library leans on:

* **Deterministic merge.**  Results are slotted by unit index, and
  every unit is self-contained, so a campaign's merged output is
  bit-identical across worker counts, unit grains, scheduling orders,
  and start methods.
* **In-process fallback.**  An unpicklable context and a pool that
  fails to start or breaks mid-run finish the units in-process
  through the same worker shim, so no path needs a working
  ``multiprocessing`` to produce results.
* **Telemetry adoption.**  When the coordinator's telemetry is
  enabled, each unit runs under its own worker-side session and ships
  its spans/metrics home on its result.  The result the coordinator
  accepts is adopted once, under a per-unit ``unit`` span on the live
  tracer, so ``repro trace summarize`` sees one merged tree.

Worker count resolution: an explicit argument wins, then the
``REPRO_WORKERS`` environment variable, then 0 (in-process).  Inside a
worker — which inherits the coordinator's environment — resolution
always yields 0, so entry points reached from a unit body never nest
pools (see :func:`resolve_workers`).  The ``REPRO_START_METHOD``
environment variable (``fork``/``spawn``/``forkserver``) overrides the
platform's default start method; see docs/PARALLELISM.md for the
trade-offs.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.campaign import CAMPAIGN_STAGES, BenchmarkComparison
from ..core import CoolingProblem, FailureReport, ResiliencePolicy
from ..errors import ConfigurationError, SolverError
from ..faults.plan import FaultPlan
from ..obs import runtime as _obs
from . import workers as _workers
from .journal import JournalWriter
from .pool import (
    SupervisedOutcome,
    SupervisionPolicy,
    WorkerPool,
    WorkerPoolError,
)
from .units import UnitResult, WorkUnit, WorkerContext

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument, then environment, then 0.

    The returned count selects the execution path: ``0`` and ``1``
    run in-process (campaigns as units, the point/field/LUT entry
    points without any units), ``N >= 2`` runs units on a pool of N
    worker processes.

    Inside a worker (pool process or in-process run) the answer is always
    0: pool workers inherit ``REPRO_WORKERS`` from the coordinator's
    environment, and honoring it there would nest process pools (or
    re-enter the serial path) every time a unit internally calls a
    decomposed entry point such as
    :meth:`~repro.core.Evaluator.evaluate_many`.  Only the coordinator
    ever fans out.
    """
    if _workers.in_worker():
        return 0
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "").strip()
        if not text:
            return 0
        try:
            workers = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {text!r}")
    count = int(workers)
    if count < 0:
        raise ConfigurationError(
            f"worker count must be >= 0, got {count}")
    return count


def _pickled(context: WorkerContext) -> Optional[bytes]:
    """The context's payload, or None (and an event) if unpicklable."""
    try:
        return pickle.dumps(context)
    except Exception as exc:  # physlint: disable=RPR201
        # Broad by necessity: pickle.dumps reports unpicklability as
        # whatever the object's __reduce__ raises (TypeError,
        # AttributeError, PicklingError, ...), so no narrower tuple
        # covers the probe.  An unpicklable context (a policy or
        # leakage model holding a closure, say) cannot cross a process
        # boundary, but the serial path can still run it directly —
        # entry points that auto-engage on REPRO_WORKERS must not start
        # crashing merely because the env var is set.
        _obs.event("exec.pool_fallback", error=type(exc).__name__)
        return None


def _run_serial(context: WorkerContext, units: Sequence[WorkUnit],
                accept: Callable[[UnitResult], None],
                progress: Optional[Any] = None) -> None:
    """Execute units in-process through the worker shim.

    Re-entrant: the previously installed runtime (if any) is saved and
    restored around the run, so a nested :func:`run_units` call — a
    unit whose body reaches a decomposed entry point — degrades to
    serial execution instead of corrupting the enclosing run's state.
    """
    previous = _workers.install_runtime(context)
    try:
        for unit in units:
            if progress is not None:
                progress.unit_running(unit.name)
            result = _workers.run_unit(unit)
            # Accept first: the adopted telemetry must be live before
            # unit_done pumps the caller's telemetry streams.
            accept(result)
            if progress is not None:
                progress.unit_done(unit.name, result.wall_seconds,
                                   ok=result.ok)
    finally:
        _workers.restore_runtime(previous)


def adopt_unit_telemetry(result: UnitResult) -> None:
    """Graft one accepted unit's telemetry onto the live trace.

    Creates a ``unit`` span on the live tracer whose extent is the
    unit's worker wall time (ending now), adopts the worker's exported
    span records under it with their clocks shifted to the unit span's
    origin, and folds the worker's metrics snapshot into the live
    registry.  The records are then dropped from the result (also
    while telemetry is disabled), so no unit is adopted twice and
    journals stay small.
    """
    if _obs.STATE.enabled:
        tracer = _obs.STATE.tracer
        unit_span = tracer.start_span("unit", result.name,
                                      index=result.index,
                                      worker_pid=result.stats.get("pid"))
        tracer.end_span(unit_span)
        if unit_span.end_s is not None:
            unit_span.start_s = max(
                unit_span.end_s - result.wall_seconds, 0.0)
        if result.spans:
            tracer.adopt_records(result.spans, parent=unit_span,
                                 time_offset=unit_span.start_s)
        if result.metrics:
            _obs.STATE.metrics.merge_snapshot(result.metrics)
    result.spans = None
    result.metrics = None


def run_units(context: WorkerContext, units: Sequence[WorkUnit],
              workers: int,
              progress: Optional[Any] = None,
              pool: Optional[WorkerPool] = None) -> List[UnitResult]:
    """Run units on ``workers`` processes; merge in submission order.

    ``workers <= 1`` (or a single unit, or a call issued from inside a
    worker) executes serially in-process.  Otherwise the units run on
    ``pool``, or on a :class:`~repro.exec.WorkerPool` of
    ``min(workers, len(units))`` processes opened and closed around the
    call.  A context that fails to pickle, or a pool that cannot start
    or breaks mid-run, records an ``exec.pool_fallback`` event and
    finishes the remaining units serially; the units are pure
    functions of the context, so the results are the same.  An
    explicit ``pool`` fans out even at one worker: its resident process
    holds the warm caches the caller paid for.

    ``progress`` (a :class:`~repro.obs.ProgressBoard`, or anything
    with its hook methods) receives ``begin``/``unit_running``/
    ``unit_done`` as units move, plus ``live_metrics`` snapshots from
    pool workers.
    """
    units = list(units)
    if progress is not None:
        progress.begin(len(units))
    done: Dict[int, UnitResult] = {}

    def accept(result: UnitResult) -> None:
        done[result.index] = result
        adopt_unit_telemetry(result)

    fan_out = (workers > 1 or pool is not None) and len(units) > 1 \
        and not _workers.in_worker()
    payload = _pickled(context) if fan_out else None
    if payload is not None:
        active = pool if pool is not None \
            else WorkerPool(min(workers, len(units)))
        try:
            active.run_payload(payload, units, progress=progress,
                               accept=accept)
        except WorkerPoolError as exc:
            _obs.event("exec.pool_fallback", error=type(exc).__name__)
        finally:
            if pool is None:
                active.close()
    # In-process units run on the caller's own context, so the
    # templates' operator caches and counters warm exactly as the
    # caller's next solve will see them.
    remaining = [unit for unit in units if unit.index not in done]
    _run_serial(context, remaining, accept, progress)
    return [done[unit.index] for unit in units]


def run_units_supervised(
    context: WorkerContext,
    units: Sequence[WorkUnit],
    workers: int,
    policy: Optional[SupervisionPolicy] = None,
    journal: Optional[JournalWriter] = None,
    completed: Optional[Mapping[int, UnitResult]] = None,
    monitor: Optional[Any] = None,
) -> SupervisedOutcome:
    """Run units under supervision; never raises for worker death.

    The supervised counterpart of :func:`run_units`: same
    submission-order merge and bit-identical results, but worker
    crashes, hangs, and slowdowns are absorbed by retries and — past
    ``policy.max_attempts`` — quarantine (see
    :class:`~repro.exec.pool.WorkerPool`).  ``journal`` durably
    records every completed unit; ``completed`` (from
    :func:`repro.exec.read_journal`) pre-seeds results so a resumed
    campaign skips finished work.  ``workers < 2`` runs the units
    serially with journaling (nothing to supervise in-process), as does
    the remainder of a run whose circuit breaker opened.  Process-level
    faults never fire in-process: there is no worker to kill that is
    not also the coordinator (:func:`repro.faults.run_chaos_campaign`
    refuses such plans below two workers).

    ``monitor`` (a :class:`~repro.obs.ProgressBoard`, or anything with
    its hook methods) receives the unit lifecycle — including
    supervision-only states (``unit_retrying``, ``unit_quarantined``)
    — plus ``live_metrics`` snapshots streamed mid-run from workers.
    """
    policy = policy or SupervisionPolicy()
    seeded = dict(completed or {})
    outcome = SupervisedOutcome(
        results=[seeded.get(unit.index) for unit in units])
    position = {unit.index: pos for pos, unit in enumerate(units)}
    pending = [unit for unit in units if unit.index not in seeded]
    if not pending:
        return outcome
    if monitor is not None:
        monitor.begin(len(pending))

    def accept(result: UnitResult) -> None:
        outcome.results[position[result.index]] = result
        if journal is not None:
            journal.append(result)
        adopt_unit_telemetry(result)

    payload = _pickled(context)
    if payload is not None and workers >= 2 \
            and not _workers.in_worker():
        with WorkerPool(
                min(workers, len(pending)),
                heartbeat_timeout_seconds=policy.heartbeat_timeout_seconds,
                heartbeat_interval_seconds=(
                    policy.heartbeat_interval_seconds)) as pool:
            run = pool.run_supervised(
                payload, pending, policy, fault_plan=context.fault_plan,
                progress=monitor, accept=accept)
        outcome.quarantined = run.quarantined
        outcome.retries = run.retries
        outcome.replacements = run.replacements
        outcome.process_fired = run.process_fired
        outcome.circuit_opened = run.circuit_opened
    quarantined = {entry.index for entry in outcome.quarantined}
    remaining = [unit for unit in pending
                 if outcome.results[position[unit.index]] is None
                 and unit.index not in quarantined]
    _run_serial(context, remaining, accept, monitor)
    return outcome


def worker_statistics(results: Sequence[UnitResult]) -> Dict[str, Any]:
    """Aggregate per-unit stats into per-worker cache-locality totals.

    Returns ``{"per_worker": [...], "units": [...]}`` where each
    per-worker entry sums the operator counters of every unit that
    process executed — the numbers that show each worker's factor
    cache warming once and then serving its whole share of the job.
    """
    per_worker: Dict[Any, Dict[str, Any]] = {}
    unit_rows: List[Dict[str, Any]] = []
    for result in results:
        pid = result.stats.get("pid")
        row = {
            "unit": result.name,
            "pid": pid,
            "wall_seconds": result.wall_seconds,
            "solves": int(result.stats.get("solves") or 0),
            "factorizations": int(
                result.stats.get("factorizations") or 0),
            "factor_cache_hits": int(
                result.stats.get("factor_cache_hits") or 0),
            "adjoint_solves": int(
                result.stats.get("adjoint_solves") or 0),
        }
        unit_rows.append(row)
        entry = per_worker.setdefault(pid, {
            "pid": pid, "units": 0, "wall_seconds": 0.0,
            "solves": 0, "factorizations": 0,
            "factor_cache_hits": 0, "adjoint_solves": 0})
        entry["units"] += 1
        entry["wall_seconds"] += result.wall_seconds
        for key in ("solves", "factorizations", "factor_cache_hits",
                    "adjoint_solves"):
            entry[key] += row[key]
    ordered = sorted(per_worker.values(),
                     key=lambda e: (e["pid"] is None, e["pid"]))
    return {"per_worker": ordered, "units": unit_rows}


# -- campaign decomposition -----------------------------------------------


@dataclass
class CampaignMerge:
    """The deterministic merge of a campaign's units.

    Attributes:
        comparisons: Successful per-benchmark comparisons, in
            submission (= profile) order.
        failures: Structured failure reports, in pipeline order per
            benchmark, for every unit grain.
        errors: ``(benchmark, stage, error_type, message)`` for every
            unit whose pipeline failed terminally.
        fired: Total fault fires per kind value (chaos runs; includes
            process-level kinds under supervision).
        unhandled: Non-library exception lines from workers (the chaos
            contract requires this to stay empty).
        crashed: ``(unit_label, attempts, message)`` for every
            unhandled line, so a :class:`~repro.errors.WorkerCrashError`
            can name the benchmark that died and how many attempts it
            consumed.
        worker_stats: :func:`worker_statistics` of the run.
        quarantined: Supervised runs only — units that exhausted their
            retry budget (:class:`~repro.exec.QuarantinedUnit`).
        retries: Supervised runs only — attempts beyond the first.
        circuit_opened: Supervised runs only — True when the run
            degraded to the serial path.
    """

    comparisons: List[Any] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    errors: List[Tuple[str, str, str, str]] = field(
        default_factory=list)
    fired: Dict[str, int] = field(default_factory=dict)
    unhandled: List[str] = field(default_factory=list)
    crashed: List[Tuple[str, int, str]] = field(default_factory=list)
    worker_stats: Dict[str, Any] = field(default_factory=dict)
    quarantined: List[Any] = field(default_factory=list)
    retries: int = 0
    circuit_opened: bool = False


def run_campaign_units(
    profiles: Mapping[str, Any],
    tec_template: CoolingProblem,
    baseline_template: CoolingProblem,
    method: str,
    include_tec_only: bool,
    resilient: bool,
    policy: Optional[ResiliencePolicy],
    fault_plan: Optional[FaultPlan],
    workers: int,
    supervision: Optional[Any] = None,
    journal: Optional[Any] = None,
    completed: Optional[Mapping[int, UnitResult]] = None,
    jac: str = "analytic",
    progress: Optional[Any] = None,
    pool: Optional[WorkerPool] = None,
) -> CampaignMerge:
    """Run a campaign as ``campaign`` units and merge them.

    Grain rule: a unit holds one pipeline stage
    (:data:`repro.analysis.campaign.CAMPAIGN_STAGES`) only when it runs
    on a pool (``workers >= 2`` or an explicit ``pool``) with no
    ``fault_plan`` and no supervision or journal — six times the grain
    of whole benchmarks, which is what lets the scheduler keep every
    worker busy while one benchmark's OFTEC stage dominates.  In every
    other case a unit holds a whole benchmark: in-process there is
    nothing to balance, a fault plan's per-benchmark injector spans
    all stages, and journal records and retry bookkeeping are keyed to
    benchmark units.  The problem templates travel once per worker on
    the context either way.  ``supervision`` (a
    :class:`~repro.exec.SupervisionPolicy`), ``journal`` (a
    :class:`~repro.exec.JournalWriter`), or ``completed`` (journaled
    results keyed by unit index) route the units through
    :func:`run_units_supervised` — worker death becomes
    retries/quarantine instead of a raise, and completed units are
    skipped.  ``pool`` is passed to :func:`run_units`.  The caller owns
    the surrounding span and the result assembly — this function
    returns the raw merge.
    """
    context = WorkerContext(
        tec_template=tec_template,
        baseline_template=baseline_template,
        profiles=dict(profiles),
        method=method,
        jac=jac,
        include_tec_only=include_tec_only,
        resilient=resilient,
        policy=policy,
        fault_plan=fault_plan,
        telemetry=_obs.STATE.enabled)
    supervised = supervision is not None or journal is not None \
        or bool(completed)
    staged = (workers >= 2 or pool is not None) \
        and fault_plan is None and not supervised
    stages = tuple(stage for stage in CAMPAIGN_STAGES
                   if include_tec_only or stage != "tec-only")
    carried = [(stage,) for stage in stages] if staged else [stages]
    units: List[WorkUnit] = []
    for name in profiles:
        for group in carried:
            units.append(WorkUnit(
                index=len(units), kind="campaign",
                name=f"{name}/{group[0]}" if staged else name,
                params=(name, group)))
    merge = CampaignMerge()
    if supervised:
        outcome = run_units_supervised(
            context, units, workers, policy=supervision,
            journal=journal, completed=completed, monitor=progress)
        results = outcome.completed
        merge.quarantined = list(outcome.quarantined)
        merge.retries = outcome.retries
        merge.circuit_opened = outcome.circuit_opened
        merge.fired = dict(outcome.process_fired)
    else:
        results = run_units(context, units, workers,
                            progress=progress, pool=pool)
    merge.worker_stats = worker_statistics(results)
    if pool is not None:
        merge.worker_stats["pool"] = pool.stats()
    if supervised:
        merge.worker_stats["supervision"] = {
            "retries": merge.retries,
            "replacements": outcome.replacements,
            "quarantined": len(merge.quarantined),
            "circuit_opened": merge.circuit_opened,
            "process_faults_fired": dict(
                sorted(outcome.process_fired.items())),
        }
    _merge_campaign(merge, units, results)
    return merge


def _merge_campaign(merge: CampaignMerge, units: Sequence[WorkUnit],
                    results: Sequence[UnitResult]) -> None:
    """Reassemble campaign units into per-benchmark comparisons.

    Walks each benchmark's units in pipeline order, whichever grain
    carries its stages, and *stops at the first unit that errored,
    crashed, or never came home* (quarantined), dropping later units
    outright — those stages never ran in a whole-benchmark unit, so
    admitting their failures or values would make the merge depend on
    the grain.  A benchmark whose stages all completed yields a
    :class:`~repro.analysis.campaign.BenchmarkComparison`.
    """
    by_index = {result.index: result for result in results}
    for name, group in itertools.groupby(
            units, key=lambda unit: unit.params[0]):
        values: Dict[str, Any] = {}
        for unit in group:
            result = by_index.get(unit.index)
            if result is None:
                break
            merge.failures.extend(result.failures)
            for kind, count in result.fired.items():
                merge.fired[kind] = merge.fired.get(kind, 0) + count
            if result.unhandled:
                merge.unhandled.extend(result.unhandled)
                merge.crashed.extend((result.name, 1, line)
                                     for line in result.unhandled)
                break
            if result.error is not None:
                merge.errors.append((name, *result.error))
                break
            values.update(result.value)
        else:
            merge.comparisons.append(BenchmarkComparison(
                name=name,
                oftec_opt1=values["oftec-opt1"],
                oftec_opt2=values["oftec-opt2"],
                variable_opt1=values["variable-opt1"],
                variable_opt2=values["variable-opt2"],
                fixed=values["fixed-omega"],
                tec_only=values.get("tec-only")))


# -- point/field fan-out --------------------------------------------------


def chunk_sizes(point_count: int, chunk: int) -> List[int]:
    """Balanced per-unit sizes for slicing ``point_count`` points.

    Same unit count as fixed-size ``chunk`` slicing
    (``ceil(count / chunk)``), but the remainder is spread across
    units instead of stranded in one runt: 17 points at chunk 8 become
    ``[6, 6, 5]``, not ``[8, 8, 1]`` — the naive tail chunk turns into
    idle workers at the end of every fan-out.  Exact multiples are
    untouched, so chunk-aligned layouts (sweep rows) keep their exact
    sizes.
    """
    if point_count <= 0:
        return []
    if chunk < 1:
        raise ConfigurationError(
            f"chunk size must be >= 1, got {chunk}")
    unit_count = math.ceil(point_count / chunk)
    base, extra = divmod(point_count, unit_count)
    return [base + 1] * extra + [base] * (unit_count - extra)


def _chunk_units(points: Sequence[Tuple[float, float]], kind: str,
                 chunk: int) -> List[WorkUnit]:
    units = []
    start = 0
    for index, size in enumerate(chunk_sizes(len(points), chunk)):
        units.append(WorkUnit(
            index=index, kind=kind, name=f"chunk-{index}",
            params=tuple(points[start:start + size])))
        start += size
    return units


def default_chunk(point_count: int, workers: int) -> int:
    """Chunk size targeting ~4 units per worker.

    Enough grain for the scheduler to rebalance when units run at
    different speeds, small enough dispatch overhead stays amortized.
    Derived from a unit-count target (``4 * workers``, capped at the
    point count) rather than naive division, so awkward counts do not
    produce a pathological runt unit — and
    :func:`chunk_sizes` balances whatever remainder is left.
    """
    if point_count <= 0:
        return 1
    target_units = min(point_count, 4 * max(workers, 1))
    return max(1, math.ceil(point_count / target_units))


def evaluate_points(
    problem: CoolingProblem,
    points: Sequence[Tuple[float, float]],
    workers: int,
    chunk: Optional[int] = None,
    progress: Optional[Any] = None,
) -> List[Any]:
    """Evaluate ``(omega, I)`` points by fanning chunks across workers.

    Pure fan-out: each chunk is evaluated by a fresh worker-side
    evaluator, so the returned evaluations are independent of chunk
    boundaries and worker count.  Only valid for problems where the
    evaluator's batched path applies (leakage-free, base-class solve);
    callers gate on :meth:`Evaluator._batchable`-equivalent conditions.
    """
    points = [(float(omega), float(current))
              for omega, current in points]
    if not points:
        return []
    if chunk is None:
        chunk = default_chunk(len(points), workers)
    context = WorkerContext(point_problem=problem,
                            telemetry=_obs.STATE.enabled)
    units = _chunk_units(points, "points", chunk)
    results = run_units(context, units, workers, progress=progress)
    evaluations: List[Any] = []
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel evaluation failed in {stage} unit "
                f"{result.name}: {error_type}: {message}")
        evaluations.extend(result.value)
    return evaluations


def solve_fields(
    model: Any,
    points: Sequence[Tuple[float, float]],
    dynamic_cell_power: Any,
    leakage: Any,
    workers: int,
    chunk: Optional[int] = None,
    progress: Optional[Any] = None,
) -> List[Any]:
    """Temperature fields at many points, fanned across workers.

    The parallel backend of
    :func:`repro.analysis.temperature_fields`; entries are per-cell
    chip temperatures in K, or None where the point ran away, in
    input order.

    Args:
        model: Package thermal model to solve against.
        points: ``(omega, current)`` pairs — fan speed in rad/s, TEC
            current in A.
        dynamic_cell_power: Per-cell dynamic power, W.
        leakage: Optional cell leakage model (None for leakage-free).
        workers: Worker process count (>= 1).
        chunk: Points per work unit (default :func:`default_chunk`).
    """
    points = [(float(omega), float(current))
              for omega, current in points]
    if not points:
        return []
    if chunk is None:
        chunk = default_chunk(len(points), workers)
    context = WorkerContext(
        field_model=model,
        field_power=dynamic_cell_power,
        field_leakage=leakage,
        telemetry=_obs.STATE.enabled)
    units = _chunk_units(points, "fields", chunk)
    results = run_units(context, units, workers, progress=progress)
    fields: List[Any] = []
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel field solve failed in unit {result.name}: "
                f"{error_type}: {message}")
        fields.extend(result.value)
    return fields


def run_oftec_units(
    template: CoolingProblem,
    profiles: Mapping[str, Mapping[str, float]],
    method: str,
    workers: int,
    jac: str = "analytic",
) -> Dict[str, Any]:
    """OFTEC per representative profile (LUT precompute), in parallel.

    Returns label -> :class:`~repro.core.OFTECResult` in profile
    order.
    """
    context = WorkerContext(
        oftec_template=template,
        oftec_profiles={label: dict(powers)
                        for label, powers in profiles.items()},
        method=method,
        jac=jac,
        telemetry=_obs.STATE.enabled)
    units = [WorkUnit(index=index, kind="oftec", name=label)
             for index, label in enumerate(profiles)]
    results = run_units(context, units, workers)
    table: Dict[str, Any] = {}
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel OFTEC failed for {result.name!r}: "
                f"{error_type}: {message}")
        table[result.name] = result.value
    return table


__all__ = [
    "CampaignMerge",
    "WORKERS_ENV",
    "adopt_unit_telemetry",
    "chunk_sizes",
    "default_chunk",
    "evaluate_points",
    "resolve_workers",
    "run_campaign_units",
    "run_oftec_units",
    "run_units",
    "run_units_supervised",
    "solve_fields",
    "worker_statistics",
]
