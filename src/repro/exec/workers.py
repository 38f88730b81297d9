"""The code that runs inside worker processes.

Every pool worker runs :func:`worker_main`, the one worker loop of the
engine.  It installs the pickled
:class:`~repro.exec.units.WorkerContext` the coordinator broadcasts,
then executes :class:`~repro.exec.units.WorkUnit`\\ s through
:func:`run_unit` against the worker's *own* lazily built evaluators and
thermal operators.  That locality is the whole point: the splu factor
cache on each problem template's model warms once per worker and then
serves every subsequent unit, so N workers pay N cold starts, not one
per unit.

Nothing in :func:`run_unit` assumes a separate process.  The
coordinator's in-process path (``workers <= 1``) calls
:func:`install_runtime`/:func:`run_unit` directly (leaving its
telemetry state alone), which is also what makes the shim trivially
testable.

Failure discipline is the same in and out of process: library errors
(:class:`~repro.errors.ReproError`) become structured
:class:`~repro.core.FailureReport` entries plus a picklable
``(stage, type, message)`` tag.  Original exception objects never cross
the process boundary, because subclasses with extra constructor
arguments do not survive unpickling.  Non-library exceptions are
recorded on :attr:`UnitResult.unhandled` (the chaos contract) for the
coordinator to judge.
"""

from __future__ import annotations

import functools
import os
import pickle
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..analysis.campaign import _StageFailure, run_campaign_stage
from ..core import (
    CoolingProblem,
    Evaluator,
    failure_report_from_exception,
    run_oftec,
)
from ..errors import ConfigurationError, ReproError
from ..faults.inject import FaultInjector, FaultyEvaluator
from ..faults.plan import FaultKind, process_fault_decision
from ..obs import runtime as _obs
from ..obs.clock import monotonic, stopwatch
from ..obs.export import span_to_dict
from ..thermal import SteadyStateResult, solve_steady_state_batch
from .units import UnitResult, WorkUnit, WorkerContext

#: Exit code a worker dies with when a ``worker-kill`` fault fires —
#: distinguishable from real crashes in the quarantine post-mortems.
KILL_EXIT_CODE = 113

#: Stall injected by a ``worker-slow`` fault before the unit runs (s).
#: Long enough to be visible next to the heartbeat interval, short
#: enough never to threaten a sane deadline.
SLOW_FAULT_DELAY_S = 0.25

#: Seconds between live metric snapshots published by workers (see
#: :func:`start_live_metrics`).
LIVE_METRICS_PERIOD_S = 0.5


class _WorkerRuntime:
    """Per-process state: the unpickled context and derived handles."""

    __slots__ = ("context",)

    def __init__(self, context: WorkerContext):
        self.context = context


#: The installed runtime (rebound, never mutated, by
#: :func:`install_runtime`).  None until a context is installed.
_RUNTIME: Optional[_WorkerRuntime] = None


def in_worker() -> bool:
    """True while a worker context is installed.

    This is the nested-fan-out guard: while it holds, implicit
    (environment-driven) worker resolution stays serial, so a unit
    that internally calls :meth:`~repro.core.Evaluator.evaluate_many`
    or another decomposed entry point can never spawn a pool inside a
    pool worker — or, through the serial path, clobber the enclosing
    run's state.  True for the lifetime of a pool worker process and
    for the duration of a serial run.
    """
    return _RUNTIME is not None


def install_runtime(context: WorkerContext,
                    ) -> Optional[_WorkerRuntime]:
    """Install a context object; return the displaced runtime.

    The return value is the previous runtime (None when there was
    none), to be handed back to :func:`restore_runtime` — the
    save/restore pair that makes the serial path safely nestable.
    """
    # _RUNTIME is *deliberately* per-process: it IS the worker-local
    # runtime that in_worker() reads, installed by worker_main in each
    # child.  Nothing merges back by design.
    global _RUNTIME  # physlint: disable=RPR602
    previous = _RUNTIME
    _RUNTIME = _WorkerRuntime(context)
    return previous


def restore_runtime(previous: Optional[_WorkerRuntime]) -> None:
    """Reinstate the runtime displaced by :func:`install_runtime`."""
    global _RUNTIME
    _RUNTIME = previous


def start_live_metrics(slot: int, result_queue: Any,
                       period: float = LIVE_METRICS_PERIOD_S,
                       ) -> threading.Event:
    """Publish periodic metric snapshots from a worker.

    Starts a daemon thread that, every ``period`` seconds while the
    worker's telemetry session is active, snapshots the worker-local
    metrics registry and puts a ``("live", slot, snapshot)`` message on
    ``result_queue``.  The coordinator feeds it to the live progress
    board, so cache hit rates update *during* long units instead of
    only at unit completion.  Returns the stop event; setting it ends
    the thread at the next period boundary.

    Best-effort by design: a full queue drops the snapshot (the next
    one supersedes it anyway) and a snapshot torn by a concurrent
    update is skipped.  The publisher must never stall or crash the
    unit it is narrating.
    """
    stop = threading.Event()

    def _loop() -> None:
        while not stop.wait(period):
            if not _obs.STATE.enabled:
                continue
            try:
                snapshot = _obs.get_metrics().snapshot()
            except Exception:  # physlint: disable=RPR201
                # The worker's main thread mutates the registry while
                # we snapshot it; any torn read (dict-changed-size,
                # transient inconsistency) just skips this period.
                continue
            try:
                result_queue.put_nowait(("live", slot, snapshot))
            except queue_module.Full:
                continue

    thread = threading.Thread(target=_loop,
                              name=f"repro-live-metrics-{slot}",
                              daemon=True)
    thread.start()
    return stop


def _heartbeat_loop(slot: int, heartbeats: Any, interval: float,
                    silenced: threading.Event, parent: int) -> None:
    """Worker-side daemon: bump the shared slot until silenced.

    Also ends the worker once its coordinator is gone: a coordinator
    killed with SIGKILL stops no workers, and an orphan would otherwise
    block on its task queue forever.
    """
    while not silenced.is_set():
        if os.getppid() != parent:
            os._exit(0)
        with heartbeats.get_lock():
            heartbeats[slot] += 1.0
        silenced.wait(interval)


def worker_main(slot: int, task_queue: Any, result_queue: Any,
                heartbeats: Any, interval: float) -> None:
    """Entry point of every worker process.

    Serves three messages until the ``None`` sentinel:

    * ``("install", digest, payload)`` unpickles and installs a new
      context.  A ``None`` payload is a reuse token: the worker keeps
      its installed context, and with it every warm cache.  A failed
      install or a reuse token for a context the worker does not hold
      raises, so the worker dies and the coordinator sees a dead slot.
    * ``("unit", unit, attempt)`` runs one unit and replies
      ``("result", slot, attempt, result)``.  Process-level faults from
      the context's plan are decided here, per (unit label, attempt),
      before the unit runs; the coordinator recomputes every decision
      without a side channel.  Attempt 0 marks an unsupervised
      dispatch, on which no process-level fault ever fires.

    A daemon thread bumps the slot's shared heartbeat counter (and
    ends the worker if the coordinator dies), and a second one
    publishes live metric snapshots (see :func:`start_live_metrics`).
    """
    _obs.reset()
    silenced = threading.Event()
    threading.Thread(target=_heartbeat_loop,
                     args=(slot, heartbeats, interval, silenced,
                           os.getppid()),
                     daemon=True).start()
    live_stop = start_live_metrics(slot, result_queue)
    digest: Optional[str] = None
    while True:
        item = task_queue.get()
        if item is None:
            silenced.set()
            live_stop.set()
            return
        if item[0] == "install":
            _, wanted, payload = item
            if payload is not None:
                install_runtime(pickle.loads(payload))
            elif digest != wanted or not in_worker():
                raise ConfigurationError(
                    f"worker {slot} holds no context {wanted}")
            digest = wanted
            continue
        _, unit, attempt = item
        fault = process_fault_decision(_RUNTIME.context.fault_plan,
                                       unit.name, attempt)
        if fault is FaultKind.WORKER_KILL:
            os._exit(KILL_EXIT_CODE)
        if fault is FaultKind.WORKER_HANG:
            # A real hang takes the heartbeat with it (a deadlocked
            # process beats no drums); silencing the thread makes the
            # injected hang indistinguishable from one.
            silenced.set()
            while True:
                time.sleep(interval)
        if fault is FaultKind.WORKER_SLOW:
            time.sleep(SLOW_FAULT_DELAY_S)
        try:
            result = run_unit(unit)
        except Exception as exc:  # physlint: disable=RPR201
            # Broad by contract: run_unit already packages library
            # errors, so anything landing here is outside the library
            # contract.  It becomes a failed result the coordinator can
            # report precisely; raising would kill the worker instead.
            result = UnitResult(index=unit.index, name=unit.name)
            result.unhandled.append(f"{type(exc).__name__}: {exc}")
        result_queue.put(("result", slot, attempt, result))


def run_unit(unit: WorkUnit) -> UnitResult:
    """Execute one work unit and package everything the merge needs.

    When the context asks for telemetry the unit runs under its own
    :func:`~repro.obs.telemetry_session`; the finished spans and a
    metrics snapshot ride home on the result for the coordinator to
    adopt (see :meth:`repro.obs.Tracer.adopt_records`).
    """
    runtime = _RUNTIME
    if runtime is None:
        raise ConfigurationError(
            "worker runtime not initialized; install_runtime() must run "
            "before run_unit()")
    context = runtime.context
    result = UnitResult(index=unit.index, name=unit.name)
    start = monotonic()
    if context.telemetry:
        with _obs.telemetry_session() as (tracer, metrics):
            _execute(context, unit, result)
            result.spans = [span_to_dict(span)
                            for span in tracer.finished]
            result.metrics = metrics.snapshot()
    else:
        _execute(context, unit, result)
    result.wall_seconds = monotonic() - start
    result.stats["pid"] = os.getpid()
    result.stats["wall_seconds"] = result.wall_seconds
    return result


def _execute(context: WorkerContext, unit: WorkUnit,
             result: UnitResult) -> None:
    if unit.kind == "campaign":
        _execute_campaign(context, unit, result)
    elif unit.kind == "points":
        _execute_points(context, unit, result)
    elif unit.kind == "fields":
        _execute_fields(context, unit, result)
    else:
        _execute_oftec(context, unit, result)


def _operator_deltas(result: UnitResult, befores, afters) -> None:
    """Record the unit's operator-counter deltas on ``result.stats``."""
    result.stats["solves"] = sum(
        a.solves - b.solves for b, a in zip(befores, afters))
    result.stats["factorizations"] = sum(
        a.factorizations - b.factorizations
        for b, a in zip(befores, afters))
    result.stats["factor_cache_hits"] = sum(
        a.cache_hits - b.cache_hits for b, a in zip(befores, afters))
    result.stats["adjoint_solves"] = sum(
        a.adjoint_solves - b.adjoint_solves
        for b, a in zip(befores, afters))


def _execute_campaign(context: WorkerContext, unit: WorkUnit,
                      result: UnitResult) -> None:
    """Some pipeline stages of one campaign benchmark, in order.

    ``unit.params`` is ``(benchmark, stages)``.  Each stage runs through
    :func:`repro.analysis.campaign.run_campaign_stage` — the same thunk,
    fresh evaluator and span for every grain — and the first stage that
    fails stops the unit, so later stages never run.  The value is a
    ``{stage: result}`` dict the coordinator's merge reassembles.
    Under a fault plan the unit's evaluators share one injector derived
    from the benchmark name, so the fault stream depends only on (root
    seed, benchmark), never on which worker runs the unit or in what
    order.
    """
    benchmark, stages = unit.params
    if context.tec_template is None or context.profiles is None:
        raise ConfigurationError(
            "campaign units need tec/baseline templates and profiles "
            "on the worker context")
    profile = context.profiles[benchmark]
    tec_problem = context.tec_template.with_profile(profile,
                                                    name=benchmark)
    base_problem = context.baseline_template.with_profile(
        profile, name=benchmark)
    injector: Optional[FaultInjector] = None
    make: Callable[[CoolingProblem], Evaluator] = Evaluator
    if context.fault_plan is not None:
        injector = FaultInjector(context.fault_plan.derive(benchmark))
        make = functools.partial(FaultyEvaluator, injector=injector)
    operators = (tec_problem.model.network.operator,
                 base_problem.model.network.operator)
    befores = tuple(op.stats for op in operators)
    values: Dict[str, Any] = {}
    try:
        # One benchmark span per unit, so every stage span keeps its
        # benchmark ancestry after telemetry adoption.
        with _obs.span("benchmark", benchmark), \
                stopwatch("campaign.benchmark_seconds"):
            for stage in stages:
                values[stage] = run_campaign_stage(
                    stage, benchmark, tec_problem, base_problem,
                    context.method, make, context.resilient,
                    context.policy, result.failures, jac=context.jac)
        result.value = values
    except _StageFailure as failure:
        result.failures.append(failure_report_from_exception(
            benchmark, failure.stage, failure.error))
        result.error = (failure.stage,
                        type(failure.error).__name__,
                        str(failure.error))
    except Exception as exc:  # physlint: disable=RPR201
        # Deliberately broader than ReproError: library errors are
        # already packaged as structured failures above, so whatever
        # reaches this handler is by definition outside the library
        # contract — a resilience bug the chaos contract says to
        # record and merge, never to poison the pool with an
        # unpicklable traceback.
        result.unhandled.append(f"{type(exc).__name__}: {exc}")
    if injector is not None:
        result.fired = injector.fired_counts()
    _operator_deltas(result, befores,
                     tuple(op.stats for op in operators))


def _execute_points(context: WorkerContext, unit: WorkUnit,
                    result: UnitResult) -> None:
    """One chunk of ``(omega, I)`` evaluations.

    A fresh evaluator per chunk keeps the values independent of chunk
    boundaries; the expensive state (the operator factor cache on the
    shared problem model) persists across chunks within the worker.
    """
    if context.point_problem is None:
        raise ConfigurationError(
            "points units need point_problem on the worker context")
    operator = context.point_problem.model.network.operator
    before = operator.stats
    evaluator = Evaluator(context.point_problem)
    try:
        with _obs.span("points", unit.name, count=len(unit.params)):
            result.value = evaluator.evaluate_many(list(unit.params))
    except ReproError as exc:
        result.error = (unit.kind, type(exc).__name__, str(exc))
    _operator_deltas(result, (before,), (operator.stats,))


def _execute_fields(context: WorkerContext, unit: WorkUnit,
                    result: UnitResult) -> None:
    """One chunk of temperature-field solves (heat-map batches)."""
    if context.field_model is None:
        raise ConfigurationError(
            "fields units need field_model/field_power on the worker "
            "context")
    operator = context.field_model.network.operator
    before = operator.stats
    try:
        with _obs.span("fields", unit.name, count=len(unit.params)):
            outcomes = solve_steady_state_batch(
                context.field_model, list(unit.params),
                context.field_power, leakage=context.field_leakage)
        result.value = [
            outcome.chip_temperatures
            if isinstance(outcome, SteadyStateResult) else None
            for outcome in outcomes]
    except ReproError as exc:
        result.error = (unit.kind, type(exc).__name__, str(exc))
    _operator_deltas(result, (before,), (operator.stats,))


def _execute_oftec(context: WorkerContext, unit: WorkUnit,
                   result: UnitResult) -> None:
    """One LUT row: a full OFTEC run on one representative profile."""
    if context.oftec_template is None or context.oftec_profiles is None:
        raise ConfigurationError(
            "oftec units need oftec_template/oftec_profiles on the "
            "worker context")
    operator = context.oftec_template.model.network.operator
    before = operator.stats
    problem = context.oftec_template.with_profile(
        dict(context.oftec_profiles[unit.name]), name=unit.name)
    try:
        result.value = run_oftec(problem, method=context.method,
                                 jac=context.jac)
    except ReproError as exc:
        result.error = (unit.kind, type(exc).__name__, str(exc))
    _operator_deltas(result, (before,), (operator.stats,))


__all__ = [
    "KILL_EXIT_CODE",
    "LIVE_METRICS_PERIOD_S",
    "SLOW_FAULT_DELAY_S",
    "run_unit",
    "worker_main",
]
