"""The worker runtime: one resident, supervised process pool.

A :class:`WorkerPool` owns N worker processes, each running
:func:`repro.exec.workers.worker_main`, and is the only way work leaves
the coordinating process.  It runs in one of two modes:

* **Unsupervised** (:meth:`WorkerPool.run_payload`, behind
  :func:`repro.exec.run_units`).  A worker death, heartbeat silence, or
  spawn failure raises :class:`WorkerPoolError`.  The pool tears its
  workers down (and respawns them on its next run), and the scheduler
  finishes the remaining units serially in-process.  Units are pure
  functions of the context, so the results are bit-identical.
* **Supervised** (:meth:`WorkerPool.run_supervised`, behind
  :func:`repro.exec.run_units_supervised`), under a
  :class:`SupervisionPolicy`:

  - *Heartbeats.*  Each worker bumps a shared per-slot counter from a
    daemon thread.  The coordinator tracks *when each counter last
    changed* on its own monotonic clock (nothing compares clocks
    across processes) and replaces workers whose beats go silent.
  - *Deadlines.*  Every dispatched unit arms a monotonic
    :class:`~repro.obs.Deadline`; a worker holding a unit past it is
    killed and replaced.
  - *Retries.*  A failed attempt (crash, deadline, silence, unhandled
    exception) is re-queued with exponential backoff plus
    deterministic jitter.  Units re-derive their fault/RNG streams from
    their own label, so a retry computes bit-identical physics.
  - *Quarantine.*  A unit that fails ``max_attempts`` times is
    quarantined with its per-attempt post-mortems, and the run
    completes without it.
  - *Circuit breaker.*  Repeated spawn failures open the circuit: an
    ``exec.circuit_open`` event fires, the workers stop, and the
    scheduler runs the remaining units serially.

Both modes share the rest.  A context is shipped once per worker and
identified by a blake2b digest of its pickled payload; a run whose
payload digest matches what a worker already holds sends a reuse token
instead, so the worker keeps its warm factor and evaluator caches.
Units are fed one at a time to whichever worker goes idle, preferring
the unit that last ran on that worker (affinity) and stealing the
oldest pending unit otherwise.  Results are slotted by unit index, and
every accepted result is handed to the caller's ``accept`` callback
exactly once, which is where telemetry adoption and journaling happen.
"""

from __future__ import annotations

import hashlib
import os
import queue as _queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ReproError
from ..faults.plan import FaultPlan, process_fault_decision
from ..obs import runtime as _obs
from ..obs.clock import Deadline, monotonic
from .units import UnitResult, WorkUnit
from .workers import worker_main

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Seconds between worker heartbeat bumps on an unsupervised pool.
HEARTBEAT_INTERVAL_S = 0.25

#: Heartbeat silence tolerated from a busy worker on an unsupervised
#: pool (s).  Generous: a worker parked inside one long SuperLU
#: factorization still beats (the heartbeat thread needs only the GIL
#: slices the solver releases).
HEARTBEAT_TIMEOUT_S = 30.0

#: Coordinator poll period of an unsupervised run (s).
POLL_INTERVAL_S = 0.1


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of a supervised run.

    Attributes:
        unit_deadline_seconds: Monotonic wall budget per unit attempt
            (s); a worker holding a unit longer is killed and the
            attempt counted as failed.
        heartbeat_interval_seconds: Period of the worker heartbeat
            thread (s).
        heartbeat_timeout_seconds: Silence tolerated before a live
            worker is declared hung and killed (s); must exceed the
            interval by a comfortable margin.
        max_attempts: Total attempts per unit before quarantine
            (1 = never retry).
        backoff_base_seconds: Delay before the first retry (s).
        backoff_factor: Multiplier applied per subsequent retry.
        backoff_max_seconds: Ceiling on any single backoff delay (s).
        backoff_jitter: Fractional deterministic jitter in
            ``[0, 1)`` — each (unit, attempt) perturbs its delay by a
            hash-derived factor in ``[1 - j, 1 + j]``, decorrelating
            retry bursts without introducing nondeterminism.
        circuit_breaker_failures: Worker *spawn* failures tolerated
            before the circuit opens and the remaining units run
            serially in-process.
        poll_interval_seconds: Coordinator supervision poll period (s).
    """

    unit_deadline_seconds: float = 300.0
    heartbeat_interval_seconds: float = 0.1
    heartbeat_timeout_seconds: float = 5.0
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 2.0
    backoff_jitter: float = 0.25
    circuit_breaker_failures: int = 3
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.unit_deadline_seconds <= 0.0:
            raise ConfigurationError(
                f"unit_deadline_seconds must be > 0, got "
                f"{self.unit_deadline_seconds}")
        if self.heartbeat_interval_seconds <= 0.0:
            raise ConfigurationError(
                f"heartbeat_interval_seconds must be > 0, got "
                f"{self.heartbeat_interval_seconds}")
        if self.heartbeat_timeout_seconds \
                < 2.0 * self.heartbeat_interval_seconds:
            raise ConfigurationError(
                "heartbeat_timeout_seconds must be at least twice the "
                "interval or every healthy worker looks hung")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_seconds < 0.0:
            raise ConfigurationError(
                f"backoff_base_seconds must be >= 0, got "
                f"{self.backoff_base_seconds}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got "
                f"{self.backoff_factor}")
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ConfigurationError(
                "backoff_max_seconds must be >= backoff_base_seconds")
        if not (0.0 <= self.backoff_jitter < 1.0):
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1), got "
                f"{self.backoff_jitter}")
        if self.circuit_breaker_failures < 1:
            raise ConfigurationError(
                f"circuit_breaker_failures must be >= 1, got "
                f"{self.circuit_breaker_failures}")
        if self.poll_interval_seconds <= 0.0:
            raise ConfigurationError(
                f"poll_interval_seconds must be > 0, got "
                f"{self.poll_interval_seconds}")

    def backoff_seconds(self, label: str, attempt: int) -> float:
        """Delay before retrying ``label`` after failed attempt N (s).

        Exponential in the attempt number, capped, and jittered by a
        blake2b hash of ``(label, attempt)`` — deterministic, so a
        replayed campaign schedules byte-identical retries, yet
        decorrelated across units so a mass failure does not thunder
        back as one herd.
        """
        delay = min(
            self.backoff_base_seconds
            * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_max_seconds)
        if self.backoff_jitter > 0.0 and delay > 0.0:
            digest = hashlib.blake2b(
                f"{label}:{attempt}".encode("utf-8"),
                digest_size=8).digest()
            unit_draw = int.from_bytes(digest, "big") / float(2 ** 64)
            delay *= 1.0 + self.backoff_jitter * (2.0 * unit_draw - 1.0)
        return delay


@dataclass
class QuarantinedUnit:
    """Post-mortem of a unit that exhausted its attempts.

    Attributes:
        index: Submission index of the unit.
        name: Unit label (benchmark name / chunk id).
        attempts: Attempts consumed (== policy ``max_attempts``).
        errors: One ``"reason"`` line per failed attempt, in order.
    """

    index: int
    name: str
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class SupervisedOutcome:
    """Everything a supervised run produced.

    Attributes:
        results: Per-unit results in submission order; None where the
            unit was quarantined.
        quarantined: Post-mortems of the units that never completed.
        retries: Attempts beyond the first, summed over units.
        replacements: Workers killed-and-respawned (deadline,
            heartbeat, crash) plus spawn failures.
        process_fired: Injected process-level fault fires per kind
            value (recomputed from the plan — the coordinator never
            needs the worker to report its own death).
        circuit_opened: True when the run degraded to the serial path.
    """

    results: List[Optional[UnitResult]] = field(default_factory=list)
    quarantined: List[QuarantinedUnit] = field(default_factory=list)
    retries: int = 0
    replacements: int = 0
    process_fired: Dict[str, int] = field(default_factory=dict)
    circuit_opened: bool = False

    @property
    def completed(self) -> List[UnitResult]:
        """The non-quarantined results, in submission order."""
        return [result for result in self.results if result is not None]


class WorkerPoolError(ReproError):
    """An unsupervised run broke (worker death, silence, or a failed
    spawn); the scheduler finishes the remaining units serially."""


def _counter(name: str) -> None:
    """Increment an obs counter when telemetry is live (else no-op)."""
    if _obs.STATE.enabled:
        _obs.STATE.metrics.counter(name).inc()


class _Slot:
    """Coordinator-side view of one resident worker."""

    __slots__ = ("slot", "process", "queue", "digest", "unit",
                 "attempt", "deadline", "last_beat", "beat_seen_at")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.queue: Any = None
        self.digest: Optional[str] = None  # context the worker holds
        self.unit: Optional[WorkUnit] = None
        self.attempt = 0
        self.deadline: Optional[Deadline] = None
        self.last_beat = 0.0
        self.beat_seen_at = 0.0


class _Run:
    """Bookkeeping of one run on the pool: pending attempts, accepted
    results, retries and quarantine."""

    def __init__(self, payload: bytes, units: Sequence[WorkUnit],
                 policy: Optional[SupervisionPolicy],
                 plan: Optional[FaultPlan], progress: Optional[Any],
                 accept: Optional[Callable[[UnitResult], None]]) -> None:
        self.payload = payload
        self.digest = hashlib.blake2b(payload,
                                      digest_size=16).hexdigest()
        self.units = {unit.index: unit for unit in units}
        self.policy = policy
        self.plan = plan
        self.progress = progress
        self.accept = accept
        self.outcome = SupervisedOutcome()
        # (ready_at, index, attempt), kept sorted.  Attempt 0 marks an
        # unsupervised dispatch: no process-level fault fires on it.
        first = 0 if policy is None else 1
        self.pending = [(0.0, unit.index, first) for unit in units]
        self.results: Dict[int, UnitResult] = {}
        self.failures: Dict[int, List[str]] = {}
        self.quarantined: set = set()
        self.spawn_failures = 0

    @property
    def finished(self) -> bool:
        return len(self.results) + len(self.quarantined) \
            >= len(self.units)

    @property
    def circuit_should_open(self) -> bool:
        return self.policy is not None and self.spawn_failures \
            >= self.policy.circuit_breaker_failures

    def complete(self, result: UnitResult, attempt: int) -> None:
        """Accept a finished attempt, or count it failed if unhandled.

        A result for a unit that is already done or quarantined is a
        stale duplicate from a replaced worker and is dropped, so each
        unit is accepted (and its telemetry adopted) exactly once.
        """
        index = result.index
        if index not in self.units or index in self.results \
                or index in self.quarantined:
            return
        if self.policy is not None and result.unhandled:
            self.attempt_failed(
                index, attempt,
                "unhandled: " + "; ".join(result.unhandled))
            return
        self.results[index] = result
        # A kill-raced late result may complete a unit whose retry is
        # still queued.
        self.pending = [entry for entry in self.pending
                        if entry[1] != index]
        if self.progress is not None:
            if result.metrics:
                self.progress.live_metrics(result.metrics)
            self.progress.unit_done(result.name, result.wall_seconds,
                                    ok=result.ok)
        if self.accept is not None:
            self.accept(result)

    def attempt_failed(self, index: int, attempt: int,
                       reason: str) -> None:
        """Count one failed attempt; schedule a retry or quarantine."""
        policy = self.policy
        failures = self.failures.setdefault(index, [])
        failures.append(reason)
        unit = self.units[index]
        if attempt >= policy.max_attempts:
            self.quarantined.add(index)
            self.outcome.quarantined.append(QuarantinedUnit(
                index=index, name=unit.name, attempts=attempt,
                errors=list(failures)))
            _obs.event("exec.quarantine", unit=unit.name,
                       attempts=attempt)
            _counter("exec.supervisor.quarantined")
            if self.progress is not None:
                self.progress.unit_quarantined(unit.name, attempt)
            return
        self.outcome.retries += 1
        delay = policy.backoff_seconds(unit.name, attempt)
        _obs.event("exec.retry", unit=unit.name, attempt=attempt,
                   reason=reason, backoff_seconds=delay)
        _counter("exec.supervisor.retries")
        if self.progress is not None:
            self.progress.unit_retrying(unit.name, attempt, reason)
        self.pending.append((monotonic() + delay, index, attempt + 1))
        self.pending.sort()


class WorkerPool:
    """A resident process pool whose workers keep their caches warm.

    Use as a context manager (or call :meth:`close` explicitly)::

        with WorkerPool(workers=2) as pool:
            first = run_campaign(profiles, tec, base, pool=pool)
            # Same templates => same payload digest => the second
            # campaign reuses each worker's installed context, so its
            # operator factor caches are already hot.
            second = run_campaign(profiles, tec, base, pool=pool)

    Args:
        workers: Resident worker-process count (>= 1).
        start_method: ``multiprocessing`` start method override; None
            defers to ``REPRO_START_METHOD``, then the platform
            default.
        heartbeat_timeout_seconds: Silence tolerated from a busy
            worker before it counts as hung.
        heartbeat_interval_seconds: Period of each worker's heartbeat.
    """

    def __init__(self, workers: int,
                 start_method: Optional[str] = None,
                 heartbeat_timeout_seconds: float = HEARTBEAT_TIMEOUT_S,
                 heartbeat_interval_seconds: float = HEARTBEAT_INTERVAL_S,
                 ) -> None:
        if int(workers) < 1:
            raise ConfigurationError(
                f"pool worker count must be >= 1, got {workers}")
        self.workers = int(workers)
        self._start_method = start_method
        self._heartbeat_timeout = float(heartbeat_timeout_seconds)
        self._heartbeat_interval = float(heartbeat_interval_seconds)
        self._mp: Any = None
        self._slots: List[_Slot] = []
        self._result_queue: Any = None
        self._heartbeats: Any = None
        self._digest: Optional[str] = None
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "runs": 0,
            "context_installs": 0,
            "context_reuses": 0,
            "units_dispatched": 0,
            "affinity_hits": 0,
            "affinity_steals": 0,
            "broken_runs": 0,
        }
        # unit name -> slot that last ran it.  Repeat runs of the same
        # units route each one back to the worker holding its factor
        # cache; an idle worker steals across affinity only when no
        # unit of its own (or unclaimed) remains pending.
        self._affinity: Dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        with self._lock:
            self._closed = True
            self._teardown()

    def _ensure_started(self, run: Optional[_Run] = None) -> None:
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        if self._started:
            return
        import multiprocessing
        method = self._start_method \
            or os.environ.get(START_METHOD_ENV, "").strip() or None
        self._mp = multiprocessing.get_context(method)
        self._heartbeats = self._mp.Array("d", self.workers)
        self._result_queue = self._mp.Queue()
        self._slots = [_Slot(slot) for slot in range(self.workers)]
        self._started = True
        for slot in self._slots:
            self._spawn(slot, run)

    def _spawn(self, slot: _Slot, run: Optional[_Run]) -> None:
        """(Re)start the worker process occupying ``slot``.

        A spawn failure raises :class:`WorkerPoolError` outside a
        supervised run; a supervised run counts it toward the circuit
        breaker and leaves the slot empty for a later retry.
        """
        slot.queue = self._mp.Queue()
        slot.unit = None
        slot.digest = None
        slot.deadline = None
        process = self._mp.Process(
            target=worker_main,
            args=(slot.slot, slot.queue, self._result_queue,
                  self._heartbeats, self._heartbeat_interval),
            daemon=True)
        try:
            process.start()
        except OSError as exc:
            slot.process = None
            if run is None or run.policy is None:
                raise WorkerPoolError(
                    f"could not spawn pool worker {slot.slot}: "
                    f"{exc}") from exc
            run.spawn_failures += 1
            run.outcome.replacements += 1
            _obs.event("exec.worker_spawn_failed", slot=slot.slot,
                       error=type(exc).__name__)
            _counter("exec.supervisor.spawn_failures")
            return
        slot.process = process
        slot.last_beat = self._heartbeats[slot.slot]
        slot.beat_seen_at = monotonic()

    def _install(self, slot: _Slot, run: _Run) -> None:
        """Queue the run's context ahead of the slot's first unit."""
        reuse = slot.digest == run.digest
        slot.queue.put(("install", run.digest,
                        None if reuse else run.payload))
        slot.digest = run.digest

    def _stop(self, slot: _Slot) -> None:
        """Forcibly stop the process in ``slot``."""
        process = slot.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        if slot.queue is not None:
            slot.queue.cancel_join_thread()
        slot.process = None
        slot.unit = None

    def _teardown(self) -> None:
        """Stop every worker: sentinel to the idle ones, then force."""
        waiting = []
        for slot in self._slots:
            process = slot.process
            if process is not None and slot.unit is None \
                    and process.is_alive():
                try:
                    slot.queue.put(None)
                    waiting.append(process)
                except (OSError, ValueError):
                    pass
        deadline = Deadline(1.0)
        for process in waiting:
            process.join(max(deadline.remaining(), 0.05))
        for slot in self._slots:
            self._stop(slot)
        if self._result_queue is not None:
            self._result_queue.cancel_join_thread()
            self._result_queue = None
        self._slots = []
        self._started = False
        self._digest = None

    # -- runs ---------------------------------------------------------

    def run_payload(self, payload: bytes, units: Sequence[WorkUnit],
                    progress: Optional[Any] = None,
                    accept: Optional[Callable[[UnitResult], None]]
                    = None) -> List[UnitResult]:
        """Run units unsupervised; results in unit order.

        ``payload`` is the pickled :class:`~repro.exec.WorkerContext`.
        ``accept`` sees each result as it is accepted.  Raises
        :class:`WorkerPoolError` on worker death, heartbeat silence, or
        a spawn failure, after stopping the workers (they respawn on
        the next run); results accepted before the break have already
        gone to ``accept``.
        """
        units = list(units)
        run = self._run(_Run(payload, units, None, None, progress,
                             accept))
        return [run.results[unit.index] for unit in units]

    def run_supervised(self, payload: bytes, units: Sequence[WorkUnit],
                       policy: SupervisionPolicy,
                       fault_plan: Optional[FaultPlan] = None,
                       progress: Optional[Any] = None,
                       accept: Optional[Callable[[UnitResult], None]]
                       = None) -> SupervisedOutcome:
        """Run units under ``policy``; never raises for worker death.

        Returns the run's quarantine, retry, replacement, and
        process-fault accounting (``results`` stays empty: every
        completed unit went to ``accept``).  When the circuit opens,
        ``circuit_opened`` is set and the units neither accepted nor
        quarantined are left for the caller to run serially.
        ``fault_plan`` is the context's plan, from which the injected
        process-level fires are recomputed.
        """
        return self._run(_Run(payload, units, policy, fault_plan,
                              progress, accept)).outcome

    def _run(self, run: _Run) -> _Run:
        with self._lock:
            finished = False
            try:
                self._ensure_started(run)
                self._counters["runs"] += 1
                self._counters["context_reuses"
                               if run.digest == self._digest
                               else "context_installs"] += 1
                self._digest = run.digest
                for slot in self._slots:
                    if slot.process is not None:
                        self._install(slot, run)
                poll = run.policy.poll_interval_seconds \
                    if run.policy is not None else POLL_INTERVAL_S
                while not run.finished:
                    if run.circuit_should_open:
                        run.outcome.circuit_opened = True
                        _obs.event("exec.circuit_open",
                                   spawn_failures=run.spawn_failures)
                        _counter("exec.supervisor.circuit_open")
                        self._teardown()
                        break
                    self._dispatch(run)
                    self._collect(run, poll)
                    self._sweep(run)
                finished = True
            except WorkerPoolError:
                self._counters["broken_runs"] += 1
                raise
            finally:
                if not finished:
                    # Never leave workers busy on an abandoned run:
                    # their late results would be taken for the next
                    # run's.
                    self._teardown()
        return run

    def _dispatch(self, run: _Run) -> None:
        """Hand ready units to idle live workers."""
        now = monotonic()
        for slot in self._slots:
            if slot.unit is not None or slot.process is None \
                    or not slot.process.is_alive():
                continue
            taken = self._take(run, slot, now)
            if taken is None:
                return
            unit, attempt = taken
            fault = process_fault_decision(run.plan, unit.name, attempt)
            if fault is not None:
                fired = run.outcome.process_fired
                fired[fault.value] = fired.get(fault.value, 0) + 1
                _counter(f"faults.injected.{fault.value}")
            slot.queue.put(("unit", unit, attempt))
            slot.unit = unit
            slot.attempt = attempt
            if run.policy is not None:
                slot.deadline = Deadline(
                    run.policy.unit_deadline_seconds)
            slot.beat_seen_at = now
            self._counters["units_dispatched"] += 1
            if run.progress is not None:
                run.progress.unit_running(unit.name, max(attempt, 1))

    def _take(self, run: _Run, slot: _Slot, now: float) -> Any:
        """Pop the best ready ``(unit, attempt)`` for an idle slot.

        Preference order: the oldest unit that last ran on this slot
        (its factors are already in this worker's caches), then the
        oldest never-assigned unit, then an outright steal of the
        oldest unit.  Stealing keeps the tail short when one worker
        falls behind; affinity keeps repeat runs warm.
        """
        own = free = steal = None
        for position, (ready_at, index, _attempt) in \
                enumerate(run.pending):
            if ready_at > now:
                continue
            owner = self._affinity.get(run.units[index].name)
            if owner == slot.slot:
                own = position
                break
            if free is None and owner is None:
                free = position
            if steal is None:
                steal = position
        if own is not None:
            chosen = own
            self._counters["affinity_hits"] += 1
        elif free is not None:
            chosen = free
        elif steal is not None:
            chosen = steal
            self._counters["affinity_steals"] += 1
        else:
            return None
        _ready_at, index, attempt = run.pending.pop(chosen)
        unit = run.units[index]
        self._affinity[unit.name] = slot.slot
        return unit, attempt

    def _collect(self, run: _Run, poll: float) -> None:
        """Drain worker messages; block up to ``poll`` for the first."""
        timeout: Optional[float] = poll
        while True:
            try:
                if timeout is None:
                    message = self._result_queue.get_nowait()
                else:
                    message = self._result_queue.get(timeout=timeout)
            except _queue.Empty:
                return
            timeout = None
            if message[0] == "live":
                if run.progress is not None and message[2]:
                    run.progress.live_metrics(message[2])
                continue
            _kind, slot_id, attempt, result = message
            slot = self._slots[slot_id]
            if slot.unit is not None and slot.attempt == attempt \
                    and slot.unit.index == result.index:
                slot.unit = None
                slot.deadline = None
            run.complete(result, attempt)

    def _sweep(self, run: _Run) -> None:
        """Liveness, deadline, and heartbeat pass over every slot."""
        now = monotonic()
        for slot in self._slots:
            process = slot.process
            if process is None:
                # Supervised only: a spawn failed earlier; retry it.
                if not run.circuit_should_open:
                    self._respawn(slot, run)
                continue
            beat = self._heartbeats[slot.slot]
            if beat != slot.last_beat:
                slot.last_beat = beat
                slot.beat_seen_at = now
            if not process.is_alive():
                kind = "crash" if slot.unit is not None else "idle-death"
                reason = f"worker died with exit code {process.exitcode}"
            elif slot.unit is None:
                continue
            elif slot.deadline is not None and slot.deadline.expired:
                kind = "deadline"
                reason = (f"unit deadline exceeded "
                          f"({run.policy.unit_deadline_seconds:g} s)")
            elif now - slot.beat_seen_at > self._heartbeat_timeout:
                kind = "heartbeat"
                reason = (f"worker heartbeats silent for "
                          f"{self._heartbeat_timeout:g} s")
            else:
                continue
            if run.policy is None:
                where = f" on unit {slot.unit.name!r}" \
                    if slot.unit is not None else ""
                raise WorkerPoolError(
                    f"pool worker {slot.slot}: {reason}{where}")
            if slot.unit is not None:
                run.attempt_failed(slot.unit.index, slot.attempt, reason)
                if kind != "crash":
                    _counter(f"exec.supervisor.{kind}_kills")
            else:
                # Idle death is infrastructure, not unit failure.
                run.spawn_failures += 1
            self._stop(slot)
            run.outcome.replacements += 1
            _obs.event("exec.worker_replaced", slot=slot.slot,
                       reason=kind)
            _counter("exec.supervisor.replacements")
            self._respawn(slot, run)

    def _respawn(self, slot: _Slot, run: _Run) -> None:
        self._spawn(slot, run)
        if slot.process is not None:
            self._install(slot, run)

    # -- introspection ------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Pool-lifetime counters (the ``pool_stats`` telemetry block).

        ``context_reuses`` counting up while ``context_installs`` stays
        at 1 is the warm-pool signature: workers kept their caches
        across runs.
        """
        with self._lock:
            stats: Dict[str, Any] = {"workers": self.workers}
            stats.update(self._counters)
            stats["warm"] = self._started and self._digest is not None
            return stats


__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "HEARTBEAT_TIMEOUT_S",
    "QuarantinedUnit",
    "START_METHOD_ENV",
    "SupervisedOutcome",
    "SupervisionPolicy",
    "WorkerPool",
    "WorkerPoolError",
]
