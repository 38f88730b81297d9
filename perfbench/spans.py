"""In-memory span recording around the program's public layer seams.

The benchmark does not modify the program: :func:`instrument` replaces
the layer-boundary functions and methods of ``repro.analysis``,
``repro.core`` and ``repro.thermal`` with wrappers that record one
span per call — name, start, end, parent span and
request id — into a :class:`Recorder`.  Spans stay in memory until the
run ends.  Self time is a span's duration minus the union of its
children's intervals (:func:`self_times`), and :func:`layer_metrics`
folds the spans into the per-layer metrics of ``BENCHMARK.json``.

Recording is single-threaded: the workloads run their layers on the
calling thread, and worker processes forked by the parallel campaign
stop recording at fork (their spans would never reach this process).
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchstats import median, nearest_rank, union_length

# Span record layout (a list, appended per call on the hot path).
ID, PARENT, NAME, START, END, REQUEST, ATTRS = range(7)

#: Pipeline stages of one campaign benchmark, in run order.
STAGES = ("oftec-opt1", "oftec-opt2", "variable-opt1", "variable-opt2",
          "fixed-omega", "tec-only")


class Recorder:
    """Collects spans of the current process while ``active``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.active = True
        self._stack: List[list] = []
        self._requests = 0
        self.evaluators: List[Any] = []
        self.operators: List[Any] = []

    def stop_in_child(self) -> None:
        """Fork hook: a child process records nothing."""
        self.active = False
        self._stack = []

    def open(self, name: str, new_request: bool = False) -> list:
        parent = self._stack[-1] if self._stack else None
        if new_request:
            self._requests += 1
            request = self._requests
        else:
            request = parent[REQUEST] if parent is not None else 0
        record = [len(self.spans), parent[ID] if parent is not None
                  else None, name, self.clock(), None, request, None]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = self.clock()
        popped = self._stack.pop()
        if popped is not record:
            raise RuntimeError(
                f"span {record[NAME]!r} closed out of order "
                f"(innermost open span is {popped[NAME]!r})")

    @contextmanager
    def span(self, name: str, new_request: bool = False) -> Iterator[list]:
        record = self.open(name, new_request)
        try:
            yield record
        finally:
            self.close(record)


class NullRecorder:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    @contextmanager
    def span(self, name: str, new_request: bool = False) -> Iterator[None]:
        yield None


def _wrap(recorder: Recorder, original: Callable, name: Any,
          new_request: bool = False,
          after: Optional[Callable[[list, Any], None]] = None,
          ) -> Callable:
    """A wrapper recording one span per call of ``original``.

    ``name`` is a span name, or a callable mapping the call's
    arguments to one.  ``after`` sees the record and the return value.
    A raised exception is recorded as ``{"error": type name}``.
    """
    naming = callable(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        record = recorder.open(name(*args, **kwargs) if naming else name,
                               new_request)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            record[ATTRS] = {"error": type(exc).__name__}
            raise
        finally:
            recorder.close(record)
        if after is not None:
            after(record, result)
        return result

    return wrapper


def _registering(recorder: Recorder, target: List[Any],
                 original: Callable) -> Callable:
    """Wrap an ``__init__`` so every instance created while recording
    is kept in ``target``."""

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if recorder.active:
            target.append(self)

    return init


def _optimizer_counts(record: list, result: Any) -> None:
    record[ATTRS] = {key: int(getattr(result, key, 0) or 0)
                     for key in ("nfev", "njev", "nit")}


def _opt2_stage(evaluator: Any, *args, **kwargs) -> str:
    return ("stage.oftec-opt2" if evaluator.problem.has_tec
            else "stage.variable-opt2")


def instrument(recorder: Recorder) -> None:
    """Wrap the program's layer seams so calls record spans.

    Must run after the program is imported and before any problem is
    built, so that every operator and evaluator is registered.
    """
    import repro.analysis.campaign as campaign
    import repro.core.evaluator as evaluator
    import repro.core.solvers as solvers
    import repro.thermal.assembly as assembly
    import repro.thermal.operator as operator
    import repro.thermal.solver as solver

    # analysis -> core: the stages of one campaign benchmark, looked up
    # by the campaign module at call time.  Each stage is one request.
    for attr, name in (("run_oftec", "stage.oftec-opt1"),
                       ("minimize_temperature", _opt2_stage),
                       ("run_variable_fan_baseline", "stage.variable-opt1"),
                       ("run_fixed_fan_baseline", "stage.fixed-omega"),
                       ("run_tec_only", "stage.tec-only")):
        setattr(campaign, attr, _wrap(recorder, getattr(campaign, attr),
                                      name, new_request=True))
    # core.solvers: the SciPy optimizer.
    solvers.minimize = _wrap(recorder, solvers.minimize, "sqp",
                             after=_optimizer_counts)
    # core.evaluator.
    cls = evaluator.Evaluator
    cls.__init__ = _registering(recorder, recorder.evaluators,
                                cls.__init__)
    cls.evaluate = _wrap(recorder, cls.evaluate, "evaluator.evaluate")
    cls.evaluate_with_grad = _wrap(recorder, cls.evaluate_with_grad,
                                   "evaluator.grad")
    cls.evaluate_many = _wrap(recorder, cls.evaluate_many,
                              "evaluator.many")
    # thermal.solver: the leakage loop, called from the evaluator and
    # from the batch entry point of its own module.
    steady = _wrap(recorder, solver.solve_steady_state, "solver.steady")
    solver.solve_steady_state = steady
    evaluator.solve_steady_state = steady
    # thermal.assembly.
    model = assembly.PackageThermalModel
    model.overlays = _wrap(recorder, model.overlays, "assembly.overlays")
    # thermal.operator.
    op = operator.ThermalOperator
    op.__init__ = _registering(recorder, recorder.operators, op.__init__)
    op.factor = _wrap(recorder, op.factor, "operator.factor")
    op._guard = _wrap(recorder, op._guard, "operator.guard")
    operator.splu = _wrap(recorder, operator.splu, "operator.splu")
    fac = operator.Factorization
    fac.solve = _wrap(recorder, fac.solve, "operator.solve")
    fac.solve_transpose = _wrap(recorder, fac.solve_transpose,
                                "operator.solve_t")
    os.register_at_fork(after_in_child=recorder.stop_in_child)


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span: its duration minus the union of its
    direct children's intervals (clipped to the span)."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    result = []
    for record in spans:
        start, end = record[START], record[END]
        covered = union_length(children.get(record[ID], ()), start, end)
        result.append(max(0.0, (end - start) - covered))
    return result


def _ancestors(spans: List[list], record: list) -> Iterator[list]:
    parent = record[PARENT]
    while parent is not None:
        ancestor = spans[parent]
        yield ancestor
        parent = ancestor[PARENT]


def layer_metrics(spans: List[list], wall: float,
                  evaluators: List[Any] = (),
                  operators: List[Any] = ()) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``wall`` is the traced run's wall time from interpreter start to
    the end of its last span; ``evaluators`` and ``operators`` are the
    instances the run created (their cache counters feed the hit-ratio
    and eviction metrics).
    """
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for record, own in zip(spans, selfs):
        name = record[NAME]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += record[END] - record[START]
        durations[name].append(record[END] - record[START])

    def with_ancestor(name: str, ancestor: str) -> int:
        return sum(1 for record in spans if record[NAME] == name
                   and any(a[NAME] == ancestor
                           for a in _ancestors(spans, record)))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {
        "setup.import_s": total_s["setup.import"],
        "setup.build_s": total_s["setup.build"],
        "setup.lut_s": total_s["setup.lut"],
        "campaign.self_s": self_s["campaign"],
        "sweep.self_s": self_s["sweep"],
    }
    stage_ms: List[float] = []
    for stage in STAGES:
        values = [d * 1e3 for d in durations["stage." + stage]]
        stage_ms.extend(values)
        metrics[f"stage.{stage}.ms_p50"] = median(values) if values \
            else 0.0
    metrics["stage.ms_p90"] = nearest_rank(stage_ms, 90.0) if stage_ms \
        else 0.0

    sqp = [r for r in spans if r[NAME] == "sqp"]
    metrics["sqp.calls"] = len(sqp)
    metrics["sqp.self_s"] = self_s["sqp"]
    for key in ("nfev", "njev", "nit"):
        metrics[f"sqp.{key}"] = sum((r[ATTRS] or {}).get(key, 0)
                                    for r in sqp)

    metrics["evaluator.evaluate.calls"] = calls["evaluator.evaluate"]
    metrics["evaluator.grad.calls"] = calls["evaluator.grad"]
    metrics["evaluator.many.calls"] = calls["evaluator.many"]
    infos = [e.cache_info() for e in evaluators]
    hits = sum(i.hits for i in infos)
    metrics["evaluator.hit_ratio"] = ratio(
        hits, hits + sum(i.misses for i in infos))
    metrics["evaluator.self_s"] = (self_s["evaluator.evaluate"]
                                   + self_s["evaluator.grad"]
                                   + self_s["evaluator.many"])

    steady_calls = calls["solver.steady"]
    metrics["solver.steady.calls"] = steady_calls
    metrics["solver.steady.self_s"] = self_s["solver.steady"]
    metrics["solver.iters_per_steady"] = ratio(
        with_ancestor("assembly.overlays", "solver.steady"), steady_calls)
    metrics["solver.runaway.count"] = sum(
        1 for r in spans if r[NAME] == "solver.steady"
        and (r[ATTRS] or {}).get("error") == "ThermalRunawayError")

    metrics["assembly.overlays.calls"] = calls["assembly.overlays"]
    metrics["assembly.overlays.self_s"] = self_s["assembly.overlays"]

    factor_calls = calls["operator.factor"]
    fresh = sum(1 for r in spans if r[NAME] == "operator.splu"
                and r[PARENT] is not None
                and spans[r[PARENT]][NAME] == "operator.factor")
    metrics["operator.factor.calls"] = factor_calls
    metrics["operator.factor.hit_ratio"] = ratio(factor_calls - fresh,
                                                 factor_calls)
    metrics["operator.splu.calls"] = calls["operator.splu"]
    metrics["operator.splu.s"] = total_s["operator.splu"]
    metrics["operator.splu.share"] = ratio(total_s["operator.splu"], wall)
    metrics["operator.factor.self_s"] = self_s["operator.factor"]
    metrics["operator.solve.calls"] = calls["operator.solve"]
    metrics["operator.solve.s"] = total_s["operator.solve"]
    metrics["operator.solve_t.calls"] = calls["operator.solve_t"]
    metrics["operator.solve_t.s"] = total_s["operator.solve_t"]
    metrics["operator.guard.self_s"] = self_s["operator.guard"]
    metrics["operator.evictions"] = sum(o.stats.cache_evictions
                                        for o in operators)

    online = [r for r in spans if r[NAME] == "online"]
    steps = sum((r[ATTRS] or {}).get("steps", 0) for r in online)
    metrics["online.steps"] = steps
    metrics["online.self_s"] = self_s["online"]
    metrics["online.factors_per_step"] = ratio(
        with_ancestor("operator.splu", "online"), steps)

    metrics["unattributed_s"] = wall - sum(selfs)
    metrics["trace.spans"] = len(spans)
    return metrics
