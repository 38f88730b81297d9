"""The parallel execution engine: scheduler, workers, deterministic merge."""

import hashlib
import itertools
import json
import multiprocessing.process
import pickle

import pytest

from repro import build_cooling_problem
from repro.analysis import run_campaign, sweep_objective_surfaces
from repro.analysis.heatmap import temperature_fields
from repro.core import Evaluator
from repro.errors import ConfigurationError, WorkerCrashError
from repro.exec import (
    WORKERS_ENV,
    WorkUnit,
    WorkerContext,
    default_chunk,
    evaluate_points,
    resolve_workers,
)
from repro.exec import scheduler as exec_scheduler
from repro.exec import workers as exec_workers
from repro.faults import (
    EVALUATOR_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    full_fault_plan,
    run_chaos_campaign,
)
from repro.io import campaign_to_dict
from repro.obs import telemetry_session
from repro.obs.export import span_to_dict


def canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def leakage_free_problem(profiles):
    problem = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
    # Disabling leakage removes the relinearization loop, making
    # evaluations batchable — the precondition for the points fan-out.
    problem.leakage = None
    return problem


class TestResolveWorkers:
    def test_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(0) == 0
        assert resolve_workers(2) == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    def test_junk_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)

    def test_inside_worker_always_serial(self, monkeypatch):
        """Workers inherit REPRO_WORKERS from the coordinator's env;
        honoring it there would nest pools, so resolution inside an
        installed worker context must always be 0."""
        monkeypatch.setenv(WORKERS_ENV, "3")
        previous = exec_workers.install_runtime(WorkerContext())
        try:
            assert exec_workers.in_worker()
            assert resolve_workers(None) == 0
            assert resolve_workers(4) == 0
        finally:
            exec_workers.restore_runtime(previous)
        assert not exec_workers.in_worker()
        assert resolve_workers(None) == 3


class TestWorkUnit:
    def test_kind_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(index=0, kind="nonsense", name="x")

    def test_index_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(index=-1, kind="campaign", name="x")

    def test_default_chunk_positive(self):
        assert default_chunk(1, 4) == 1
        assert default_chunk(100, 4) >= 1
        assert default_chunk(100, 1) >= 1


class TestFaultPlanDerive:
    def test_deterministic(self):
        plan = full_fault_plan(seed=11, rate=0.05)
        assert plan.derive("basicmath").seed \
            == plan.derive("basicmath").seed
        assert plan.derive("basicmath").specs == plan.specs

    def test_label_and_seed_dependent(self):
        plan = full_fault_plan(seed=11, rate=0.05)
        other = full_fault_plan(seed=12, rate=0.05)
        assert plan.derive("a").seed != plan.derive("b").seed
        assert plan.derive("a").seed != other.derive("a").seed
        assert plan.derive("a").seed != plan.seed


class TestOperatorPickle:
    def test_factor_cache_dropped_and_clone_solves(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        original = evaluator.evaluate(262.0, 1.0)
        clone = pickle.loads(pickle.dumps(tec_problem))
        stats = clone.model.network.operator.stats
        # The SuperLU factors and counters never cross the boundary.
        assert stats.solves == 0
        assert stats.factorizations == 0
        assert stats.cache_hits == 0
        result = Evaluator(clone).evaluate(262.0, 1.0)
        assert result.max_chip_temperature \
            == original.max_chip_temperature
        assert result.total_power == original.total_power


class TestPointsFanOut:
    POINTS = [(200.0, 0.5), (220.0, 1.0), (240.0, 1.5),
              (260.0, 2.0), (280.0, 2.5)]

    def test_evaluate_points_matches_in_process(
            self, leakage_free_problem):
        serial = Evaluator(leakage_free_problem).evaluate_many(
            self.POINTS)
        fanned = evaluate_points(leakage_free_problem,
                                 self.POINTS, 2, chunk=2)
        assert len(fanned) == len(serial)
        for ours, theirs in zip(fanned, serial):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature
            assert ours.total_power == theirs.total_power
            assert ours.feasible == theirs.feasible

    def test_wired_through_evaluate_many(self, leakage_free_problem):
        local = Evaluator(leakage_free_problem)
        fanned = local.evaluate_many(self.POINTS, workers=2)
        serial = Evaluator(leakage_free_problem).evaluate_many(
            self.POINTS)
        for ours, theirs in zip(fanned, serial):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature
        # The fan-out is pure: the local instance solved nothing.
        assert local.solve_count == 0

    def test_sweep_parity(self, leakage_free_problem):
        serial = sweep_objective_surfaces(
            leakage_free_problem, omega_points=4, current_points=3,
            workers=0)
        for workers in (1, 2):
            fanned = sweep_objective_surfaces(
                leakage_free_problem, omega_points=4, current_points=3,
                workers=workers)
            assert (serial.temperature == fanned.temperature).all()
            assert (serial.power == fanned.power).all()
            assert (serial.feasible == fanned.feasible).all()

    def test_fields_parity(self, tec_problem):
        points = [(200.0, 0.0), (200.0, 1.0), (260.0, 1.0),
                  (260.0, 2.0)]
        serial = temperature_fields(
            tec_problem.model, points, tec_problem.dynamic_cell_power,
            leakage=None, workers=0)
        for workers in (1, 2):
            fanned = temperature_fields(
                tec_problem.model, points,
                tec_problem.dynamic_cell_power, leakage=None,
                workers=workers)
            assert len(serial) == len(fanned)
            for ours, theirs in zip(fanned, serial):
                assert (ours == theirs).all()


class TestPoolFallback:
    @staticmethod
    def _refuse_spawn(monkeypatch, error):
        def failing_start(self):
            raise error

        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", failing_start)

    def test_falls_back_to_in_process(self, monkeypatch,
                                      leakage_free_problem):
        """Workers that cannot even start: the run emits
        exec.pool_fallback and finishes every unit serially with the
        serial values."""
        self._refuse_spawn(monkeypatch, OSError("no pool for you"))
        points = [(200.0, 0.5), (240.0, 1.5), (280.0, 2.5)]
        with telemetry_session() as (tracer, _metrics):
            fanned = evaluate_points(leakage_free_problem, points, 2,
                                     chunk=1)
            events = [event.name for event in tracer.orphan_events]
        assert events.count("exec.pool_fallback") == 1
        serial = Evaluator(leakage_free_problem).evaluate_many(points)
        for ours, theirs in zip(fanned, serial):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature

    def test_unpicklable_context_falls_back(self, monkeypatch,
                                            leakage_free_problem):
        """A context that cannot pickle must degrade to the serial
        path (with the original object), not raise — env-driven
        fan-out engages on previously-working serial call sites."""
        self._refuse_spawn(monkeypatch,
                           AssertionError("pool must not start"))
        context = WorkerContext(point_problem=leakage_free_problem,
                                policy=lambda: None)
        with pytest.raises(Exception):
            pickle.dumps(context)
        points = [(200.0, 0.5), (240.0, 1.5), (280.0, 2.5)]
        units = exec_scheduler._chunk_units(points, "points", 2)
        results = exec_scheduler.run_units(context, units, 2)
        fanned = [evaluation for result in results
                  for evaluation in result.value]
        serial = Evaluator(leakage_free_problem).evaluate_many(points)
        for ours, theirs in zip(fanned, serial):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature

    def test_context_pickles_to_identical_bytes(self, profiles):
        """Warm reuse keys on the payload digest, so one context must
        pickle to the same bytes every time."""
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        context = WorkerContext(tec_template=tec, baseline_template=base,
                                profiles=dict(profiles))
        assert pickle.dumps(context) == pickle.dumps(context)


class TestNestedFanOut:
    """The worker-side guard: units that internally reach decomposed
    entry points must stay serial instead of re-entering the engine."""

    def test_serial_executor_is_reentrant(self, leakage_free_problem):
        """A nested run_units must restore the enclosing runtime, not
        wipe it to None."""
        outer = WorkerContext()
        previous = exec_workers.install_runtime(outer)
        try:
            context = WorkerContext(
                point_problem=leakage_free_problem)
            units = exec_scheduler._chunk_units(
                [(200.0, 0.5), (240.0, 1.5)], "points", 1)
            results = exec_scheduler.run_units(context, units, 1)
            assert all(result.ok for result in results)
            assert exec_workers._RUNTIME is not None
            assert exec_workers._RUNTIME.context is outer
        finally:
            exec_workers.restore_runtime(previous)

    def test_env_workers_sweep_parity(self, monkeypatch,
                                      leakage_free_problem):
        """REPRO_WORKERS=1 + sweep: the worker-side evaluate_many used
        to re-enter the engine and clobber the runtime (deterministic
        SolverError); it must stay serial and match workers=0."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = sweep_objective_surfaces(
            leakage_free_problem, omega_points=4, current_points=3,
            workers=0)
        monkeypatch.setenv(WORKERS_ENV, "1")
        fanned = sweep_objective_surfaces(
            leakage_free_problem, omega_points=4, current_points=3)
        assert (serial.temperature == fanned.temperature).all()
        assert (serial.power == fanned.power).all()
        assert (serial.feasible == fanned.feasible).all()


class TestTelemetryMerge:
    def test_adopt_records_reparents_and_shifts(self):
        with telemetry_session() as (tracer, _metrics):
            parent = tracer.start_span("benchmark", "basicmath")
            child = tracer.start_span("stage", "oftec")
            tracer.event("fault.injected", kind="demo")
            tracer.end_span(child)
            tracer.end_span(parent)
            # finished is in finish order: children before parents —
            # the exact shape adopt_records must remap correctly.
            records = [span_to_dict(s) for s in tracer.finished]

        with telemetry_session() as (tracer, _metrics):
            host = tracer.start_span("unit", "basicmath")
            tracer.end_span(host)
            adopted = tracer.adopt_records(records, parent=host,
                                           time_offset=100.0)
            assert adopted == 2
            spans = {s.kind: s for s in tracer.finished}
            assert spans["stage"].parent_id \
                == spans["benchmark"].span_id
            assert spans["benchmark"].parent_id == host.span_id
            assert spans["stage"].events[0].name == "fault.injected"
            assert spans["benchmark"].start_s >= 100.0

    def test_merge_snapshot_accumulates(self):
        with telemetry_session() as (_tracer, metrics):
            metrics.counter("exec.test.count").inc(2)
            metrics.gauge("exec.test.gauge").set(5.0)
            histogram = metrics.histogram("exec.test.hist", (1.0, 2.0))
            histogram.observe(0.5)
            metrics.merge_snapshot(metrics.snapshot())
            merged = metrics.snapshot()
            assert merged["counters"]["exec.test.count"] == 4
            assert merged["gauges"]["exec.test.gauge"] == 5.0
            assert merged["histograms"]["exec.test.hist"]["count"] == 2

    def test_merge_snapshot_bound_mismatch_rejected(self):
        with telemetry_session() as (_tracer, metrics):
            metrics.histogram("exec.test.hist", (1.0, 2.0))
            foreign = {"histograms": {"exec.test.hist": {
                "buckets": [(5.0, 1)], "overflow": 0,
                "count": 1, "sum": 0.1, "min": 0.1, "max": 0.1}}}
            with pytest.raises(ConfigurationError):
                metrics.merge_snapshot(foreign)


class TestSingleAdoption:
    """Each accepted unit's telemetry is adopted exactly once."""

    @pytest.mark.parametrize("supervised", [False, True])
    def test_one_unit_span_per_unit(self, profiles, supervised):
        from repro.exec import SupervisionPolicy
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        supervision = SupervisionPolicy() if supervised else None
        with telemetry_session() as (tracer, _metrics):
            campaign = run_campaign(subset, tec, base, workers=2,
                                    supervision=supervision)
            names = [span.name for span in tracer.finished
                     if span.kind == "unit"]
        units = campaign.worker_stats["units"]
        # Supervised runs keep benchmark-grain units; plain runs split
        # each benchmark into its pipeline stages.
        expected = sorted(row["unit"] for row in units)
        assert len(expected) == (2 if supervised else 10)
        assert sorted(names) == expected
        # The row keys the outside-in benchmark reads.
        for row in units:
            assert {"unit", "pid", "wall_seconds"} <= set(row)
        per_worker = campaign.worker_stats["per_worker"]
        assert sum(row["units"] for row in per_worker) == len(units)
        for row in per_worker:
            assert {"pid", "units", "wall_seconds", "factorizations",
                    "factor_cache_hits"} <= set(row)

    def test_in_process_unit_adopted_before_unit_done(self, profiles):
        """unit_done pumps live telemetry streams, so the unit's spans
        must already be on the live tracer when it fires."""
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        seen = []

        class Recorder:
            def begin(self, total):
                pass

            def unit_running(self, name):
                pass

            def unit_done(self, name, wall_seconds, ok=True):
                seen.append((name, sorted(
                    span.name for span in tracer.finished
                    if span.kind == "benchmark")))

        with telemetry_session() as (tracer, _metrics):
            run_campaign(subset, tec, base, workers=0,
                         progress=Recorder())
        assert seen == [("basicmath", ["basicmath"]),
                        ("crc32", ["basicmath", "crc32"])]


@pytest.fixture(scope="module")
def identity_problems(profiles):
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=6)
    base = build_cooling_problem(profiles["basicmath"], with_tec=False,
                                 grid_resolution=6)
    return tec, base


class TestCampaignBitIdentity:
    def test_all_benchmarks_digest_equality(self, profiles,
                                            identity_problems):
        """The headline contract: `--workers N` output is bit-identical
        to serial over the full eight-benchmark campaign."""
        tec, base = identity_problems
        serial = run_campaign(profiles, tec, base,
                              include_tec_only=True, workers=0)
        parallel = run_campaign(profiles, tec, base,
                                include_tec_only=True, workers=2)
        assert canonical_digest(parallel) == canonical_digest(serial)
        per_worker = parallel.worker_stats["per_worker"]
        assert per_worker
        # A genuine pool ran: distinct worker pids with live caches.
        assert len({row["pid"] for row in per_worker}) == 2
        for row in per_worker:
            assert row["solves"] > 0
            assert row["factorizations"] > 0

    def test_in_process_executor_digest(self, monkeypatch, profiles,
                                        identity_problems):
        """One-stage units finished in-process (a pool that cannot
        start) merge to the same digest as whole-benchmark units."""
        tec, base = identity_problems
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        serial = run_campaign(subset, tec, base, workers=0)

        def failing_start(self):
            raise OSError("no pool for you")

        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", failing_start)
        staged = run_campaign(subset, tec, base, workers=2)
        assert [row["unit"] for row in staged.worker_stats["units"]][:2] \
            == ["basicmath/oftec-opt1", "basicmath/oftec-opt2"]
        assert canonical_digest(staged) == canonical_digest(serial)

    def test_in_process_campaign_warms_caller_operators(
            self, profiles, identity_problems):
        """In-process units run on the caller's templates: their
        operator counters and factor caches move."""
        tec, base = identity_problems
        operators = (tec.model.network.operator,
                     base.model.network.operator)
        before = [op.stats.solves for op in operators]
        campaign = run_campaign({"crc32": profiles["crc32"]}, tec, base,
                                workers=1)
        moved = sum(op.stats.solves - b
                    for op, b in zip(operators, before))
        assert moved > 0
        assert moved == sum(row["solves"] for row
                            in campaign.worker_stats["per_worker"])

    def test_env_workers_campaign_digest(self, monkeypatch, profiles,
                                         identity_problems):
        """The env-driven path the CLI gate misses: workers resolved
        from REPRO_WORKERS, which pool workers then inherit — their
        in-worker guard must keep unit bodies serial."""
        tec, base = identity_problems
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = run_campaign(subset, tec, base, workers=0)
        monkeypatch.setenv(WORKERS_ENV, "2")
        enved = run_campaign(subset, tec, base)
        assert canonical_digest(enved) == canonical_digest(serial)

    def test_unhandled_lists_every_entry(self, monkeypatch, profiles,
                                         identity_problems):
        tec, base = identity_problems
        subset = {"basicmath": profiles["basicmath"]}

        def fake_units(*args, **kwargs):
            from repro.exec import CampaignMerge
            return CampaignMerge(
                unhandled=["ValueError: first", "KeyError: second"])

        import repro.exec
        monkeypatch.setattr(repro.exec, "run_campaign_units",
                            fake_units)
        with pytest.raises(WorkerCrashError) as excinfo:
            run_campaign(subset, tec, base, workers=2)
        message = str(excinfo.value)
        assert "2 unhandled" in message
        assert "ValueError: first" in message
        assert "KeyError: second" in message
        assert excinfo.value.reports == ("ValueError: first",
                                         "KeyError: second")

    def test_executor_argument_accepts_only_process(
            self, profiles, identity_problems):
        tec, base = identity_problems
        subset = {"basicmath": profiles["basicmath"]}
        for name in ("thread", "serial"):
            with pytest.raises(ConfigurationError):
                run_campaign(subset, tec, base, workers=2,
                             executor=name)


class TestChaosUnderParallelism:
    def test_serial_and_parallel_chaos_agree(self, profiles):
        """One fault stream per benchmark at every worker count."""
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        subset = {name: profiles[name]
                  for name in ("basicmath", "bitcount", "crc32")}
        # Capped fires leave some benchmarks completed and fail others.
        plan = FaultPlan(seed=1, specs=tuple(
            FaultSpec(kind=kind, rate=0.03, max_fires=2)
            for kind in EVALUATOR_FAULT_KINDS))
        reports = [run_chaos_campaign(subset, tec, base, plan=plan,
                                      workers=workers)
                   for workers in (0, 2)]
        serial, parallel = (
            (report.fired,
             [(f.benchmark, f.stage, f.error_type)
              for f in report.campaign.failures],
             report.completed_benchmarks)
            for report in reports)
        assert sum(serial[0].values()) > 0
        assert 0 < len(serial[2]) < len(subset)
        assert serial == parallel

    def test_fault_events_land_on_worker_spans(self, profiles):
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        subset = {name: profiles[name]
                  for name in ("basicmath", "bitcount")}
        plan = full_fault_plan(seed=11, rate=0.05)
        with telemetry_session() as (tracer, metrics):
            report = run_chaos_campaign(subset, tec, base, plan=plan,
                                        workers=2)
            spans = list(tracer.finished)
            snapshot = metrics.snapshot()
        assert report.ok, report.unhandled
        assert sum(report.fired.values()) > 0
        # Worker metrics merged home.
        assert any(name.startswith("faults.injected")
                   for name in snapshot["counters"])
        by_id = {span.span_id: span for span in spans}
        fault_spans = [
            span for span in spans
            if any(event.name == "fault.injected"
                   for event in span.events)]
        assert fault_spans
        for span in fault_spans:
            benchmark = None
            unit = None
            cursor = span
            while cursor is not None:
                if cursor.kind == "benchmark" and benchmark is None:
                    benchmark = cursor.name
                if cursor.kind == "unit":
                    unit = cursor.name
                cursor = by_id.get(cursor.parent_id)
            # Every injected fault re-parents under the unit span of
            # the benchmark it actually hit.
            assert unit is not None
            assert benchmark == unit
            assert unit in subset


class TestChunking:
    """Balanced slicing: no runt chunks, exact multiples untouched."""

    def test_remainder_spread_not_stranded(self):
        from repro.exec import chunk_sizes
        # The motivating case: 17 points at chunk 8 used to schedule
        # [8, 8, 1] and leave two workers idle behind the runt.
        assert chunk_sizes(17, 8) == [6, 6, 5]
        assert chunk_sizes(17, 2) == [2] * 8 + [1]

    def test_exact_multiples_untouched(self):
        from repro.exec import chunk_sizes
        assert chunk_sizes(16, 8) == [8, 8]
        assert chunk_sizes(9, 3) == [3, 3, 3]

    def test_conservation_and_balance(self):
        from repro.exec import chunk_sizes
        for count in (1, 5, 17, 25, 100, 101):
            for chunk in (1, 2, 7, 8, 64):
                sizes = chunk_sizes(count, chunk)
                assert sum(sizes) == count
                assert max(sizes) - min(sizes) <= 1
                assert len(sizes) == -(-count // chunk)

    def test_empty_and_invalid(self):
        from repro.exec import chunk_sizes
        assert chunk_sizes(0, 8) == []
        assert chunk_sizes(-3, 8) == []
        with pytest.raises(ConfigurationError):
            chunk_sizes(5, 0)

    def test_default_chunk_balances_17_by_3(self):
        from repro.exec import chunk_sizes
        # 17 points on 3 workers: every unit within one point of its
        # neighbors, and more units than workers so the deque
        # scheduler can rebalance.
        chunk = default_chunk(17, 3)
        sizes = chunk_sizes(17, chunk)
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) >= 3


class TestStageMerge:
    """Reassembling one-stage units must mirror a whole-benchmark
    unit."""

    @staticmethod
    def _merge(results, benchmarks):
        from repro.analysis.campaign import CAMPAIGN_STAGES
        from repro.exec import CampaignMerge
        from repro.exec.scheduler import _merge_campaign
        units = [
            WorkUnit(index=index, kind="campaign",
                     name=f"{name}/{stage}", params=(name, (stage,)))
            for index, (name, stage) in enumerate(
                itertools.product(benchmarks, CAMPAIGN_STAGES))]
        merge = CampaignMerge()
        _merge_campaign(merge, units, results)
        return merge

    def test_error_stops_later_stages(self):
        from repro.analysis.campaign import CAMPAIGN_STAGES
        from repro.exec.units import UnitResult
        results = [
            UnitResult(index=index, name=f"bench/{stage}",
                       value={stage: None})
            for index, stage in enumerate(CAMPAIGN_STAGES)]
        results[1].error = ("oftec-opt2", "SolverError", "diverged")
        # In a whole-benchmark unit stages after the failure never ran,
        # so their values — even real-looking ones — must be dropped.
        results[3].value = {CAMPAIGN_STAGES[3]: object()}
        merge = self._merge(results, ["bench"])
        assert merge.comparisons == []
        assert merge.errors == [
            ("bench", "oftec-opt2", "SolverError", "diverged")]

    def test_unhandled_crash_labels_stage_unit(self):
        from repro.analysis.campaign import CAMPAIGN_STAGES
        from repro.exec.units import UnitResult
        results = [
            UnitResult(index=index, name=f"bench/{stage}",
                       value={stage: None})
            for index, stage in enumerate(CAMPAIGN_STAGES)]
        results[2].unhandled = ["RuntimeError: boom"]
        merge = self._merge(results, ["bench"])
        assert merge.comparisons == []
        assert merge.crashed == [
            ("bench/variable-opt1", 1, "RuntimeError: boom")]

    def test_lost_unit_is_terminal(self):
        from repro.analysis.campaign import CAMPAIGN_STAGES
        from repro.exec.units import UnitResult
        results = [
            UnitResult(index=index, name=f"bench/{stage}",
                       value={stage: 42})
            for index, stage in enumerate(CAMPAIGN_STAGES)]
        del results[4]  # fixed-omega never came home
        merge = self._merge(results, ["bench"])
        assert merge.comparisons == []
        assert merge.errors == []
