"""The four benchmark workloads, generated from a seed.

Each workload is one closed-loop client: a request is issued only
after the previous one returns.  Every request runs on freshly built
problems, so no request inherits a warm factor cache from the one
before it, and every output is checked.

=============  ======================================================
``table2``     Serial Table-2 campaign (``run_campaign``, workers=0,
               TEC-only included) over the eight MiBench profiles at
               resolution 12; the seed sets the benchmark order.  The
               leakage loop, SuperLU factorization, adjoint solves and
               the SQP optimizer do their main work here; ``exec`` idles.
``table2-par2`` The same campaign on two worker processes: the only
               workload where ``exec`` transport (pickling, the shared
               memory plane, dispatch, merge) runs.  Its physics
               matches ``table2``, so the canonical digests compare.
``surface``    Figure 6(a)/(b) sweeps over a 14 x 11 (omega, I) grid
               at resolution 16, one light and one heavy profile picked
               by the seed, grid shifted by a seeded sub-step.  Leakage
               loop and operator only; every point is a new operating
               point, and low-omega points take the runaway path.
``online``     Closed-loop lookup-table control (interval 0.5 s,
               dt 0.05 s) at resolution 12 over a 40 s trace of eight
               seeded MiBench segments.  Backward-Euler stepping only:
               no steady-state solve, no SQP, no ``exec``.
=============  ======================================================
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Tuple

from repro.analysis import (
    run_campaign,
    sweep_objective_surfaces,
    verify_paper_shapes,
)
from repro.analysis.verification import HEAVY_BENCHMARKS, LIGHT_BENCHMARKS
from repro.errors import ConfigurationError
from repro.core import (
    LookupTableController,
    build_cooling_problem,
    lut_policy,
    run_online_controller,
)
from repro.io import campaign_to_dict
from repro.power import TraceGenerator, concatenate_traces, mibench_profiles
from spans import ATTRS

#: Default grid resolution (cells per die edge) of each workload.
RESOLUTIONS = {"table2": 12, "table2-par2": 12, "surface": 16,
               "online": 12}

SURFACE_GRID = (14, 11)        # (omega points, current points)
ONLINE_SEGMENT_S = 5.0         # eight segments: a 40 s trace
ONLINE_SAMPLE_S = 0.05
CONTROL_INTERVAL_S = 0.5
CONTROL_DT_S = 0.05
PAR_WORKERS = 2                # table2-par2 worker processes (<= nproc)


class Outcome:
    """Operations a request attempted and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.digest = ""

    def tally(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)


def campaign_digest(campaign: Any) -> str:
    """blake2b of the canonical campaign JSON (comparable on one host)."""
    payload = json.dumps(campaign_to_dict(campaign, canonical=True),
                         sort_keys=True).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class Workload:
    """One seeded workload: ``build`` (and ``precompute``) is set-up,
    ``prepare`` makes the inputs of one request, ``request`` runs it
    and ``check`` validates its output."""

    def __init__(self, name: str, seed: int, resolution: int = 0):
        if name not in RESOLUTIONS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.resolution = resolution or RESOLUTIONS[name]
        self.rng = random.Random(seed)
        self.profiles = mibench_profiles()
        self._built: Any = None

    # -- set-up -------------------------------------------------------

    def _problems(self) -> Any:
        res = self.resolution
        if self.name == "surface":
            return tuple(build_cooling_problem(self.profiles[n], name=n,
                                               grid_resolution=res)
                         for n in self.surface_pair)
        template = self.profiles["basicmath"]
        tec = build_cooling_problem(template, grid_resolution=res)
        if self.name == "online":
            return tec
        return tec, build_cooling_problem(template, with_tec=False,
                                          grid_resolution=res)

    def build(self) -> None:
        """Choose the seeded inputs and build the first problems."""
        names = list(self.profiles)
        if self.name in ("table2", "table2-par2"):
            self.rng.shuffle(names)
            self.order = names
        elif self.name == "surface":
            self.surface_pair = (self.rng.choice(LIGHT_BENCHMARKS),
                                 self.rng.choice(HEAVY_BENCHMARKS))
            # At most half a step, so the lowest omega row stays deep
            # enough in the runaway region for the light profiles too.
            self.grid_shift = (self.rng.random() / 2, self.rng.random() / 2)
        else:
            self.rng.shuffle(names)
            self.segments = names
            self.trace_seed = self.rng.randrange(2 ** 31)
        self._built = self._problems()

    def precompute(self) -> None:
        """``online`` only: the offline lookup table over all eight
        MiBench profiles."""
        self.table = LookupTableController(
            self._built.coverage.floorplan.unit_names)
        self.table.precompute(
            self._built, {n: p.unit_power for n, p in self.profiles.items()},
            workers=0)

    # -- requests -----------------------------------------------------

    def prepare(self, index: int) -> Any:
        """Inputs of request ``index``: the set-up problems for the
        first request, freshly built ones after it."""
        problems = self._built if index == 0 else self._problems()
        if self.name != "online":
            return problems
        generator = TraceGenerator(seed=self.trace_seed)
        trace = concatenate_traces(
            [generator.generate(self.profiles[n], duration=ONLINE_SEGMENT_S,
                                sample_interval=ONLINE_SAMPLE_S,
                                seed=self.trace_seed + k)
             for k, n in enumerate(self.segments)],
            name="phase-hopping")
        return problems, trace

    def request(self, inputs: Any, recorder: Any) -> Any:
        """Run one request; its spans open new request ids."""
        if self.name in ("table2", "table2-par2"):
            tec, base = inputs
            profiles = {n: self.profiles[n] for n in self.order}
            parallel = ({"workers": PAR_WORKERS, "executor": "process"}
                        if self.name == "table2-par2" else {"workers": 0})
            with recorder.span("campaign"):
                return run_campaign(profiles, tec, base,
                                    include_tec_only=True, **parallel)
        if self.name == "surface":
            sweeps = []
            for problem in inputs:
                omega_step = problem.limits.omega_max / SURFACE_GRID[0]
                current_step = problem.current_upper_bound / SURFACE_GRID[1]
                du, dv = self.grid_shift
                with recorder.span("sweep", new_request=True):
                    sweeps.append(sweep_objective_surfaces(
                        problem, omega_points=SURFACE_GRID[0],
                        current_points=SURFACE_GRID[1],
                        omega_range=(du * omega_step, (SURFACE_GRID[0] - 1
                                                       + du) * omega_step),
                        current_range=(dv * current_step,
                                       (SURFACE_GRID[1] - 1 + dv)
                                       * current_step),
                        workers=0))
            return sweeps
        problem, trace = inputs
        with recorder.span("online", new_request=True) as record:
            result = run_online_controller(
                problem, trace, lut_policy(self.table),
                control_interval=CONTROL_INTERVAL_S, dt=CONTROL_DT_S)
            if record is not None:
                record[ATTRS] = {"steps": len(result.times)}
        return problem, trace, result

    def work(self, output: Any) -> Tuple[str, str, float]:
        """The workload's own end-to-end figure: its name, unit and the
        work one request does (0: the figure is the request time)."""
        if self.name == "surface":
            return "points_per_s", "1/s", float(
                sum(s.temperature.size for s in output))
        if self.name == "online":
            return "sim_s_per_s", "s/s", float(output[1].duration)
        return "campaign_s", "s", 0.0

    def check(self, output: Any, outcome: Outcome) -> None:
        """Validate one request's output into ``outcome``."""
        if self.name in ("table2", "table2-par2"):
            campaign = output
            broken = len(campaign.failures) + len(campaign.quarantined)
            outcome.tally(True, "", 6 * len(self.order) - broken)
            if broken:
                outcome.tally(False, f"{broken} campaign stage(s) failed",
                              broken)
            for shape in verify_paper_shapes(campaign):
                outcome.tally(shape.passed, f"shape: {shape.claim}")
            outcome.digest = campaign_digest(campaign)
        elif self.name == "surface":
            for sweep in output:
                runaway_low = bool(sweep.runaway_mask[0].any())
                try:
                    sweep.min_power_point(feasible_only=True)
                    feasible = True
                except ConfigurationError:
                    feasible = False
                outcome.tally(runaway_low and feasible,
                              f"{sweep.problem_name}: runaway at low "
                              f"omega {runaway_low}, feasible {feasible}")
        else:
            problem, _trace, result = output
            decisions = {(round(d.omega), round(d.current, 2))
                         for d in result.decisions}
            ok = (result.violation_time == 0.0
                  and result.peak_temperature < problem.limits.t_max
                  and len(decisions) >= 2)
            outcome.tally(ok, f"online: violation {result.violation_time}"
                          f" s, peak {result.peak_temperature:.2f} K, "
                          f"{len(decisions)} decisions")

    def worker_metrics(self, output: Any, wall: float) -> Dict[str, float]:
        """``exec`` metrics from a parallel campaign's worker stats."""
        stats = getattr(output, "worker_stats", None) or {}
        units = stats.get("units", [])
        workers = stats.get("per_worker", [])
        busy = sum(u["wall_seconds"] for u in units)
        hits = sum(w["factor_cache_hits"] for w in workers)
        factors = sum(w["factorizations"] for w in workers)
        return {
            "exec.units": len(units),
            "exec.busy_s": busy,
            "exec.overhead_s": PAR_WORKERS * wall - busy if units else 0.0,
            "exec.imbalance": (max(w["wall_seconds"] for w in workers)
                               / (busy / PAR_WORKERS)) if units else 0.0,
            "exec.worker_hit_ratio": (hits / (hits + factors)
                                      if hits + factors else 0.0),
        }
