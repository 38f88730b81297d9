"""Design-space sweeps over ``(omega, I_TEC)``: Figures 6(a) and 6(b).

The paper's surface plots show the two objectives over the whole
operating plane for Basicmath: the maximum die temperature 𝒯 (whose
runaway region at low omega renders as "infinity") and the cooling power
𝒫.  :func:`sweep_objective_surfaces` evaluates both on a rectangular
sample grid in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..core import CoolingProblem, Evaluator


@dataclass
class SurfaceSweep:
    """Sampled objective surfaces over the (omega, I) plane.

    Attributes:
        omegas: Fan-speed axis, rad/s.
        currents: Current axis, A.
        temperature: 𝒯 surface, K, shape (len(omegas), len(currents));
            ``inf`` marks thermal runaway.
        power: 𝒫 surface, W, same shape and runaway convention.
        feasible: Boolean mask of points meeting the thermal constraint.
        problem_name: Workload label.
    """

    omegas: np.ndarray
    currents: np.ndarray
    temperature: np.ndarray
    power: np.ndarray
    feasible: np.ndarray
    problem_name: str

    @property
    def runaway_mask(self) -> np.ndarray:
        """True where no bounded steady state exists."""
        return ~np.isfinite(self.temperature)

    def min_temperature_point(self) -> Tuple[float, float, float]:
        """``(omega, current, 𝒯)`` of the coolest sampled point."""
        masked = np.where(np.isfinite(self.temperature),
                          self.temperature, np.inf)
        flat = int(np.argmin(masked))
        i, j = np.unravel_index(flat, masked.shape)
        return (float(self.omegas[i]), float(self.currents[j]),
                float(masked[i, j]))

    def min_power_point(self, feasible_only: bool = True,
                        ) -> Tuple[float, float, float]:
        """``(omega, current, 𝒫)`` of the cheapest sampled point."""
        power = np.where(np.isfinite(self.power), self.power, np.inf)
        if feasible_only:
            power = np.where(self.feasible, power, np.inf)
        if not np.isfinite(power).any():
            raise ConfigurationError(
                "No feasible point in the sweep; widen the sample grid")
        flat = int(np.argmin(power))
        i, j = np.unravel_index(flat, power.shape)
        return (float(self.omegas[i]), float(self.currents[j]),
                float(power[i, j]))

    def runaway_boundary_omega(self) -> np.ndarray:
        """Per-current smallest omega with a bounded steady state.

        This traces the cliff edge the paper describes: "increasing I_TEC
        alone cannot rescue the chip from the thermal runaway situation;
        omega should also be increased".  Entries are NaN when every
        sampled omega runs away at that current.
        """
        boundary = np.full(self.currents.size, np.nan)
        finite = np.isfinite(self.temperature)
        for j in range(self.currents.size):
            rows = np.flatnonzero(finite[:, j])
            if rows.size:
                boundary[j] = self.omegas[rows[0]]
        return boundary


def sweep_objective_surfaces(
    problem: CoolingProblem,
    omega_points: int = 24,
    current_points: int = 21,
    omega_range: Optional[Tuple[float, float]] = None,
    current_range: Optional[Tuple[float, float]] = None,
    evaluator: Optional[Evaluator] = None,
    workers: Optional[int] = None,
    progress: Optional[object] = None,
) -> SurfaceSweep:
    """Evaluate 𝒯 and 𝒫 on a rectangular (omega, I) sample grid.

    Runaway points record ``inf`` in both surfaces (the paper plots them
    as the saturated "dark red" region).

    ``workers`` fans the grid across worker processes, one omega row
    per chunk (None defers to ``REPRO_WORKERS``; 0 or 1 stays
    in-process).
    Surfaces are identical across worker counts.  ``progress`` (a
    :class:`repro.obs.ProgressBoard`) receives per-chunk lifecycle
    events on the fanned-out path.
    """
    if omega_points < 2 or current_points < 1:
        raise ConfigurationError(
            "Need at least 2 omega and 1 current sample")
    limits = problem.limits
    omega_lo, omega_hi = omega_range or (0.0, limits.omega_max)
    current_hi_default = problem.current_upper_bound
    current_lo, current_hi = current_range or (0.0, current_hi_default)
    if not (0.0 <= omega_lo < omega_hi <= limits.omega_max):
        raise ConfigurationError(f"Bad omega range [{omega_lo}, {omega_hi}]")
    if current_hi > 0 and not (0.0 <= current_lo <= current_hi
                               <= limits.i_tec_max):
        raise ConfigurationError(
            f"Bad current range [{current_lo}, {current_hi}]")

    omegas = np.linspace(omega_lo, omega_hi, omega_points)
    if current_points == 1 or current_hi <= current_lo:
        currents = np.array([current_lo])
    else:
        currents = np.linspace(current_lo, current_hi, current_points)
    evaluator = evaluator or Evaluator(problem)

    shape = (omegas.size, currents.size)
    temperature = np.full(shape, np.inf)
    power = np.full(shape, np.inf)
    feasible = np.zeros(shape, dtype=bool)
    points = [(float(omega), float(current))
              for omega in omegas for current in currents]
    evaluations = None
    if evaluator._batchable():
        from ..exec import evaluate_points, resolve_workers
        worker_count = resolve_workers(workers)
        if worker_count >= 2:
            # One omega row per chunk: row boundaries are fixed by the
            # grid (not the worker count), and every point in a row
            # shares its fan operating point, so a chunk's solves
            # group under few factorizations.
            evaluations = evaluate_points(
                problem, points, worker_count, chunk=currents.size,
                progress=progress)
    if evaluations is None:
        evaluations = evaluator.evaluate_many(points)
    for flat, evaluation in enumerate(evaluations):
        if evaluation.runaway:
            continue
        i, j = divmod(flat, currents.size)
        temperature[i, j] = evaluation.max_chip_temperature
        power[i, j] = evaluation.total_power
        feasible[i, j] = evaluation.feasible
    return SurfaceSweep(
        omegas=omegas, currents=currents,
        temperature=temperature, power=power, feasible=feasible,
        problem_name=problem.name)
