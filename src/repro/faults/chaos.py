"""Chaos harness: run a whole campaign under an injected fault matrix.

The contract under test: with fault injection active across every
benchmark and method, the campaign must still return — partial results
plus structured :class:`~repro.core.FailureReport` entries — and no
exception may escape.  :class:`ChaosReport.ok` is the single pass/fail
bit CI asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..analysis.campaign import CampaignResult
from ..core import CoolingProblem
from ..errors import ConfigurationError
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from ..power import BenchmarkProfile
from .plan import FaultPlan, full_fault_plan


@dataclass
class ChaosReport:
    """Outcome of one chaos-campaign run.

    Attributes:
        plan: The fault plan that was injected.
        fired: Fault fires per kind (by kind value).
        campaign: The (partial) campaign result; None only when an
            exception escaped the isolation boundaries.
        unhandled: ``"Type: message"`` lines for exceptions that escaped
            — the chaos contract is that this list stays empty.
        wall_seconds: Total harness wall-clock time.
    """

    plan: FaultPlan
    fired: Dict[str, int] = field(default_factory=dict)
    campaign: Optional[CampaignResult] = None
    unhandled: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every fault was contained (no unhandled escapes)."""
        return not self.unhandled and self.campaign is not None

    @property
    def completed_benchmarks(self) -> List[str]:
        """Benchmarks that produced a full comparison despite faults."""
        if self.campaign is None:
            return []
        return self.campaign.benchmark_names


def run_chaos_campaign(
    profiles: Mapping[str, BenchmarkProfile],
    tec_problem_template: CoolingProblem,
    baseline_problem_template: CoolingProblem,
    plan: Optional[FaultPlan] = None,
    method: str = "slsqp",
    resilient: bool = True,
    workers: Optional[int] = None,
    supervision: Optional[object] = None,
    progress: Optional[object] = None,
) -> ChaosReport:
    """Run the benchmark campaign with fault injection turned on.

    The campaign runs as whole-benchmark units of the parallel engine
    at every worker count.  Each unit wraps its evaluators around one
    injector seeded by :meth:`~repro.faults.FaultPlan.derive` from the
    benchmark name, so fires, failures, and completed benchmarks are
    the same for a given plan whatever the worker count or schedule,
    and a spec's ``max_fires`` caps fires per benchmark.  Fault events
    land on the unit's spans (adopted under the coordinating ``unit``
    span), and fires are summed across units into
    :attr:`ChaosReport.fired` — including process-level fires when the
    supervised executor is engaged.  Unhandled exceptions are
    contained per unit, so a report can carry both a partial campaign
    and a non-empty ``unhandled`` list.

    Args:
        profiles: Benchmark name -> power profile.
        tec_problem_template: TEC-equipped problem template.
        baseline_problem_template: Matching no-TEC template.
        plan: Fault plan (default: every evaluator-level kind at the
            default rate).  Process-level kinds (``worker-kill`` /
            ``worker-hang`` / ``worker-slow``) fire only on a pool:
            they engage the supervised executor and need
            ``workers >= 2`` (fewer raises
            :class:`~repro.errors.ConfigurationError`).
        method: Leading solver backend.
        resilient: Route OFTEC stages through the fallback ladder
            (False stresses the campaign-level isolation alone).
        workers: Worker-process count (None defers to
            ``REPRO_WORKERS``; 0 or 1 runs in-process).
        supervision: A :class:`repro.exec.SupervisionPolicy` routing
            the units through the supervised executor (worker death
            becomes retries/quarantine).  Defaults to the stock policy
            when the plan carries process-level kinds.
        progress: A :class:`repro.obs.ProgressBoard` (or anything with
            its hook methods) fed the benchmark lifecycle.
    """
    plan = plan if plan is not None else full_fault_plan()
    from ..exec import (
        SupervisionPolicy,
        resolve_workers,
        run_campaign_units,
    )
    workers = resolve_workers(workers)
    if plan.process_kinds:
        if workers < 2:
            kinds = ", ".join(kind.value for kind in plan.process_kinds)
            raise ConfigurationError(
                f"process-level fault kinds ({kinds}) fire only on a "
                f"worker pool and need workers >= 2, got {workers}")
        if supervision is None:
            supervision = SupervisionPolicy()
    report = ChaosReport(plan=plan)
    watch = stopwatch("chaos.wall_seconds")
    with watch, _obs.span("chaos", seed=plan.seed, workers=workers):
        merge = run_campaign_units(
            profiles, tec_problem_template, baseline_problem_template,
            method=method, include_tec_only=False,
            resilient=resilient, policy=None, fault_plan=plan,
            workers=workers, supervision=supervision,
            progress=progress)
        report.unhandled.extend(merge.unhandled)
        for text in merge.unhandled:
            _obs.event("chaos.unhandled",
                       error=text.split(":", 1)[0])
        report.fired = merge.fired
        report.campaign = CampaignResult(
            comparisons=merge.comparisons,
            t_max=tec_problem_template.limits.t_max,
            failures=merge.failures,
            quarantined=list(merge.quarantined),
            worker_stats=merge.worker_stats)
    report.campaign.wall_seconds = watch.elapsed
    if _obs.STATE.enabled:
        for kind, count in report.fired.items():
            _obs.STATE.metrics.gauge(f"chaos.fired.{kind}").set(count)
    report.wall_seconds = watch.elapsed
    return report


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable summary of a chaos run."""
    lines = [
        "chaos campaign "
        + ("PASSED" if report.ok else "FAILED")
        + f" (seed={report.plan.seed}, "
        + f"{report.wall_seconds:.1f} s)",
        "fault fires: " + (", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report.fired.items())) or "none"),
    ]
    if report.campaign is not None:
        done = report.completed_benchmarks
        lines.append(
            f"benchmarks completed: {len(done)} "
            f"({', '.join(done) if done else 'none'})")
        lines.append(
            f"failure reports: {len(report.campaign.failures)}")
        for failure in report.campaign.failures:
            lines.append(
                f"  - {failure.benchmark} [{failure.stage}] "
                f"{failure.error_type}: {failure.message}")
        if report.campaign.quarantined:
            lines.append(
                f"quarantined units: "
                f"{len(report.campaign.quarantined)}")
            for entry in report.campaign.quarantined:
                lines.append(
                    f"  - {entry.name} after {entry.attempts} "
                    f"attempt(s): {entry.errors[-1] if entry.errors else '?'}")
    for text in report.unhandled:
        lines.append(f"UNHANDLED: {text}")
    return "\n".join(lines)
