"""Parallel execution engine: serial vs worker pool / warm pool.

Not a paper figure — this bench guards the ``repro.exec`` engine with
two arms, both digest-gated against the serial campaign:

* **process** — the fan-out over stage-level units (``workers=2``,
  plus 4 where the host has 4 cores).
* **warm pool** — two campaigns on one persistent :class:`WorkerPool`;
  the second must run ≥90% out of worker-side factor caches
  (``pool_stats`` + per-worker telemetry prove it).

Speedup bars are conditional on the recorded core count — BENCH_5 once
quoted a 0.48× "regression" measured on a 1-CPU container — and the
artifact carries ``constrained_host`` plus ``expected_units`` so
``scripts/bench_gate.py`` can reason about the run it actually gates.
"""

import hashlib
import json
import os

from _common import emit_bench_json
from repro import build_cooling_problem
from repro.analysis import run_campaign
from repro.analysis.campaign import CAMPAIGN_STAGES
from repro.exec import WorkerPool
from repro.io import campaign_to_dict

#: Second-campaign factor-cache hit rate the warm pool must reach.
WARM_HIT_RATE_MIN = 0.9


def _canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _campaign_arm(profiles, tec, base, serial_digest, **kwargs):
    """One digest-gated campaign run; returns (campaign, record)."""
    campaign = run_campaign(profiles, tec, base,
                            include_tec_only=True, **kwargs)
    assert _canonical_digest(campaign) == serial_digest
    return campaign, {
        "wall_seconds": campaign.wall_seconds,
        "per_worker": campaign.worker_stats.get("per_worker", []),
    }


def test_parallel_campaign_and_emit(profiles, tec_problem,
                                    baseline_problem, resolution):
    """Two-arm parallel engine bench; emits BENCH_5.json."""
    cores = os.cpu_count() or 1

    serial = run_campaign(profiles, tec_problem, baseline_problem,
                          include_tec_only=True, workers=0)
    serial_digest = _canonical_digest(serial)
    expected_units = len(profiles) * len(CAMPAIGN_STAGES)
    print(f"\nserial: {serial.wall_seconds:.1f} s wall, "
          f"{len(serial.comparisons)} benchmarks")

    # -- process arm --------------------------------------------------
    worker_counts = [2]
    if cores >= 4:
        worker_counts.append(4)
    parallel = {}
    for workers in worker_counts:
        campaign, record = _campaign_arm(
            profiles, tec_problem, baseline_problem, serial_digest,
            workers=workers)
        speedup = serial.wall_seconds / campaign.wall_seconds
        record.update(workers=workers, speedup=speedup)
        print(f"process workers={workers}: "
              f"{campaign.wall_seconds:.1f} s ({speedup:.2f}x), "
              f"{len(record['per_worker'])} worker(s)")
        parallel[f"workers_{workers}"] = record

    # -- warm-pool arm ------------------------------------------------
    # Locally built templates: the big factor cache is this arm's
    # experiment and must not leak into the session fixtures.
    template = profiles["basicmath"]
    pool_tec = build_cooling_problem(template,
                                     grid_resolution=resolution)
    pool_base = build_cooling_problem(template, with_tec=False,
                                      grid_resolution=resolution)
    capacity = 8192
    pool_tec.model.network.configure_operator(factor_capacity=capacity)
    pool_base.model.network.configure_operator(
        factor_capacity=capacity)
    pool_serial = run_campaign(profiles, pool_tec, pool_base,
                               include_tec_only=True, workers=0)
    pool_digest = _canonical_digest(pool_serial)
    with WorkerPool(workers=2) as pool:
        _, cold_record = _campaign_arm(
            profiles, pool_tec, pool_base, pool_digest, pool=pool)
        warm_campaign, warm_record = _campaign_arm(
            profiles, pool_tec, pool_base, pool_digest, pool=pool)
        pool_stats = pool.stats()
    hits = sum(row["factor_cache_hits"]
               for row in warm_record["per_worker"])
    factorizations = sum(row["factorizations"]
                         for row in warm_record["per_worker"])
    hit_rate = hits / max(hits + factorizations, 1)
    warm_speedup = (cold_record["wall_seconds"]
                    / warm_campaign.wall_seconds)
    print(f"warm pool: cold {cold_record['wall_seconds']:.1f} s, "
          f"warm {warm_campaign.wall_seconds:.1f} s "
          f"({warm_speedup:.2f}x), factor hit rate {hit_rate:.3f}")

    payload = {
        "bench": "parallel_campaign",
        "grid_resolution": resolution,
        "benchmarks": len(serial.comparisons),
        "expected_units": expected_units,
        "constrained_host": cores < 4,
        "canonical_digest": serial_digest,
        "serial": {"wall_seconds": serial.wall_seconds},
        "parallel": parallel,
        "warm_pool": {
            "factor_capacity": capacity,
            "cold": cold_record,
            "warm": warm_record,
            "warm_speedup": warm_speedup,
            "factor_cache_hits": hits,
            "factorizations": factorizations,
            "hit_rate": hit_rate,
            "pool_stats": pool_stats,
        },
    }
    emit_bench_json("BENCH_5.json", payload)

    assert len(serial.comparisons) == len(profiles)
    # Every pool run used real worker processes with live factor
    # caches, and every stage unit executed exactly once.
    for run in parallel.values():
        assert run["per_worker"]
        assert sum(row["units"]
                   for row in run["per_worker"]) == expected_units
        for row in run["per_worker"]:
            assert row["solves"] > 0
            assert row["factorizations"] > 0
    # Warm reuse is machine-independent: one install, one reuse, and
    # the second campaign runs out of worker-side caches.
    assert pool_stats["context_installs"] == 1
    assert pool_stats["context_reuses"] == 1
    assert hit_rate >= WARM_HIT_RATE_MIN
    if cores >= 4:
        # The scheduler must pay for itself where cores exist.
        assert parallel["workers_4"]["speedup"] >= 2.0
