"""Persistent warm worker pools: reuse, affinity, failure discipline."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import build_cooling_problem
from repro.analysis import run_campaign
from repro.errors import ConfigurationError
from repro.exec import WorkerPool, WorkerPoolError
from repro.io import campaign_to_dict


def canonical(campaign):
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pool_problems(profiles):
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=4)
    base = build_cooling_problem(profiles["basicmath"], with_tec=False,
                                 grid_resolution=4)
    return tec, base


@pytest.fixture(scope="module")
def subset(profiles):
    return {name: profiles[name] for name in ("basicmath", "crc32")}


class TestValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(workers=0)

    def test_closed_pool_rejects_runs(self, subset, pool_problems):
        tec, base = pool_problems
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(ConfigurationError):
            run_campaign(subset, tec, base, pool=pool)

    def test_close_idempotent(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()


class TestWarmReuse:
    def test_second_campaign_reuses_context(self, subset,
                                            pool_problems):
        tec, base = pool_problems
        serial = run_campaign(subset, tec, base, workers=0)
        with WorkerPool(workers=2) as pool:
            first = run_campaign(subset, tec, base, pool=pool)
            second = run_campaign(subset, tec, base, pool=pool)
            stats = pool.stats()
            # pool_stats ride the campaign's worker telemetry too.
            assert second.worker_stats["pool"]["context_reuses"] >= 1
        assert canonical(first) == canonical(serial)
        assert canonical(second) == canonical(serial)
        assert stats["runs"] == 2
        assert stats["context_installs"] == 1
        assert stats["context_reuses"] == 1
        assert stats["affinity_hits"] > 0

    def test_new_payload_reinstalls(self, subset, profiles,
                                    pool_problems):
        tec, base = pool_problems
        other = {"fft": profiles["fft"]}
        with WorkerPool(workers=1) as pool:
            run_campaign(subset, tec, base, pool=pool)
            run_campaign(other, tec, base, pool=pool)
            stats = pool.stats()
        assert stats["context_installs"] == 2
        assert stats["context_reuses"] == 0

    def test_pool_implies_parallel_workers(self, subset,
                                           pool_problems):
        """run_campaign(pool=...) without workers= fans out over the
        pool instead of falling back to serial."""
        tec, base = pool_problems
        serial = run_campaign(subset, tec, base, workers=0)
        with WorkerPool(workers=2) as pool:
            pooled = run_campaign(subset, tec, base, pool=pool)
            assert pool.stats()["units_dispatched"] > 0
        assert canonical(pooled) == canonical(serial)


class TestFailureDiscipline:
    def test_dead_worker_raises_and_marks_broken(self, subset,
                                                 pool_problems):
        tec, base = pool_problems
        with WorkerPool(workers=1) as pool:
            campaign = run_campaign(subset, tec, base, pool=pool)
            # Kill the resident worker behind the pool's back.
            victim = pool._slots[0].process
            victim.terminate()
            victim.join(5.0)
            # The scheduler catches WorkerPoolError and degrades to
            # serial: the campaign still completes, bit-identically.
            after = run_campaign(subset, tec, base, pool=pool)
            stats = pool.stats()
            assert stats["broken_runs"] == 1
            # The broken pool respawns transparently on the next run.
            revived = run_campaign(subset, tec, base, pool=pool)
            assert pool.stats()["broken_runs"] == 1
        assert canonical(after) == canonical(campaign)
        assert canonical(revived) == canonical(campaign)

    def test_run_payload_raises_for_direct_callers(self, subset,
                                                   pool_problems):
        import pickle

        from repro.exec.units import WorkUnit
        pool = WorkerPool(workers=1, heartbeat_timeout_seconds=5.0)
        try:
            pool._ensure_started()
            pool._slots[0].process.kill()
            pool._slots[0].process.join(5.0)
            unit = WorkUnit(index=0, kind="benchmark",
                            name="basicmath", params=("basicmath",))
            with pytest.raises(WorkerPoolError):
                pool.run_payload(pickle.dumps(None), [unit])
        finally:
            pool.close()

    def test_workers_exit_when_coordinator_dies(self):
        """A SIGKILLed coordinator runs no cleanup; its workers must
        notice and exit instead of blocking on their queues forever."""
        script = (
            "import sys, time\n"
            "from repro.exec import WorkerPool\n"
            "pool = WorkerPool(workers=2)\n"
            "pool._ensure_started()\n"
            "print(*[s.process.pid for s in pool._slots], flush=True)\n"
            "time.sleep(60)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        coordinator = subprocess.Popen([sys.executable, "-c", script],
                                       stdout=subprocess.PIPE, env=env,
                                       text=True)
        try:
            pids = [int(pid) for pid in
                    coordinator.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(10.0)

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().split(")")[-1].split()[0] \
                        != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in pids)
