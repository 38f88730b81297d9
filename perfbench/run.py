"""OFTEC benchmark runner: set-up, latency, memory and per-layer time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 17 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median of several fresh interpreters), request latency
(median over closed-loop requests for ``--seconds``) and peak RSS.
``--trace 1`` reports its per-layer metrics: one untraced and one
traced request, each in a fresh process; the traced one records spans
around every layer seam (``spans.py``).  ``--workload all`` runs every
workload with one seed and also requires the canonical digests of
``table2`` and ``table2-par2`` to match.

Every child runs with the ambient ``REPRO_*`` execution settings
cleared and BLAS/OpenMP pinned to one thread.  Human-readable lines
come first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and exact-count
records go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchstats import describe, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table2", "table2-par2", "surface", "online")

#: Fresh-interpreter set-up probes per run, before the measuring
#: process adds the last sample: at least the minimum, and up to the
#: maximum while the probes have taken less than the budget.
SETUP_PROBES = (2, 4)
SETUP_PROBE_BUDGET_S = 6.0
#: Wall-clock budget of one workload run, s.
RUN_BUDGET_S = 170.0
#: Ambient settings that would change a workload; cleared, recorded.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_EXECUTOR", "REPRO_SHM",
              "REPRO_START_METHOD", "REPRO_BENCH_RESOLUTION")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")
#: Exact counts that must repeat across runs of one code and seed.
EXACT_COUNTS = ("operator.splu.calls", "operator.solve.calls",
                "operator.solve_t.calls", "evaluator.evaluate.calls",
                "evaluator.grad.calls", "evaluator.many.calls",
                "solver.steady.calls", "sqp.nfev", "online.steps")


class BenchError(Exception):
    """A child failed or the checkout cannot be benchmarked."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], deadline: float) -> Tuple[dict, float]:
    """Run ``child.py`` with ``args``; return its report and the
    monotonic time it was spawned.  The child's process group is
    killed and reaped if it outlives ``deadline``."""
    command = [sys.executable, str(HERE / "child.py")] + args
    spawned = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"child {' '.join(args)} exceeded the run budget")
    if process.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with "
                         f"{process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed no report")
    return json.loads(lines[-1]), spawned


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout; never search upwards
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def code_digest() -> str:
    """Digest of the program and benchmark sources: exact counts are
    compared only between runs of identical code."""
    digest = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def header(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        "ambient_env": {k: os.environ[k] for k in PINNED_ENV
                        if k in os.environ},
        "threads_env": {k: "1" for k in THREAD_ENV},
    }


def check_counts(workload: str, seed: int, resolution: int,
                 layers: Dict[str, float]) -> List[str]:
    """Compare exact counts with an earlier run of the same code, seed
    and resolution (if one was recorded); record this run's counts."""
    counts = {k: layers[k] for k in EXACT_COUNTS}
    path = OUT / f"counts-{workload}-{seed}-{resolution}.json"
    stamp = code_digest()
    mismatches = []
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("code") == stamp:
            mismatches = [f"{k}: {earlier['counts'].get(k)} -> {v}"
                          for k, v in counts.items()
                          if earlier["counts"].get(k) != v]
    path.write_text(json.dumps({"code": stamp, "counts": counts}))
    return mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 resolution: int, spec: dict) -> dict:
    """One workload run; returns its result dict (not yet printed)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    loads: List[float] = []
    OUT.mkdir(exist_ok=True)

    def launch(mode: str, *extra: str) -> Tuple[dict, float]:
        loads.append(round(os.getloadavg()[0], 2))
        report, spawned = run_child(
            ["--workload", workload, "--seed", str(seed), "--mode", mode,
             "--resolution", str(resolution), *extra], deadline)
        return report, report["ready"] - spawned

    lines: List[str] = []
    if not trace:
        setups: List[float] = []
        while len(setups) < SETUP_PROBES[0] or (
                len(setups) < SETUP_PROBES[1]
                and sum(setups) < SETUP_PROBE_BUDGET_S):
            setups.append(launch("setup")[1])
        report, setup_s = launch("measure", "--seconds", str(seconds))
        setups.append(setup_s)
        durations = report["durations"]
        values = {"setup_s": median(setups),
                  "request_s": median(durations),
                  "peak_rss_mb": report["rss_mb"]}
        lines.append(f"setup_s {describe(setups)} s")
        lines.append(f"request_s {describe(durations)} s")
        attempted, failed = report["attempted"], report["failed"]
        notes = report["notes"]
        kinds = spec["end_to_end"]
    else:
        plain, _ = launch("measure", "--requests", "1")
        traced, _ = launch("trace", "--spans-out",
                           str(OUT / f"spans-{workload}.jsonl"))
        report = traced
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = 100.0 * (
            traced["durations"][0] / plain["durations"][0] - 1.0)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        notes = plain["notes"] + traced["notes"]
        values["failed_frac"] = failed / attempted if attempted else 1.0
        mismatches = check_counts(workload, seed, resolution, values)
        values["determinism.mismatches"] = len(mismatches)
        lines.extend(f"exact-count mismatch: {m}" for m in mismatches)
        wall = values["trace.wall_s"]
        lines.append(f"unattributed_s {values['unattributed_s']:.4f} s = "
                     f"{100 * values['unattributed_s'] / wall:.2f}% of "
                     f"traced wall {wall:.3f} s")
        kinds = spec["per_layer"]
    name, unit, work = report["rate"]
    if name:
        figure = median(report["durations"])
        lines.append(f"{name} {work / figure if work else figure:.6g} "
                     f"{unit} (median request {figure:.6g} s)")
    lines.append(f"failed_frac {failed / max(attempted, 1):.6g} ratio "
                 f"({failed} of {attempted} operations)")
    lines.extend(f"failure: {note}" for note in notes)
    info = dict(header(seed), workload=workload, trace=int(trace),
                resolution=report["resolution"], loadavg=loads,
                versions=report["versions"], digest=report["digest"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in kinds}
    return {"header": info, "lines": lines, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "digest": report["digest"]}


def emit(result: dict) -> None:
    print("header " + json.dumps(result["header"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--resolution", type=int, default=0,
                        help="override every workload's grid resolution "
                        "(smoke tests only; results are not comparable)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"cannot benchmark: {ROOT} has no src/repro package or "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.resolution,
                                         spec)
            emit(results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        serial, parallel = (results["table2"]["digest"],
                            results["table2-par2"]["digest"])
        attempted += 1
        same = serial == parallel and serial != ""
        failed += 0 if same else 1
        print(f"serial-vs-parallel digest {'match' if same else 'MISMATCH'}"
              f": table2 {serial} table2-par2 {parallel}")
        metrics = {f"{w}/{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
