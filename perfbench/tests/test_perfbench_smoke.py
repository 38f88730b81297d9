"""Tiny-resolution pass over every workload through the real runner, run.py.

Runs ``run.py --workload all`` once per trace mode at grid resolution 4
(about a minute each on a 2-core host) and checks that every metric
named in ``BENCHMARK.json`` is emitted for every workload.  Outputs at
this resolution do not reproduce the paper's shapes, so correctness is
not asserted here; the digest identity is.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--resolution", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_every_metric_is_emitted(trace, kind):
    lines, result = run_all(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            key = f"{workload}/{metric['name']}"
            assert key in result["metrics"], key
            entry = result["metrics"][key]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    assert any(line.startswith("serial-vs-parallel digest match")
               for line in lines)


def test_bare_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
