"""One benchmark process: set up a workload, then time or trace it.

Run by ``run.py`` in a fresh interpreter, one process per sample::

    python3 perfbench/child.py --workload table2 --seed 1 --mode measure

Modes:

* ``setup``   — imports, problem build (and, on ``online``, the lookup
  table), then exit: one set-up sample.
* ``measure`` — set up, then issue closed-loop requests untraced until
  ``--seconds`` would be exceeded (or exactly ``--requests``).
* ``trace``   — wrap the program's layer seams (``spans.instrument``)
  before anything is built, set up and run one request, then report
  the per-layer metrics and write the spans out.

The last stdout line is one JSON object; ``ready`` is the
``time.monotonic()`` reading when set-up finished, which the parent
subtracts from its own reading at spawn.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import (  # noqa: E402
    END,
    NullRecorder,
    Recorder,
    instrument,
    layer_metrics,
)


def _rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    tracing = args.mode == "trace"
    recorder = Recorder() if tracing else NullRecorder()
    with recorder.span("setup.import"):
        import numpy
        import scipy
        import workloads
        if tracing:
            instrument(recorder)
    workload = workloads.Workload(args.workload, args.seed,
                                  args.resolution)
    with recorder.span("setup.build"):
        workload.build()
    if workload.name == "online":
        with recorder.span("setup.lut"):
            workload.precompute()
    ready = time.monotonic()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}) \
        .get("blas", {})
    report = {"ready": ready, "resolution": workload.resolution,
              "versions": {
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name', '?')} "
                          f"{blas.get('version', '?')}"}}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    limit = 1 if tracing else args.requests
    outcome = workloads.Outcome()
    durations = []
    loop_start = time.perf_counter()
    output = None
    index = 0
    while True:
        with recorder.span("prep"):
            inputs = workload.prepare(index)
        begun = time.perf_counter()
        try:
            output = workload.request(inputs, recorder)
        except Exception as exc:  # a failed request is a result
            output = None
            outcome.tally(False, f"request raised {exc!r}")
        elapsed = time.perf_counter() - begun
        durations.append(elapsed)
        if output is not None:
            with recorder.span("check"):
                try:
                    workload.check(output, outcome)
                except Exception as exc:  # an unusable output fails
                    outcome.tally(False, f"check raised {exc!r}")
        index += 1
        if limit:
            if index >= limit:
                break
        elif time.perf_counter() - loop_start + elapsed > args.seconds:
            # Closed loop: stop before a request that would overrun.
            break

    name, unit, work = workload.work(output) if output is not None \
        else ("", "", 0.0)
    report.update({
        "durations": durations, "rate": [name, unit, work],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "notes": outcome.notes, "digest": outcome.digest,
        "rss_mb": _rss_mb()})
    if tracing:
        wall = max(record[END] for record in recorder.spans) - STARTED
        layers = layer_metrics(recorder.spans, wall, recorder.evaluators,
                               recorder.operators)
        layers.update(workload.worker_metrics(output, durations[-1]))
        layers["trace.wall_s"] = wall
        report["layers"] = layers
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                for record in recorder.spans:
                    handle.write(json.dumps(record) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
