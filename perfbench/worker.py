"""Measuring process for one workload; started by run.py, one per run.

It times its own set-up (importing numpy, scipy and adspectral, then one
small warm-up op), runs the workload's ops in a closed loop for the given
seconds, checks every op's output outside the timed region, and prints one
JSON object of raw per-op records as the last line of standard output.
With ``--setup-only`` it stops after set-up.

Right before and right after every op it times a fixed reference loop
(``reference_seconds``), outside the timed region. Each op record carries the
mean reference time around it, so that run.py can divide the host's speed
out of the op time.

With ``--trace 1`` every input runs twice, once with the layer spans
installed, so traced and untraced op times come from the same process,
inputs and moment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

# Fewest ops per run: three cover every built-in problem; four give the
# traced run two pairs of traced and untraced ops.
MIN_OPS = 3
MIN_OPS_TRACED = 4
# Reference loops on each side of an op fill about this share of a typical
# op's time, with at least one loop a side. A single 45 ms loop samples the
# host's speed at one moment, while a 5 s op averages it over seconds in
# which it can swing by 20%; more loops around a long op match it better.
REF_SHARE_EACH_SIDE = 0.05


def reference_seconds() -> float:
    """Wall time of a fixed loop that uses no adspectral code.

    Its three parts copy the kinds of work the workloads spend their time
    on: interpreted Python, many small numpy calls (as in jacobi_svd and the
    per-mode solves), and large vectorised complex exponentials and
    products (as in the direct DFT and synthesis). On a shared VM the host's
    speed drifts by about 20% over tens of seconds. Across ten seeded runs,
    the median op time divided by this loop's time, taken next to the op,
    spread two to four times less than the median op time in seconds.
    """
    import numpy as np  # imported by then; the set-up time covers it

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    small = np.linspace(0.0, 1.0, 33)
    for _ in range(9_000):
        total += np.sqrt(np.vdot(small, small).real)
    x, k = np.linspace(0.0, 2.0, 512), np.arange(257.0)
    weights = np.ones(257, dtype=complex)
    for _ in range(3):
        total += (np.exp(1j * np.outer(x, k)) @ weights)[0].real
    return time.perf_counter() - start


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    ops = []
    min_ops = MIN_OPS_TRACED if tracer else MIN_OPS
    loop_start = time.perf_counter()
    i = 0
    # An op starts only if it should end within the given seconds, judged by
    # the median op so far, so that a run's wall time varies little. A traced
    # run ends only after whole pairs.
    while i < min_ops or (tracer and i % 2) or (
            time.perf_counter() - loop_start
            + statistics.median(op["seconds"] for op in ops) <= args.seconds):
        if tracer is None:
            op, traced = workload.make_input(i), False
        else:
            # Each input runs twice, back to back, once traced; the order
            # alternates between pairs. Machine drift and input mix then
            # cancel in traced minus untraced time.
            pair, second = divmod(i, 2)
            op, traced = workload.make_input(pair), second != pair % 2
        problems = []
        reps = 1 if not ops else max(1, round(
            REF_SHARE_EACH_SIDE * statistics.median(op["seconds"] for op in ops)
            / ops[-1]["ref_s"]))
        refs = [reference_seconds() for _ in range(reps)]
        if traced:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            result = None
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        layers = tracer.end_op(seconds, start) if traced else None
        refs += [reference_seconds() for _ in range(reps)]
        record = {"seconds": seconds, "ref_s": statistics.fmean(refs),
                  "traced": traced}
        if not problems:
            outcome = workload.check(op, result)
            problems = outcome.problems
            record["err"] = outcome.err if math.isfinite(outcome.err) else None
            if layers is not None:
                layers["cli.bytes_written"] = outcome.bytes_written
                layers["cli.rows_written"] = outcome.rows_written
        record["problems"] = problems
        record["layers"] = layers
        ops.append(record)
        i += 1

    if tracer is not None and args.spans is not None:
        args.spans.write_text(json.dumps({
            "format": "per op: [name, parent index or -1, start s, end s]",
            "ops": tracer.ops}), encoding="utf-8")

    print(json.dumps({
        "setup_s": setup_s,
        "ops": ops,
        "final_problems": workload.final_check(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "err_unit": workload.err_unit,
        "err_of": workload.err_of,
        "env": _environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
