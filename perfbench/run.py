"""Benchmark of the adspectral solver: one workload per run, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload field_csv --seed 1 --seconds 28 --trace 0

Workloads: field_csv, rough_modes, sweep_cells, cond_svd (see README.md in
this directory). The package is imported from ``src/`` of the checkout; no
install is needed. The run starts fresh Python processes (worker.py): with
``--trace 0`` several set-up-only ones and one measuring one, with
``--trace 1`` only the measuring one, which runs each input twice, traced
and untraced. The next-to-last line of standard output is a JSON detail
record (environment, op times in seconds, tail percentile and sample count,
error against the oracle, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics untraced and the per-layer metrics traced. The end-to-end op times
are relative: each op's wall time over the wall time of a fixed reference
loop run next to it (worker.reference_seconds), which divides out the
host's drifting speed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRIC_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("field_csv", "rough_modes", "sweep_cells", "cond_svd")

# Set-up-only processes run before and as many after the measuring process,
# which adds one more sample; setup_s is their median. Spreading them over
# the run averages out the machine's speed drifting from second to second.
SETUP_SAMPLES_EACH_SIDE = 3
# Whole run, workers included, kept under three minutes.
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
# One BLAS thread. In alternating runs on a 2-vCPU VM, two threads were no
# faster on any workload, and with them the per-run median op time of
# sweep_cells spread about four times as widely.
BLAS_THREADS = "1"

END_TO_END_UNITS = {"op_rel_p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**METRIC_UNITS, "trace.op_s_p50": "s",
                   "trace.untraced_op_s_p50": "s", "trace.overhead_s": "s"}


class WorkerError(RuntimeError):
    """A worker process failed, timed out, or printed no result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # adspectral comes from this checkout's src/
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _run_worker(args, workdir: Path, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(sorted_values: list) -> tuple[float, float]:
    """(value, percentile) of the tail of sorted per-op values.

    The highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it. Below 2 * TAIL_BEYOND samples that lies at or below the
    median; with TAIL_BEYOND samples or fewer no percentile qualifies, and
    the maximum (percentile 100) is reported instead.
    """
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return sorted_values[-1], 100.0
    rank = n - TAIL_BEYOND
    return sorted_values[rank - 1], 100.0 * rank / n


def summarize(raw: dict, setup_samples: list, traced_run: bool) -> tuple[dict, dict]:
    """The result object and the detail record of one run."""
    ops = raw["ops"]
    good = [op for op in ops if not op["problems"]]
    attempted, failed = len(ops), len(ops) - len(good)
    errs = [op["err"] for op in good if op.get("err") is not None]
    problems = [p for op in ops for p in op["problems"]] + raw["final_problems"]
    detail = {
        "workload": raw["env"]["workload"], "trace": int(traced_run),
        "env": raw["env"], "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "err": {"value": max(errs) if errs else None, "unit": raw["err_unit"],
                "of": raw["err_of"]},
        "problems": problems[:10],
    }
    if traced_run:
        traced = [op for op in good if op["traced"]]
        untraced = [op for op in good if not op["traced"]]
        if not traced or not untraced:
            raise WorkerError("traced run has no successful traced or untraced op")
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in METRIC_UNITS}
        values["trace.op_s_p50"] = statistics.median(op["seconds"] for op in traced)
        values["trace.untraced_op_s_p50"] = statistics.median(
            op["seconds"] for op in untraced)
        values["trace.overhead_s"] = (values["trace.op_s_p50"]
                                      - values["trace.untraced_op_s_p50"])
        units = PER_LAYER_UNITS
    else:
        timed = good or ops
        times = sorted(op["seconds"] for op in timed)
        rel = sorted(op["seconds"] / op["ref_s"] for op in timed)
        values = {"op_rel_p50": statistics.median(rel),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        units = END_TO_END_UNITS
        rel_tail, detail["tail_percentile"] = tail(rel)
        # Printed, not gated: see README.md on the tail and on seconds.
        detail["ungated"] = {
            "op_rel_tail": {"value": rel_tail, "unit": "ref"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail(times)[0], "unit": "s"},
            "ref_s_p50": {"value": statistics.median(op["ref_s"] for op in timed),
                          "unit": "s"},
        }
        detail["op_samples"] = len(times)
        detail["setup_samples_s"] = setup_samples
    detail["op_s_all"] = [op["seconds"] for op in ops]
    detail["ref_s_all"] = [op["ref_s"] for op in ops]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    detail["metrics"] = metrics
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adspectral" / "__init__.py").is_file():
        print(f"error: no adspectral package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = ROOT / ".perfbench_out"
    workdir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)

    def setup_samples():
        count = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
        return [_run_worker(args, workdir, ["--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    try:
        setup = setup_samples()
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out_root / f"spans-{args.workload}-{args.seed}.json")]
        raw = _run_worker(args, workdir, extra, deadline)
        setup += [raw["setup_s"]] + setup_samples()
        raw["env"]["workload"] = args.workload
        result, detail = summarize(raw, setup, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
