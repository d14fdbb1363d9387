"""Benchmark of profcalc: end-to-end metrics per workload, or per-layer metrics traced.

Run from the repository root:

  python3 perfbench/run.py --workload coherence-suites --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload operad-subst --seed 1 --seconds 40 --trace 1
  python3 perfbench/run.py --self-test

Each workload runs in its own worker process (perfbench/worker.py), so its
peak RSS is its own; set-up is measured in further fresh processes and
reported as the median.  Times are calibrated to a reference host speed
(see worker.calibrated); the raw wall-clock medians are printed beside them.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit, the sample counts, and failed_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("coherence-suites", "quotient-ladder", "operad-subst")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the measuring one included
TIME_LIMIT_S = 170.0  # workers still running this long after the start are killed, so a run ends within 180 s


class WorkerError(RuntimeError):
    pass


def call_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"p25 {q1:.4f}, p75 {q3:.4f}"


def report_failures(result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    kinds = ", ".join(f"{k} {v}" for k, v in result["failures"].items())
    print(f"failed_frac     {failed / attempted:.4f} ratio  {failed} of {attempted} item runs failed ({kinds})")
    for message in result["messages"]:
        print(f"  {message}", file=sys.stderr)


def final_line(result: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def measure(args, worker_args: list[str], deadline: float) -> int:
    runs = [call_worker([*worker_args, "--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = call_worker([*worker_args, "--mode", "run", "--seconds", str(args.seconds)], deadline)
    runs.append(result)
    setups = [r["setup_s"] for r in runs]
    walls = result["walls"]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    raw_wall = statistics.median(result["walls_raw"])
    raw_setup = statistics.median(r["setup_raw_s"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}, suite seed {'acceptance' if args.suite_seed is None else args.suite_seed}")
    print("times are calibrated to the reference speed; raw wall-clock medians in brackets")
    print(f"wall_s          {metrics['wall_s']['value']:.4f} s [{raw_wall:.4f}]  median of {len(walls)} passes ({quartiles(walls)})")
    print(f"setup_s         {metrics['setup_s']['value']:.4f} s [{raw_setup:.4f}]  median of {len(setups)} set-ups ({quartiles(setups)})")
    print(f"peak_rss_mb     {metrics['peak_rss_mb']['value']:.1f} MB  max RSS of the workload process")
    for name, times in result["item_times"].items():
        print(f"  item {name:44} raw median {statistics.median(times):.4f} s over {len(times)} passes")
    report_failures(result)
    print(final_line(result, metrics))
    return 0


def trace(args, worker_args: list[str], deadline: float) -> int:
    result = call_worker([*worker_args, "--mode", "trace", "--seconds", str(args.seconds)], deadline)
    print(f"workload {args.workload}, seed {args.seed}, traced; counts from the first traced pass, times medians")
    for name, metric in result["layers"].items():
        value = metric["value"]
        print(f"{name:42} {value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}")
    report_failures(result)
    print(final_line(result, result["layers"]))
    return 0


def self_test(deadline: float) -> int:
    """Tiny runs with known wrong answers must fail the gate; clean ones must pass."""
    cases = call_worker(["--workload", "faults", "--mode", "faults"], deadline)["cases"]
    ok = True
    for name, case in cases.items():
        frac = case["failed"] / case["attempted"]
        good = frac > 0 if case["faulty"] else frac == 0
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name}: failed_frac {frac:.4f} ({case['failed']} of {case['attempted']})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="seeds the order of each pass's items")
    parser.add_argument("--seconds", type=float, default=40.0, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--suite-seed",
        type=int,
        default=None,
        help="derive fresh suite seeds from this value (default: the acceptance seeds)",
    )
    parser.add_argument("--self-test", action="store_true", help="check that the gate catches wrong answers")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.exists(os.path.join(ROOT, "src", "profcalc", "__init__.py")):
        print(f"no profcalc sources under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(deadline)
        if args.workload is None:
            parser.error("--workload is required")
        worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.suite_seed is not None:
            worker_args += ["--suite-seed", str(args.suite_seed)]
        return trace(args, worker_args, deadline) if args.trace else measure(args, worker_args, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
