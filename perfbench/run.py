"""Run one workload of the qkdsim benchmark and print its metrics.

    python3 perfbench/run.py --workload bb84-session --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Every op's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a table for
people comes before it, and the full result goes to perfbench/out/.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 170


def run_worker(*argv: str) -> str:
    """Run worker.py in a fresh interpreter; its standard output, or exit on failure."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(argv)} exited with {proc.returncode}")
    return proc.stdout


def commit():
    if not (workloads.ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(ops, peak_rss_kb: int, setup: list):
    """(gated, extra, samples): the metrics BENCHMARK.json gates, the ones it does not, sample counts."""
    seconds = [op["seconds"] for op in ops]
    busy = sum(seconds)
    metrics = {
        "session_s.p50": {"value": statistics.median(seconds), "unit": "s"},
        "pulses_per_s": {"value": sum(op["pulses"] for op in ops) / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    extra = {"failed_frac": {"value": stats.failure_summary(ops)[2], "unit": "ratio"}}
    keyed = [op for op in ops if op["aborted"] is False and not op["problems"]]
    if keyed:
        bits = sum(op["final_key_length"] for op in keyed)
        extra["key_bits_per_s"] = {"value": bits / busy, "unit": "bits/s"}
    high = stats.tail(seconds)
    if high is not None:
        extra[f"session_s.p{high[0]:g}"] = {"value": high[1], "unit": "s"}
    samples = dict.fromkeys([*metrics, *extra], len(ops))
    samples.update(peak_rss_mb=1, setup_s=len(setup))
    return metrics, extra, samples


def print_table(title: str, metrics: dict, samples: dict) -> None:
    print(title)
    print(f"  {'metric':44} {'value':>16} {'unit':14} samples")
    for name, metric in metrics.items():
        print(f"  {name:44} {metric['value']:16.6g} {metric['unit']:14} {samples.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not workloads.source_ok():
        print(f"error: no qkdsim sources under {workloads.SRC}", file=sys.stderr)
        return 2

    result = json.loads(
        run_worker(
            "--mode", "measure",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        )
    )  # fmt: skip
    ops = result["ops"]
    attempted, failed, _ = stats.failure_summary(ops)
    env = dict(result["env"], commit=commit(), nproc=os.cpu_count(), workload_seed=args.seed)
    env.update(seconds=args.seconds, ops=attempted, pinned_ops=result["pinned"])

    print(f"qkdsim benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"ops: {attempted} attempted, {failed} failed, {result['pinned']} checked against pins")
    for op in ops:
        for problem in op["problems"]:
            print(f"  FAILED op seed {op['seed']} ({op['combo']}): {problem}")

    correct = failed == 0
    if args.trace:
        metrics = result["layers"]
        breakdown = result["breakdown"]
        traced_total = breakdown["op"][1]
        print(f"self time outside every layer's steps: {result['unattributed_share']:.2%} of the traced op time")
        print(f"  {'span':32} {'calls/op':>10} {'incl s/op':>11} {'self s/op':>11} {'incl share':>10}")
        rows = sorted(breakdown.items(), key=lambda item: -item[1][1])
        n = breakdown["op"][0]
        for name, (calls, incl, own) in rows:
            print(f"  {name:32} {calls / n:10.1f} {incl / n:11.5f} {own / n:11.5f} {incl / traced_total:10.3f}")
        print_table("per-layer metrics (means per traced op):", metrics, {})
        print(f"spans written to {result['trace_file']}")
        full = dict(result, env=env)
    else:
        metrics, extra, samples = end_to_end(ops, result["peak_rss_kb"], result["setup_s"])
        print_table("end-to-end metrics:", {**metrics, **extra}, samples)
        full = dict(result, env=env, metrics=metrics, extra=extra, samples=samples)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
