"""Repeat the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/repeat.py --out perfbench/baseline.json
    python3 perfbench/repeat.py --against perfbench/baseline.json

Runs run.py once per workload of BENCHMARK.json and seed (seeds 1..10)
for the ``run_seconds`` that BENCHMARK.json sets, then one traced run per
workload at the first seed.  For every end-to-end metric it prints the
median over the runs, the quartiles and the spread: the distance between
the first and third quartile as a share of the median.  A spread wider
than the metric's bound fails the run (``setup_s`` excepted; see
perfbench/README.md), as does, with ``--against``, a median worse than
the stored one by more than the bound.  ``--out`` stores the figures
with the environment they were measured in.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 10))


def run(workload: str, seed: int, trace: int) -> dict:
    """One run.py run; its last line of output, parsed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def worse_by(metric: dict, value: float, reference: float) -> float:
    """How much worse value is than reference, as a share of reference."""
    change = (value - reference) / reference
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="store the figures as JSON")
    parser.add_argument("--against", type=Path, help="compare medians with a stored file")
    args = parser.parse_args(argv)
    chosen = [w["name"] for w in BENCHMARK["workloads"]]
    reference = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None

    ok = True
    figures = {}
    for workload in chosen:
        runs = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1)
        ok = ok and all(r["correct"] for r in runs + [traced])
        table = {}
        print(f"{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = stats.quartile_spread(values)
            verdict = ""
            if spread > metric["bound"]:
                # Set-up is a few seconds of fresh interpreters, so its spread follows
                # the host's speed steps; only its median is held to the bound.
                verdict = "  spread above bound, not gated" if name == "setup_s" else "  SPREAD ABOVE BOUND"
            if reference is not None:
                old = reference["workloads"][workload]["end_to_end"][name]["median"]
                change = worse_by(metric, median, old)
                verdict += f"  {change:+.3f} vs stored" + (" WORSE" if change > metric["bound"] else "")
            ok = ok and "ABOVE" not in verdict and "WORSE" not in verdict
            print(f"  {name:16} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {metric['bound']:6.2f}{verdict}")
            table[name] = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
        figures[workload] = {
            "end_to_end": table,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        }

    if args.out:
        last = HERE / "out" / f"result-{chosen[-1]}-seed{SEEDS[-1]}-trace0.json"
        env = json.loads(last.read_text(encoding="utf-8"))["env"]
        env = {key: env[key] for key in ("commit", "python", "numpy", "nproc", "schema_version")}
        summary = {
            "claim": None,
            "env": dict(env, run_seconds=BENCHMARK["run_seconds"], seeds=SEEDS),
            "workloads": figures,
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
