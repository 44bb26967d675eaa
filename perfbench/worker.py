"""One benchmark process; run.py starts a fresh one for each job.

Modes:

* ``setup``: import ``qkdsim.cli`` and build one cycle of the workload's
  configs, with the POVM of each B92 session, then exit.  ``measure``
  times this from outside as the set-up cost.
* ``measure``: run ops until ``--seconds`` is spent, checking each one.
  Untraced, it times one ``setup`` process after every cycle of ops, so
  that the set-up samples spread over the run as the ops do.
  With ``--trace 1`` each op runs once untraced and once traced, and the
  traced run must hit every wrapper as the session requires.
* ``pin``: record the SHA-256 of ``render_json`` and the transcript
  digest of ``--ops`` ops into pins.json, under the current
  ``schema_version``.

``measure`` prints one JSON object on standard output.
"""

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

ABORT_REASONS = frozenset({"empty_sifted_key", "error_rate_exceeds_threshold", "key_exhausted"})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_op(text: str, pin) -> list:
    """Problems with one op's rendered report; an empty list means the op is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report does not parse back as JSON: {exc}"]
    problems = []
    alice, bob = doc["final_key_alice"], doc["final_key_bob"]
    if doc["aborted"]:
        if doc["abort_reason"] not in ABORT_REASONS:
            problems.append(f"unknown abort_reason {doc['abort_reason']!r}")
    else:
        if alice != bob:
            differ = sum(a != b for a, b in zip(alice, bob)) + abs(len(alice) - len(bob))
            problems.append(f"not aborted, but the final keys differ in {differ} of {len(alice)} bits")
        if not doc["final_key_length"] == len(alice) == len(bob):
            problems.append(
                f"final_key_length {doc['final_key_length']} but the keys hold {len(alice)} and {len(bob)} bits"
            )
    if pin is not None:
        if sha256(text) != pin["report_sha256"]:
            problems.append("render_json output differs from its pin")
        if doc["transcript_digest"] != pin["transcript_digest"]:
            problems.append("transcript_digest differs from its pin")
    return problems


def load_pins(schema_version: int, workload: str) -> dict:
    """Pins of this workload under this schema_version, keyed by session seed."""
    if not PINS.is_file():
        return {}
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle).get(str(schema_version), {}).get(workload, {})


class Session:
    """The work of ``qkdsim run`` for one seed, without interpreter start."""

    def __init__(self, workload: str):
        from qkdsim import cli, protocol, report

        self.workload = workload
        self.cli, self.protocol, self.report = cli, protocol, report

    def values(self, seed: int) -> dict:
        return workloads.session_values(self.workload, seed, self.cli._RUN_DEFAULTS)

    def config(self, seed: int):
        return self.cli._make_config(self.values(seed))

    def __call__(self, cfg):
        # Module attribute lookups at call time, so that instrumentation applies.
        report = self.protocol.run_session(cfg)
        return report, self.report.render_json(self.report.build_document(report, cfg))


def setup(args) -> None:
    from qkdsim.quantum import build_povm

    session = Session(args.workload)
    for seed in range(args.seed, args.seed + workloads.cycle_length(args.workload)):
        cfg = session.config(seed)
        if cfg.protocol == "b92":
            build_povm(cfg.theta)


def traced_op(session: Session, cfg, values: dict, tracer, transcript_counts: list):
    """Run the op traced; (its report text, its traced seconds, coverage problems)."""
    with tracing.instrumented(tracer):
        (report, text), root = tracer.run(cfg.seed, lambda: session(cfg))
    transcript = session.protocol.session_transcript(report)
    transcript_counts.append((len(transcript), len(transcript.serialize())))
    eve = values["eve"] != "none"
    problems = tracing.coverage_problems(tracer, cfg.seed, cfg.n_pulses, eve, report.abort_reason)
    return text, root["end"] - root["start"], problems


def setup_seconds(args) -> float:
    """Wall time of a fresh interpreter in ``setup`` mode."""
    argv = [sys.executable, __file__, "--mode", "setup", "--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - started


def run_op(session: Session, seed: int, pins: dict, tracer, transcript_counts: list) -> dict:
    """Run, time and check the op with this session seed.

    In a traced run the op also runs traced, before the untraced run on
    odd seeds and after it on even ones, so that neither run always
    finds the caches warmed by the other.
    """
    values = session.values(seed)
    record = {"seed": seed, "combo": f"{values['protocol']}-{values['eve']}", "pulses": values["n"]}
    record.update(seconds=None, final_key_length=0, aborted=None, problems=[])
    cfg = session.config(seed)
    traced = None
    started = time.perf_counter()
    try:
        if tracer is not None and seed % 2 == 1:
            traced = traced_op(session, cfg, values, tracer, transcript_counts)
        started = time.perf_counter()
        report, text = session(cfg)
        record["seconds"] = time.perf_counter() - started
        record["final_key_length"] = report.final_key_length
        record["aborted"] = report.aborted
        record["problems"] = check_op(text, pins.get(str(seed)))
        if tracer is not None:
            if traced is None:
                traced = traced_op(session, cfg, values, tracer, transcript_counts)
            traced_text, record["traced_seconds"], problems = traced
            record["problems"] += problems
            if traced_text != text:
                record["problems"].append("the traced run's report differs from the untraced run's")
    except Exception:  # an op that crashes is a failed op; the run goes on
        if record["seconds"] is None:
            record["seconds"] = time.perf_counter() - started
        record["problems"].append(traceback.format_exc(limit=-1).strip().splitlines()[-1])
    return record


def measure(args) -> dict:
    session = Session(args.workload)
    schema_version = session.report.SCHEMA_VERSION
    pins = load_pins(schema_version, args.workload)
    tracer = tracing.Tracer() if args.trace else None
    cycle = workloads.cycle_length(args.workload)
    ops, transcript_counts, setup = [], [], []
    seed = args.seed
    started = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(cycle):
            ops.append(run_op(session, seed, pins, tracer, transcript_counts))
            seed += 1
        if tracer is None:
            setup.append(setup_seconds(args))
        cycles += 1
        elapsed = time.perf_counter() - started
        # Start another whole cycle only if one of average length still fits.
        if elapsed + elapsed / cycles > args.seconds:
            break

    result = {
        "ops": ops,
        "pinned": sum(1 for op in ops if str(op["seed"]) in pins),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "schema_version": schema_version,
        },
    }
    if tracer is not None:
        paired = [op for op in ops if "traced_seconds" in op]
        if not paired:
            raise SystemExit("error: no op completed a traced run")
        untraced_s = sum(op["seconds"] for op in paired)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        breakdown = tracing.breakdown(tracer)
        outside = sum(breakdown[name][2] for name in tracing.UNATTRIBUTED)
        result.update(
            layers=tracing.layer_metrics(tracer, untraced_s, transcript_counts),
            breakdown=breakdown,
            unattributed_share=outside / breakdown[tracing.ROOT][1],
            trace_file=str(trace_file.relative_to(workloads.ROOT)),
        )
    return result


def pin(args) -> None:
    session = Session(args.workload)
    schema = str(session.report.SCHEMA_VERSION)
    table = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    if table.get(schema, {}).get(args.workload):
        raise SystemExit(
            f"error: {args.workload} is already pinned under schema_version {schema}; "
            "pins change only with a schema_version bump"
        )
    pins = {}
    for seed in range(args.seed, args.seed + args.ops):
        _, text = session(session.config(seed))
        pins[str(seed)] = {
            "report_sha256": sha256(text),
            "transcript_digest": json.loads(text)["transcript_digest"],
        }
    table.setdefault(schema, {})[args.workload] = pins
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure", "pin"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="time budget (measure mode)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=32, help="ops to pin (pin mode)")
    args = parser.parse_args(argv)
    workloads.use_checkout_source()
    if args.mode == "setup":
        setup(args)
    elif args.mode == "pin":
        pin(args)
    else:
        json.dump(measure(args), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
