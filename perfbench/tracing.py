"""Spans around the calls the session engine makes into qkdsim's modules.

The spans are recorded from the benchmark's side.  ``instrumented``
replaces the module attributes the engine looks up (``protocol.reconcile``,
``EveTap.apply``, ...) with timing wrappers for the length of one op and
puts the originals back afterwards; nothing inside the package changes.

There are two kinds of record:

* a *span* per call of a coarse step (a stage, a distillation step, the
  digest, the report), with its name, start, end, parent span and op id;
* a *tally* per (op, parent, name) for the per-pulse calls (transmit, the
  tap, the measurements), which would otherwise be tens of thousands of
  records per op: calls, total seconds and self seconds.

A record's self time is its duration minus the time its children cover.
After each op ``coverage_problems`` checks that every wrapper was hit as
often as the session must call it, and that little of the op's time is
left outside the layers; an op that fails this is a failed op.

The session's ``Rng`` is swapped for a subclass that exposes its
generator's state.  The spans of the steps that draw from it record the
state at both ends, and once the op is over the draws in between are
counted exactly by replaying the generator (``draws_between``), so the
count costs the timed code nothing per draw.
"""

import contextlib
import itertools
import json
import time
from collections import defaultdict

import numpy as np

from workloads import COMBOS

# Layers with spans of their own (the qkdsim module names).
LAYERS = ("protocol", "channel", "eve", "quantum", "distill", "report")

MEASUREMENTS = ("measure_projective", "measure_povm", "measure_povm_carrier")

# rng.draws.<stage> is counted on the span of the step that consumes them.
DRAW_STAGES = {
    "stage1": "protocol.stage1",
    "estimate": "protocol.estimate",
    "reconcile": "distill.reconcile",
    "amplify": "distill.amplify",
}

ROOT = "op"

# Self time that belongs to no layer's step: the op's own and the session driver's.
UNATTRIBUTED = (ROOT, "protocol.run_session")
# Largest share of a traced op's time that may be unattributed.
MAX_UNATTRIBUTED_SHARE = 0.10

MT_WORDS = 624


def draws_between(before, after) -> int:
    """random() draws that take a ``random.Random`` state ``before`` to ``after``.

    A state holds the Mersenne Twister's 624-word key and the index of
    its next word.  Each random() takes two words, and the key is
    regenerated ("twisted") every 624 words; numpy's MT19937 replays the
    twists until it reaches the later key.
    """
    key = np.array(before[1][:MT_WORDS], dtype=np.uint32)
    target = np.array(after[1][:MT_WORDS], dtype=np.uint32)
    twister = np.random.RandomState()
    twister.set_state(("MT19937", key, MT_WORDS))
    twists = 0
    while not np.array_equal(key, target):
        twister.random_sample(MT_WORDS // 2)
        key = twister.get_state()[1]
        twists += 1
    return (MT_WORDS * twists + after[1][MT_WORDS] - before[1][MT_WORDS]) // 2


class Tracer:
    """Spans and tallies kept in memory until the run writes them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.tallies = {}  # (op, parent name, name) -> [calls, seconds, self seconds]
        self.op = None
        self.stream_state = None  # getstate of the current session's generator
        self._stack = []  # open frames: [name, span id, start, child seconds]
        self._ids = itertools.count()

    def open(self, name: str) -> list:
        frame = [name, next(self._ids), self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> dict:
        end = self.clock()
        name, span_id, start, child = frame
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        record = {
            "op": self.op,
            "id": span_id,
            "parent": parent[1] if parent is not None else None,
            "name": name,
            "start": start,
            "end": end,
            "self_s": end - start - child,
        }
        self.spans.append(record)
        return record

    def run(self, op_id, fn):
        """Call fn() as op ``op_id`` under a root span; returns (result, root span)."""
        self.op = op_id
        self.stream_state = None
        first = len(self.spans)
        frame = self.open(ROOT)
        try:
            result = fn()
        finally:
            root = self.close(frame)
            for record in self.spans[first:]:
                if "states" in record:
                    record["draws"] = draws_between(*record.pop("states"))
        return result, root

    def span(self, name: str, fn, counts=None, draws=False):
        """Wrap fn so each call is a span.

        counts(args, result) adds counters to it; with ``draws`` it also
        counts the draws the call takes from the session's stream.
        """

        def wrapper(*args, **kwargs):
            before = self.stream_state() if draws else None
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                record = self.close(frame)
                if draws:
                    record["states"] = (before, self.stream_state())
            if counts is not None:
                record["counts"] = counts(args, result)
            return result

        return wrapper

    def tally(self, name: str, fn):
        """Wrap fn so its calls add up into one record per (op, parent, name)."""
        stack, clock, tallies = self._stack, self.clock, self.tallies

        def wrapper(*args, **kwargs):
            frame = [name, None, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[3] += duration
                key = (self.op, parent[0], name)
                entry = tallies.get(key)
                if entry is None:
                    entry = tallies[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[3]

        return wrapper

    def write(self, path) -> None:
        """Spans, then tallies, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            for (op, parent, name), (calls, seconds, self_s) in self.tallies.items():
                tally = {"op": op, "parent_name": parent, "name": name, "calls": calls}
                tally.update(total_s=seconds, self_s=self_s)
                handle.write(json.dumps(tally) + "\n")


def tracked_rng(base, tracer: Tracer):
    """Subclass of qkdsim's Rng whose instances hand their generator's getstate to tracer."""

    class TrackedRng(base):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            tracer.stream_state = self._random.__self__.getstate

    return TrackedRng


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the session engine's calls into qkdsim's modules through tracer."""
    from qkdsim import channel, eve, protocol, report

    label = report.strategy_label

    def stage1_counts(args, record):
        cfg = args[0]
        combo = f"{cfg.protocol}-{label(cfg.eve)}"
        return {"pulses": cfg.n_pulses, "combo": combo, "received": sum(record.received)}

    def reconcile_counts(args, result):
        rec_a, _, acct = result
        return {
            "tentative": len(args[0]),
            "reconciled": len(rec_a),
            "parities": acct.parity_bits_disclosed,
            "bisections": acct.bisections,
        }

    def amplify_counts(_args, result):
        subsets = result[1]
        return {"subsets": len(subsets), "indices": sum(map(len, subsets))}

    def guess_counts(_args, guesses):
        return {"slots": len(guesses)}

    spans = [
        (protocol, "run_session", "protocol.run_session", None),
        (protocol, "run_stage1_bb84", "protocol.stage1", stage1_counts),
        (protocol, "run_stage1_b92", "protocol.stage1", stage1_counts),
        (protocol, "sift_bb84", "protocol.sift", None),
        (protocol, "sift_b92", "protocol.sift", None),
        (protocol, "estimate_error", "protocol.estimate", None),
        (protocol, "eve_guess", "eve.guess", guess_counts),
        (protocol, "reconcile", "distill.reconcile", reconcile_counts),
        (protocol, "privacy_amplify", "distill.amplify", amplify_counts),
        (protocol, "apply_subsets", "distill.apply_subsets", None),
        (channel.PublicTranscript, "digest", "channel.digest", None),
        (report, "build_document", "report.build_document", None),
        (report, "render_json", "report.render_json", None),
    ]
    counted = set(DRAW_STAGES.values())
    tallies = [
        (protocol, "transmit", "channel.transmit"),
        (eve.EveTap, "apply", "eve.apply"),
        (protocol, "measure_projective", "quantum.measure_projective"),
        (eve, "measure_projective", "quantum.measure_projective"),
        (protocol, "measure_povm", "quantum.measure_povm"),
        (protocol, "measure_povm_carrier", "quantum.measure_povm_carrier"),
    ]
    originals = [(protocol, "Rng", protocol.Rng)]
    protocol.Rng = tracked_rng(protocol.Rng, tracer)
    try:
        for owner, attr, name, counts in spans:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), counts, name in counted))
        for owner, attr, name in tallies:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.tally(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def coverage_problems(tracer: Tracer, op_id, n_pulses: int, eve: bool, abort_reason) -> list:
    """Ways in which traced op ``op_id`` missed a wrapper or left time outside the layers.

    A session calls each step a number of times fixed by its config and
    where it stopped; a wrapper hit another number of times means the
    session no longer calls the name that was wrapped, and that step's
    time would go unseen.
    """
    calls = defaultdict(int)
    own = defaultdict(float)
    stage1 = []
    for record in tracer.spans:
        if record["op"] == op_id:
            calls[record["name"]] += 1
            own[record["name"]] += record["self_s"]
            if record["name"] == "protocol.stage1":
                stage1.append(record)
            if record["name"] == ROOT:
                duration = record["end"] - record["start"]
    measured = 0
    for (op, parent, name), (n, _, self_s) in tracer.tallies.items():
        if op == op_id:
            calls[name] += n
            own[name] += self_s
            if parent == "protocol.stage1" and name.startswith("quantum."):
                measured += n
    estimated = abort_reason != "empty_sifted_key"
    distilled = abort_reason in (None, "key_exhausted")
    expected = {
        "protocol.run_session": 1,
        "protocol.stage1": 1,
        "channel.transmit": n_pulses,
        "eve.apply": n_pulses if eve else 0,
        "protocol.sift": 1,
        "protocol.estimate": int(estimated),
        "eve.guess": int(eve and estimated),
        "distill.reconcile": int(distilled),
        "distill.amplify": int(distilled),
        "distill.apply_subsets": int(abort_reason is None),
        "channel.digest": 1,
        "report.build_document": 1,
        "report.render_json": 1,
    }
    problems = [
        f"{name} traced {calls[name]} times, expected {want}"
        for name, want in expected.items()
        if calls[name] != want
    ]
    if len(stage1) == 1:
        counts = stage1[0]["counts"]
        if counts["pulses"] != n_pulses:
            problems.append(f"protocol.stage1 ran {counts['pulses']} pulses, expected {n_pulses}")
        if measured != counts["received"]:
            problems.append(f"{measured} measurements traced in stage 1 for {counts['received']} received pulses")
    share = sum(own[name] for name in UNATTRIBUTED) / duration
    if share > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"{share:.1%} of the traced op is outside every layer's steps")
    return problems


def breakdown(tracer: Tracer):
    """Span or tally name -> (calls, inclusive seconds, self seconds), summed over ops."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for record in tracer.spans:
        row = rows[record["name"]]
        row[0] += 1
        row[1] += record["end"] - record["start"]
        row[2] += record["self_s"]
    for (_, _, name), (calls, seconds, self_s) in tracer.tallies.items():
        row = rows[name]
        row[0] += calls
        row[1] += seconds
        row[2] += self_s
    return {name: tuple(row) for name, row in rows.items()}


def layer_metrics(tracer: Tracer, untraced_s: float, transcript_counts) -> dict:
    """Per-layer metrics, as means per traced op.

    ``untraced_s`` is the summed time of the same ops run without
    tracing; ``transcript_counts`` holds (messages, bytes) per traced op.
    """
    rows = breakdown(tracer)
    n_ops, traced_s, _ = rows[ROOT]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return rows.get(name, (0, 0.0, 0.0))[1]

    def counted(name, key):
        return sum(r["counts"][key] for r in tracer.spans if r["name"] == name and "counts" in r)

    put("protocol.stage1.s", seconds("protocol.stage1") / n_ops, "s/op")
    for combo in COMBOS:
        stage1 = [
            r for r in tracer.spans if r["name"] == "protocol.stage1" and r["counts"]["combo"] == combo
        ]
        pulses = sum(r["counts"]["pulses"] for r in stage1)
        spent = sum(r["end"] - r["start"] for r in stage1)
        put(f"protocol.stage1.us_per_pulse.{combo}", 1e6 * spent / pulses if pulses else 0.0, "us/pulse")
    put("protocol.sift.s", seconds("protocol.sift") / n_ops, "s/op")
    put("protocol.estimate.s", seconds("protocol.estimate") / n_ops, "s/op")

    put("channel.transmit.calls", calls("channel.transmit") / n_ops, "calls/op")
    put("channel.transmit.s", seconds("channel.transmit") / n_ops, "s/op")
    put("channel.transcript.messages", sum(m for m, _ in transcript_counts) / n_ops, "msgs/op")
    put("channel.transcript.bytes", sum(b for _, b in transcript_counts) / n_ops, "bytes/op")
    put("channel.digest.s", seconds("channel.digest") / n_ops, "s/op")

    put("eve.apply.calls", calls("eve.apply") / n_ops, "calls/op")
    put("eve.apply.s", seconds("eve.apply") / n_ops, "s/op")
    put("eve.guess.s", seconds("eve.guess") / n_ops, "s/op")
    put("eve.guess.slots", counted("eve.guess", "slots") / n_ops, "slots/op")

    names = [f"quantum.{m}" for m in MEASUREMENTS]
    put("quantum.measure.calls", sum(map(calls, names)) / n_ops, "calls/op")
    put("quantum.measure.s", sum(map(seconds, names)) / n_ops, "s/op")
    for name in names:
        put(f"{name}.calls", calls(name) / n_ops, "calls/op")
        put(f"{name}.s", seconds(name) / n_ops, "s/op")

    for stage, name in DRAW_STAGES.items():
        drawn = sum(r.get("draws", 0) for r in tracer.spans if r["name"] == name)
        put(f"rng.draws.{stage}", drawn / n_ops, "draws/op")

    tentative = counted("distill.reconcile", "tentative")
    put("distill.reconcile.s", seconds("distill.reconcile") / n_ops, "s/op")
    put("distill.reconcile.parities", counted("distill.reconcile", "parities") / n_ops, "parities/op")
    put("distill.reconcile.bisections", counted("distill.reconcile", "bisections") / n_ops, "bisections/op")
    kept = counted("distill.reconcile", "reconciled") / tentative if tentative else 0.0
    put("distill.reconcile.kept_ratio", kept, "ratio")
    put("distill.amplify.s", seconds("distill.amplify") / n_ops, "s/op")
    put("distill.amplify.subsets", counted("distill.amplify", "subsets") / n_ops, "subsets/op")
    put("distill.amplify.indices", counted("distill.amplify", "indices") / n_ops, "indices/op")
    put("distill.apply_subsets.s", seconds("distill.apply_subsets") / n_ops, "s/op")

    build = rows.get("report.build_document", (0, 0.0, 0.0))[2]
    put("report.build_document.s", build / n_ops, "s/op")
    put("report.render_json.s", seconds("report.render_json") / n_ops, "s/op")

    for layer in LAYERS:
        own = sum(row[2] for name, row in rows.items() if name.split(".")[0] == layer)
        put(f"{layer}.self_s", own / n_ops, "s/op")

    put("session.traced_s", traced_s / n_ops, "s/op")
    put("trace.overhead_s", (traced_s - untraced_s) / n_ops, "s/op")
    put("trace.overhead_frac", (traced_s - untraced_s) / untraced_s, "ratio")
    return metrics
