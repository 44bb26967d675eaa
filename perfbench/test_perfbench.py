"""Self-test of the benchmark's own arithmetic; runs in about a second.

    python3 -m pytest -q perfbench
"""

import json

import pytest

import stats
import tracing
import worker
import workloads


def fake_clock(*times):
    return iter(times).__next__


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == 5.0
    assert stats.percentile(samples, 0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(99))) is None
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.tail(list(range(100))) == (90.0, 89)
    assert stats.tail(list(range(1000)))[0] == 99.0
    assert stats.tail(list(range(10000)))[0] == 99.9


def test_quartile_spread_is_a_share_of_the_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_failures_are_counted_against_attempts():
    ops = [{"problems": []}, {"problems": ["crash"]}, {"problems": []}, {"problems": ["a", "b"]}]
    assert stats.failure_summary(ops) == (4, 2, 0.5)
    assert stats.failure_summary([]) == (0, 0, 0.0)


def report_text(**fields):
    doc = {
        "aborted": False,
        "abort_reason": None,
        "final_key_length": 3,
        "final_key_alice": "101",
        "final_key_bob": "101",
        "transcript_digest": "d",
    }
    doc.update(fields)
    return json.dumps(doc)


def test_check_op_accepts_agreeing_keys_and_known_aborts():
    assert worker.check_op(report_text(), None) == []
    aborted = report_text(aborted=True, abort_reason="key_exhausted", final_key_length=0)
    assert worker.check_op(aborted.replace('"101"', '""'), None) == []


@pytest.mark.parametrize(
    "text, needle",
    [
        (report_text(final_key_bob="100"), "keys differ in 1 of 3"),
        (report_text(final_key_length=4), "final_key_length 4"),
        (report_text(aborted=True, abort_reason="reconciliation_failed"), "unknown abort_reason"),
        ("{not json", "does not parse"),
    ],
)
def test_check_op_flags_broken_reports(text, needle):
    problems = worker.check_op(text, None)
    assert len(problems) == 1 and needle in problems[0]


def test_check_op_compares_pins():
    text = report_text()
    good = {"report_sha256": worker.sha256(text), "transcript_digest": "d"}
    assert worker.check_op(text, good) == []
    bad = {"report_sha256": "0" * 64, "transcript_digest": "e"}
    assert len(worker.check_op(text, bad)) == 2


def traced_op():
    """One op: a 6 s amplify span around a 3 s tallied measurement, inside a 10 s op."""
    tracer = tracing.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 5.0, 7.0, 10.0))
    measure = tracer.tally("quantum.measure_povm", lambda: None)
    amplify = tracer.span("distill.amplify", measure, counts=lambda args, result: {"subsets": 2})
    tracer.run(0, amplify)
    return tracer


def test_self_time_excludes_children():
    tracer = traced_op()
    by_name = {record["name"]: record for record in tracer.spans}
    assert by_name["distill.amplify"]["self_s"] == 3.0
    assert by_name["distill.amplify"]["parent"] == by_name["op"]["id"]
    assert by_name["distill.amplify"]["counts"] == {"subsets": 2}
    assert by_name["op"]["self_s"] == 4.0
    assert tracer.tallies == {(0, "distill.amplify", "quantum.measure_povm"): [1, 3.0, 3.0]}
    assert tracing.breakdown(tracer)["distill.amplify"] == (1, 6.0, 3.0)


def traced_session(measured: int):
    """One traced op of a 2-pulse session without Eve, aborted at estimation.

    Stage 1 receives both pulses and ``measured`` of them reach the
    measurement wrapper.
    """
    tracer = tracing.Tracer(clock=fake_clock(*map(float, range(100))))
    transmit = tracer.tally("channel.transmit", lambda: None)
    measure = tracer.tally("quantum.measure_projective", lambda: None)

    def stage1(cfg):
        for slot in range(2):
            transmit()
            if slot < measured:
                measure()
        return type("Record", (), {"received": [True, True]})

    steps = {
        name: tracer.span(name, lambda *args: None)
        for name in ("protocol.sift", "protocol.estimate", "channel.digest", "report.build_document")
    }
    steps["protocol.stage1"] = tracer.span(
        "protocol.stage1", stage1, lambda args, rec: {"pulses": 2, "combo": "bb84-none", "received": 2}
    )
    session = ("protocol.stage1", "protocol.sift", "protocol.estimate")
    steps["protocol.run_session"] = tracer.span(
        "protocol.run_session", lambda: [steps[name](None) for name in session]
    )
    steps["report.render_json"] = tracer.span("report.render_json", lambda: None)
    op = ("protocol.run_session", "report.build_document", "channel.digest", "report.render_json")
    tracer.run(5, lambda: [steps[name]() for name in op])
    return tracer


def test_coverage_passes_when_every_wrapper_is_hit(monkeypatch):
    # On the fake clock every call takes whole ticks, so the op's own share is large.
    monkeypatch.setattr(tracing, "MAX_UNATTRIBUTED_SHARE", 1.0)
    tracer = traced_session(measured=2)
    assert tracing.coverage_problems(tracer, 5, 2, False, "error_rate_exceeds_threshold") == []


def test_coverage_flags_missed_wrappers_and_unattributed_time():
    tracer = traced_session(measured=1)
    problems = tracing.coverage_problems(tracer, 5, 3, True, None)
    expected = [
        "channel.transmit traced 2 times, expected 3",
        "eve.apply traced 0 times, expected 3",
        "eve.guess traced 0 times, expected 1",
        "distill.reconcile traced 0 times, expected 1",
        "distill.amplify traced 0 times, expected 1",
        "distill.apply_subsets traced 0 times, expected 1",
        "protocol.stage1 ran 2 pulses, expected 3",
        "1 measurements traced in stage 1 for 2 received pulses",
    ]
    assert problems[:-1] == expected
    assert "outside every layer's steps" in problems[-1]


def test_layer_metrics_match_benchmark_json():
    tracer = tracing.Tracer(clock=fake_clock(*map(float, range(6))))
    stage1 = tracer.span("protocol.stage1", lambda cfg: None, lambda a, r: {"pulses": 4, "combo": "bb84-none"})
    tracer.run(0, lambda: stage1(None))
    metrics = tracing.layer_metrics(tracer, untraced_s=2.0, transcript_counts=[(3, 100)])
    assert metrics["protocol.stage1.us_per_pulse.bb84-none"]["value"] == 1e6 * 1.0 / 4
    assert metrics["trace.overhead_frac"]["value"] == (3.0 - 2.0) / 2.0
    benchmark = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert listed == {name: m["unit"] for name, m in metrics.items()}


def test_draws_are_counted_from_the_generator_state():
    workloads.use_checkout_source()
    from qkdsim.rng import Rng

    tracer = tracing.Tracer()
    tracked = tracing.tracked_rng(Rng, tracer)(7)
    plain = Rng(7)
    states = [tracer.stream_state()]
    assert tracked.permutation(10) == plain.permutation(10)
    states.append(tracer.stream_state())
    assert [tracked.uniform() for _ in range(5000)] == [plain.uniform() for _ in range(5000)]
    states.append(tracer.stream_state())
    assert tracing.draws_between(states[0], states[1]) == 9
    assert tracing.draws_between(states[1], states[2]) == 5000
    assert tracing.draws_between(states[0], states[2]) == 5009
    assert tracing.draws_between(states[2], states[2]) == 0
