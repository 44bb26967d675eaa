"""The benchmark's tracing still sees every step of every workload's sessions.

perfbench/tracing.py wraps qkdsim's functions by name from outside the
package.  A change that renames a wrapped name, or calls around it,
leaves a wrapper hit the wrong number of times; this test catches that
at a few thousand pulses per session kind.  The bound on untraced time
is a timing figure and stays with the benchmark itself.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from qkdsim import cli, protocol, report  # noqa: E402

PULSES = 3000
SEED = 1

KINDS = [
    (workload, index)
    for workload, kinds in workloads.WORKLOADS.items()
    for index in range(len(kinds))
]


def _op(cfg):
    # Module attribute lookups at call time, so that the instrumentation applies.
    run = protocol.run_session(cfg)
    return run, report.render_json(report.build_document(run, cfg))


@pytest.mark.parametrize("workload,index", KINDS, ids=[f"{w}-{i}" for w, i in KINDS])
def test_traced_session_hits_every_wrapper(workload, index):
    kinds = workloads.WORKLOADS[workload]
    seed = SEED * len(kinds) + index  # the seed that gets this kind
    values = workloads.session_values(workload, seed, cli._RUN_DEFAULTS)
    values["n"] = PULSES
    cfg = cli._make_config(values)

    _, text = _op(cfg)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        (traced, traced_text), _ = tracer.run(seed, lambda: _op(cfg))

    problems = tracing.coverage_problems(tracer, seed, PULSES, values["eve"] != "none", traced.abort_reason)
    assert [p for p in problems if "outside every layer" not in p] == []
    assert traced_text == text
