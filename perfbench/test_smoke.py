"""Fast checks of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_pass_per_run(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result, _ = run.measure(workloads.WORKLOADS[name](1, tiny=True), 0, trace)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def spoil_corpus(w):
    w.expected["t23"] = False


def spoil_ground(w):
    w.expected[0] = "OutOfBudget"


def spoil_oracle(w):
    w.EVALUABLE = w.EVALUABLE - {"t22"}


def spoil_workbench(w):
    w.targets = (("0", 12, 6),)


@pytest.mark.parametrize(
    "name,spoil",
    [
        ("corpus", spoil_corpus),
        ("ground", spoil_ground),
        ("oracle", spoil_oracle),
        ("workbench", spoil_workbench),
    ],
)
def test_a_wrong_expected_verdict_raises_the_fail_ratio(name, spoil):
    w = workloads.WORKLOADS[name](1, tiny=True)
    spoil(w)
    result, _ = run.measure(w, 0, False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_spans_nest_and_recursion_counts_once():
    tracer = tracing.Tracer()
    run.one_pass(workloads.Oracle(1, tiny=True), tracer=tracer)
    spans = tracer.spans()
    assert len(spans) == tracer.span_count > 0
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end
        ancestor = parent
        while ancestor >= 0:
            up_name, up_start, up_end, up_parent = spans[ancestor]
            assert ancestor < i and up_start <= start and end <= up_end
            assert up_name != name  # a recursive call is not a span of its own
            ancestor = up_parent
    assert tracer.calls["stringarith.fuzz_axioms"] == 21
    assert sum(tracer.self_s.values()) <= sum(e - s for _, s, e, p in spans if p < 0)


def test_a_pass_reads_the_speed_around_every_timed_verdict():
    _, out = run.one_pass(workloads.Oracle(1, tiny=True))
    assert len(out.probe_s) == len(out.times)
    assert all(r > 0 for r in out.probe_s)
    assert run.speed.scaled(2.0, run.speed.NOMINAL_PROBE_S / 2) == 4.0


def test_verdicts_left_out_of_a_pass_still_serve_later_ones():
    # Every other corpus script is left out: it is registered unchecked,
    # and the scripts that cite it still pass.
    _, out = run.one_pass(workloads.Corpus(1, tiny=True), due=lambda i: i % 2 == 1)
    assert out.failed == 0
    assert [t is None for t in out.times] == [i % 2 == 0 for i in range(8)]
    assert [r is None for r in out.probe_s] == [i % 2 == 0 for i in range(8)]
