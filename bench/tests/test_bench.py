"""Tests of the benchmark's own machinery (run: python3 -m pytest bench/tests)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
import run
import speed
import workloads
from canned import CannedBackend, Recorder
from factrail import corpus, orchestrator
from factrail.backends import ScriptedBackend
from oracle import ExhaustiveBM25, ranking_problem
from tracing import Span, SpanIndex, self_times

REPO = Path(__file__).resolve().parents[2]


def _bytes_of(seed: int, tmp_path: Path) -> bytes:
    docs = gen.documents(seed, 40)
    inputs = gen.chain_inputs(seed, docs, 30)
    instructions, plans = gen.answer_instructions(seed, docs, 10)
    path = tmp_path / f"inputs-{seed}.jsonl"
    gen.write_jsonl(
        path,
        [{"title": t, "text": x} for t, x in docs]
        + inputs.raw
        + inputs.refs
        + [{"instruction": i, "intents": list(plans[i].intents)} for i in instructions]
        + [inputs.expected_eval],
    )
    return path.read_bytes()


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _bytes_of(7, tmp_path)
    assert first == _bytes_of(7, tmp_path)
    assert first != _bytes_of(8, tmp_path)


def test_vocabulary_words_are_distinct_terms():
    vocab = gen.vocabulary()
    assert len(set(vocab)) == len(vocab) == gen.VOCAB_SIZE
    assert all(w.isalpha() and w.islower() and len(w) % 2 == 0 for w in vocab)


def test_exhaustive_scorer_matches_retrieve_on_toy_corpus():
    docs = corpus.read_documents(REPO / "tests" / "data" / "toy_corpus.jsonl")
    index = corpus.index_documents(docs)
    passages = [index.passages[pid] for pid in sorted(index.passages)]
    queries = [" ".join(p.text.split()[:4]) for p in passages]
    queries += [p.title for p in passages] + ["planet solar system", "largest storm red"]
    bm = ExhaustiveBM25(passages, queries)
    for query in queries:
        for k in (1, 3, 10):
            expected = bm.rank(query, k)
            assert expected
            assert ranking_problem(expected, corpus.retrieve(index, query, k).ranked) is None


def test_ranking_problem_reports_order_and_score_drift():
    assert ranking_problem([(1, 2.0), (2, 1.0)], [(2, 1.0), (1, 2.0)]).startswith("order")
    assert "score" in ranking_problem([(1, 2.0)], [(1, 2.0 + 1e-6)])
    assert ranking_problem([(1, 2.0)], [(1, 2.0 + 1e-12)]) is None


def test_canned_backend_traces_have_no_flags_and_replay_identically(tmp_path):
    docs = gen.documents(3, 30)
    index = corpus.index_documents(docs)
    inputs = gen.chain_inputs(3, docs, 12)
    config = orchestrator.InferenceConfig(max_passages=12)
    recorder = Recorder(CannedBackend(inputs.plans))
    traces = [orchestrator.run_inference(i, index, recorder, config) for i in inputs.instructions]
    for trace in traces:
        assert trace.flags == ()
        assert trace.citations.indices == (1,)
        assert orchestrator.validate_trace(trace) == []
    recorder.save(tmp_path / "script.jsonl")
    replay = ScriptedBackend.from_file(tmp_path / "script.jsonl")
    replayed = [orchestrator.run_inference(i, index, replay, config) for i in inputs.instructions]
    assert [orchestrator.trace_to_dict(t) for t in replayed] == [
        orchestrator.trace_to_dict(t) for t in traces
    ]

    instructions, plans = gen.answer_instructions(3, docs, 8)
    backend = CannedBackend(plans)
    for instruction in instructions:
        assert orchestrator.run_inference(instruction, index, backend).flags == ()


def _span(sid, start, end, parent=None, item=None, name="x"):
    return Span(sid, name, start, end, parent, item, False)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1, as worker threads do
        _span(3, 8.0, 12.0, parent=0),  # clipped to the parent's end
        _span(4, 1.5, 2.5, parent=1),  # a grandchild leaves span 0 alone
    ]
    self_time = self_times(spans)
    assert self_time[0] == 10.0 - (4.0 + 2.0)
    assert self_time[1] == 2.0 - 1.0
    assert self_time[2] == 3.0
    assert self_time[4] == 1.0


def test_span_index_filters_by_enclosing_item():
    spans = [
        _span(0, 0.0, 4.0, item=0, name="orchestrator.run_inference"),
        _span(1, 1.0, 2.0, parent=0, item=0, name="corpus.retrieve"),
        _span(2, 5.0, 9.0, item=2, name="dataset.build_long_example"),
        _span(3, 6.0, 9.0, parent=2, item=2, name="corpus.retrieve"),
        _span(4, 10.0, 11.0, name="corpus.retrieve"),
    ]
    ix = SpanIndex(spans)
    assert ix.count("corpus.retrieve") == 3
    assert ix.count("corpus.retrieve", "orchestrator.run_inference") == 1
    assert ix.total("corpus.retrieve", "dataset.build_long_example") == 3.0
    assert ix.self_total("orchestrator.run_inference") == 3.0


def test_tracing_counts_calls_and_restores_the_package():
    docs = gen.documents(5, 20)
    index = corpus.index_documents(docs)
    instructions, plans = gen.answer_instructions(5, docs, 4)
    backend = CannedBackend(plans)
    originals = (corpus.retrieve, orchestrator.retrieve_multi, orchestrator.serialize_steps)
    generate = CannedBackend.__dict__["generate"]

    def answer_all():
        return [orchestrator.run_inference(i, index, backend) for i in instructions]

    traces, tracer = workloads.traced(answer_all)
    assert (corpus.retrieve, orchestrator.retrieve_multi, orchestrator.serialize_steps) == originals
    assert CannedBackend.__dict__["generate"] is generate
    metrics = workloads.layer_metrics(tracer, 1.0, doc_freq=lambda term: 1)
    assert set(metrics) == {name for name, _, _ in workloads.PER_LAYER}
    assert metrics["corpus.retrieve.calls"][0] == 3 * len(instructions)
    assert metrics["grammar.serialize_steps.calls_per_trace"][0] == 9
    assert metrics["backends.generate.calls_per_trace"][0] == 3
    assert metrics["orchestrator.flags_per_trace"][0] == 0
    assert len(traces) == len(instructions)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in workloads.PER_LAYER
    ]


def test_speed_scaling_divides_out_the_reading():
    ref = speed.REFERENCE_S
    assert speed.Speedometer.scale(1.0, ref, ref) == pytest.approx(1.0)
    assert speed.Speedometer.scale(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.Speedometer.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)


def test_measure_spreads_setups_over_rounds(tmp_path):
    calls = []

    def setup():
        calls.append("setup")
        return len(calls)

    def timed_round(state, _meter):
        calls.append("round")
        n = calls.count("round")
        return [(float(n), 10.0 * n), (1.0, 1.0)]

    run = workloads.Run(seed=0, seconds=0.0, trace=False, work=tmp_path, nproc=1)
    m = workloads.measure(run, workloads.Outcome(), setup, timed_round)
    assert calls == ["setup", "round"] * workloads.SETUP_REPS + ["round"] * (
        workloads.MIN_ROUNDS - workloads.SETUP_REPS
    )
    assert m.rounds == workloads.MIN_ROUNDS
    assert m.medians() == [(2.0, 20.0), (1.0, 1.0)]
    assert len(m.setups) == workloads.SETUP_REPS
    m.readings = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert m.run_scaled_means() == [(2.0, pytest.approx(1.0)), (1.0, pytest.approx(0.5))]

    traced_run = workloads.Run(seed=0, seconds=0.0, trace=True, work=tmp_path, nproc=1)
    calls.clear()
    m = workloads.measure(traced_run, workloads.Outcome(), setup, timed_round)
    assert calls == ["setup"] and m.rounds == 0
