"""Staged inference: branch selection, degrade paths, and trace validation."""

from dataclasses import replace

import pytest

from factrail import orchestrator
from factrail.backends import ScriptedBackend
from factrail.corpus import index_documents
from factrail.grammar import (
    CitationList,
    IntentSet,
    LocatorJudgment,
    Relevance,
    StepKind,
    Trajectory,
    TrajectoryStep,
    retrieval_body,
)
from factrail.orchestrator import (
    BatchResult,
    InferenceConfig,
    PipelineError,
    build_step_prompt,
    read_traces,
    run_batch,
    run_inference,
    stops_for,
    trace_from_dict,
    trace_to_dict,
    validate_trace,
    write_traces,
)

from helpers import judge_by_answer, mirror_retrieval, script_scenario

DOCS = [
    ("Moon", "the moon orbits the earth every month"),
    ("Sun", "the sun is a star at the center of the system"),
    ("Tides", "ocean tides follow the moon closely"),
]

INSTRUCTION = "what does the moon orbit?"
RECONSTRUCTION = "Search(moon orbit; ocean tides)"
ANSWER_BODY = "the earth\n[Cite]: [1]"


@pytest.fixture
def index():
    return index_documents(DOCS)


def relevance_setup(index, config=None):
    cfg = config or InferenceConfig()
    backend = ScriptedBackend()
    passages = script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    return backend, cfg, passages


# ---------------------------------------------------------------------------
# branch behavior


def test_relevance_branch_produces_full_trajectory(index):
    backend, cfg, passages = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)

    assert [s.kind for s in trace.trajectory.steps] == [
        StepKind.RECONSTRUCTOR,
        StepKind.RETRIEVAL,
        StepKind.LOCATOR,
        StepKind.GENERATOR,
    ]
    assert trace.answer == "the earth"
    assert trace.citations.indices == (1,)
    assert trace.flags == ()
    assert [p.id for p in trace.passages] == [p.id for p in passages]
    assert trace.judgments[0].relevance is Relevance.RELEVANT
    assert trace.judgments[1].relevance is Relevance.IRRELEVANT
    assert validate_trace(trace) == []

    generator_record = trace.steps[-1]
    assert generator_record.kind is StepKind.GENERATOR
    assert "<Locator>" in generator_record.prompt
    assert "<retrieval>" in generator_record.prompt


def test_prompts_are_cumulative_prefixes(index):
    backend, cfg, _passages = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    prompts = [r.prompt for r in trace.steps if r.prompt is not None]
    assert len(prompts) == 3
    for shorter, longer in zip(prompts, prompts[1:]):
        head_start = shorter.rindex("<")
        assert longer.startswith(shorter[:head_start])
    assert prompts[0].startswith(INSTRUCTION + "</eoi>\n")


def test_fallback_branch_hides_locator_from_generator(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("pluto"), "cannot tell from these passages",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)

    assert trace.flags == ("generator_fallback",)
    assert all(j.relevance is Relevance.IRRELEVANT for j in trace.judgments)
    assert trace.citations.indices == ()
    generator_record = trace.steps[-1]
    assert generator_record.prompt == build_step_prompt(INSTRUCTION, [], StepKind.GENERATOR)
    assert "<Locator>" not in generator_record.prompt
    assert validate_trace(trace) == []


def test_no_passages_falls_back(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, "Search(zebra)",
        judge_by_answer("earth"), "no idea",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert trace.flags == ("no_passages", "generator_fallback")
    assert [s.kind for s in trace.trajectory.steps] == [
        StepKind.RECONSTRUCTOR,
        StepKind.GENERATOR,
    ]
    assert validate_trace(trace) == []


def test_fallback_disabled_raises(index):
    cfg = InferenceConfig(generator_fallback=False)
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("pluto"), "unused",
    )
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend, cfg)
    assert err.value.stage == "generator"


# ---------------------------------------------------------------------------
# caps and truncation flags


def test_intent_cap_truncates_and_flags(index):
    cfg = InferenceConfig(max_intents=2)
    backend = ScriptedBackend()
    many = "Search(moon orbit; ocean tides; sun star; earth month; extra one)"
    script_scenario(
        backend, index, cfg, INSTRUCTION, many, judge_by_answer("earth"), ANSWER_BODY,
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert "intents_truncated:5->2" in trace.flags
    assert trace.intents.intents == ("moon orbit", "ocean tides")
    assert validate_trace(trace) == []


def test_passage_cap_truncates_and_flags(index):
    cfg = InferenceConfig(k=2, max_passages=2)
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION,
        "Search(moon orbit; sun star center)",
        judge_by_answer("earth"), ANSWER_BODY,
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert any(f.startswith("passages_truncated:") for f in trace.flags)
    assert len(trace.passages) == 2
    assert validate_trace(trace) == []


# ---------------------------------------------------------------------------
# locator failure handling


def locator_setup(index, cfg, locator_reply):
    backend = ScriptedBackend()
    backend.add_reply(
        build_step_prompt(INSTRUCTION, [], StepKind.RECONSTRUCTOR), RECONSTRUCTION
    )
    passages = mirror_retrieval(index, RECONSTRUCTION, cfg)
    steps = [
        TrajectoryStep(StepKind.RECONSTRUCTOR, RECONSTRUCTION),
        TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages)),
    ]
    backend.add_reply(build_step_prompt(INSTRUCTION, steps, StepKind.LOCATOR), locator_reply)
    backend.add_reply(
        build_step_prompt(INSTRUCTION, [], StepKind.GENERATOR), "cannot tell"
    )
    return backend


def test_incomplete_coverage_fails_when_required(index):
    cfg = InferenceConfig()
    backend = locator_setup(index, cfg, "[Relevant]: [1] the moon orbits the earth.")
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend, cfg)
    assert err.value.stage == "locator"
    assert "expected" in err.value.message


def test_incomplete_coverage_degrades_when_optional(index):
    cfg = InferenceConfig(locator_required=False)
    backend = locator_setup(index, cfg, "[Relevant]: [1] the moon orbits the earth.")
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert "locator_degraded:coverage" in trace.flags
    assert "generator_fallback" in trace.flags
    assert trace.judgments == ()
    assert [s.kind for s in trace.trajectory.steps] == [
        StepKind.RECONSTRUCTOR,
        StepKind.RETRIEVAL,
        StepKind.GENERATOR,
    ]
    assert validate_trace(trace) == []


def test_unparseable_locator_degrades_when_optional(index):
    cfg = InferenceConfig(locator_required=False)
    backend = locator_setup(index, cfg, "this is not a judgment line")
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert any(f.startswith("locator_degraded:") for f in trace.flags)
    assert trace.judgments == ()


def test_unparseable_locator_fails_when_required(index):
    cfg = InferenceConfig()
    backend = locator_setup(index, cfg, "this is not a judgment line")
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend, cfg)
    assert err.value.stage == "locator"


# ---------------------------------------------------------------------------
# reply hygiene


def test_premature_head_is_truncated_and_flagged(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    backend.add_reply(
        build_step_prompt(INSTRUCTION, [], StepKind.RECONSTRUCTOR),
        RECONSTRUCTION + "\n<Locator>\nleaked text",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert "head_mismatch:reconstructor" in trace.flags
    assert trace.trajectory.steps[0].body == RECONSTRUCTION
    assert trace.answer == "the earth"


def test_reply_empty_after_head_truncation_fails(index):
    backend = ScriptedBackend()
    backend.add_reply(
        build_step_prompt(INSTRUCTION, [], StepKind.RECONSTRUCTOR),
        "<Generator>\nleaked",
    )
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend)
    assert err.value.stage == "reconstructor"


def test_unscripted_backend_surfaces_stage(index):
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, ScriptedBackend())
    assert err.value.stage == "reconstructor"


def test_unparseable_intents_fail(index):
    backend = ScriptedBackend()
    backend.add_reply(
        build_step_prompt(INSTRUCTION, [], StepKind.RECONSTRUCTOR), "Search( ; )"
    )
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend)
    assert err.value.stage == "reconstructor"


# ---------------------------------------------------------------------------
# citation problems are flags, not crashes


def test_unsupported_citation_is_flagged(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), "the earth\n[Cite]: [1] [2]",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert "citation_unsupported:2" in trace.flags
    assert trace.citations.indices == (1, 2)


def test_out_of_range_citation_is_flagged(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), "the earth\n[Cite]: [1] [9]",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert "citation_out_of_range:9" in trace.flags


# ---------------------------------------------------------------------------
# validate_trace mutation suite


@pytest.fixture
def clean_trace(index):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert validate_trace(trace) == []
    return trace


def codes(trace):
    return [v.code for v in validate_trace(trace)]


def test_detects_step_disorder(clean_trace):
    shuffled = Trajectory(tuple(reversed(clean_trace.trajectory.steps)))
    assert codes(replace(clean_trace, trajectory=shuffled)) == ["step_order"]


def test_detects_missing_generator(clean_trace):
    trimmed = Trajectory(clean_trace.trajectory.steps[:-1])
    assert codes(replace(clean_trace, trajectory=trimmed)) == ["generator_missing"]


def test_detects_coverage_gap(clean_trace):
    mutated = replace(clean_trace, judgments=clean_trace.judgments[:1])
    assert set(codes(mutated)) == {"judgment_coverage", "locator_mismatch"}


def test_detects_out_of_range_citation(clean_trace):
    mutated = replace(clean_trace, citations=CitationList((1, 9)))
    assert set(codes(mutated)) == {"citation_out_of_range", "generator_mismatch"}


def test_detects_unsupported_citation(clean_trace):
    mutated = replace(clean_trace, citations=CitationList((1, 2)))
    assert set(codes(mutated)) == {"citation_unsupported", "generator_mismatch"}


def test_detects_retrieval_tampering(clean_trace):
    mutated = replace(clean_trace, passages=tuple(reversed(clean_trace.passages)))
    assert codes(mutated) == ["retrieval_mismatch"]


def test_detects_intent_tampering(clean_trace):
    mutated = replace(clean_trace, intents=IntentSet(("something else",)))
    assert codes(mutated) == ["intents_mismatch"]


def test_detects_judgment_tampering(clean_trace):
    flipped = (
        clean_trace.judgments[0],
        LocatorJudgment(2, Relevance.RELEVANT, "ocean tides follow the moon closely."),
    )
    assert codes(replace(clean_trace, judgments=flipped)) == ["locator_mismatch"]


def test_detects_answer_tampering(clean_trace):
    assert codes(replace(clean_trace, answer="wrong")) == ["generator_mismatch"]


def test_detects_prompt_tampering(clean_trace):
    records = list(clean_trace.steps)
    records[0] = replace(records[0], prompt="tampered")
    assert codes(replace(clean_trace, steps=tuple(records))) == ["prompt_mismatch"]


def test_detects_branch_tampering(clean_trace):
    records = list(clean_trace.steps)
    fallback_prompt = build_step_prompt(clean_trace.instruction, [], StepKind.GENERATOR)
    records[-1] = replace(records[-1], prompt=fallback_prompt)
    assert codes(replace(clean_trace, steps=tuple(records))) == ["branch_mismatch"]


# ---------------------------------------------------------------------------
# config and stops


def test_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(k=0)
    with pytest.raises(ValueError):
        InferenceConfig(max_intents=0)
    with pytest.raises(ValueError):
        InferenceConfig(k=4, max_passages=3)


def test_stops_put_own_end_first():
    stops = stops_for(StepKind.LOCATOR)
    assert stops[0] == "</eol>"
    assert set(stops) == {"</eor>", "</retrieval>", "</eol>", "</eog>"}


# ---------------------------------------------------------------------------
# batching and trace files


def test_run_batch_keeps_order_and_isolates_failures(index):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    other = "where do tides come from?"
    script_scenario(
        backend, index, cfg, other, "Search(ocean tides)",
        judge_by_answer("moon"), "the moon\n[Cite]: [1]",
    )
    instructions = [INSTRUCTION, "totally unscripted", other]
    results = run_batch(instructions, index, backend, cfg, max_workers=3)

    assert [r.index for r in results] == [0, 1, 2]
    assert results[0].trace is not None and results[2].trace is not None
    assert results[1].error is not None
    assert results[1].error.stage == "reconstructor"

    solo = run_inference(INSTRUCTION, index, backend, cfg)
    assert trace_to_dict(results[0].trace) == trace_to_dict(solo)


def test_trace_jsonl_round_trip(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    results = [
        BatchResult(index=0, trace=trace),
        BatchResult(index=1, error=PipelineError("locator", "gave up")),
    ]
    path = tmp_path / "traces.jsonl"
    write_traces(results, path)
    loaded = read_traces(path)

    assert trace_to_dict(loaded[0].trace) == trace_to_dict(trace)
    assert loaded[1].error.stage == "locator"
    assert loaded[1].error.message == "gave up"
    assert validate_trace(loaded[0].trace) == []


def test_trace_files_are_byte_identical_across_writes(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    results = [BatchResult(index=0, trace=trace)]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_traces(results, first)
    write_traces(results, second)
    assert first.read_bytes() == second.read_bytes()


def test_failed_trace_write_keeps_previous_file_bytes(index, tmp_path, monkeypatch):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    path = tmp_path / "traces.jsonl"
    write_traces([BatchResult(index=0, error=PipelineError("locator", "gave up"))], path)
    before = path.read_bytes()

    calls = []

    def fail_on_second(t):
        calls.append(t)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return trace_to_dict(t)

    monkeypatch.setattr(orchestrator, "trace_to_dict", fail_on_second)
    with pytest.raises(RuntimeError):
        write_traces([BatchResult(index=i, trace=trace) for i in range(3)], path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]


def test_trace_dict_mirror(clean_trace):
    mirrored = trace_from_dict(trace_to_dict(clean_trace))
    assert mirrored.answer == clean_trace.answer
    assert mirrored.citations == clean_trace.citations
    assert mirrored.judgments == clean_trace.judgments
    assert mirrored.trajectory == clean_trace.trajectory
    assert all(r.prompt is None for r in mirrored.steps)
