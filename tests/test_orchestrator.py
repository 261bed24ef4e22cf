"""Staged inference: branch selection, degrade paths, and trace validation."""

import gc
import json
import random
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import orchestrator
from factrail.backends import (
    AgentReply,
    BackendConfig,
    BackendError,
    HttpBackend,
    ScriptedBackend,
    prompt_text,
)
from factrail.corpus import Passage, build_index, chunk_document, index_documents
from factrail.evaluation import EvalExample, evaluate
from factrail.grammar import (
    CitationList,
    IntentSet,
    GrammarError,
    LocatorJudgment,
    Relevance,
    StepKind,
    TokenKind,
    Trajectory,
    TrajectoryStep,
    format_judgment,
    render_instruction,
    retrieval_body,
    serialize_trajectory,
)
from factrail.orchestrator import (
    InferenceConfig,
    InferenceTrace,
    PipelineError,
    TraceFormatError,
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

from helpers import (
    StubServer,
    chat_reply,
    exactly,
    format_judgment_line,
    judge_by_answer,
    mirror_retrieval,
    script_scenario,
    with_section,
)

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


def test_one_inference_serializes_once_per_backend_call_and_never_validates(index, monkeypatch):
    backend, cfg, _ = relevance_setup(index)
    calls = {"generate": 0, "serialize_steps": 0, "validate_trace": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(backend, "generate")
    counted(orchestrator, "serialize_steps")
    counted(orchestrator, "validate_trace")
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert len(trace.steps) == 4
    assert calls == {"generate": 3, "serialize_steps": 3, "validate_trace": 0}


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


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps the exact prompt of every request."""

    def __init__(self) -> None:
        super().__init__()
        self.prompts: list[str] = []

    def generate(self, request):
        self.prompts.append(prompt_text(request))
        return super().generate(request)


@pytest.mark.parametrize("facts", [True, False], ids=["facts", "no-facts"])
def test_stage_records_hold_the_trace_sections_not_prompt_text(index, facts):
    cfg = InferenceConfig()
    backend = RecordingBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth" if facts else "pluto"), ANSWER_BODY,
        fallback_generator_body="cannot tell from these passages",
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert ("generator_fallback" in trace.flags) == (not facts)

    steps = trace.trajectory.steps
    shown = {
        StepKind.RECONSTRUCTOR: 0,
        StepKind.LOCATOR: 2,
        StepKind.GENERATOR: 3 if facts else 0,
    }
    for record in trace.steps:
        # The only text a record holds is the trace's own instruction.
        assert record.instruction is trace.instruction
        values = [getattr(record, f.name) for f in fields(record)]
        assert [v for v in values if isinstance(v, str)] == [trace.instruction]
        if record.kind is StepKind.RETRIEVAL:
            assert record.prior is None and record.prompt is None
            continue
        assert len(record.prior) == shown[record.kind]
        assert all(mine is own for mine, own in zip(record.prior, steps))
        # Rebuilt on each access, never cached.
        prompt = record.prompt
        assert record.prompt == prompt and record.prompt is not prompt

    rebuilt = [r.prompt for r in trace.steps if r.prior is not None]
    assert rebuilt == backend.prompts
    assert len(rebuilt) == 3


def test_run_batch_results_hold_about_their_trajectories_not_their_prompts():
    # Full 100-word passages, so each prompt after the first repeats the
    # retrieval section: kept prompts would cost more than the sections.
    rng = random.Random(7)
    vocabulary = [f"w{n}" for n in range(400)]
    docs = [
        (f"Doc {d}", " ".join(rng.choice(vocabulary) for _ in range(100))) for d in range(40)
    ]
    index = index_documents(docs)
    cfg = InferenceConfig()
    backend = ScriptedBackend()

    def judge(passages):
        fact = " ".join(passages[0].text.split()[:8]) + "."
        rest = [f"[Irrelevant]: [{i}] Lacking Supporting Facts." for i in range(2, len(passages) + 1)]
        return "\n".join([format_judgment_line(1, fact), *rest])

    instructions = []
    for n in range(60):
        instruction = f"question {n} about the documents?"
        picks = [rng.choice(docs)[1].split()[:2] for _ in range(3)]
        reconstruction = "Search(" + "; ".join(" ".join(p) for p in picks) + ")"
        script_scenario(
            backend, index, cfg, instruction, reconstruction, judge,
            f"answer {n}\n[Cite]: [1]",
        )
        instructions.append(instruction)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = run_batch(instructions, index, backend, cfg, max_workers=2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    assert all(isinstance(r, InferenceTrace) for r in results)
    assert all(len(r.trajectory.steps) == 4 for r in results)
    serialized = sum(len(serialize_trajectory(r.trajectory)) for r in results)
    assert retained < 2.5 * serialized


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


def test_a_reply_cut_at_the_length_limit_flags_its_stage(index):
    def handler(payload):
        prompt = payload["messages"][0]["content"]
        if prompt.endswith("<Reconstructor>\n"):
            return 200, chat_reply("Search(zebra)")  # retrieves nothing
        return 200, chat_reply("the sun is", finish_reason="length")

    with StubServer(handler) as server:
        backend = HttpBackend(BackendConfig(endpoint_url=server.url, retries=0, timeout_s=5.0))
        trace = run_inference(INSTRUCTION, index, backend)
    assert trace.answer == "the sun is"
    assert trace.flags == ("no_passages", "generator_fallback", "length_limited:generator")
    assert validate_trace(trace) == []


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
    return backend


def test_incomplete_coverage_fails_when_required(index):
    cfg = InferenceConfig()
    backend = locator_setup(index, cfg, "[Relevant]: [1] the moon orbits the earth.")
    with pytest.raises(PipelineError) as err:
        run_inference(INSTRUCTION, index, backend, cfg)
    assert err.value.stage == "locator"
    assert "expected" in err.value.message


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
    assert err.value.message == "backend produced an empty continuation"


def test_a_reply_cut_at_a_head_and_at_the_length_limit_is_flagged_head_mismatch_only(
    index, caplog
):
    def handler(payload):
        prompt = payload["messages"][0]["content"]
        if prompt.endswith("<Reconstructor>\n"):
            # retrieves nothing
            return 200, chat_reply("Search(zebra)\n<Locator>\n[Relevant]: [1] f", "length")
        return 200, chat_reply("no idea")

    with StubServer(handler) as server, caplog.at_level("WARNING", "factrail.orchestrator"):
        backend = HttpBackend(BackendConfig(endpoint_url=server.url, retries=0, timeout_s=5.0))
        trace = run_inference(INSTRUCTION, index, backend)
    assert trace.trajectory.steps[0].body == "Search(zebra)"
    assert trace.flags == ("head_mismatch:reconstructor", "no_passages", "generator_fallback")
    assert caplog.messages == [
        "backend emitted a head token during the reconstructor stage; truncating"
    ]


class HeadLeavingBackend:
    """A third-party backend that does not cut its replies at head tokens:
    the reconstructor reply for one instruction keeps the head it wrote."""

    def __init__(self, inner, instruction):
        self.inner = inner
        self.prompt = render_instruction(instruction)

    def generate(self, request):
        reply = self.inner.generate(request)
        if request.head is TokenKind.RECONSTRUCTOR_HEAD and request.instruction == self.prompt:
            return AgentReply(reply.body + "\n<Locator>\nleaked", reply.terminated_by)
        return reply


def test_run_batch_turns_a_head_a_backend_left_in_a_reply_into_an_item_error(index):
    backend, cfg, _ = relevance_setup(index)
    leaky = "what orbits the earth?"
    script_scenario(
        backend, index, cfg, leaky, RECONSTRUCTION, judge_by_answer("earth"), ANSWER_BODY,
    )
    results = run_batch(
        [leaky, INSTRUCTION], index, HeadLeavingBackend(backend, leaky), cfg, max_workers=2
    )
    assert isinstance(results[0], PipelineError)
    assert str(results[0]) == "reconstructor: the reply holds the grammar token <Locator>"
    assert results[1].answer == "the earth" and results[1].flags == ()


@pytest.mark.parametrize("stage", ["locator", "generator"])
def test_run_batch_turns_a_number_int_refuses_into_an_item_error(index, stage):
    huge = "1" * 5000  # int() reads at most 4300 digits by default
    backend, cfg, passages = relevance_setup(index)
    bad = "which body does the moon orbit?"
    if stage == "locator":
        script_scenario(
            backend, index, cfg, bad, RECONSTRUCTION, judge_by_answer("earth"), ANSWER_BODY,
        )
        prior = [
            TrajectoryStep(StepKind.RECONSTRUCTOR, RECONSTRUCTION),
            TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages)),
        ]
        backend.add_reply(
            build_step_prompt(bad, prior, StepKind.LOCATOR),
            f"[Relevant]: [{huge}] the moon orbits the earth.",
        )
        message = "passage index of 5000 digits is too long (line 1)"
    else:
        script_scenario(
            backend, index, cfg, bad, RECONSTRUCTION,
            judge_by_answer("earth"), f"the earth\n[Cite]: [{huge}]",
        )
        message = "citation index of 5000 digits is too long (line 2)"
    results = run_batch([bad, INSTRUCTION], index, backend, cfg, max_workers=2)
    assert isinstance(results[0], PipelineError)
    assert (results[0].stage, results[0].message) == (stage, message)
    assert results[1].answer == "the earth"


@pytest.mark.parametrize(
    "stage, reply, message",
    [
        ("locator", "[Relevant]: [0] the moon orbits the earth.", "passage indices are 1-based (line 1)"),
        (
            "locator",
            "[Irrelevant]: [1] the moon orbits the earth.",
            "an Irrelevant judgment must not carry a fact (line 1)",
        ),
        ("generator", "the earth\n[Cite]:", "no indices follow the citation marker"),
    ],
    ids=["relevant-index-0", "irrelevant-with-fact", "cite-without-indices"],
)
def test_run_batch_turns_a_reply_its_parser_refuses_into_an_item_error(index, stage, reply, message):
    # Without the parser's check, passage index 0 raises LocatorJudgment's
    # own ValueError out of the batch, and the other two replies pass.
    backend, cfg, passages = relevance_setup(index)
    bad = "which body does the moon orbit?"
    answer = reply if stage == "generator" else ANSWER_BODY
    script_scenario(backend, index, cfg, bad, RECONSTRUCTION, judge_by_answer("earth"), answer)
    if stage == "locator":
        prior = [
            TrajectoryStep(StepKind.RECONSTRUCTOR, RECONSTRUCTION),
            TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages)),
        ]
        backend.add_reply(build_step_prompt(bad, prior, StepKind.LOCATOR), reply)
    results = run_batch([bad, INSTRUCTION], index, backend, cfg, max_workers=2)
    assert isinstance(results[0], PipelineError)
    assert (results[0].stage, results[0].message) == (stage, message)
    assert results[1].answer == "the earth"


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
# tampering: what validate_trace reports, and what a trace file cannot hold


@pytest.fixture
def clean_trace(index):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert validate_trace(trace) == []
    return trace


def codes(trace):
    return [v.code for v in validate_trace(trace)]


def test_detects_step_disorder(clean_trace):
    # Sections out of stage order do not parse, so such a row is not read.
    row = trace_to_dict(clean_trace)
    row["trajectory"] = "".join(
        f"{s.kind.head.value}\n{s.body}\n{s.kind.end.value}\n"
        for s in reversed(clean_trace.trajectory.steps)
    )
    with pytest.raises(GrammarError, match=exactly("<Locator> at offset 41 breaks the section order")):
        trace_from_dict(row)


def test_detects_missing_generator(clean_trace):
    trimmed = Trajectory(clean_trace.trajectory.steps[:-1])
    assert codes(replace(clean_trace, trajectory=trimmed)) == ["generator_missing"]


def test_detects_coverage_gap(clean_trace):
    locator = format_judgment(clean_trace.judgments[0])
    mutated = with_section(clean_trace, StepKind.LOCATOR, locator)
    assert codes(mutated) == ["judgment_coverage"]


def cite(trace, indices):
    """The trace with its answer citing these passages."""
    body = f"{trace.answer}\n{CitationList(indices).render()}"
    return with_section(trace, StepKind.GENERATOR, body)


def test_detects_out_of_range_citation(clean_trace):
    assert codes(cite(clean_trace, (1, 9))) == ["citation_out_of_range"]


def test_detects_unsupported_citation(clean_trace):
    assert codes(cite(clean_trace, (1, 2))) == ["citation_unsupported"]


@pytest.mark.parametrize("citations", [[True], [1.0], 1], ids=["bool", "float", "not-a-list"])
def test_trace_from_dict_requires_citations_as_a_list_of_int(clean_trace, citations):
    row = trace_to_dict(clean_trace)
    assert row["citations"] == [1]
    row["citations"] = citations
    with pytest.raises(ValueError, match="'citations' must be"):
        trace_from_dict(row)


def test_a_trace_holds_no_value_beside_its_sections(clean_trace):
    names = [f.name for f in fields(InferenceTrace)]
    assert names == ["instruction", "trajectory", "passage_meta", "steps", "flags"]
    for name in ("intents", "judgments", "answer", "citations"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            replace(clean_trace, **{name: getattr(clean_trace, name)})
    # Each value is the parse of its section as the trajectory now reads.
    edited = with_section(clean_trace, StepKind.RECONSTRUCTOR, "Search(sun star)")
    edited = with_section(
        edited, StepKind.LOCATOR, "[Irrelevant]: [1]\n[Relevant]: [2] the sun is a star."
    )
    edited = with_section(edited, StepKind.GENERATOR, "a star\n[Cite]: [2]")
    assert edited.intents == IntentSet(("sun star",))
    assert edited.judgments == (
        LocatorJudgment(1, Relevance.IRRELEVANT),
        LocatorJudgment(2, Relevance.RELEVANT, "the sun is a star."),
    )
    assert (edited.answer, edited.citations) == ("a star", CitationList((2,)))
    assert validate_trace(edited) == []
    assert trace_to_dict(edited)["citations"] == [2]


def test_a_trace_whose_passages_do_not_fit_its_retrieval_section_cannot_be_built(clean_trace):
    # The passages are derived from the retrieval section: a trace holds only
    # each passage's id, title and word count, and those must fit the entries.
    with pytest.raises(TypeError, match="unexpected keyword argument 'passages'"):
        replace(clean_trace, passages=clean_trace.passages)
    meta = clean_trace.passage_meta
    assert len(meta) == 2
    with pytest.raises(ValueError, match="^1 passages but 2 retrieval entries$"):
        replace(clean_trace, passage_meta=meta[:1])
    with pytest.raises(ValueError, match="^3 passages but 2 retrieval entries$"):
        replace(clean_trace, passage_meta=meta + meta[:1])
    retitled = (meta[0], (meta[1][0], "Tide", meta[1][2]))
    with pytest.raises(ValueError, match="^retrieval entry 2 does not start with '\\[2\\] Tide -'$"):
        replace(clean_trace, passage_meta=retitled)
    headless = Trajectory(tuple(s for s in clean_trace.trajectory.steps if s.kind is StepKind.GENERATOR))
    with pytest.raises(ValueError, match="^2 passages but 0 retrieval entries$"):
        replace(clean_trace, trajectory=headless)
    assert replace(clean_trace, trajectory=headless, passage_meta=()).passages == ()


def test_validate_and_evaluate_never_cut_the_passage_texts(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    path = tmp_path / "traces.jsonl"
    write_traces([trace], path)
    results = read_traces(path)
    read = results[0]
    assert validate_trace(read) == []
    report = evaluate(results, [EvalExample(INSTRUCTION, ("the earth",), "popqa")], "popqa")
    assert report.citations["errors"] == 0.0
    assert "passages" not in read.__dict__
    # On first access the texts are cut from the section, and kept.
    assert read.passages == trace.passages
    assert read.__dict__["passages"] is read.passages


_PIECES = (
    "-", " -", "- ", "a -b", "x - y", "[2]", "[1] Tide -", "Tide", "zeta", "omega",
    "élan", "naïve", "мир", "Ærø", "日本", "_", "—",
)
_PIECE = st.one_of(
    st.sampled_from(_PIECES),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="<>"), max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derived_passages_are_the_retrieved_passages(data):
    # Titles may contain " -" and "[2]", so only the stored title fixes where
    # an entry's text starts.
    docs = [
        (
            " ".join(data.draw(st.lists(_PIECE, max_size=4), label=f"title {n}")),
            " ".join([*data.draw(st.lists(_PIECE, max_size=6), label=f"text {n}"), "zeta"]),
        )
        for n in range(data.draw(st.integers(1, 5), label="documents"))
    ]
    index = index_documents(docs)
    cfg = InferenceConfig(k=3, max_passages=6)
    relevant = data.draw(st.booleans(), label="first passage judged Relevant")

    def locator_body(passages):
        return "\n".join(
            format_judgment_line(i, "a fact.")
            if relevant and i == 1
            else f"[Irrelevant]: [{i}] Lacking Supporting Facts."
            for i in range(1, len(passages) + 1)
        )

    backend = ScriptedBackend()
    passages = script_scenario(
        backend, index, cfg, INSTRUCTION, "Search(zeta; omega)", locator_body, "x\n[Cite]: [1]"
    )
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    assert passages
    assert trace.passages == tuple(passages)
    read = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace), ensure_ascii=False)))
    assert read == replace(trace, steps=())
    assert read.passages == trace.passages


def test_detects_retrieval_tampering(clean_trace):
    # A row's passages must be the ones its retrieval section lists, in order.
    row = trace_to_dict(clean_trace)
    row["passages"].reverse()
    with pytest.raises(ValueError, match="retrieval entry 1 does not start with '\\[1\\] Tides -'"):
        trace_from_dict(row)


def test_detects_intent_tampering(clean_trace):
    # The kept intents come from the section and the truncation flag, which
    # must name the section's intent count.
    row = trace_to_dict(clean_trace)
    row["flags"] = ["intents_truncated:3->1"]
    with pytest.raises(ValueError, match="intents_truncated:3->1 does not fit the 2 intents"):
        trace_from_dict(row)


def test_detects_judgment_tampering(clean_trace):
    # The answer cites passage 1; judging it Irrelevant leaves the citation
    # unsupported.
    row = trace_to_dict(clean_trace)
    row["trajectory"] = row["trajectory"].replace(
        "[Relevant]: [1] the moon orbits the earth every month.",
        "[Irrelevant]: [1] Lacking Supporting Facts.",
    )
    assert codes(trace_from_dict(row)) == ["citation_unsupported"]


# ---------------------------------------------------------------------------
# what run_inference guarantees without checking itself

_WORDS = ("moon", "orbit", "earth", "sun", "star", "ocean", "tides", "month", "zebra")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_inference_traces_break_validate_trace_only_by_their_flagged_citations(data):
    # Every branch: facts or fallback, no passages, truncated intents or
    # passages, a locator reply that fails the item, a reply cut at a head token.
    index = index_documents(DOCS)
    intents = data.draw(
        st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3), min_size=1, max_size=4)
    )
    k = data.draw(st.integers(1, 3), label="k")
    cfg = InferenceConfig(
        k=k,
        max_intents=data.draw(st.integers(1, 4), label="max_intents"),
        max_passages=data.draw(st.integers(k, 3), label="max_passages"),
    )
    degraded = data.draw(st.booleans(), label="locator judges a passage it was not shown")
    leaked = data.draw(st.booleans(), label="reconstructor reply runs into a head")
    cited = sorted(data.draw(st.sets(st.integers(1, 7), max_size=3), label="cited"))
    answer = "the earth"
    if cited:
        answer += "\n[Cite]: " + " ".join(f"[{c}]" for c in cited)
    verdicts: list[bool] = []

    def locator_body(passages):
        verdicts.extend(data.draw(st.lists(st.booleans(), min_size=len(passages), max_size=len(passages))))
        lines = [
            format_judgment_line(i, passage.text + ".")
            if relevant
            else f"[Irrelevant]: [{i}] Lacking Supporting Facts."
            for i, (passage, relevant) in enumerate(zip(passages, verdicts), start=1)
        ]
        if degraded:
            lines.append(f"[Irrelevant]: [{len(passages) + 1}] Lacking Supporting Facts.")
        return "\n".join(lines)

    backend = ScriptedBackend()
    reconstruction = "Search(" + "; ".join(" ".join(words) for words in intents) + ")"
    passages = script_scenario(backend, index, cfg, INSTRUCTION, reconstruction, locator_body, answer)
    if leaked:
        backend.add_reply(
            build_step_prompt(INSTRUCTION, [], StepKind.RECONSTRUCTOR),
            reconstruction + "\n<Locator>\nleaked",
        )
    if degraded and passages:
        with pytest.raises(PipelineError) as err:
            run_inference(INSTRUCTION, index, backend, cfg)
        assert err.value.stage == "locator"
        return
    trace = run_inference(INSTRUCTION, index, backend, cfg)

    relevant = {i for i, verdict in enumerate(verdicts, start=1) if verdict}
    expected = [
        f"citation_out_of_range:{c}" if c > len(passages) else f"citation_unsupported:{c}"
        for c in cited
        if c not in relevant
    ]
    assert [f for f in trace.flags if f.startswith("citation_")] == expected
    assert [f"{v.code}:{v.detail}" for v in validate_trace(trace)] == expected

    fallback = not relevant
    assert ("generator_fallback" in trace.flags) == fallback
    assert ("head_mismatch:reconstructor" in trace.flags) == leaked
    steps = trace.trajectory.steps
    assert [r.kind for r in trace.steps] == [s.kind for s in steps]
    shown = {StepKind.RECONSTRUCTOR: 0, StepKind.LOCATOR: 2, StepKind.GENERATOR: 0 if fallback else 3}
    for record in trace.steps:
        if record.kind is StepKind.RETRIEVAL:
            assert record.prompt is None
            continue
        prior = steps[: shown[record.kind]]
        assert record.prompt == build_step_prompt(INSTRUCTION, prior, record.kind)

    # The file row gives back every field but the per-step records, and the
    # same parses of its sections.
    read = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
    assert read.steps == ()
    assert replace(read, steps=trace.steps) == trace
    for name in ("intents", "judgments", "answer", "citations"):
        assert getattr(read, name) == getattr(trace, name)


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

    assert [type(r) for r in results] == [InferenceTrace, PipelineError, InferenceTrace]
    assert [r.instruction for r in (results[0], results[2])] == [INSTRUCTION, other]
    assert results[1].stage == "reconstructor"

    solo = run_inference(INSTRUCTION, index, backend, cfg)
    assert trace_to_dict(results[0]) == trace_to_dict(solo)


def test_a_failed_batch_item_keeps_no_frames(index):
    # Its traceback, or its cause's, would keep the failed run's locals alive
    # for as long as the caller keeps the item.
    backend, cfg = ScriptedBackend(), InferenceConfig()
    [error] = run_batch(["totally unscripted"], index, backend, cfg)
    assert isinstance(error, PipelineError)
    assert (error.__traceback__, error.__cause__, error.__context__) == (None, None, None)
    assert error.stage == "reconstructor"
    assert str(error) == serial_failure("totally unscripted", index, backend, cfg)


class GatedBackend:
    """Records which instructions reached the backend; one instruction waits
    at a gate until the test opens it."""

    def __init__(self, inner, gated_instruction):
        self.inner = inner
        self.gated_prompt = render_instruction(gated_instruction)
        self.gate = threading.Event()
        self.started = set()
        self.lock = threading.Lock()

    def generate(self, request):
        with self.lock:
            self.started.add(request.instruction)
        if request.instruction == self.gated_prompt:
            assert self.gate.wait(timeout=30)
        return self.inner.generate(request)


@pytest.mark.parametrize("consumer", ["iter_batch", "run_batch"])
def test_a_batch_starts_no_more_than_its_window_ahead(index, consumer):
    backend, cfg, _ = relevance_setup(index)
    gated = GatedBackend(backend, INSTRUCTION)
    instructions = [INSTRUCTION] + [f"unscripted {n}" for n in range(79)]
    window = orchestrator._WINDOW_PER_WORKER * 2
    results = orchestrator.iter_batch(instructions, index, gated, cfg, max_workers=2)
    consume = {
        "iter_batch": lambda: [next(results)],
        "run_batch": lambda: run_batch(instructions, index, gated, cfg, max_workers=2),
    }[consumer]
    with ThreadPoolExecutor(max_workers=1) as reader:
        first = reader.submit(consume)  # waits on the gated first instruction
        deadline = time.monotonic() + 10
        while len(gated.started) < window and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # time enough for any start beyond the window to show
        assert len(gated.started) == window
        gated.gate.set()
        got = first.result(timeout=30)
    if consumer == "iter_batch":
        got += list(results)
    assert got[0].instruction == INSTRUCTION
    # Each failure names its own prompt's fingerprint, so this pins the input order.
    assert [str(r) for r in got[1:]] == [serial_failure(f"unscripted {n}", index, backend, cfg) for n in range(79)]


class ThreadRecordingBackend:
    """Records the thread of each call and each instruction as it starts."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()
        self.started = []

    def generate(self, request):
        self.threads.add(threading.get_ident())
        if request.instruction not in self.started:
            self.started.append(request.instruction)
        return self.inner.generate(request)


@pytest.mark.parametrize("max_workers", [1, 0])
def test_one_worker_runs_the_batch_in_the_callers_thread_with_nothing_ahead(index, max_workers):
    backend, cfg, _ = relevance_setup(index)
    recording = ThreadRecordingBackend(backend)
    instructions = [INSTRUCTION] + [f"unscripted {n}" for n in range(5)]
    threads = threading.active_count()
    results = orchestrator.iter_batch(instructions, index, recording, cfg, max_workers=max_workers)
    first = next(results)
    assert recording.started == [render_instruction(INSTRUCTION)]
    assert threading.active_count() == threads
    rest = list(results)
    assert recording.started == [render_instruction(i) for i in instructions]
    assert recording.threads == {threading.get_ident()}
    assert threading.active_count() == threads
    assert first.instruction == INSTRUCTION
    assert [str(r) for r in rest] == [serial_failure(i, index, backend, cfg) for i in instructions[1:]]


def serial_failure(instruction, index, backend, cfg):
    """The message of the PipelineError that run_inference raises for ``instruction``."""
    with pytest.raises(PipelineError) as caught:
        run_inference(instruction, index, backend, cfg)
    return str(caught.value)


def test_iter_batch_and_run_batch_give_the_same_results_in_order(index):
    backend, cfg, _ = relevance_setup(index)
    instructions = [INSTRUCTION if n % 3 else f"unscripted {n}" for n in range(30)]

    def rows(items):
        return [
            (r.stage, r.message) if isinstance(r, PipelineError) else trace_to_dict(r)
            for r in items
        ]

    batch = run_batch(instructions, index, backend, cfg, max_workers=3)
    assert rows(batch) == rows(orchestrator.iter_batch(instructions, index, backend, cfg, max_workers=3))
    assert [isinstance(r, PipelineError) for r in batch] == [n % 3 == 0 for n in range(30)]
    # Each failure names its own prompt's fingerprint, so this pins the input order.
    failures = [serial_failure(f"unscripted {n}", index, backend, cfg) for n in range(0, 30, 3)]
    assert [str(r) for r in batch[::3]] == failures


def test_trace_jsonl_round_trip(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    results = [trace, PipelineError("locator", "gave up")]
    path = tmp_path / "traces.jsonl"
    write_traces(results, path)
    loaded = read_traces(path)

    assert trace_to_dict(loaded[0]) == trace_to_dict(trace)
    assert loaded[1].stage == "locator"
    assert loaded[1].message == "gave up"
    assert validate_trace(loaded[0]) == []


def test_an_error_holding_a_lone_surrogate_is_written_with_it_escaped(index, tmp_path):
    # A third-party backend's BackendError message may hold one.
    class FailingBackend:
        def generate(self, request):
            raise BackendError("bad \udc80 reply")

    [failed] = run_batch([INSTRUCTION], index, FailingBackend(), max_workers=1)
    errors = [failed, PipelineError("gen\ud800", "m"), PipelineError("locator", "gave up é\\u")]
    path = tmp_path / "traces.jsonl"
    write_traces(errors, path)
    assert [(e.stage, e.message) for e in read_traces(path)] == [
        ("reconstructor", "bad \\udc80 reply"),
        ("gen\\ud800", "m"),
        ("locator", "gave up é\\u"),
    ]
    assert str(failed) == "reconstructor: bad \\udc80 reply"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("instruction", "who <Locator>?", "the instruction holds the grammar token <Locator>"),
        ("instruction", "who\udc00?", "the instruction holds the lone surrogate '\\udc00'"),
        ("flags", ("generator_fallback", 7), "'flags' must be a list of str"),
        (
            "trajectory",
            "the earth\ud800\n[Cite]: [1]",
            "the generator section holds the lone surrogate '\\ud800'",
        ),
    ],
    ids=["instruction-token", "instruction-surrogate", "int-flag", "section-surrogate"],
)
def test_no_trace_is_built_that_read_traces_would_refuse(index, tmp_path, field, value, message):
    # The constructor is the one gate, so write_traces is never handed such
    # a trace; the reader refuses the same row with the same message.
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    if field == "trajectory":  # value is the generator section's body
        steps = trace.trajectory.steps
        value = Trajectory(tuple(replace(s, body=value) if s.kind is StepKind.GENERATOR else s for s in steps))
    with pytest.raises(ValueError, match=exactly(message)):
        replace(trace, **{field: value})
    row = trace_to_dict(trace)
    row[field] = serialize_trajectory(value) if field == "trajectory" else value
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=exactly(f"bad trace record on line 1: {message}")):
        read_traces(path)


def test_trace_files_are_byte_identical_across_writes(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    results = [trace]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_traces(results, first)
    write_traces(results, second)
    assert first.read_bytes() == second.read_bytes()


def test_failed_trace_write_keeps_previous_file_bytes(index, tmp_path, monkeypatch):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    path = tmp_path / "traces.jsonl"
    write_traces([PipelineError("locator", "gave up")], path)
    before = path.read_bytes()

    calls = []

    def fail_on_second(t):
        calls.append(t)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return trace_to_dict(t)

    monkeypatch.setattr(orchestrator, "trace_to_dict", fail_on_second)
    with pytest.raises(RuntimeError):
        write_traces([trace] * 3, path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]


def test_trace_dict_mirror(clean_trace):
    row = trace_to_dict(clean_trace)
    assert sorted(row) == ["citations", "flags", "instruction", "passages", "trajectory"]
    assert row["passages"][0] == {"id": 0, "title": "Moon", "word_count": 7}
    mirrored = trace_from_dict(row)
    assert mirrored == replace(clean_trace, steps=())
    for name in ("intents", "judgments", "answer", "citations"):
        assert getattr(mirrored, name) == getattr(clean_trace, name)


def test_run_batch_turns_a_grammar_token_in_a_passage_into_an_item_error():
    # index_documents refuses such a passage; an index built from passages
    # (or a hand-edited index file) can still hold one.
    passages = list(index_documents(DOCS).passages.values())
    zebra = chunk_document(
        "Zebra", "zebra stripes hide a <Generator> token", start_id=len(passages)
    )
    index = build_index(passages + zebra)
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    zebra = "what do zebra stripes hide?"
    backend.add_reply(build_step_prompt(zebra, [], StepKind.RECONSTRUCTOR), "Search(zebra stripes)")
    results = run_batch([INSTRUCTION, zebra], index, backend, cfg, max_workers=2)

    assert results[0].answer == "the earth"
    assert isinstance(results[1], PipelineError)
    assert results[1].stage == "locator"
    assert "contains the token <Generator>" in results[1].message


def test_run_batch_turns_a_passage_spanning_lines_into_an_item_error():
    # A trace file keeps a passage's text only in its line of the retrieval
    # section; chunk_document never makes such a passage, a hand-built index can.
    passages = list(index_documents(DOCS).passages.values())
    split = Passage(id=len(passages), title="Zebra", text="zebra\nstripes", word_count=2)
    index = build_index(passages + [split])
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    zebra = "what do zebra stripes hide?"
    backend.add_reply(build_step_prompt(zebra, [], StepKind.RECONSTRUCTOR), "Search(zebra stripes)")
    results = run_batch([INSTRUCTION, zebra], index, backend, cfg, max_workers=2)

    assert results[0].answer == "the earth"
    assert isinstance(results[1], PipelineError)
    assert str(results[1]) == "retrieval: a passage spans more than one line"


def test_run_batch_turns_a_grammar_token_in_a_reply_into_an_item_error(index, tmp_path):
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, INSTRUCTION, RECONSTRUCTION,
        judge_by_answer("earth"), ANSWER_BODY,
    )
    leaky = "what orbits the earth?"
    script_scenario(
        backend, index, cfg, leaky, RECONSTRUCTION,
        judge_by_answer("earth"), "the earth </eoi>\n[Cite]: [1]",
    )
    results = run_batch([leaky, INSTRUCTION], index, backend, cfg, max_workers=2)

    assert isinstance(results[0], PipelineError)
    assert results[0].stage == "generator"
    assert results[0].message == "the reply holds the grammar token </eoi>"
    assert results[1].answer == "the earth"
    out = tmp_path / "traces.jsonl"
    write_traces(results, out)
    reread = read_traces(out)
    assert reread[0].stage == "generator"
    assert validate_trace(reread[1]) == []


@pytest.mark.parametrize(
    "instruction, problem",
    [
        ("what \udc80 moon", "holds the lone surrogate '\\udc80'"),
        ("what </eoi> moon", "holds the grammar token </eoi>"),
    ],
)
def test_run_batch_turns_an_unclean_instruction_into_an_item_error(
    index, tmp_path, instruction, problem
):
    backend, cfg, _ = relevance_setup(index)
    results = run_batch([instruction, INSTRUCTION], index, backend, cfg, max_workers=2)

    assert isinstance(results[0], PipelineError)
    assert results[0].stage == "instruction"
    assert results[0].message == f"the instruction {problem}"
    assert results[1].answer == "the earth"
    out = tmp_path / "traces.jsonl"
    write_traces(results, out)
    assert read_traces(out)[0].message == f"the instruction {problem}"


def test_iter_traces_streams_rows_with_their_line_numbers(index, tmp_path):
    backend, cfg, _ = relevance_setup(index)
    trace = run_inference(INSTRUCTION, index, backend, cfg)
    path = tmp_path / "traces.jsonl"
    write_traces([PipelineError("locator", "gave up")], path)
    row = path.read_text()
    write_traces([trace], path)
    path.write_text("\n" + row + path.read_text())
    rows = list(orchestrator.iter_traces(path))
    assert [lineno for lineno, _ in rows] == [2, 3]
    assert str(rows[0][1]) == "locator: gave up"
    assert trace_to_dict(rows[1][1]) == trace_to_dict(trace)
    assert [type(r) for r in read_traces(path)] == [PipelineError, InferenceTrace]
