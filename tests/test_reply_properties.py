"""Property tests of a batch over generated model replies: whatever a backend
replies at any stage, ``run_batch`` returns one item per instruction, each a
trace or the ``PipelineError`` that failed it; the trace file gives each
item back; and ``validate_trace`` reports of a trace only the citation
problems its flags name.

Each reply goes through ``ScriptedBackend``: it is scripted for the prompt
it answers, then generated, so it is cut and checked as a replayed reply is.
The number of examples is the Hypothesis profile's (see conftest.py);
``HYPOTHESIS_PROFILE=ci`` runs more.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from factrail.backends import ScriptedBackend, prompt_text
from factrail.corpus import index_documents
from factrail.grammar import (
    LocatorJudgment,
    Relevance,
    StepKind,
    format_judgment,
    parse_retrieval_body,
    parse_trajectory,
    render_instruction,
)
from factrail.orchestrator import (
    InferenceConfig,
    InferenceTrace,
    PipelineError,
    read_traces,
    run_batch,
    validate_trace,
    write_traces,
)

INDEX = index_documents(
    [
        ("Moon", "the moon orbits the earth every month"),
        ("Sun", "the sun is a star at the center of the system"),
        ("Tides", "ocean tides follow the moon closely"),
    ]
)
INSTRUCTIONS = ["what does the moon orbit?", "what do ocean tides follow?", "what is the sun?"]
STAGES = (StepKind.RECONSTRUCTOR, StepKind.LOCATOR, StepKind.GENERATOR)

# What a reply may hold besides a well-formed body: prefixes of tokens and
# whole tokens, NUL, a lone surrogate, a Unicode line separator, citation
# markers with odd indices, and blank text.
PIECES = [
    "</eo", "<Gen", "</eoi>", "<Locator>", "</eog>", "\x00", "\ud800", "\u2028",
    "[Cite]:", "[Cite]: [0]", " [2]", " [7]", " [1] [1]", " ", "\n", "\t",
]


def well_formed(stage, request):
    """A body the stage parses: two intents, a judgment of each passage the
    prompt lists (the first Relevant), or an answer citing passage 1."""
    if stage is StepKind.RECONSTRUCTOR:
        return "Search(moon orbit; ocean tides)"
    if stage is StepKind.GENERATOR:
        return "the earth\n[Cite]: [1]"
    steps = parse_trajectory(request.prior_trajectory).steps
    count = len(parse_retrieval_body(next(s.body for s in steps if s.kind is StepKind.RETRIEVAL)))
    judgments = [LocatorJudgment(1, Relevance.RELEVANT, "the moon orbits the earth.")]
    judgments += [LocatorJudgment(i, Relevance.IRRELEVANT, None) for i in range(2, count + 1)]
    return "\n".join(map(format_judgment, judgments))


# How a reply is made: a well-formed body or none, with pieces put in at an
# offset; about half the replies are well-formed, so that some traces are made.
edits = st.one_of(
    st.just((True, 0, [])),
    st.tuples(st.booleans(), st.integers(0, 80), st.lists(st.sampled_from(PIECES), max_size=3)),
)
stage_plans = st.fixed_dictionaries({stage: edits for stage in STAGES})


class DrawnReplies:
    """Answers each prompt with the reply drawn for its instruction and stage."""

    def __init__(self, plans):
        self.plans = {render_instruction(i): plan for i, plan in plans.items()}
        self.script = ScriptedBackend()

    def generate(self, request):
        stage = next(stage for stage in STAGES if stage.head is request.head)
        keep, at, pieces = self.plans[request.instruction][stage]
        body = well_formed(stage, request) if keep else ""
        at = min(at, len(body))
        self.script.add_reply(prompt_text(request), body[:at] + "".join(pieces) + body[at:])
        return self.script.generate(request)


def flagged_citations(trace):
    return [flag for flag in trace.flags if flag.startswith("citation_")]


@settings(deadline=None)
@given(
    instructions=st.lists(st.sampled_from(INSTRUCTIONS), min_size=1, max_size=4),
    plans=st.fixed_dictionaries({instruction: stage_plans for instruction in INSTRUCTIONS}),
)
def test_every_reply_ends_as_a_trace_or_an_item_error_that_the_file_gives_back(
    instructions, plans
):
    items = run_batch(instructions, INDEX, DrawnReplies(plans), InferenceConfig(), max_workers=2)
    assert len(items) == len(instructions)
    for instruction, item in zip(instructions, items):
        assert isinstance(item, (InferenceTrace, PipelineError))
        if isinstance(item, InferenceTrace):
            assert item.instruction == instruction
            reported = [f"{v.code}:{v.detail}" for v in validate_trace(item)]
            assert reported == flagged_citations(item)

    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "traces.jsonl"
        write_traces(items, path)
        read = read_traces(path)
    assert len(read) == len(items)
    for item, back in zip(items, read):
        if isinstance(item, PipelineError):
            assert isinstance(back, PipelineError)
            assert (back.stage, back.message) == (item.stage, item.message)
        else:
            assert back == replace(item, steps=())
            assert [f"{v.code}:{v.detail}" for v in validate_trace(back)] == flagged_citations(back)
