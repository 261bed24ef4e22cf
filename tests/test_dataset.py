"""Training-example builders, loss masks, critics, and dataset emission."""

import itertools
import json
from dataclasses import replace

import pytest

from factrail.backends import BackendConfig
from factrail.corpus import Passage, build_index, index_documents, retrieve_multi
from factrail.dataset import (
    DatasetError,
    ExampleKind,
    HttpCritic,
    RawExample,
    RuleBasedCritic,
    TaskTag,
    TrainingExample,
    build_example,
    build_long_example,
    check_example_dict,
    check_training_example,
    emit_dataset,
    normalize_dialogue,
    read_raw_examples,
)
from factrail.grammar import (
    GrammarError,
    LocatorJudgment,
    MultilinePassageError,
    Relevance,
    StepKind,
    parse_trajectory,
)

from helpers import StubServer, chat_reply, exactly

DOCS = [
    ("Mercury", "Mercury is the smallest planet in the solar system. It orbits closest to the sun."),
    ("Venus", "Venus is the hottest planet. Thick clouds trap the heat."),
    ("Mars", "Mars is called the red planet. Iron oxide dust covers its surface."),
]

QUESTION = "which planet is the smallest planet?"


@pytest.fixture
def index():
    return index_documents(DOCS)


def planet_example(**overrides):
    settings = {"task": TaskTag.OPEN_QA, "x": QUESTION, "y": "Mercury", "source": "planets"}
    settings.update(overrides)
    return RawExample(**settings)


# ---------------------------------------------------------------------------
# raw examples and dialogue flattening


def test_raw_example_invariants():
    with pytest.raises(ValueError):
        planet_example(y="  ")
    with pytest.raises(ValueError):
        planet_example(x="")
    with pytest.raises(ValueError):
        planet_example(history=(("q", "a"),))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"x": "which planet is </eoi> the smallest planet?"}, "x holds the grammar token </eoi>"),
        ({"y": "Mercury <Generator>"}, "y holds the grammar token <Generator>"),
        ({"y": "Mercury [Cite]: [1]"}, "y holds the citation marker [Cite]:"),
        ({"y": "see [Cite]: here"}, "y holds the citation marker [Cite]:"),
        ({"x": "which \ud800 planet?"}, "x holds the lone surrogate '\\ud800'"),
        ({"source": "planets \udc80"}, "source holds the lone surrogate '\\udc80'"),
        (
            {"task": TaskTag.DIALOGUE, "history": (("hi </eor>", "hello"),)},
            "history holds the grammar token </eor>",
        ),
    ],
)
def test_raw_example_text_must_be_clean(overrides, message):
    with pytest.raises(ValueError) as err:
        planet_example(**overrides)
    assert str(err.value) == message


def test_raw_example_text_must_be_a_string():
    with pytest.raises(TypeError, match="x must be str, not int"):
        planet_example(x=7)
    with pytest.raises(TypeError, match="history must be str, not NoneType"):
        planet_example(task=TaskTag.DIALOGUE, history=(("q", None),))


def test_dialogue_flattening():
    raw = RawExample(
        task=TaskTag.DIALOGUE,
        x="and when?",
        y="in 1969",
        history=(("who landed first?", "Apollo 11"), ("on what?", "the moon")),
    )
    flat = normalize_dialogue(raw)
    assert flat.x == "who landed first?\n-Apollo 11\non what?\n-the moon\nand when?"
    assert flat.history is None
    assert flat.y == "in 1969"


def test_dialogue_needs_history_or_question():
    pattern = exactly("a dialogue record needs history or a current question")
    for history in (None, ()):
        with pytest.raises(ValueError, match=pattern):
            RawExample(task=TaskTag.DIALOGUE, x="  ", y="y", history=history)


def test_builders_flatten_dialogue_automatically():
    raw = RawExample(
        task=TaskTag.DIALOGUE, x="what now?", y="answer", history=(("q1", "a1"),)
    )
    example = build_example(ExampleKind.SHORT_GENERATOR_PLAIN, raw, RuleBasedCritic())
    assert example.input.startswith("q1\n-a1\nwhat now?</eoi>\n")


# ---------------------------------------------------------------------------
# rule-based critic


def test_rule_critic_intent_is_collapsed_instruction():
    critic = RuleBasedCritic()
    intents = critic.propose_intents("what  about\nthis; that", TaskTag.GENERAL)
    assert intents.intents == ("what about this, that",)
    with pytest.raises(GrammarError, match=exactly("instruction collapses to nothing")):
        critic.propose_intents("   ", TaskTag.GENERAL)


def test_rule_critic_judges_by_containment(index):
    critic = RuleBasedCritic()
    mercury = index.passages[0]
    hit = critic.judge_passage("q", "smallest planet", mercury, 2)
    assert hit.passage_index == 2
    assert hit.relevance is Relevance.RELEVANT
    assert hit.fact == "Mercury is the smallest planet in the solar system."
    miss = critic.judge_passage("q", "largest moon", mercury, 1)
    assert miss.relevance is Relevance.IRRELEVANT


def test_rule_critic_picks_containing_sentence(index):
    critic = RuleBasedCritic()
    venus = index.passages[1]
    hit = critic.judge_passage("q", "trap the heat", venus, 1)
    assert hit.fact == "Thick clouds trap the heat."


# ---------------------------------------------------------------------------
# long examples


def test_long_example_layout_and_spans(index):
    critic = RuleBasedCritic()
    example = build_long_example(planet_example(), critic, index, k=3)
    assert build_example(ExampleKind.LONG, planet_example(), critic, index, 3) == example

    assert example.kind is ExampleKind.LONG
    assert example.input == QUESTION + "</eoi>\n"
    assert example.source == "planets"

    trajectory = parse_trajectory(example.output)
    kinds = [s.kind for s in trajectory.steps]
    assert kinds == [
        StepKind.RECONSTRUCTOR,
        StepKind.RETRIEVAL,
        StepKind.LOCATOR,
        StepKind.GENERATOR,
    ]

    reconstructor, retrieval, locator, generator = trajectory.steps
    assert reconstructor.body == "Search(which planet is the smallest planet?)"

    expected_passages = retrieve_multi(
        index, critic.propose_intents(QUESTION, TaskTag.OPEN_QA), 3
    )
    mercury_pos = next(
        i for i, p in enumerate(expected_passages, start=1) if p.title == "Mercury"
    )
    assert f"[{mercury_pos}] Mercury -" in retrieval.body
    assert f"[Relevant]: [{mercury_pos}] Mercury is the smallest planet" in locator.body
    assert generator.body == f"Mercury\n[Cite]: [{mercury_pos}]"

    assert len(example.loss_spans) == 3
    supervised = [example.output[a:b] for a, b in example.loss_spans]
    assert supervised[0].startswith("<Reconstructor>\n")
    assert supervised[0].endswith("</eor>")
    assert supervised[1].startswith("<Locator>\n")
    assert supervised[1].endswith("</eol>")
    assert supervised[2].startswith("<Generator>\n")
    assert supervised[2].endswith("</eog>")
    assert "<retrieval>" not in "".join(supervised)

    masked = set()
    for a, b in example.loss_spans:
        masked.update(range(a, b))
    free = "".join(c for i, c in enumerate(example.output) if i not in masked)
    retrieval_section = f"<retrieval>\n{retrieval.body}\n</retrieval>\n"
    assert free == "\n" + retrieval_section + "\n\n"

    assert check_training_example(example) == []


def test_long_example_tampered_spans_are_caught(index):
    example = build_long_example(planet_example(), RuleBasedCritic(), index)
    bad = TrainingExample(
        kind=example.kind,
        input=example.input,
        output=example.output,
        loss_spans=((0, 5),),
        source=example.source,
    )
    assert check_training_example(bad) == ["loss spans do not match the supervised sections"]


def test_long_example_requires_hits(index):
    raw = planet_example(x="zebra xylophone quandary", y="Mercury")
    for kind in (ExampleKind.LONG, ExampleKind.SHORT_LOCATOR):
        pattern = exactly("a retrieval block must contain at least one passage")
        with pytest.raises(GrammarError, match=pattern):
            build_example(kind, raw, RuleBasedCritic(), index)


class FabricatingCritic(RuleBasedCritic):
    def judge_passage(self, x, y, passage, index=0):
        return LocatorJudgment(max(index, 1), Relevance.RELEVANT, "an invented claim")


def test_fact_containment_is_enforced(index):
    message = "extracted fact for passage 1 does not appear in the passage"
    with pytest.raises(DatasetError, match=exactly(message)):
        build_long_example(planet_example(), FabricatingCritic(), index)


# ---------------------------------------------------------------------------
# short examples


class RecordingCritic(RuleBasedCritic):
    """The rule-based critic, noting each call as ("propose",) or ("judge", position)."""

    def __init__(self):
        self.calls = []

    def propose_intents(self, x, task):
        self.calls.append(("propose",))
        return super().propose_intents(x, task)

    def judge_passage(self, x, y, passage, index=0):
        self.calls.append(("judge", index))
        return super().judge_passage(x, y, passage, index)


JUDGE_ALL = [("propose",), ("judge", 1), ("judge", 2), ("judge", 3)]


def test_short_intent_example():
    example = build_example(ExampleKind.SHORT_INTENT, planet_example(), RuleBasedCritic())
    assert example.kind is ExampleKind.SHORT_INTENT
    assert example.input == QUESTION + "</eoi>\n<Reconstructor>\n"
    assert example.output == "Search(which planet is the smallest planet?)</eor>"
    assert example.loss_spans == ((0, len(example.output)),)
    assert check_training_example(example) == []


def test_short_locator_example(index):
    example = build_example(ExampleKind.SHORT_LOCATOR, planet_example(), RuleBasedCritic(), index)
    assert example.kind is ExampleKind.SHORT_LOCATOR
    assert example.input.startswith(QUESTION + "</eoi>\n<retrieval>\n[1] Mercury -")
    assert example.input.endswith("</retrieval>\n<Locator>\n")
    assert example.output.startswith("[Relevant]: [1] Mercury is the smallest planet")
    assert example.output.endswith("Lacking Supporting Facts.</eol>")
    assert check_training_example(example) == []


def test_short_generator_plain():
    example = build_example(ExampleKind.SHORT_GENERATOR_PLAIN, planet_example(), RuleBasedCritic())
    assert example.kind is ExampleKind.SHORT_GENERATOR_PLAIN
    assert example.input == QUESTION + "</eoi>\n<Generator>\n"
    assert example.output == "Mercury</eog>"
    assert check_training_example(example) == []


def test_short_generator_with_facts(index):
    example = build_example(
        ExampleKind.SHORT_GENERATOR_FACTS, planet_example(), RuleBasedCritic(), index
    )
    assert example.kind is ExampleKind.SHORT_GENERATOR_FACTS
    assert example.input == (
        QUESTION
        + "</eoi>\n<Locator>\n"
        + "[Relevant]: [1] Mercury is the smallest planet in the solar system.\n"
        + "[Irrelevant]: [2] Lacking Supporting Facts.\n"
        + "[Irrelevant]: [3] Lacking Supporting Facts.\n"
        + "</eol>\n<Generator>\n"
    )
    assert example.output == "Mercury\n[Cite]: [1]</eog>"
    assert check_training_example(example) == []


def test_short_generator_facts_need_a_relevant_judgment(index):
    # Passages retrieved and none judged Relevant; then no passages at all.
    for raw, calls in [
        (planet_example(y="Pluto"), JUDGE_ALL),
        (planet_example(x="zebra xylophone quandary"), [("propose",)]),
    ]:
        critic = RecordingCritic()
        message = "a fact-conditioned example needs at least one Relevant judgment"
        with pytest.raises(DatasetError, match=exactly(message)):
            build_example(ExampleKind.SHORT_GENERATOR_FACTS, raw, critic, index)
        assert critic.calls == calls


@pytest.mark.parametrize(
    "kind", [ExampleKind.LONG, ExampleKind.SHORT_LOCATOR, ExampleKind.SHORT_GENERATOR_FACTS]
)
def test_a_retrieved_passage_that_spans_lines_is_refused(kind):
    # load_index refuses such a passage; an index built from passages can hold one.
    split = Passage(0, "Mercury", "Mercury is the smallest\nplanet.", 5)
    critic = RecordingCritic()
    with pytest.raises(MultilinePassageError, match="^a passage spans more than one line$"):
        build_example(kind, planet_example(), critic, build_index([split]))
    assert critic.calls == [("propose",)]


@pytest.mark.parametrize(
    "kind, calls",
    [
        (ExampleKind.LONG, JUDGE_ALL),
        (ExampleKind.SHORT_INTENT, [("propose",)]),
        (ExampleKind.SHORT_LOCATOR, JUDGE_ALL),
        (ExampleKind.SHORT_GENERATOR_PLAIN, []),
        (ExampleKind.SHORT_GENERATOR_FACTS, JUDGE_ALL),
    ],
)
def test_each_kind_asks_the_critic_only_what_it_cuts(index, kind, calls):
    critic = RecordingCritic()
    build_example(kind, planet_example(), critic, index)
    assert critic.calls == calls


@pytest.mark.parametrize(
    "kind", [ExampleKind.LONG, ExampleKind.SHORT_LOCATOR, ExampleKind.SHORT_GENERATOR_FACTS]
)
def test_passage_kinds_need_an_index(kind):
    critic = RecordingCritic()
    with pytest.raises(ValueError, match=f"^{kind.value} examples need an index$"):
        build_example(kind, planet_example(), critic)
    assert critic.calls == []


# ---------------------------------------------------------------------------
# http critic


def test_http_critic_intents():
    with StubServer(lambda p: (200, chat_reply("Search Intent: alpha beta; gamma"))) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        intents = critic.propose_intents("anything", TaskTag.GENERAL)
    assert intents.intents == ("alpha beta", "gamma")


def test_http_critic_judgments(index):
    mercury = index.passages[0]

    def handler(payload):
        prompt = payload["messages"][0]["content"]
        assert "Mercury -" in prompt
        return 200, chat_reply(
            "Rating: [Relevant]\nExtracted span: Mercury is the smallest planet in the solar system."
        )

    with StubServer(handler) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        judgment = critic.judge_passage("q", "Mercury", mercury, 3)
    assert judgment.passage_index == 3
    assert judgment.relevance is Relevance.RELEVANT
    assert judgment.fact == "Mercury is the smallest planet in the solar system."


def test_http_critic_waits_out_a_503_then_judges(index):
    replies = iter([(503, {"error": "busy"}), (200, chat_reply("Rating: [Irrelevant]"))])
    waits = []
    with StubServer(lambda p: next(replies)) as server:
        critic = HttpCritic(
            BackendConfig(endpoint_url=server.url, timeout_s=5.0, retries=1), sleep=waits.append
        )
        judgment = critic.judge_passage("q", "y", index.passages[0], 1)
    assert judgment.relevance is Relevance.IRRELEVANT
    assert server.request_count == 2
    assert waits == [0.5]


@pytest.mark.parametrize(
    "separator", ["\u2028", "\x0c", "\r"], ids=["u2028", "form-feed", "cr"]
)
def test_http_critic_reads_a_reply_line_by_line_at_newlines_only(index, separator):
    replies = {
        "Decompose": f"Search Intent: alpha{separator}beta; gamma\nnot an intent",
        "Decide": f"Rating: [Relevant]\nExtracted span: Mercury is{separator}small.\nnot a span",
    }

    def handler(payload):
        return 200, chat_reply(replies[payload["messages"][0]["content"].split()[0]])

    with StubServer(handler) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        intents = critic.propose_intents("anything", TaskTag.GENERAL)
        judgment = critic.judge_passage("q", "Mercury", index.passages[0], 1)
    assert intents.intents == (f"alpha{separator}beta", "gamma")
    assert judgment.fact == f"Mercury is{separator}small."


def test_http_critic_irrelevant_and_errors(index):
    mercury = index.passages[0]
    with StubServer(lambda p: (200, chat_reply("Rating: [Irrelevant]"))) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        judgment = critic.judge_passage("q", "y", mercury, 1)
    assert judgment.relevance is Relevance.IRRELEVANT

    with StubServer(lambda p: (200, chat_reply("no rating anywhere"))) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        with pytest.raises(DatasetError, match=exactly("no Rating in critic reply")):
            critic.judge_passage("q", "y", mercury, 1)

    with StubServer(lambda p: (200, chat_reply("Rating: [Relevant]"))) as server:
        critic = HttpCritic(BackendConfig(endpoint_url=server.url, timeout_s=5.0))
        pattern = exactly("Relevant rating without an extracted span")
        with pytest.raises(DatasetError, match=pattern):
            critic.judge_passage("q", "y", mercury, 1)


# ---------------------------------------------------------------------------
# span invariants and record validation


def test_loss_span_invariants():
    with pytest.raises(ValueError):
        TrainingExample(ExampleKind.SHORT_INTENT, "i", "abc", ((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        TrainingExample(ExampleKind.SHORT_INTENT, "i", "abc", ((2, 2),))
    with pytest.raises(ValueError):
        TrainingExample(ExampleKind.SHORT_INTENT, "i", "abc", ((0, 9),))


def test_check_example_dict_reports_schema_problems():
    with pytest.raises(ValueError):
        check_example_dict({"kind": "nope"})
    good = {
        "kind": "short-generator-plain",
        "input": "q</eoi>\n<Generator>\n",
        "output": "a</eog>",
        "loss_spans": [[0, 7]],
    }
    assert check_example_dict(good) == []
    bad_spans = dict(good, loss_spans=[[0, 3]])
    assert check_example_dict(bad_spans) == ["short example must supervise its whole output"]


# ---------------------------------------------------------------------------
# emission and ingestion


def test_emit_dataset_manifest_and_determinism(index, tmp_path):
    critic = RuleBasedCritic()
    examples = [
        build_example(ExampleKind.LONG, planet_example(), critic, index),
        build_example(ExampleKind.SHORT_INTENT, planet_example(), critic),
        build_example(ExampleKind.SHORT_INTENT, planet_example(source="other"), critic),
        build_example(ExampleKind.SHORT_GENERATOR_PLAIN, planet_example(), critic),
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    manifest = emit_dataset(examples, first, config_fingerprint="print")
    emit_dataset(examples, second, config_fingerprint="print")

    assert first.read_bytes() == second.read_bytes()
    assert manifest.total == 4
    assert manifest.counts_by_kind == {
        "long": 1,
        "short-intent": 2,
        "short-generator-plain": 1,
    }
    assert manifest.counts_by_source == {"planets": 3, "other": 1}
    assert manifest.config_fingerprint == "print"
    assert manifest.to_dict()["schema_version"] == 1

    for line in first.read_text().splitlines():
        assert check_example_dict(json.loads(line)) == []


def test_emit_dataset_leaves_no_file_when_its_examples_fail_midway(index, tmp_path):
    critic = RuleBasedCritic()

    def examples():
        yield build_example(ExampleKind.SHORT_INTENT, planet_example(), critic)
        yield build_example(ExampleKind.SHORT_GENERATOR_PLAIN, planet_example(), critic)
        raise DatasetError("the third example cannot be built")

    path = tmp_path / "train.jsonl"
    with pytest.raises(DatasetError, match="third example"):
        emit_dataset(examples(), path)
    assert list(tmp_path.iterdir()) == []

    # A generator is written as it is drawn, and counted the same way.
    manifest = emit_dataset(itertools.islice(examples(), 2), path)
    assert manifest.total == 2 and len(path.read_text().splitlines()) == 2


def test_read_raw_examples(tmp_path):
    path = tmp_path / "raw.jsonl"
    rows = [
        {"task": "open-qa", "x": "q1", "y": "a1", "source": "s"},
        {"x": "q2", "y": "a2"},
        {"task": "dialogue", "x": "q3", "y": "a3", "history": [["p", "r"]]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    raws = read_raw_examples(path, default_task=TaskTag.GENERAL)
    assert raws[0].task is TaskTag.OPEN_QA
    assert raws[1].task is TaskTag.GENERAL
    assert raws[2].history == (("p", "r"),)


def test_read_raw_examples_requires_task_without_default(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"x": "q", "y": "a"}\n')
    with pytest.raises(DatasetError, match="line 1"):
        read_raw_examples(path)


@pytest.mark.parametrize(
    "history", [0, False, "", {}], ids=["zero", "false", "empty-str", "empty-object"]
)
def test_read_raw_examples_refuses_a_history_that_is_not_a_list(tmp_path, history):
    # Absent and null mean no history; a falsy value of another type is no list.
    path = tmp_path / "raw.jsonl"
    row = {"task": "dialogue", "x": "and now?", "y": "yes", "history": history}
    path.write_text(json.dumps(row) + "\n")
    complaint = r"line 1: 'history' must be a list of \[question, answer\] pairs"
    with pytest.raises(DatasetError, match=complaint):
        read_raw_examples(path)


def test_read_raw_examples_reads_an_absent_or_null_history_as_none(tmp_path):
    path = tmp_path / "raw.jsonl"
    rows = [
        {"task": "dialogue", "x": "and now?", "y": "yes"},
        {"task": "dialogue", "x": "q", "y": "a", "history": None},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert [raw.history for raw in read_raw_examples(path)] == [None, None]


def test_non_canonical_long_output_is_rejected():
    # Extra blank lines between sections still parse, but the first span
    # would end on "\n\n" instead of on </eor>.
    output = (
        "<Reconstructor>Search(q)</eor>\n\n\n<retrieval>\n[1] T -a b\n</retrieval>\n"
        "<Locator>\n[Relevant]: [1] a b\n</eol>\n<Generator>\nans\n[Cite]: [1]\n</eog>\n"
    )
    example = TrainingExample(
        ExampleKind.LONG, "q</eoi>\n", output, ((0, 32), (69, 105), (106, 140))
    )
    assert check_training_example(example) == [
        "long output is not a canonical four-section trajectory"
        " (re-serializing its parse differs)"
    ]


def test_short_input_must_be_its_stage_prompt():
    # A locator input that ends with the generator's head is another stage's prompt.
    example = TrainingExample(
        ExampleKind.SHORT_LOCATOR, "q</eoi>\n<Generator>\n", "[Irrelevant]: [1]</eol>",
        ((0, 23),),
    )
    assert check_training_example(example) == [
        "short input must end with the <Locator> head"
    ]
    assert check_training_example(
        TrainingExample(ExampleKind.SHORT_LOCATOR, "q\n<Locator>\n", example.output, ((0, 23),))
    ) == ["short input lacks the instruction terminator"]


@pytest.mark.parametrize(
    "kind, input, output, end",
    [
        ("short-generator-plain", "q</eoi>\n<Generator>\n", "a", "</eog>"),
        ("short-generator-plain", "q</eoi>\n<Generator>\n", "a</eol>", "</eog>"),
        ("short-generator-plain", "q</eoi>\n<Generator>\n", "a</eog>\n", "</eog>"),
        (
            "short-locator",
            "q</eoi>\n<retrieval>\n[1] T -x\n</retrieval>\n<Locator>\n",
            "[Irrelevant]: [1]",
            "</eol>",
        ),
    ],
    ids=["no-end", "another-end", "end-then-newline", "locator"],
)
def test_a_short_output_that_lacks_its_end_token_is_named(kind, input, output, end):
    row = {"kind": kind, "input": input, "output": output, "loss_spans": [[0, len(output)]]}
    assert check_example_dict(row) == [f"short output must end with {end}"]


def test_long_input_must_hold_exactly_one_instruction_terminator(index):
    # The short-input case is checked through `factrail validate` in test_cli.
    long = build_long_example(planet_example(), RuleBasedCritic(), index)
    doubled = replace(long, input="q</eoi>" + long.input)
    assert check_training_example(long) == []
    assert check_training_example(doubled) == ["input holds 2 instruction terminators, not one"]
