"""Property tests of ``check_training_example`` over random records and a
small random corpus: every record ends as a typed refusal or as clean
examples of every kind, and a trace rule broken in one is reported by
exactly its code.

The number of examples is the Hypothesis profile's (see conftest.py);
``HYPOTHESIS_PROFILE=ci`` runs more.
"""

import json
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from factrail.corpus import EmptyQueryError, index_documents
from factrail.dataset import (
    DatasetError,
    ExampleKind,
    RawExample,
    RuleBasedCritic,
    TaskTag,
    build_example,
    check_example_dict,
    check_training_example,
)
from factrail.grammar import (
    CitationList,
    GrammarError,
    Relevance,
    StepKind,
    TrajectoryStep,
    parse_citations,
    parse_locator_body,
    parse_retrieval_body,
    parse_trajectory,
    serialize_sections,
)

WORDS = ["moon", "sun", "earth", "star", "tide", "orbit", "planet", "light", "ocean", "night"]
# Pieces of the grammar and of other text that records may hold: the
# citation marker, an index, the title separator, the intent wrapper and
# separator, a line break, and non-ASCII letters.
AWKWARD = ["[Cite]:", "[1]", " -", "Search(", ";", ")", "\n", "é", "мир"]
# Titles holding the title separator or an index.
AWKWARD_TITLES = ["Tide - Pool", "Moon [2]"]

sentences = st.lists(st.sampled_from(WORDS), min_size=2, max_size=6).map(
    lambda words: " ".join(words) + "."
)
titles = st.one_of(st.sampled_from(WORDS).map(str.title), st.sampled_from(AWKWARD_TITLES))
documents = st.lists(
    st.tuples(titles, st.lists(sentences, min_size=1, max_size=3)),
    min_size=1,
    max_size=6,
)


@st.composite
def fields(draw):
    """A corpus index and the fields of a record whose instruction uses the
    corpus' words, or any pieces; its answer is a phrase of one document,
    or any words or pieces."""
    docs = [(title, " ".join(body)) for title, body in draw(documents)]
    sentences = [sentence.rstrip(".").split() for _, body in docs for sentence in body.split(". ")]
    words = [word for sentence in sentences for word in sentence]
    awkward = st.sampled_from(AWKWARD)
    x_pieces = st.lists(st.one_of(st.sampled_from(words), awkward), min_size=1, max_size=3)
    x = " ".join(draw(x_pieces)) + "?"
    sentence = draw(st.sampled_from(sentences))
    start = draw(st.integers(0, len(sentence) - 1))
    phrase = " ".join(sentence[start : draw(st.integers(start + 1, len(sentence)))])
    any_pieces = st.lists(st.one_of(st.sampled_from(WORDS), awkward), min_size=1, max_size=3)
    y = draw(st.one_of(st.just(phrase), any_pieces.map(" ".join)))
    return index_documents(docs), x, y


def as_record(drawn):
    """The corpus index and the record of these ``fields``, or None when
    ``RawExample`` refuses them (``read_raw_examples`` reports that as a
    DatasetError naming the line)."""
    index, x, y = drawn
    try:
        return index, RawExample(TaskTag.OPEN_QA, x, y, source="prop")
    except ValueError:
        return None


def records():
    return fields().map(as_record).filter(lambda record: record is not None)


# What build_example says when the record has nothing to cut its example from.
_NO_PASSAGES = (
    "a retrieval block must contain at least one passage",
    "a fact-conditioned example needs at least one Relevant judgment",
)


def build(kind, record):
    """The example of this kind, or None when the record has no passages (or,
    for the fact-conditioned kind, no Relevant one) to cut it from, or its
    instruction has no indexable term to search for."""
    index, raw = record
    try:
        return build_example(kind, raw, RuleBasedCritic(), index)
    except EmptyQueryError:
        return None
    except (GrammarError, DatasetError) as exc:
        if str(exc) not in _NO_PASSAGES:
            raise
        return None


def as_row(example):
    row = {
        "kind": example.kind.value,
        "input": example.input,
        "output": example.output,
        "loss_spans": [list(span) for span in example.loss_spans],
        "source": example.source,
    }
    return json.loads(json.dumps(row))


MOON = index_documents([("Moon", "the moon orbits the earth.")])


@settings(deadline=None)
@given(drawn=fields())
@example(drawn=(MOON, "what does the moon orbit?", "see [Cite]: here"))
@example(drawn=(MOON, "what does the moon orbit?", "the moon [Cite]: [7]"))
def test_every_example_built_is_clean(drawn):
    # A record or an example is refused by a typed error, which
    # ``build-dataset`` reports with exit 1, or it is clean.
    record = as_record(drawn)
    if record is None:
        return
    for kind in ExampleKind:
        example = build(kind, record)
        if example is not None:
            assert check_training_example(example) == []
            assert check_example_dict(as_row(example)) == []


def sections(example):
    """The example's trajectory as {stage: body}: its input after the
    terminator, then its output, a short output's end token on its own line."""
    text = example.output
    if example.kind is not ExampleKind.LONG:
        end = example.kind.sections[-1].end.value
        prompt = example.input.partition("</eoi>\n")[2]
        text = f"{prompt}{text[: -len(end)]}\n{end}\n"
    return {step.kind: step.body for step in parse_trajectory(text).steps}


def with_body(example, kind, body):
    """The example with the body of its ``kind`` section replaced (a short
    example's last section, or any of a long one's) and its loss spans recut."""
    if example.kind is not ExampleKind.LONG:
        output = body + kind.end.value
        return replace(example, output=output, loss_spans=((0, len(output)),))
    bodies = {**sections(example), kind: body}
    steps = [TrajectoryStep(stage, bodies[stage]) for stage in StepKind]
    output, spans = serialize_sections(steps)
    kept = tuple(span for step, span in zip(steps, spans) if step.kind is not StepKind.RETRIEVAL)
    return replace(example, output=output, loss_spans=kept)


def cite(body, number):
    answer, citations = parse_citations(body)
    return f"{answer}\n{CitationList(tuple(sorted({*citations.indices, number}))).render()}"


@settings(deadline=None)
@given(
    record=records(),
    kind=st.sampled_from(
        [ExampleKind.LONG, ExampleKind.SHORT_LOCATOR, ExampleKind.SHORT_GENERATOR_FACTS,
         ExampleKind.SHORT_GENERATOR_PLAIN]
    ),
    data=st.data(),
)
def test_a_broken_trace_rule_is_reported_by_exactly_its_code(record, kind, data):
    example = build(kind, record)
    if example is None:
        return
    bodies = sections(example)
    judgments = parse_locator_body(bodies.get(StepKind.LOCATOR, ""))
    retrieved = bodies.get(StepKind.RETRIEVAL)
    count = len(judgments) if retrieved is None else len(parse_retrieval_body(retrieved))
    _, cited = parse_citations(bodies.get(StepKind.GENERATOR, ""))
    irrelevant = [j.passage_index for j in judgments if j.relevance is Relevance.IRRELEVANT]
    last = kind.sections[-1]
    breaks = []
    if last is StepKind.LOCATOR or kind is ExampleKind.LONG:
        breaks.append("drop a judgment")
    if last is StepKind.GENERATOR:
        breaks.append("cite past the passages")
        if irrelevant:
            breaks.append("cite an Irrelevant passage")
    broken = data.draw(st.sampled_from(breaks))
    if broken == "drop a judgment":
        dropped = data.draw(st.sampled_from(judgments))
        lines = bodies[StepKind.LOCATOR].split("\n")
        del lines[judgments.index(dropped)]
        example = with_body(example, StepKind.LOCATOR, "\n".join(lines))
        expected = ["judgment_coverage"]
        if dropped.passage_index in cited.indices:
            expected.append("citation_unsupported")
    elif broken == "cite past the passages":
        number = data.draw(st.integers(count + 1, count + 5))
        example = with_body(example, StepKind.GENERATOR, cite(bodies[StepKind.GENERATOR], number))
        expected = ["citation_out_of_range"]
    else:
        number = data.draw(st.sampled_from(irrelevant))
        example = with_body(example, StepKind.GENERATOR, cite(bodies[StepKind.GENERATOR], number))
        expected = ["citation_unsupported"]
    problems = check_training_example(example)
    assert [problem.split(":")[0] for problem in problems] == expected, problems
