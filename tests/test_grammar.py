"""Grammar oracles: frozen byte layouts, round trips, and rejection checks."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import grammar
from factrail.grammar import (
    CitationList,
    CitationSyntaxError,
    DuplicateJudgmentError,
    EmptyIntentSetError,
    EmptyRetrievalError,
    GrammarError,
    IntentSet,
    LocatorJudgment,
    LocatorSyntaxError,
    MismatchedEndError,
    OrderViolationError,
    Relevance,
    RetrievalSyntaxError,
    StepKind,
    TokenKind,
    TrailingGarbageError,
    Trajectory,
    TrajectoryInvariantError,
    TrajectoryStep,
    UnclosedHeadError,
    format_judgment,
    parse_citations,
    parse_intents,
    parse_locator_body,
    parse_retrieval_body,
    parse_trajectory,
    render_instruction,
    render_retrieval_block,
    retrieval_body,
    serialize_sections,
    serialize_trajectory,
    text_violation,
)

from helpers import mutate_serialized, random_trajectory


class FakePassage:
    def __init__(self, title, text):
        self.title = title
        self.text = text


def test_token_surfaces_are_frozen():
    assert TokenKind.INSTRUCTION_END.value == "</eoi>"
    assert TokenKind.RECONSTRUCTOR_HEAD.value == "<Reconstructor>"
    assert TokenKind.RECONSTRUCTOR_END.value == "</eor>"
    assert TokenKind.RETRIEVAL_HEAD.value == "<retrieval>"
    assert TokenKind.RETRIEVAL_END.value == "</retrieval>"
    assert TokenKind.LOCATOR_HEAD.value == "<Locator>"
    assert TokenKind.LOCATOR_END.value == "</eol>"
    assert TokenKind.GENERATOR_HEAD.value == "<Generator>"
    assert TokenKind.GENERATOR_END.value == "</eog>"


def test_step_kinds_carry_rank_head_and_end():
    assert [k.value for k in StepKind] == ["reconstructor", "retrieval", "locator", "generator"]
    assert [k.rank for k in StepKind] == [0, 1, 2, 3]
    assert StepKind("locator") is StepKind.LOCATOR
    assert (StepKind.LOCATOR.head, StepKind.LOCATOR.end) == (
        TokenKind.LOCATOR_HEAD, TokenKind.LOCATOR_END
    )
    # Plain attributes on each member, not properties looked up per read.
    assert {"rank", "head", "end"} <= set(vars(StepKind.GENERATOR))


@pytest.mark.parametrize(
    "text, problem",
    [
        ("a plain question?", None),
        ("ümlaut and 漢字 are fine", None),
        ("which planet is </eoi> the smallest?", "holds the grammar token </eoi>"),
        ("<Generator> then </eoi>", "holds the grammar token </eoi>"),
        ("what \udc80 moon", "holds the lone surrogate '\\udc80'"),
        ("\ud800", "holds the lone surrogate '\\ud800'"),
    ],
)
def test_text_violation_names_a_token_or_a_lone_surrogate(text, problem):
    assert text_violation(text) == problem
    if problem is not None:
        problem.encode("utf-8")


def test_serialize_single_generator_step():
    t = Trajectory((TrajectoryStep(StepKind.GENERATOR, "Yi Yi\n[Cite]: [2] [6]"),))
    assert serialize_trajectory(t) == "<Generator>\nYi Yi\n[Cite]: [2] [6]\n</eog>\n"


def test_serialize_sections_spans_run_from_head_through_end_token():
    steps = (
        TrajectoryStep(StepKind.RECONSTRUCTOR, "Search(q)"),
        TrajectoryStep(StepKind.GENERATOR, "y"),
    )
    text, spans = serialize_sections(steps)
    assert text == serialize_trajectory(Trajectory(steps))
    assert [text[a:b] for a, b in spans] == [
        "<Reconstructor>\nSearch(q)\n</eor>",
        "<Generator>\ny\n</eog>",
    ]
    assert spans[1][0] == spans[0][1] + 1
    assert serialize_sections(()) == ("", [])


def test_serialize_requires_generator():
    with pytest.raises(TrajectoryInvariantError):
        serialize_trajectory(Trajectory(()))
    with pytest.raises(TrajectoryInvariantError):
        serialize_trajectory(
            Trajectory((TrajectoryStep(StepKind.RECONSTRUCTOR, "Search(x)"),))
        )


def test_serialize_rejects_out_of_order_steps():
    t = Trajectory(
        (
            TrajectoryStep(StepKind.GENERATOR, "y"),
            TrajectoryStep(StepKind.LOCATOR, "[Relevant]: [1] f"),
        )
    )
    with pytest.raises(TrajectoryInvariantError) as err:
        serialize_trajectory(t)
    assert err.value.step_index == 1


def test_serialize_rejects_nested_tokens():
    t = Trajectory((TrajectoryStep(StepKind.GENERATOR, "bad </eor> body"),))
    with pytest.raises(TrajectoryInvariantError):
        serialize_trajectory(t)


def reference_step_violation(step):
    """The plain check: search the body for each of the nine surfaces in turn."""
    for token in TokenKind:
        if token.value in step.body:
            return f"body of {step.kind.value} step contains the token {token.value}"
    return None


# Whole surfaces, their prefixes and suffixes (e.g. "</eo", "erator>"), and
# the characters they are made of, so bodies hold near misses as well as hits.
_SURFACE_PIECES = sorted(
    {t.value for t in TokenKind}
    | {t.value[:i] for t in TokenKind for i in range(1, len(t.value))}
    | {t.value[i:] for t in TokenKind for i in range(1, len(t.value))}
    | set("<>/ \nabz")
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(StepKind)),
    st.one_of(
        st.lists(st.sampled_from(_SURFACE_PIECES), max_size=12).map("".join),
        st.text(max_size=60),
    ),
)
def test_step_violation_matches_the_nine_token_loop(kind, body):
    step = TrajectoryStep(kind, body)
    problem = reference_step_violation(step)
    if problem is None:
        text, spans = serialize_sections([step])
        assert text == f"{kind.head.value}\n{body}\n{kind.end.value}\n"
        assert spans == [(0, len(text) - 1)]
    else:
        with pytest.raises(TrajectoryInvariantError) as caught:
            serialize_sections([step])
        assert (caught.value.reason, caught.value.step_index) == (problem, 0)


def test_parse_lone_reconstructor_section():
    t = parse_trajectory("<Reconstructor>\nSearch(Key figures in the War of 1812)\n</eor>\n")
    assert len(t.steps) == 1
    assert t.steps[0].kind is StepKind.RECONSTRUCTOR
    assert t.steps[0].body == "Search(Key figures in the War of 1812)"


def test_parse_mismatched_end():
    with pytest.raises(MismatchedEndError) as err:
        parse_trajectory("<Locator>\nx\n</eog>\n")
    assert err.value.expected is TokenKind.LOCATOR_END
    assert err.value.found is TokenKind.GENERATOR_END


def test_parse_locates_unclosed_head():
    with pytest.raises(UnclosedHeadError) as err:
        parse_trajectory("<Generator>\nno end")
    assert err.value.kind is StepKind.GENERATOR
    assert err.value.offset == 0


def test_parse_rejects_order_violation():
    text = "<Generator>\ny\n</eog>\n<Locator>\n[Relevant]: [1] f\n</eol>\n"
    with pytest.raises(OrderViolationError):
        parse_trajectory(text)


def test_parse_rejects_stray_text():
    with pytest.raises(TrailingGarbageError) as err:
        parse_trajectory("<Generator>\ny\n</eog>\njunk")
    assert err.value.offset == 21


def test_parse_tolerates_surrounding_whitespace():
    t = parse_trajectory("\n  <Generator>\ny\n</eog>\n\n  ")
    assert t.steps[0].body == "y"


def test_bodies_keep_interior_whitespace():
    t = Trajectory((TrajectoryStep(StepKind.GENERATOR, " two  words \nsecond line"),))
    assert parse_trajectory(serialize_trajectory(t)) == t


def test_round_trip_seeded_sample():
    rng = random.Random(7)
    for _ in range(200):
        t = random_trajectory(rng)
        assert parse_trajectory(serialize_trajectory(t)) == t


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    body = st.text(
        alphabet="ab <>/[]().!?\n-",
        max_size=40,
    ).filter(lambda s: not any(tok.value in s for tok in TokenKind))
    optional = data.draw(
        st.sets(
            st.sampled_from(
                [StepKind.RECONSTRUCTOR, StepKind.RETRIEVAL, StepKind.LOCATOR]
            )
        )
    )
    kinds = sorted(optional, key=lambda k: k.rank) + [StepKind.GENERATOR]
    t = Trajectory(tuple(TrajectoryStep(k, data.draw(body)) for k in kinds))
    assert parse_trajectory(serialize_trajectory(t)) == t


def test_mutations_are_rejected_seeded_sample():
    rng = random.Random(11)
    for _ in range(200):
        t = random_trajectory(rng)
        corrupted = mutate_serialized(rng, serialize_trajectory(t))
        with pytest.raises(GrammarError):
            parse_trajectory(corrupted)


# ---------------------------------------------------------------------------
# intents


def test_parse_intents_splits_and_unwraps():
    assert parse_intents("Search(a; b)").intents == ("a", "b")
    assert parse_intents("Search(x)").intents == ("x",)
    assert parse_intents("plain query").intents == ("plain query",)
    assert parse_intents("Search(a); Search(b)").intents == ("a", "b")


def test_parse_intents_drops_blanks_and_errors_when_empty():
    assert parse_intents("a;;b;").intents == ("a", "b")
    with pytest.raises(EmptyIntentSetError):
        parse_intents(" ; ;")
    with pytest.raises(EmptyIntentSetError):
        parse_intents("Search()")


def test_intent_set_m_counts():
    s = IntentSet(("a", "b", "c"))
    assert s.m == 3
    with pytest.raises(EmptyIntentSetError):
        IntentSet(())


# ---------------------------------------------------------------------------
# locator judgments


def test_parse_locator_body_both_kinds():
    body = "[Relevant]: [1] A fact.\n[Irrelevant]: [3] Lacking Supporting Facts."
    one, three = parse_locator_body(body)
    assert one == LocatorJudgment(1, Relevance.RELEVANT, "A fact.")
    assert three == LocatorJudgment(3, Relevance.IRRELEVANT, None)


def test_parse_locator_body_accepts_compact_colon():
    judgments = parse_locator_body("[Relevant]:[2] tight spacing fact")
    assert judgments[0].passage_index == 2
    assert judgments[0].fact == "tight spacing fact"


def test_parse_locator_rejects_relevant_without_fact():
    with pytest.raises(LocatorSyntaxError) as err:
        parse_locator_body("[Relevant]: [1]")
    assert err.value.line == 1


def test_parse_locator_rejects_duplicates():
    body = "[Relevant]: [2] f\n[Irrelevant]: [2] Lacking Supporting Facts."
    with pytest.raises(DuplicateJudgmentError) as err:
        parse_locator_body(body)
    assert err.value.passage_index == 2


def test_parse_locator_rejects_garbage_line():
    with pytest.raises(LocatorSyntaxError) as err:
        parse_locator_body("[Relevant]: [1] ok\nnot a judgment")
    assert err.value.line == 2


# The judgment pattern before its fact group became greedy: the fact was the
# lazy (.*?) before the trailing \s*$.
_LAZY_JUDGMENT_RE = re.compile(r"^\s*-?\s*\[(Relevant|Irrelevant)\]\s*:\s*\[(\d+)\]\s*(.*?)\s*$")
# ASCII and Unicode whitespace, line breaks among them, and look-alikes that
# are not whitespace (U+200B, U+FEFF).
_JUDGMENT_SPACES = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u3000"
    "\u200b\ufeff"
)


@st.composite
def judgment_like_lines(draw):
    space = st.text(alphabet=_JUDGMENT_SPACES, max_size=3)
    rest = st.text(alphabet=_JUDGMENT_SPACES + "ab.[]:-1", max_size=12)
    if draw(st.booleans()):
        return draw(rest)
    return "".join(
        [
            draw(space),
            draw(st.sampled_from(["", "-"])),
            draw(space),
            draw(st.sampled_from(["[Relevant]", "[Irrelevant]", "[relevant]"])),
            draw(space),
            ":",
            draw(space),
            f"[{draw(st.integers(0, 12))}]",
            draw(rest),
        ]
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(judgment_like_lines(), max_size=4).map("".join))
def test_the_greedy_judgment_pattern_parses_as_the_lazy_one_did(body):
    for line in body.splitlines():
        lazy, greedy = _LAZY_JUDGMENT_RE.match(line), grammar._JUDGMENT_RE.match(line)
        assert (lazy is None) == (greedy is None), repr(line)
        if lazy is not None:
            tag, index, fact = greedy.groups()
            assert lazy.groups() == (tag, index, fact.rstrip()), repr(line)
            if tag == "Relevant" and lazy.group(3) and int(index) >= 1:
                assert parse_locator_body(line)[0].fact == lazy.group(3)


def test_format_judgment_round_trip():
    judgments = [
        LocatorJudgment(1, Relevance.RELEVANT, "water is wet"),
        LocatorJudgment(2, Relevance.IRRELEVANT, None),
    ]
    body = "\n".join(format_judgment(j) for j in judgments)
    assert parse_locator_body(body) == judgments


def test_judgment_invariant():
    with pytest.raises(ValueError):
        LocatorJudgment(1, Relevance.RELEVANT, None)
    with pytest.raises(ValueError):
        LocatorJudgment(1, Relevance.IRRELEVANT, "fact")
    with pytest.raises(ValueError):
        LocatorJudgment(1, Relevance.RELEVANT, 7)


# ---------------------------------------------------------------------------
# citations


def test_parse_citations_final_line():
    answer, citations = parse_citations("B: food\n[Cite]: [1] [2]")
    assert answer == "B: food"
    assert citations.indices == (1, 2)


def test_parse_citations_inline():
    answer, citations = parse_citations("B: food [Cite]: [1] [2]")
    assert answer == "B: food"
    assert citations.indices == (1, 2)


def test_parse_citations_absent():
    answer, citations = parse_citations("no citations here")
    assert answer == "no citations here"
    assert citations.indices == ()


def test_parse_citations_rejects_empty_and_disorder():
    with pytest.raises(CitationSyntaxError):
        parse_citations("x\n[Cite]: []")
    with pytest.raises(CitationSyntaxError):
        parse_citations("x\n[Cite]: [2] [1]")
    with pytest.raises(CitationSyntaxError):
        parse_citations("x\n[Cite]: [1] oops")


def test_a_number_int_refuses_is_a_syntax_error_naming_its_line():
    huge = "1" * 5000  # int() reads at most 4300 digits by default
    with pytest.raises(LocatorSyntaxError) as err:
        parse_locator_body(f"[Irrelevant]: [1]\n[Relevant]: [{huge}] a fact")
    assert str(err.value) == "passage index of 5000 digits is too long (line 2)"
    with pytest.raises(CitationSyntaxError) as err:
        parse_citations(f"a\nb [Cite]: [1]\n[{huge}]")
    assert str(err.value) == "citation index of 5000 digits is too long (line 3)"


def test_every_number_int_reads_keeps_its_meaning():
    longest = "9" * 4300
    assert parse_locator_body(f"[Irrelevant]: [{longest}]")[0].passage_index == int(longest)
    assert parse_citations(f"a [Cite]: [{longest}]")[1].indices == (int(longest),)
    # \d matches every decimal digit, and int() reads each of them.
    assert parse_locator_body("[Relevant]: [\u0661\u0662] f")[0].passage_index == 12


def test_citation_list_invariant():
    with pytest.raises(ValueError):
        CitationList((0,))
    with pytest.raises(ValueError):
        CitationList((1, 1))
    assert CitationList((1, 2, 6)).render() == "[Cite]: [1] [2] [6]"


# ---------------------------------------------------------------------------
# retrieval block


def test_render_retrieval_block_layout():
    block = render_retrieval_block([FakePassage("T", "a b")])
    assert block == "<retrieval>\n[1] T -a b\n</retrieval>\n"


def test_render_retrieval_block_rejects_empty():
    with pytest.raises(EmptyRetrievalError):
        render_retrieval_block([])


def test_retrieval_body_round_trip():
    passages = [FakePassage("Alpha", "first text"), FakePassage("Beta (b)", "second text")]
    entries = parse_retrieval_body(retrieval_body(passages))
    assert entries == [("Alpha", "first text"), ("Beta (b)", "second text")]


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("T -x", 1, "malformed retrieval entry"),
        ("[1] T without the separator", 1, "malformed retrieval entry"),
        ("[1]T -x", 1, "malformed retrieval entry"),
        ("[one] T -x", 1, "malformed retrieval entry"),
        ("[1] A -x\n\n[2] B -y", 2, "malformed retrieval entry"),
        ("[1] A -x\n", 2, "malformed retrieval entry"),
        ("[2] A -x", 1, "entry numbered 2, expected 1"),
        ("[0] A -x", 1, "entry numbered 0, expected 1"),
        ("[1] A -x\n[3] B -y", 2, "entry numbered 3, expected 2"),
        ("[1] A -x\n[1] B -y", 2, "entry numbered 1, expected 2"),
        (f"[{'1' * 5000}] A -x", 1, "entry number of 5000 digits is too long"),
    ],
    ids=[
        "no-number", "no-separator", "no-space", "word-number", "blank-line",
        "trailing-newline", "starts-at-2", "starts-at-0", "gap", "repeat", "too-long",
    ],
)
def test_parse_retrieval_body_rejects_a_malformed_or_misnumbered_entry(body, line, message):
    with pytest.raises(RetrievalSyntaxError) as err:
        parse_retrieval_body(body)
    assert err.value.line == line
    assert str(err.value) == f"{message} (line {line})"


# ---------------------------------------------------------------------------
# framing


def test_render_instruction():
    assert render_instruction("why?") == "why?</eoi>\n"
