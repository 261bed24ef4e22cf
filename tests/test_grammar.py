"""Grammar oracles: frozen byte layouts, round trips, and rejection checks."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import grammar
from factrail.grammar import (
    CitationList,
    GrammarError,
    IntentSet,
    LocatorJudgment,
    MultilinePassageError,
    Relevance,
    StepKind,
    TokenKind,
    Trajectory,
    TrajectoryStep,
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

from helpers import exactly, mutate_serialized, random_trajectory


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
    pattern = exactly("generator step is mandatory")
    with pytest.raises(GrammarError, match=pattern):
        serialize_trajectory(Trajectory(()))
    with pytest.raises(GrammarError, match=pattern):
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
    message = "step kinds must be strictly ordered, locator repeats or regresses (step 1)"
    with pytest.raises(GrammarError, match=exactly(message)):
        serialize_trajectory(t)


def test_serialize_rejects_nested_tokens():
    t = Trajectory((TrajectoryStep(StepKind.GENERATOR, "bad </eor> body"),))
    message = "body of generator step contains the token </eor> (step 0)"
    with pytest.raises(GrammarError, match=exactly(message)):
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
        with pytest.raises(GrammarError, match=exactly(f"{problem} (step 0)")):
            serialize_sections([step])


def test_parse_lone_reconstructor_section():
    t = parse_trajectory("<Reconstructor>\nSearch(Key figures in the War of 1812)\n</eor>\n")
    assert len(t.steps) == 1
    assert t.steps[0].kind is StepKind.RECONSTRUCTOR
    assert t.steps[0].body == "Search(Key figures in the War of 1812)"


def test_parse_mismatched_end():
    message = "expected </eol> but found </eog> at offset 12"
    with pytest.raises(GrammarError, match=exactly(message)) as err:
        parse_trajectory("<Locator>\nx\n</eog>\n")
    assert err.value.offset == 12


def test_parse_locates_unclosed_head():
    message = "<Generator> at offset 0 is never closed"
    with pytest.raises(GrammarError, match=exactly(message)) as err:
        parse_trajectory("<Generator>\nno end")
    assert err.value.offset == 0


def test_parse_rejects_order_violation():
    text = "<Generator>\ny\n</eog>\n<Locator>\n[Relevant]: [1] f\n</eol>\n"
    message = "<Locator> at offset 21 breaks the section order"
    with pytest.raises(GrammarError, match=exactly(message)) as err:
        parse_trajectory(text)
    assert err.value.offset == 21


def test_parse_rejects_stray_text():
    message = "unexpected text outside any section at offset 21"
    with pytest.raises(GrammarError, match=exactly(message)) as err:
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
    pattern = exactly("no search intents remain after parsing")
    with pytest.raises(GrammarError, match=pattern):
        parse_intents(" ; ;")
    with pytest.raises(GrammarError, match=pattern):
        parse_intents("Search()")


def test_intent_set_m_counts():
    s = IntentSet(("a", "b", "c"))
    assert s.m == 3
    with pytest.raises(GrammarError, match=exactly("no search intents remain after parsing")):
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
    message = "a Relevant judgment must carry a fact (line 1)"
    with pytest.raises(GrammarError, match=exactly(message)):
        parse_locator_body("[Relevant]: [1]")


def test_parse_locator_rejects_duplicates():
    body = "[Relevant]: [2] f\n[Irrelevant]: [2] Lacking Supporting Facts."
    with pytest.raises(GrammarError, match=exactly("passage index 2 judged more than once")):
        parse_locator_body(body)


def test_parse_locator_rejects_garbage_line():
    with pytest.raises(GrammarError, match=exactly("malformed judgment line (line 2)")):
        parse_locator_body("[Relevant]: [1] ok\nnot a judgment")


@pytest.mark.parametrize(
    "separator", ["\u2028", "\x0c", "\r", "\x85"], ids=["u2028", "form-feed", "cr", "nel"]
)
def test_parse_locator_body_ends_a_line_only_at_a_newline(separator):
    # Like a retrieval body: a fact may hold any other break str.splitlines
    # knows, and a line number counts the lines an editor shows.
    fact = f"the moon{separator}orbits the earth"
    assert parse_locator_body(f"[Relevant]: [1] {fact}\n[Irrelevant]: [2]") == [
        LocatorJudgment(1, Relevance.RELEVANT, fact),
        LocatorJudgment(2, Relevance.IRRELEVANT, None),
    ]
    with pytest.raises(GrammarError, match=exactly("malformed judgment line (line 2)")):
        parse_locator_body(f"[Relevant]: [1] {fact}\nnot a judgment")


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("[Relevant]: [1] f\n[Relevant]: [0] a fact", 2, "passage indices are 1-based"),
        ("[Irrelevant]: [1] a fact", 1, "an Irrelevant judgment must not carry a fact"),
    ],
    ids=["relevant-index-0", "irrelevant-with-fact"],
)
def test_parse_locator_rejects_a_judgment_its_fields_forbid(body, line, message):
    with pytest.raises(GrammarError, match=exactly(f"{message} (line {line})")):
        parse_locator_body(body)


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


def test_irrelevant_judgments_are_shared_up_to_a_fixed_bound():
    bound = grammar._SHARED_IRRELEVANT_BOUND
    assert len(grammar._SHARED_IRRELEVANT) == bound
    indices = [1, 2, bound - 1, bound, bound + 1, 10**6, *range(100, 2100)]
    body = "\n".join(format_judgment(LocatorJudgment(i, Relevance.IRRELEVANT)) for i in indices)
    fresh = [LocatorJudgment(i, Relevance.IRRELEVANT, None) for i in indices]
    first, again = parse_locator_body(body), parse_locator_body(body)
    assert first == again == fresh
    # Within the bound both parses hold the one shared value; beyond it,
    # each builds its own, and the table never grows.
    assert all(a is b for a, b in zip(first[:4], again[:4]))
    assert not any(a is b for a, b in zip(first[4:], again[4:]))
    assert len(grammar._SHARED_IRRELEVANT) == bound
    # A line in another form, or a Relevant one, is built as before.
    loose = parse_locator_body("[Irrelevant]: [1]\n[Relevant]: [2] a fact.")
    assert loose == [
        LocatorJudgment(1, Relevance.IRRELEVANT, None),
        LocatorJudgment(2, Relevance.RELEVANT, "a fact."),
    ]
    assert loose[0] is not first[0]


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
    with pytest.raises(GrammarError, match=exactly("bad citation token '[]'")):
        parse_citations("x\n[Cite]: []")
    message = "citation indices must be strictly increasing and positive"
    with pytest.raises(GrammarError, match=exactly(message)):
        parse_citations("x\n[Cite]: [2] [1]")
    with pytest.raises(GrammarError, match=exactly("bad citation token 'oops'")):
        parse_citations("x\n[Cite]: [1] oops")


@pytest.mark.parametrize(
    "body", ["x\n[Cite]:", "x [Cite]: \t", "x\n[Cite]:\n"], ids=["own-line", "inline", "newline"]
)
def test_parse_citations_rejects_a_marker_with_no_indices(body):
    with pytest.raises(GrammarError, match=exactly("no indices follow the citation marker")):
        parse_citations(body)


def test_a_number_int_refuses_is_a_syntax_error_naming_its_line():
    huge = "1" * 5000  # int() reads at most 4300 digits by default
    message = "passage index of 5000 digits is too long (line 2)"
    with pytest.raises(GrammarError, match=exactly(message)):
        parse_locator_body(f"[Irrelevant]: [1]\n[Relevant]: [{huge}] a fact")
    for body, line in ((f"a\nb [Cite]: [1]\n[{huge}]", 3), (f"\n[Cite]: [{huge}]", 2)):
        message = f"citation index of 5000 digits is too long (line {line})"
        with pytest.raises(GrammarError, match=exactly(message)):
            parse_citations(body)


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
    message = "a retrieval block must contain at least one passage"
    with pytest.raises(GrammarError, match=exactly(message)):
        render_retrieval_block([])


def test_retrieval_body_round_trip():
    passages = [FakePassage("Alpha", "first text"), FakePassage("Beta (b)", "second text")]
    entries = parse_retrieval_body(retrieval_body(passages))
    assert entries == [("Alpha", "first text"), ("Beta (b)", "second text")]
    # A form feed or U+2028 stays inside its entry: entries split on "\n" only.
    spaced = [FakePassage("A\fB", "x\u2028y")]
    assert parse_retrieval_body(retrieval_body(spaced)) == [("A\fB", "x\u2028y")]


@pytest.mark.parametrize("title, text", [("Al\npha", "text"), ("Alpha", "te\nxt"), ("Alpha", "text\n")])
def test_retrieval_body_refuses_a_passage_that_spans_lines(title, text):
    passages = [FakePassage("Beta", "second text"), FakePassage(title, text)]
    with pytest.raises(MultilinePassageError, match="^a passage spans more than one line$"):
        retrieval_body(passages)


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
    with pytest.raises(GrammarError, match=exactly(f"{message} (line {line})")):
        parse_retrieval_body(body)


# ---------------------------------------------------------------------------
# framing


def test_render_instruction():
    assert render_instruction("why?") == "why?</eoi>\n"
