"""The read passes against the line-by-line readers in helpers.py.

``parse_trajectory`` and ``parse_locator_body`` keep one input-selected
shortcut each in front of their general reader, and ``parse_retrieval_body``
and ``InferenceTrace`` read retrieval entries with one find-based walk that
names its own faults. The regex and split readers in helpers.py are now the
only other implementation of these formats, and they are the oracle: for
every input drawn here, each reader must return what its reference returns,
or raise the same error with the same message (and, for a trajectory, the
same offset). The number of examples is the Hypothesis profile's (see
conftest.py).
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factrail.grammar import (
    StepKind,
    Trajectory,
    TrajectoryStep,
    parse_locator_body,
    parse_retrieval_body,
    parse_trajectory,
    serialize_trajectory,
)
from factrail.orchestrator import InferenceTrace

from helpers import (
    mutate_serialized,
    parse_outcome,
    random_trajectory,
    reference_entry_fault,
    reference_parse_locator_body,
    reference_parse_retrieval_body,
    reference_parse_trajectory,
)

# Inserted anywhere in a serialized trajectory: a "<" that starts no token,
# partial and stray tokens, line breaks, and digits that are not ASCII.
_TRAJECTORY_PIECES = (
    "<", "<<", "</", "< ", "<Locator", "</eol", "</eog>", "<Generator>", "</eoi>",
    "<retrieval>", "</retrieval>", "<Reconstructor>", "</eor>", "<Locator>",
    "\n", " ", "x", "\u0661\u0662", "[1] ", " -",
)


@settings(deadline=None)
@given(st.data())
def test_parse_trajectory_matches_the_token_search(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    text = serialize_trajectory(random_trajectory(rng))
    if data.draw(st.booleans(), label="mutated"):
        text = mutate_serialized(rng, text)
    for _ in range(data.draw(st.integers(0, 3), label="insertions")):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(st.sampled_from(_TRAJECTORY_PIECES), label="piece") + text[at:]
    assert parse_outcome(parse_trajectory, text) == parse_outcome(reference_parse_trajectory, text)


_ARABIC_INDIC_ZERO = "\u0660"


def _digits(number: int, zero: str) -> str:
    """number written with the decimal digits that start at ``zero``."""
    return "".join(chr(ord(zero) + int(d)) for d in str(number))


# Title and text pieces: the separator and its parts, brackets, and the
# line breaks other than "\n" that a passage text may hold.
_ENTRY_PIECES = st.sampled_from(
    ["", "a", "Tide", " -", "-", " ", "x - y", "[2]", "] ", "élan", "\x0c", "\u2028", "\r"]
)


@st.composite
def _retrieval_lines(draw) -> list[str]:
    lines = []
    for number in range(1, draw(st.integers(1, 5), label="lines") + 1):
        written = draw(
            st.sampled_from(
                [
                    str(number),
                    str(number),
                    "0" + str(number),
                    _digits(number, _ARABIC_INDIC_ZERO),  # \d matches these
                    _digits(number, "\uff10"),  # and fullwidth digits,
                    "\u00b2",  # but not a superscript two
                    str(number + 1),
                    "",
                ]
            ),
            label="number",
        )
        close = draw(st.sampled_from(["] ", "] ", "]", "]  ", "]\t"]), label="close")
        title = "".join(draw(st.lists(_ENTRY_PIECES, max_size=2), label="title"))
        separator = draw(st.sampled_from([" -", " -", "-", "", " - "]), label="separator")
        text = "".join(draw(st.lists(_ENTRY_PIECES, max_size=2), label="text"))
        lines.append(f"[{written}{close}{title}{separator}{text}")
    return lines


@settings(deadline=None)
@given(_retrieval_lines(), st.sampled_from(["", "\n"]))
@example(["[1] Title -text", "[2] Title -text"], "")
@example(["[1] -text"], "")  # the separator may not share the number's space
@example(["[1]  -text"], "")
@example(["[1] a -b -c"], "")  # the title ends at the first separator
@example(["[01] a -b"], "")
@example(["[\u0661] a -b"], "")
@example(["[1] a -b"], "\n")
@example(["[1] a", "[2] b -c"], "")  # a separator only on the next line
@example(["[2] -"], "")  # malformed wins over misnumbered
@example(["[1]] a -b"], "")
@example(["[1]x] a -b"], "")
@example(["[] -x"], "")
@example(["[1]"], "")
@example(["x[1] a -b"], "")
@example(["[1] a -b", ""], "")  # an empty last line
def test_parse_retrieval_body_matches_the_entry_regex(lines, end):
    body = "\n".join(lines) + end
    assert parse_outcome(parse_retrieval_body, body) == parse_outcome(
        reference_parse_retrieval_body, body
    )


@st.composite
def _judgment_line(draw) -> str:
    index = draw(st.sampled_from([1, 2, 3, 12, 63, 64, 65, 66, 10**6, 0]), label="index")
    arabic = _digits(index, _ARABIC_INDIC_ZERO)
    return draw(
        st.sampled_from(
            [
                f"[Irrelevant]: [{index}] Lacking Supporting Facts.",
                f"[Irrelevant]: [{index}] Lacking Supporting Facts",
                f"[Irrelevant]: [{index}]",
                f"- [Irrelevant] : [{index}]  Lacking Supporting Facts.  ",
                f"[Irrelevant]: [{index}] a fact.",
                f"[Irrelevant]: [{arabic}] Lacking Supporting Facts.",
                f"[Relevant]: [{index}] a fact.",
                f"[Relevant]: [{index}]",
                "",
                "   ",
                "[Irrelevant] [1]",
            ]
        ),
        label="line",
    )


@settings(deadline=None)
@given(st.lists(_judgment_line(), min_size=1, max_size=6))
def test_parse_locator_body_matches_fresh_judgments(lines):
    body = "\n".join(lines)
    assert parse_outcome(parse_locator_body, body) == parse_outcome(
        reference_parse_locator_body, body
    )


# A title may hold a line break, so that its prefix would reach into the
# next entry, or the separator.
_TITLES = st.sampled_from(["Tide", "Sun", "", " -", "a\n[2] Sun", "Tide\n", "[2]"])


@settings(deadline=None)
@given(st.none() | st.lists(_TITLES, max_size=4), st.none() | st.lists(_TITLES, max_size=4))
@example(["Tide", "Sun"], None)
@example(["Tide", "Sun"], ["Tide"])  # more entries than passages
@example(["Tide"], ["Tide", "Sun"])  # fewer
@example(["a\n[2] Sun"], ["a\n[2] Sun", "Sun"])  # a prefix that reaches into the next entry
@example([], None)  # an empty section
@example(None, [])  # no section
def test_trace_entries_match_a_split_of_the_retrieval_section(section_titles, titles):
    """section_titles None means there is no retrieval section; titles None
    means the passages are titled as the section's entries."""
    steps = [TrajectoryStep(StepKind.GENERATOR, "x")]
    body = None
    if section_titles is not None:
        body = "\n".join(f"[{i}] {t} -text {i}" for i, t in enumerate(section_titles, start=1))
        steps.insert(0, TrajectoryStep(StepKind.RETRIEVAL, body))
    if titles is None:
        titles = section_titles or []
    meta = tuple((i, t, 2) for i, t in enumerate(titles, start=1))
    fault = reference_entry_fault(body, meta)
    if fault is not None:
        with pytest.raises(ValueError) as raised:
            InferenceTrace("q", Trajectory(tuple(steps)), meta)
        assert str(raised.value) == fault
        return
    trace = InferenceTrace("q", Trajectory(tuple(steps)), meta)
    lines = [] if body is None else body.split("\n")
    assert [p.text for p in trace.passages] == [
        line[len(f"[{i}] {t} -") :] for (i, t, _), line in zip(meta, lines)
    ]
