"""Token grammar for serialized agent trajectories.

A trajectory is an ordered sequence of tagged sections, one per pipeline
stage: intent reconstruction, passage retrieval, fact location, and answer
generation. Each section is framed by a fixed head token and a matching end
token; section bodies carry stage-specific payloads with their own line
formats (search intents, numbered passages, relevance judgments, citations).

Serialization is strict and canonical: one byte layout, ``head\\nbody\\nend\\n``
per section. Parsing is lenient about whitespace between sections but never
repairs structural damage; every rejection carries the offset or line where
the problem sits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence

__all__ = [
    "TokenKind",
    "StepKind",
    "TrajectoryStep",
    "Trajectory",
    "IntentSet",
    "Relevance",
    "LocatorJudgment",
    "CitationList",
    "GrammarError",
    "TrajectoryInvariantError",
    "UnclosedHeadError",
    "MismatchedEndError",
    "OrderViolationError",
    "TrailingGarbageError",
    "EmptyIntentSetError",
    "LocatorSyntaxError",
    "DuplicateJudgmentError",
    "CitationSyntaxError",
    "EmptyRetrievalError",
    "RetrievalSyntaxError",
    "first_token",
    "text_violation",
    "serialize_sections",
    "serialize_steps",
    "serialize_trajectory",
    "parse_trajectory",
    "parse_intents",
    "parse_locator_body",
    "format_judgment",
    "parse_citations",
    "retrieval_body",
    "render_retrieval_block",
    "parse_retrieval_body",
    "render_instruction",
    "IRRELEVANT_PHRASE",
    "CITE_PREFIX",
]


class TokenKind(Enum):
    """The fixed special strings that skeleton a serialized trajectory."""

    INSTRUCTION_END = "</eoi>"
    RECONSTRUCTOR_HEAD = "<Reconstructor>"
    RECONSTRUCTOR_END = "</eor>"
    RETRIEVAL_HEAD = "<retrieval>"
    RETRIEVAL_END = "</retrieval>"
    LOCATOR_HEAD = "<Locator>"
    LOCATOR_END = "</eol>"
    GENERATOR_HEAD = "<Generator>"
    GENERATOR_END = "</eog>"


class StepKind(Enum):
    """Pipeline stages, in the only order they may appear.

    ``.value`` is the stage name; ``rank`` (the position in that order),
    ``head`` and ``end`` are plain attributes, set once per member.
    """

    RECONSTRUCTOR = ("reconstructor", TokenKind.RECONSTRUCTOR_HEAD, TokenKind.RECONSTRUCTOR_END)
    RETRIEVAL = ("retrieval", TokenKind.RETRIEVAL_HEAD, TokenKind.RETRIEVAL_END)
    LOCATOR = ("locator", TokenKind.LOCATOR_HEAD, TokenKind.LOCATOR_END)
    GENERATOR = ("generator", TokenKind.GENERATOR_HEAD, TokenKind.GENERATOR_END)

    def __new__(cls, value: str, head: TokenKind, end: TokenKind) -> "StepKind":
        member = object.__new__(cls)
        member._value_ = value
        member.rank = len(cls._member_names_)
        member.head = head
        member.end = end
        return member


# Keyed by surface: a str hash is cached, an Enum's is a Python-level call.
_KIND_BY_HEAD_SURFACE = {kind.head.value: kind for kind in StepKind}

_TOKEN_BY_SURFACE = {t.value: t for t in TokenKind}

# The first characters of the token surfaces ("<" today). Text holding none
# of them holds no token, which one substring search per character shows.
_TOKEN_STARTS = tuple(sorted({t.value[0] for t in TokenKind}))

# Longest-first alternation so overlapping surfaces cannot shadow each other.
_TOKEN_RE = re.compile(
    "|".join(re.escape(t.value) for t in sorted(TokenKind, key=lambda t: -len(t.value)))
)

IRRELEVANT_PHRASE = "Lacking Supporting Facts."
CITE_PREFIX = "[Cite]:"


# ---------------------------------------------------------------------------
# errors


class GrammarError(Exception):
    """Base class for every trajectory-grammar rejection."""


class TrajectoryInvariantError(GrammarError):
    """A trajectory value violates the structural invariants (serialization refused)."""

    def __init__(self, reason: str, step_index: int | None = None) -> None:
        self.reason = reason
        self.step_index = step_index
        where = "" if step_index is None else f" (step {step_index})"
        super().__init__(f"{reason}{where}")


class UnclosedHeadError(GrammarError):
    def __init__(self, kind: StepKind, offset: int) -> None:
        self.kind = kind
        self.offset = offset
        super().__init__(f"{kind.head.value} at offset {offset} is never closed")


class MismatchedEndError(GrammarError):
    def __init__(self, expected: TokenKind, found: TokenKind, offset: int) -> None:
        self.expected = expected
        self.found = found
        self.offset = offset
        super().__init__(
            f"expected {expected.value} but found {found.value} at offset {offset}"
        )


class OrderViolationError(GrammarError):
    def __init__(self, kind: StepKind, offset: int) -> None:
        self.kind = kind
        self.offset = offset
        super().__init__(f"{kind.head.value} at offset {offset} breaks the section order")


class TrailingGarbageError(GrammarError):
    def __init__(self, offset: int) -> None:
        self.offset = offset
        super().__init__(f"unexpected text outside any section at offset {offset}")


class EmptyIntentSetError(GrammarError):
    def __init__(self, message: str = "no search intents remain after parsing") -> None:
        super().__init__(message)


class LocatorSyntaxError(GrammarError):
    def __init__(self, line: int, message: str = "malformed judgment line") -> None:
        self.line = line
        super().__init__(f"{message} (line {line})")


class DuplicateJudgmentError(GrammarError):
    def __init__(self, passage_index: int) -> None:
        self.passage_index = passage_index
        super().__init__(f"passage index {passage_index} judged more than once")


class CitationSyntaxError(GrammarError):
    pass


class EmptyRetrievalError(GrammarError):
    def __init__(self) -> None:
        super().__init__("a retrieval block must contain at least one passage")


class RetrievalSyntaxError(GrammarError):
    def __init__(self, line: int, message: str = "malformed retrieval entry") -> None:
        self.line = line
        super().__init__(f"{message} (line {line})")


# ---------------------------------------------------------------------------
# core values


@dataclass(frozen=True)
class TrajectoryStep:
    """One tagged section: its stage and the text between head and end token."""

    kind: StepKind
    body: str


@dataclass(frozen=True)
class Trajectory:
    """An ordered tuple of steps. Completeness is checked at serialization time."""

    steps: tuple[TrajectoryStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class IntentSet:
    """Ordered, non-empty search intents produced by the reconstruction stage."""

    intents: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intents", tuple(self.intents))
        if not self.intents:
            raise EmptyIntentSetError()
        for item in self.intents:
            if not item.strip():
                raise EmptyIntentSetError("an intent is blank after trimming")

    @property
    def m(self) -> int:
        return len(self.intents)


class Relevance(Enum):
    RELEVANT = "Relevant"
    IRRELEVANT = "Irrelevant"


@dataclass(frozen=True)
class LocatorJudgment:
    """Per-passage relevance call; a fact is present exactly when relevant."""

    passage_index: int
    relevance: Relevance
    fact: str | None = None

    def __post_init__(self) -> None:
        if self.passage_index < 1:
            raise ValueError("passage indices are 1-based")
        has_fact = type(self.fact) is str and self.fact.strip() != ""
        if (self.relevance is Relevance.RELEVANT) != has_fact:
            raise ValueError("a judgment carries a fact iff it is Relevant")


@dataclass(frozen=True)
class CitationList:
    """Strictly increasing, 1-based passage indices cited by the answer."""

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        prev = 0
        for i in self.indices:
            if i <= prev:
                raise ValueError("citation indices must be strictly increasing and positive")
            prev = i

    def render(self) -> str:
        if not self.indices:
            return ""
        return CITE_PREFIX + " " + " ".join(f"[{i}]" for i in self.indices)


class TitledText(Protocol):
    """Anything with a title and a text, e.g. a corpus passage."""

    title: str
    text: str


# ---------------------------------------------------------------------------
# serialization


def first_token(text: str) -> TokenKind | None:
    """The first token, in ``TokenKind`` order, whose surface occurs in text.

    Text without the first character of any surface returns None after one
    pass; only text that has one is searched for each surface in turn.
    """
    for start in _TOKEN_STARTS:
        if start in text:
            break
    else:
        return None
    for token in TokenKind:
        if token.value in text:
            return token
    return None


def text_violation(text: str) -> str | None:
    """Why text may not enter a prompt, or None: it holds a grammar token (the
    first by ``first_token``) or a lone surrogate, which UTF-8 cannot encode.
    The reason is escaped, so it can itself be printed and written."""
    token = first_token(text)
    if token is not None:
        return f"holds the grammar token {token.value}"
    if not text.isascii():  # isascii is O(1); only other text is encoded
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            return f"holds the lone surrogate {ascii(text[exc.start])}"
    return None


def serialize_sections(
    steps: Sequence[TrajectoryStep],
) -> tuple[str, list[tuple[int, int]]]:
    """Serialize a (possibly incomplete) step sequence to the canonical layout.

    Returns the text and, per step, the half-open span of its section from
    the first character of the head token to the last of the end token (the
    newline after the end token is outside it). Order and body cleanliness
    are enforced; a final generator step is not, so this can render the
    prefix of a trajectory still being built. This is the only place a
    section is laid out.
    """
    last_rank = -1
    parts: list[str] = []
    spans: list[tuple[int, int]] = []
    offset = 0
    for i, step in enumerate(steps):
        if step.kind.rank <= last_rank:
            raise TrajectoryInvariantError(
                f"step kinds must be strictly ordered, {step.kind.value} repeats or regresses",
                step_index=i,
            )
        last_rank = step.kind.rank
        token = first_token(step.body)
        if token is not None:
            raise TrajectoryInvariantError(
                f"body of {step.kind.value} step contains the token {token.value}", step_index=i
            )
        section = f"{step.kind.head.value}\n{step.body}\n{step.kind.end.value}\n"
        parts.append(section)
        spans.append((offset, offset + len(section) - 1))
        offset += len(section)
    return "".join(parts), spans


def serialize_steps(steps: Sequence[TrajectoryStep]) -> str:
    """The text of ``serialize_sections``, without the spans."""
    return serialize_sections(steps)[0]


def serialize_trajectory(trajectory: Trajectory) -> str:
    """Serialize a complete trajectory; the generator section is mandatory."""
    if not any(s.kind is StepKind.GENERATOR for s in trajectory.steps):
        raise TrajectoryInvariantError("generator step is mandatory")
    return serialize_steps(trajectory.steps)


def parse_trajectory(text: str) -> Trajectory:
    """Parse a serialized token stream back into steps.

    Bodies are the exact interior text with one leading and one trailing
    newline stripped, so parse is the inverse of serialize. Whitespace
    between sections is tolerated; any other stray text is rejected with
    its offset.
    """
    steps: list[TrajectoryStep] = []
    last_rank = -1
    pos = 0
    n = len(text)
    while True:
        match = _TOKEN_RE.search(text, pos)
        if match is None:
            rest = text[pos:]
            if rest.strip():
                raise TrailingGarbageError(pos + (len(rest) - len(rest.lstrip())))
            break
        gap = text[pos : match.start()]
        if gap.strip():
            raise TrailingGarbageError(pos + (len(gap) - len(gap.lstrip())))
        kind = _KIND_BY_HEAD_SURFACE.get(match.group(0))
        if kind is None:
            # An end token (or the instruction terminator) with no open section.
            raise TrailingGarbageError(match.start())
        if kind.rank <= last_rank:
            raise OrderViolationError(kind, match.start())
        closer = _TOKEN_RE.search(text, match.end())
        if closer is None:
            raise UnclosedHeadError(kind, match.start())
        closing_token = _TOKEN_BY_SURFACE[closer.group(0)]
        if closing_token is not kind.end:
            raise MismatchedEndError(kind.end, closing_token, closer.start())
        interior = text[match.end() : closer.start()]
        if interior.startswith("\n"):
            interior = interior[1:]
        if interior.endswith("\n"):
            interior = interior[:-1]
        steps.append(TrajectoryStep(kind, interior))
        last_rank = kind.rank
        pos = closer.end()
        if pos >= n:
            break
    return Trajectory(tuple(steps))


# ---------------------------------------------------------------------------
# section-body formats


_SEARCH_WRAPPER_RE = re.compile(r"^Search\((.*)\)$", re.DOTALL)


def _unwrap_search(text: str) -> str:
    text = text.strip()
    match = _SEARCH_WRAPPER_RE.match(text)
    if match:
        return match.group(1).strip()
    return text


def parse_intents(body: str) -> IntentSet:
    """Split a reconstruction body into individual search intents.

    Each semicolon-separated item may carry its own ``Search(...)`` wrapper;
    when none does, a single wrapper around the whole body is stripped
    instead, so both ``Search(a; b)`` and ``Search(a); Search(b)`` yield the
    same two intents. Blank items are dropped.
    """
    unwrapped_any = False
    intents: list[str] = []
    for raw in body.split(";"):
        item = raw.strip()
        match = _SEARCH_WRAPPER_RE.match(item)
        if match:
            unwrapped_any = True
            item = match.group(1).strip()
        if item:
            intents.append(item)
    if not unwrapped_any:
        whole = _SEARCH_WRAPPER_RE.match(body.strip())
        if whole:
            intents = []
            for raw in whole.group(1).split(";"):
                item = _unwrap_search(raw)
                if item:
                    intents.append(item)
    if not intents:
        raise EmptyIntentSetError()
    return IntentSet(tuple(intents))


# The fact is the rest of the line, right-stripped: a lazy (.*?)\s*$ backtracks.
_JUDGMENT_RE = re.compile(r"^\s*-?\s*\[(Relevant|Irrelevant)\]\s*:\s*\[(\d+)\]\s*(.*)$")

_IRRELEVANT_ACCEPTED = ("", "Lacking Supporting Facts", IRRELEVANT_PHRASE)


def parse_locator_body(body: str) -> list[LocatorJudgment]:
    """Parse judgment lines of the form ``[Relevant]: [n] fact``.

    Indices must be unique but need not be contiguous. An Irrelevant line
    carries the fixed no-facts phrase (period optional) or nothing at all.
    """
    judgments: list[LocatorJudgment] = []
    seen: set[int] = set()
    for lineno, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        match = _JUDGMENT_RE.match(line)
        if match is None:
            raise LocatorSyntaxError(lineno)
        tag, index_text, rest = match.groups()
        rest = rest.rstrip()
        try:
            index = int(index_text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            message = f"passage index of {len(index_text)} digits is too long"
            raise LocatorSyntaxError(lineno, message) from None
        if index < 1:
            raise LocatorSyntaxError(lineno, "passage indices are 1-based")
        if index in seen:
            raise DuplicateJudgmentError(index)
        seen.add(index)
        if tag == "Relevant":
            if not rest:
                raise LocatorSyntaxError(lineno, "a Relevant judgment must carry a fact")
            judgments.append(LocatorJudgment(index, Relevance.RELEVANT, rest))
        else:
            if rest not in _IRRELEVANT_ACCEPTED:
                raise LocatorSyntaxError(
                    lineno, "an Irrelevant judgment must not carry a fact"
                )
            judgments.append(LocatorJudgment(index, Relevance.IRRELEVANT, None))
    return judgments


def format_judgment(judgment: LocatorJudgment) -> str:
    if judgment.relevance is Relevance.RELEVANT:
        return f"[Relevant]: [{judgment.passage_index}] {judgment.fact}"
    return f"[Irrelevant]: [{judgment.passage_index}] {IRRELEVANT_PHRASE}"


_CITE_TOKEN_RE = re.compile(r"\[(\d+)\]")


def parse_citations(body: str) -> tuple[str, CitationList]:
    """Split a generator body into the answer and its citation list.

    The citation marker may sit on its own final line or inline after the
    answer; everything after the last ``[Cite]:`` must be bracketed indices.
    A body without the marker has no citations.
    """
    pos = body.rfind(CITE_PREFIX)
    if pos == -1:
        return body, CitationList()
    tail = body[pos + len(CITE_PREFIX) :]
    tokens = tail.split()
    if not tokens:
        raise CitationSyntaxError("no indices follow the citation marker")
    indices: list[int] = []
    for token in tokens:
        match = _CITE_TOKEN_RE.fullmatch(token)
        if match is None:
            raise CitationSyntaxError(f"bad citation token {token!r}")
        try:
            indices.append(int(match.group(1)))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            line = body.count("\n", 0, body.index(token, pos)) + 1
            message = f"citation index of {len(token) - 2} digits is too long (line {line})"
            raise CitationSyntaxError(message) from None
    try:
        citations = CitationList(tuple(indices))
    except ValueError as exc:
        raise CitationSyntaxError(str(exc)) from exc
    return body[:pos].rstrip(), citations


def retrieval_body(passages: Sequence[TitledText]) -> str:
    """Render the interior of a retrieval section: one numbered entry per passage."""
    return "\n".join(
        f"[{i}] {p.title} -{p.text}" for i, p in enumerate(passages, start=1)
    )


def render_retrieval_block(passages: Sequence[TitledText]) -> str:
    """Render a full retrieval section, head and end tokens included."""
    if not passages:
        raise EmptyRetrievalError()
    return serialize_steps([TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages))])


_RETRIEVAL_ENTRY_RE = re.compile(r"^\[(\d+)\] (.*?) -(.*)$")


def parse_retrieval_body(body: str) -> list[tuple[str, str]]:
    """Recover (title, text) pairs from a retrieval section interior.

    Entries are the body's ``\n``-separated lines, as ``retrieval_body``
    joins them (a passage text may hold a form feed or U+2028), numbered
    1..n in order. Titles containing the literal separator `` -`` will not
    survive the split; corpus titles are whitespace-normalized single lines
    and do not use it.
    """
    if not body:
        raise EmptyRetrievalError()
    entries: list[tuple[str, str]] = []
    for lineno, line in enumerate(body.split("\n"), start=1):
        match = _RETRIEVAL_ENTRY_RE.match(line)
        if match is None:
            raise RetrievalSyntaxError(lineno)
        try:
            number = int(match.group(1))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            message = f"entry number of {len(match.group(1))} digits is too long"
            raise RetrievalSyntaxError(lineno, message) from None
        if number != len(entries) + 1:
            raise RetrievalSyntaxError(lineno, f"entry numbered {number}, expected {len(entries) + 1}")
        entries.append((match.group(2), match.group(3)))
    return entries


# ---------------------------------------------------------------------------
# instruction framing


def render_instruction(instruction: str) -> str:
    """Frame an instruction for the start of a prompt or training input."""
    return f"{instruction}{TokenKind.INSTRUCTION_END.value}\n"
