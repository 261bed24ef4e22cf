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

A retrieval body is read by one ``str.find`` walk per line, which also
names each fault. The trajectory and locator readers keep one shortcut
each, picked from the input in front of their one general reader, because
the general reader's work is known in advance there: a section whose first
``<`` after the head starts its own end token is cut at once (else the
token search reads it), and the canonical Irrelevant line of an index up to
a bound maps to one shared, frozen judgment (else the regex reads it).
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
    "MultilinePassageError",
    "first_token",
    "text_violation",
    "surrogate_violation",
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
    ``head`` and ``end`` and their surfaces ``head_surface`` and
    ``end_surface`` are plain attributes, set once per member: Enum's
    ``value`` is a Python-level property, some 20 times slower to read.
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
        member.head_surface = head.value
        member.end_surface = end.value
        return member


# Keyed by surface: a str hash is cached, an Enum's is a Python-level call.
_KIND_BY_HEAD_SURFACE = {kind.head_surface: kind for kind in StepKind}

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
    """Base class for every trajectory-grammar rejection. One that
    ``parse_trajectory`` raises carries the ``offset`` in the text where the
    problem sits; any other carries None."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message)
        self.offset = offset


class MultilinePassageError(GrammarError):
    def __init__(self) -> None:
        super().__init__("a passage spans more than one line")


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
            raise GrammarError("no search intents remain after parsing")
        for item in self.intents:
            if not item.strip():
                raise GrammarError("an intent is blank after trimming")

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
    pass. Only text that has one is read again, by one token search that
    lists every surface it holds: each surface starts with its only ``<``
    and ends with its only ``>``, so no two occurrences overlap and none is
    missed.
    """
    for start in _TOKEN_STARTS:
        if start in text:
            break
    else:
        return None
    found = set(_TOKEN_RE.findall(text))
    for surface, token in _TOKEN_BY_SURFACE.items():
        if surface in found:
            return token
    return None


def text_violation(text: str) -> str | None:
    """Why text may not enter a prompt, or None: it holds a grammar token (the
    first by ``first_token``) or a lone surrogate, which UTF-8 cannot encode.
    The reason is escaped, so it can itself be printed and written."""
    token = first_token(text)
    if token is not None:
        return f"holds the grammar token {token.value}"
    return surrogate_violation(text)


def surrogate_violation(text: str) -> str | None:
    """Why UTF-8 cannot encode text (the first lone surrogate it holds), or None."""
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
            raise GrammarError(
                f"step kinds must be strictly ordered, {step.kind.value} repeats or regresses"
                f" (step {i})"
            )
        last_rank = step.kind.rank
        token = first_token(step.body)
        if token is not None:
            raise GrammarError(
                f"body of {step.kind.value} step contains the token {token.value} (step {i})"
            )
        section = f"{step.kind.head_surface}\n{step.body}\n{step.kind.end_surface}\n"
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
        raise GrammarError("generator step is mandatory")
    return serialize_steps(trajectory.steps)


def parse_trajectory(text: str) -> Trajectory:
    """Parse a serialized token stream back into steps.

    Bodies are the exact interior text with one leading and one trailing
    newline stripped, so parse is the inverse of serialize. Whitespace
    between sections is tolerated; any other stray text is rejected with
    its offset.

    After each head, one ``str.find`` looks for the next ``<``. Every token
    starts with one, and none is a prefix of another, so when the kind's
    own end token starts there, it is the first token after the head and
    the interior is taken at once. Any other section (a ``<`` in its body,
    a missing or wrong closer) is read by ``_closer``, the token search
    that names the fault.
    """
    steps: list[TrajectoryStep] = []
    last_rank = -1
    pos = 0
    n = len(text)
    while True:
        match = _TOKEN_RE.search(text, pos)
        gap = text[pos : n if match is None else match.start()]
        if gap.strip():
            at = pos + len(gap) - len(gap.lstrip())
            raise GrammarError(f"unexpected text outside any section at offset {at}", at)
        if match is None:
            break
        at = match.start()
        kind = _KIND_BY_HEAD_SURFACE.get(match.group(0))
        if kind is None:
            # An end token (or the instruction terminator) with no open section.
            raise GrammarError(f"unexpected text outside any section at offset {at}", at)
        end_surface = kind.end_surface
        if kind.rank <= last_rank:
            raise GrammarError(f"{kind.head_surface} at offset {at} breaks the section order", at)
        start = match.end()
        close = text.find("<", start)
        if close == -1 or not text.startswith(end_surface, close):
            close = _closer(text, kind, at, start)
        # Trim the bounds, then slice once: a body may be kilobytes long.
        pos = close + len(end_surface)
        if text.startswith("\n", start, close):
            start += 1
        if text.endswith("\n", start, close):
            close -= 1
        steps.append(TrajectoryStep(kind, text[start:close]))
        last_rank = kind.rank
        if pos >= n:
            break
    return Trajectory(tuple(steps))


def _closer(text: str, kind: StepKind, at: int, start: int) -> int:
    """Where the section of ``kind`` whose head sits at ``at`` and ends at
    ``start`` is closed: the first token after its head, which must be the
    kind's end token, or a GrammarError naming what is there instead."""
    closer = _TOKEN_RE.search(text, start)
    if closer is None:
        raise GrammarError(f"{kind.head_surface} at offset {at} is never closed", at)
    closing_token = _TOKEN_BY_SURFACE[closer.group(0)]
    if closing_token is not kind.end:
        at = closer.start()
        message = f"expected {kind.end_surface} but found {closing_token.value} at offset {at}"
        raise GrammarError(message, at)
    return closer.start()


# ---------------------------------------------------------------------------
# section-body formats


_SEARCH_WRAPPER_RE = re.compile(r"^Search\((.*)\)$", re.DOTALL)


def parse_intents(body: str) -> IntentSet:
    """Split a reconstruction body into individual search intents.

    Each semicolon-separated item may carry its own ``Search(...)`` wrapper;
    when none does, a single wrapper around the whole body is stripped
    instead, so both ``Search(a; b)`` and ``Search(a); Search(b)`` yield the
    same two intents. Blank items are dropped.
    """
    items: list[str] = []
    wrapped = False
    for raw in body.split(";"):
        item = raw.strip()
        if match := _SEARCH_WRAPPER_RE.match(item):
            wrapped = True
            item = match.group(1).strip()
        items.append(item)
    if not wrapped and (whole := _SEARCH_WRAPPER_RE.match(body.strip())):
        # No item inside the wrapper carries one either: had the first or
        # last, the body's first or last item would itself be wrapped.
        items = [raw.strip() for raw in whole.group(1).split(";")]
    return IntentSet(tuple(filter(None, items)))


# The fact is the rest of the line, right-stripped: a lazy (.*?)\s*$ backtracks.
_JUDGMENT_RE = re.compile(r"^\s*-?\s*\[(Relevant|Irrelevant)\]\s*:\s*\[(\d+)\]\s*(.*)$")

_IRRELEVANT_ACCEPTED = ("", "Lacking Supporting Facts", IRRELEVANT_PHRASE)


def parse_locator_body(body: str) -> list[LocatorJudgment]:
    """Parse judgment lines of the form ``[Relevant]: [n] fact``.

    Lines are separated by ``\n`` alone, as in a retrieval body, so a fact
    may hold a form feed or U+2028. Indices must be unique but need not be
    contiguous. An Irrelevant line carries the fixed no-facts phrase (period
    optional) or nothing at all.

    Most lines are ``format_judgment``'s Irrelevant line for an index up to
    ``_SHARED_IRRELEVANT_BOUND``. One dict lookup turns such a line into a
    judgment built at import and shared by every parse, which is safe
    because a judgment is frozen. Every other line goes through the regex,
    which names any fault.
    """
    judgments: list[LocatorJudgment] = []
    seen: set[int] = set()
    for lineno, line in enumerate(body.split("\n"), start=1):
        judgment = _SHARED_IRRELEVANT.get(line)
        if judgment is not None:
            index = judgment.passage_index
        else:
            if not line.strip():
                continue
            match = _JUDGMENT_RE.match(line)
            if match is None:
                raise GrammarError(f"malformed judgment line (line {lineno})")
            tag, index_text, rest = match.groups()
            rest = rest.rstrip()
            try:
                index = int(index_text)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                message = f"passage index of {len(index_text)} digits is too long (line {lineno})"
                raise GrammarError(message) from None
            if index < 1:
                raise GrammarError(f"passage indices are 1-based (line {lineno})")
        if index in seen:
            raise GrammarError(f"passage index {index} judged more than once")
        seen.add(index)
        if judgment is None:
            if tag == "Relevant":
                if not rest:
                    raise GrammarError(f"a Relevant judgment must carry a fact (line {lineno})")
                judgment = LocatorJudgment(index, Relevance.RELEVANT, rest)
            else:
                if rest not in _IRRELEVANT_ACCEPTED:
                    message = f"an Irrelevant judgment must not carry a fact (line {lineno})"
                    raise GrammarError(message)
                judgment = LocatorJudgment(index, Relevance.IRRELEVANT, None)
        judgments.append(judgment)
    return judgments


def format_judgment(judgment: LocatorJudgment) -> str:
    if judgment.relevance is Relevance.RELEVANT:
        return f"[Relevant]: [{judgment.passage_index}] {judgment.fact}"
    return f"[Irrelevant]: [{judgment.passage_index}] {IRRELEVANT_PHRASE}"


# The canonical Irrelevant judgment of each index up to the bound, keyed by
# its ``format_judgment`` line. Built once, it never grows.
_SHARED_IRRELEVANT_BOUND = 64
_SHARED_IRRELEVANT = {
    format_judgment(judgment): judgment
    for judgment in (
        LocatorJudgment(index, Relevance.IRRELEVANT)
        for index in range(1, _SHARED_IRRELEVANT_BOUND + 1)
    )
}


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
        raise GrammarError("no indices follow the citation marker")
    indices: list[int] = []
    for token in tokens:
        match = _CITE_TOKEN_RE.fullmatch(token)
        if match is None:
            raise GrammarError(f"bad citation token {token!r}")
        try:
            indices.append(int(match.group(1)))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            line = body.count("\n", 0, body.index(token, pos)) + 1
            message = f"citation index of {len(token) - 2} digits is too long (line {line})"
            raise GrammarError(message) from None
    try:
        citations = CitationList(tuple(indices))
    except ValueError as exc:
        raise GrammarError(str(exc)) from exc
    return body[:pos].rstrip(), citations


def retrieval_body(passages: Sequence[TitledText]) -> str:
    """Render the interior of a retrieval section: one numbered line per passage.

    A title or text holding a line break, which no reader could split back
    out, raises MultilinePassageError.
    """
    body = "\n".join(
        f"[{i}] {p.title} -{p.text}" for i, p in enumerate(passages, start=1)
    )
    if body.count("\n") != len(passages) - 1:
        raise MultilinePassageError()
    return body


def render_retrieval_block(passages: Sequence[TitledText]) -> str:
    """Render a full retrieval section, head and end tokens included."""
    if not passages:
        raise GrammarError("a retrieval block must contain at least one passage")
    return serialize_steps([TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages))])


def parse_retrieval_body(body: str) -> list[tuple[str, str]]:
    """Recover (title, text) pairs from a retrieval section interior.

    Entries are the body's ``\n``-separated lines, as ``retrieval_body``
    joins them (a passage text may hold a form feed or U+2028), numbered
    1..n in order. Titles containing the literal separator `` -`` will not
    survive the split; corpus titles are whitespace-normalized single lines
    and do not use it.

    One ``str.find`` walk reads each line as ``[n] title -text`` and names
    its fault itself: the number is a run of decimal digits (so ``[01]`` and
    Arabic-Indic digits read), and the title ends at the first `` -``. Line
    i written ``[i] ``, as ``retrieval_body`` writes it, needs no digit
    check; any other is judged malformed, too long or misnumbered, in that
    order.
    """
    if not body:
        raise GrammarError("a retrieval block must contain at least one passage")
    entries: list[tuple[str, str]] = []
    start = 0
    while True:
        end = body.find("\n", start)
        stop = len(body) if end == -1 else end
        lineno = len(entries) + 1
        digits = None
        if body.startswith(prefix := f"[{lineno}] ", start, stop):
            title = start + len(prefix)
        else:
            close = body.find("] ", start, stop)
            digits = body[start + 1 : close]
            if close == -1 or not body.startswith("[", start) or not digits.isdecimal():
                close = stop  # a malformed head: no separator is looked for
            title = close + 2
        cut = body.find(" -", title, stop)
        if cut == -1:
            raise GrammarError(f"malformed retrieval entry (line {lineno})")
        if digits is not None:
            try:
                number = int(digits)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                message = f"entry number of {len(digits)} digits is too long (line {lineno})"
                raise GrammarError(message) from None
            if number != lineno:
                raise GrammarError(f"entry numbered {number}, expected {lineno} (line {lineno})")
        entries.append((body[title:cut], body[cut + 2 : stop]))
        if end == -1:
            return entries
        start = end + 1


# ---------------------------------------------------------------------------
# instruction framing


def render_instruction(instruction: str) -> str:
    """Frame an instruction for the start of a prompt or training input."""
    return f"{instruction}{TokenKind.INSTRUCTION_END.value}\n"
