"""Training-example construction with character-level loss masks.

``build_example`` cuts every kind of example from one trajectory per
record: the critic's intents, the passages retrieved for them, the critic's
judgment of each, and the gold answer citing the Relevant ones. A long
example is the whole four-section trajectory; its loss spans cover the
reconstruction, location, and generation sections (head through end token)
while the retrieval block stays unsupervised. A short example is one stage
cut from it: its input replays the stage's inference prompt over the
sections that stage reads, and its whole output is supervised.

Relevance judgments and search intents come from a critic. The rule-based
critic is a deterministic oracle (the instruction is the intent; a passage
is relevant iff it contains the gold answer, the containing sentence being
the fact); the HTTP critic delegates both calls to a chat-completion
service. Either way, every extracted fact must literally appear in its
passage or the build fails.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from .backends import BackendConfig, chat_completion
from .corpus import CorpusIndex, Passage, retrieve_multi
from .grammar import (
    CITE_PREFIX,
    CitationList,
    GrammarError,
    IntentSet,
    LocatorJudgment,
    Relevance,
    StepKind,
    TokenKind,
    TrajectoryStep,
    format_judgment,
    parse_citations,
    parse_intents,
    parse_locator_body,
    parse_retrieval_body,
    parse_trajectory,
    render_instruction,
    retrieval_body,
    serialize_sections,
    surrogate_violation,
    text_violation,
)
from .fileio import atomic_path, drawn_ahead, json_line, read_jsonl, typed_field
from .orchestrator import build_step_prompt, section_violations

__all__ = [
    "DatasetError",
    "TaskTag",
    "RawExample",
    "ExampleKind",
    "TrainingExample",
    "Critic",
    "RuleBasedCritic",
    "HttpCritic",
    "DatasetManifest",
    "normalize_dialogue",
    "build_example",
    "build_long_example",
    "check_training_example",
    "check_example_dict",
    "emit_dataset",
    "read_raw_examples",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


class DatasetError(Exception):
    pass


class TaskTag(Enum):
    FACT_VERIFICATION = "fact-verification"
    DIALOGUE = "dialogue"
    OPEN_QA = "open-qa"
    COMMONSENSE = "commonsense"
    GENERAL = "general"


@dataclass(frozen=True)
class RawExample:
    """One source record: instruction x, gold answer y, optional dialogue turns."""

    task: TaskTag
    x: str
    y: str
    history: tuple[tuple[str, str], ...] | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.history is not None:
            object.__setattr__(self, "history", tuple(tuple(turn) for turn in self.history))
        turns = [("history", text) for turn in self.history or () for text in turn]
        for name, text in [("x", self.x), ("y", self.y), *turns, ("source", self.source)]:
            if type(text) is not str:
                raise TypeError(f"{name} must be str, not {type(text).__name__}")
            problem = text_violation(text)
            if problem is not None:
                raise ValueError(f"{name} {problem}")
        if not self.y.strip():
            raise ValueError("gold answer must be non-empty")
        # The answer opens the generator section, where the last marker starts the citations.
        if CITE_PREFIX in self.y:
            raise ValueError(f"y holds the citation marker {CITE_PREFIX}")
        if self.task is not TaskTag.DIALOGUE:
            if not self.x.strip():
                raise ValueError("instruction must be non-empty")
            if self.history is not None:
                raise ValueError("history is only meaningful for dialogue records")
        elif not self.history and not self.x.strip():
            raise ValueError("a dialogue record needs history or a current question")


def normalize_dialogue(raw: RawExample) -> RawExample:
    """Flatten dialogue history into the instruction.

    Prior turns become alternating question and ``-answer`` lines, followed
    by the current question; the gold answer stays the final-turn answer.
    """
    if raw.task is not TaskTag.DIALOGUE:
        raise ValueError("only dialogue records need flattening")
    turns = "".join(f"{q}\n-{a}\n" for q, a in raw.history or ())
    return replace(raw, x=turns + raw.x, history=None)


# ---------------------------------------------------------------------------
# critics


class Critic(Protocol):
    def propose_intents(self, x: str, task: TaskTag) -> IntentSet: ...

    def judge_passage(self, x: str, y: str, passage: Passage, index: int) -> LocatorJudgment: ...


def _collapse(text: str) -> str:
    return " ".join(text.split())


_SENTENCE_BREAK_RE = re.compile(r"(?<=[.?!])\s+")


def _containing_sentence(text: str, position: int) -> str:
    start = 0
    for match in _SENTENCE_BREAK_RE.finditer(text):
        if position < match.start():
            return text[start : match.start()]
        start = match.end()
    return text[start:]


class RuleBasedCritic:
    """Deterministic critic for tests and offline builds.

    The whitespace-collapsed instruction is the single search intent
    (semicolons replaced so the intent list round-trips). A passage is
    Relevant iff the gold answer occurs in it case-insensitively, and the
    extracted fact is the sentence containing the first occurrence.
    """

    def propose_intents(self, x: str, task: TaskTag) -> IntentSet:
        intent = _collapse(x).replace(";", ",")
        if not intent:
            raise GrammarError("instruction collapses to nothing")
        return IntentSet((intent,))

    def judge_passage(self, x: str, y: str, passage: Passage, index: int) -> LocatorJudgment:
        text = _collapse(passage.text)
        needle = _collapse(y).casefold()
        position = text.casefold().find(needle) if needle else -1
        if position == -1:
            return LocatorJudgment(index, Relevance.IRRELEVANT, None)
        fact = _containing_sentence(text, position).strip()
        return LocatorJudgment(index, Relevance.RELEVANT, fact)


_RATING_RE = re.compile(r"\[(Relevant|Irrelevant)\]")


class HttpCritic:
    """Critic that asks a chat-completion service for intents and judgments.

    Like ``HttpBackend``, it sends each request through ``chat_completion``,
    which opens one connection per attempt, and ``sleep`` waits out the
    backoff between attempts.
    """

    INTENT_PROMPT = (
        "Decompose the instruction below into the web search queries needed to "
        "answer it. Reply with a single line of the form "
        "Search Intent: query one; query two\n\nInstruction: {x}\n"
    )
    JUDGE_PROMPT = (
        "Decide whether the passage supports the expected answer to the "
        "instruction. Reply with a line Rating: [Relevant] or Rating: "
        "[Irrelevant]. If relevant, add a line Extracted span: followed by the "
        "exact sentence from the passage that supports the answer.\n\n"
        "Instruction: {x}\nExpected answer: {y}\nPassage: {p}\n"
    )

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep) -> None:
        self._config = config
        self._sleep = sleep

    def _ask(self, prompt: str) -> str:
        content, _reason = chat_completion(self._config, prompt, sleep=self._sleep)
        return content

    def propose_intents(self, x: str, task: TaskTag) -> IntentSet:
        content = self._ask(self.INTENT_PROMPT.format(x=x))
        for line in content.split("\n"):
            if line.strip().startswith("Search Intent:"):
                return parse_intents(line.split(":", 1)[1])
        raise DatasetError("no Search Intent line in critic reply")

    def judge_passage(self, x: str, y: str, passage: Passage, index: int) -> LocatorJudgment:
        prompt = self.JUDGE_PROMPT.format(x=x, y=y, p=f"{passage.title} -{passage.text}")
        content = self._ask(prompt)
        rating = _RATING_RE.search(content)
        if rating is None:
            raise DatasetError("no Rating in critic reply")
        if rating.group(1) == "Irrelevant":
            return LocatorJudgment(index, Relevance.IRRELEVANT, None)
        for line in content.split("\n"):
            if line.strip().startswith("Extracted span:"):
                span = line.split(":", 1)[1].strip()
                if span:
                    return LocatorJudgment(index, Relevance.RELEVANT, span)
        raise DatasetError("Relevant rating without an extracted span")


# ---------------------------------------------------------------------------
# training examples


class ExampleKind(Enum):
    """``.value`` is the kind's name; ``sections`` lists, in stage order, the
    trajectory sections an example of the kind holds. A long example's
    output is all four; a short one's output is the last section's body,
    and its input is that stage's prompt over the sections before it."""

    LONG = ("long", tuple(StepKind))
    SHORT_INTENT = ("short-intent", (StepKind.RECONSTRUCTOR,))
    SHORT_LOCATOR = ("short-locator", (StepKind.RETRIEVAL, StepKind.LOCATOR))
    SHORT_GENERATOR_PLAIN = ("short-generator-plain", (StepKind.GENERATOR,))
    SHORT_GENERATOR_FACTS = ("short-generator-facts", (StepKind.LOCATOR, StepKind.GENERATOR))

    def __new__(cls, value: str, sections: tuple[StepKind, ...]) -> "ExampleKind":
        member = object.__new__(cls)
        member._value_ = value
        member.sections = sections
        return member

    @property
    def needs_index(self) -> bool:
        """Whether building this kind retrieves passages from a corpus index:
        it holds their retrieval section or the judgments of them."""
        return StepKind.RETRIEVAL in self.sections or StepKind.LOCATOR in self.sections


@dataclass(frozen=True)
class TrainingExample:
    """Input/output pair with half-open [start, end) loss spans over the output."""

    kind: ExampleKind
    input: str
    output: str
    loss_spans: tuple[tuple[int, int], ...]
    source: str = ""

    def __post_init__(self) -> None:
        if type(self.source) is not str:
            raise ValueError(f"source must be str, not {type(self.source).__name__}")
        object.__setattr__(self, "loss_spans", tuple((a, b) for a, b in self.loss_spans))
        previous_end = 0
        for start, end in self.loss_spans:
            for bound in (start, end):
                if type(bound) is not int:
                    raise ValueError(f"loss span bounds must be int, not {type(bound).__name__}")
            if start < previous_end or end <= start or end > len(self.output):
                raise ValueError("loss spans must be sorted, disjoint, and in bounds")
            previous_end = end


def _judge_all(
    x: str, y: str, passages: Sequence[Passage], critic: Critic
) -> list[LocatorJudgment]:
    judgments = []
    for position, passage in enumerate(passages, start=1):
        judgment = critic.judge_passage(x, y, passage, position)
        if judgment.passage_index != position:
            judgment = replace(judgment, passage_index=position)
        if judgment.relevance is Relevance.RELEVANT:
            assert judgment.fact is not None
            if _collapse(judgment.fact) not in _collapse(passage.text):
                raise DatasetError(
                    f"extracted fact for passage {position} does not appear in the passage"
                )
        judgments.append(judgment)
    return judgments


def _intent_body(intents: IntentSet) -> str:
    return f"Search({'; '.join(intents.intents)})"


def _locator_body(judgments: Sequence[LocatorJudgment]) -> str:
    return "\n".join(format_judgment(j) for j in judgments)


def _generator_body(y: str, relevant_indices: Sequence[int]) -> str:
    if not relevant_indices:
        return y
    return f"{y}\n{CitationList(tuple(relevant_indices)).render()}"


def _cut(
    kind: ExampleKind, instruction: str, steps: Sequence[TrajectoryStep]
) -> tuple[str, str, tuple[tuple[int, int], ...]]:
    """The input, output and loss spans of a ``kind`` example made of these
    sections. A long output is all of them, supervised but for the retrieval
    block; a short one is the last section's body and end token, all
    supervised, prompted by the sections before it."""
    if kind is ExampleKind.LONG:
        output, spans = serialize_sections(steps)
        kept = (span for step, span in zip(steps, spans) if step.kind is not StepKind.RETRIEVAL)
        return render_instruction(instruction), output, tuple(kept)
    *prior, last = steps
    output = last.body + last.kind.end.value
    return build_step_prompt(instruction, prior, last.kind), output, ((0, len(output)),)


def build_example(
    kind: ExampleKind,
    raw: RawExample,
    critic: Critic,
    index: CorpusIndex | None = None,
    k: int = 3,
) -> TrainingExample:
    """Build one example of any kind, cut from the record's long trajectory.

    The critic proposes the intents, the top k passages per intent are
    retrieved and the critic judges each one; every Relevant judgment
    passes the fact-containment check; an intent that ``text_violation``
    rejects is a DatasetError, and a passage that spans lines (only
    an index built in code can hold one) a MultilinePassageError. A long
    example is the whole trajectory; a short one is one stage's section,
    prompted by the sections it reads. Each kind runs only as much of the
    trajectory as it cuts from, so ``short-generator-plain`` asks the
    critic nothing.
    """
    if kind.needs_index and index is None:
        raise ValueError(f"{kind.value} examples need an index")
    if raw.history is not None:
        raw = normalize_dialogue(raw)
    steps: list[TrajectoryStep] = []
    relevant: list[int] = []
    if kind.needs_index or StepKind.RECONSTRUCTOR in kind.sections:
        intents = critic.propose_intents(raw.x, raw.task)
        for intent in intents.intents:
            if (problem := text_violation(intent)) is not None:
                raise DatasetError(f"the critic's intent {ascii(intent)} {problem}")
        steps.append(TrajectoryStep(StepKind.RECONSTRUCTOR, _intent_body(intents)))
    if kind.needs_index:
        passages = retrieve_multi(index, intents, k)
        fact_conditioned = kind is ExampleKind.SHORT_GENERATOR_FACTS
        if not passages and not fact_conditioned:
            raise GrammarError("a retrieval block must contain at least one passage")
        body = retrieval_body(passages) if passages else ""
        judgments = _judge_all(raw.x, raw.y, passages, critic)
        relevant = [j.passage_index for j in judgments if j.relevance is Relevance.RELEVANT]
        if fact_conditioned and not relevant:
            raise DatasetError("a fact-conditioned example needs at least one Relevant judgment")
        steps.append(TrajectoryStep(StepKind.RETRIEVAL, body))
        steps.append(TrajectoryStep(StepKind.LOCATOR, _locator_body(judgments)))
    steps.append(TrajectoryStep(StepKind.GENERATOR, _generator_body(raw.y, relevant)))
    cut = _cut(kind, raw.x, [step for step in steps if step.kind in kind.sections])
    return TrainingExample(kind, *cut, source=raw.source or raw.task.value)


def build_long_example(
    raw: RawExample, critic: Critic, index: CorpusIndex, k: int = 3
) -> TrainingExample:
    """``build_example`` of kind long: supervision skips the retrieval block."""
    return build_example(ExampleKind.LONG, raw, critic, index, k)


# ---------------------------------------------------------------------------
# validation


# How each section's body is read; a body that is not raises GrammarError.
_BODY_PARSERS = {
    StepKind.RECONSTRUCTOR: parse_intents,
    StepKind.RETRIEVAL: parse_retrieval_body,
    StepKind.LOCATOR: parse_locator_body,
    StepKind.GENERATOR: parse_citations,
}


def check_training_example(example: TrainingExample) -> list[str]:
    """Return every contract violation in a built example (empty means clean).

    An example is read back as the trajectory it was cut from: its input
    after the instruction terminator, then its output, a short output's end
    token on a line of its own. That text must parse into exactly the
    kind's sections and cut back to the same input, output and loss spans,
    and its sections must keep the rules a trace keeps
    (``section_violations``), over as many passages as the retrieval
    section lists, or the locator judges when there is none.
    """
    terminator = TokenKind.INSTRUCTION_END.value
    count = example.input.count(terminator)
    if count > 1:
        return [f"input holds {count} instruction terminators, not one"]
    long = example.kind is ExampleKind.LONG
    side = "long" if long else "short"
    head, end = example.kind.sections[-1].head.value, example.kind.sections[-1].end.value
    instruction, framed, text = example.input.partition(f"{terminator}\n")
    problems: list[str] = []
    if not framed:
        problems.append(f"{side} input lacks the instruction terminator")
    if not long and not example.input.endswith(f"{head}\n"):
        problems.append(f"short input must end with the {head} head")
    if not long and not example.output.endswith(end):
        problems.append(f"short output must end with {end}")
    if problems:
        return problems
    text += example.output if long else f"{example.output[: -len(end)]}\n{end}\n"
    try:
        steps = parse_trajectory(text).steps
        kinds = tuple(step.kind for step in steps)
        cut = _cut(example.kind, instruction, steps) if kinds == example.kind.sections else None
    except GrammarError:
        cut = None
    if cut is None or cut[:2] != (example.input, example.output):
        what = "output" if long else "example"
        shape = "four-section" if long else "-".join(s.value for s in example.kind.sections)
        return [
            f"{side} {what} is not a canonical {shape} trajectory"
            " (re-serializing its parse differs)"
        ]
    if cut[2] != example.loss_spans:
        problems.append(
            "loss spans do not match the supervised sections"
            if long else "short example must supervise its whole output"
        )
    parsed = {}
    for step in steps:
        try:
            parsed[step.kind] = _BODY_PARSERS[step.kind](step.body)
        except GrammarError as exc:
            problems.append(f"the {step.kind.value} section does not parse: {exc}")
    if len(parsed) < len(steps):
        return problems
    judgments = parsed.get(StepKind.LOCATOR, ())
    passage_count = len(parsed.get(StepKind.RETRIEVAL, judgments))
    _, citations = parsed.get(StepKind.GENERATOR, ("", CitationList()))
    problems.extend(map(str, section_violations(passage_count, judgments, citations)))
    return problems


def check_example_dict(record: dict) -> list[str]:
    """Every contract violation in one dataset row (empty means clean).

    A row that holds no example raises KeyError, TypeError or ValueError,
    which ``read_jsonl`` reports with its line; so does a lone surrogate.
    """
    example = TrainingExample(
        kind=ExampleKind(record["kind"]),
        input=typed_field(record, "input"),
        output=typed_field(record, "output"),
        loss_spans=typed_field(record, "loss_spans", list),
        source=record.get("source", ""),
    )
    for name in ("input", "output", "source"):
        if (problem := surrogate_violation(getattr(example, name))) is not None:
            raise ValueError(f"{name!r} {problem}")
    return check_training_example(example)


# ---------------------------------------------------------------------------
# emission


@dataclass(frozen=True)
class DatasetManifest:
    schema_version: int
    total: int
    counts_by_kind: dict[str, int] = field(default_factory=dict)
    counts_by_source: dict[str, int] = field(default_factory=dict)
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "total": self.total,
            "counts_by_kind": dict(sorted(self.counts_by_kind.items())),
            "counts_by_source": dict(sorted(self.counts_by_source.items())),
            "config_fingerprint": self.config_fingerprint,
        }


def emit_dataset(
    examples: Iterable[TrainingExample],
    path: str | Path,
    *,
    config_fingerprint: str = "",
) -> DatasetManifest:
    """Write examples atomically as JSONL (deterministic bytes); return the manifest."""
    by_kind: dict[str, int] = {}
    by_source: dict[str, int] = {}
    with atomic_path(path) as temp, open(temp, "w", encoding="utf-8") as handle:
        for example in drawn_ahead(examples):
            record = {
                "kind": example.kind.value,
                "input": example.input,
                "output": example.output,
                "loss_spans": [[a, b] for a, b in example.loss_spans],
                "source": example.source,
            }
            handle.write(json_line(record))
            by_kind[example.kind.value] = by_kind.get(example.kind.value, 0) + 1
            by_source[example.source] = by_source.get(example.source, 0) + 1
    return DatasetManifest(
        schema_version=SCHEMA_VERSION,
        total=sum(by_kind.values()),
        counts_by_kind=by_kind,
        counts_by_source=by_source,
        config_fingerprint=config_fingerprint,
    )


def read_raw_examples(path: str | Path, default_task: TaskTag | None = None) -> list[RawExample]:
    """Read raw records from JSONL; rows may omit "task" when a default is given."""

    def parse(record: dict) -> RawExample:
        task = TaskTag(record["task"]) if "task" in record else default_task
        if task is None:
            raise KeyError("task")
        history = [] if record.get("history") is None else record["history"]
        if type(history) is not list or any(type(t) is not list or len(t) != 2 for t in history):
            raise ValueError("'history' must be a list of [question, answer] pairs")
        return RawExample(
            task=task,
            x=record["x"],
            y=record["y"],
            history=history or None,
            source=record.get("source", ""),
        )

    return [raw for _, raw in read_jsonl(path, parse, "raw record", DatasetError)]
