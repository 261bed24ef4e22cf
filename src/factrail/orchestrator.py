"""Pipeline driver: staged inference over a corpus index and a backend.

One inference runs up to four stages. The backend proposes search intents,
a deterministic tool step retrieves passages, the backend judges each
passage, and the backend writes the answer. The answer prompt includes the
judged facts exactly when at least one passage was judged Relevant;
otherwise the generator sees the instruction alone and cites nothing.
Prompts grow cumulatively, each one a prefix of the next, and the orchestrator
itself inserts every section head so the token skeleton is never left to the
model. A backend's reply body holds no section token: the backend cuts the
reply at its first one, and a reply whose ``terminated_by`` names a head the
model wrote early is flagged ``head_mismatch:<stage>``.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from .backends import (
    LENGTH_LIMIT_MARKER,
    AgentRequest,
    Backend,
    BackendError,
    HEAD_TOKEN_SURFACES,
    prompt_text,
)
from .corpus import CorpusIndex, EmptyQueryError, Passage, retrieve_multi
from .fileio import atomic_path, drawn_ahead, json_line, read_jsonl, string_list, typed_field
from .grammar import (
    CitationList,
    GrammarError,
    IntentSet,
    LocatorJudgment,
    MultilinePassageError,
    Relevance,
    StepKind,
    Trajectory,
    TrajectoryStep,
    parse_citations,
    parse_intents,
    parse_locator_body,
    render_instruction,
    retrieval_body,
    serialize_steps,
    serialize_trajectory,
    parse_trajectory,
    surrogate_violation,
    text_violation,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "InferenceConfig",
    "StepRecord",
    "InferenceTrace",
    "TraceViolation",
    "PipelineError",
    "TraceFormatError",
    "build_step_prompt",
    "stops_for",
    "run_inference",
    "section_violations",
    "validate_trace",
    "iter_batch",
    "run_batch",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces",
    "iter_traces",
    "read_traces",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class InferenceConfig:
    k: int = 3
    max_intents: int = 4
    max_passages: int = 12

    def __post_init__(self) -> None:
        for name in ("k", "max_intents", "max_passages"):
            typed_field(vars(self), name, int)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_intents < 1:
            raise ValueError("max_intents must be at least 1")
        if self.max_passages < self.k:
            raise ValueError("max_passages must be at least k")


@dataclass(frozen=True)
class StepRecord:
    """How long one stage took and what it was shown, which its section does
    not hold. ``prior`` is the tuple of the trace's own sections the stage
    saw, ``None`` for the retrieval tool step, which has no prompt."""

    kind: StepKind
    duration_s: float
    instruction: str
    prior: tuple[TrajectoryStep, ...] | None

    @property
    def prompt(self) -> str | None:
        """The exact prompt the stage was sent, rebuilt on each access: a
        kept copy of every prompt would outweigh the trace itself."""
        if self.prior is None:
            return None
        return build_step_prompt(self.instruction, self.prior, self.kind)


@dataclass(frozen=True)
class TraceViolation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class _cached(Generic[T]):
    """``functools.cached_property`` without the lock that Python 3.11 takes
    on every first access (3.12 dropped it): the value goes into the
    instance's ``__dict__``, which later reads find first. Threads that
    read one trace at once at worst parse a section twice into equal values."""

    def __init__(self, func: Callable[[Any], T]) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, instance: Any, owner: type | None = None) -> T:
        if instance is None:
            return self  # type: ignore[return-value]
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class InferenceTrace:
    """One inference. The trajectory is the record: intents, judgments,
    answer, citations and passages are parsed from its sections on first
    access (a GrammarError if one does not parse). ``passage_meta`` holds
    each passage's (id, title, word_count); its retrieval entry must start
    ``[i] {title} -`` (a ValueError if not). ``steps`` holds what only the run saw.

    A trace is refused with a ValueError, whose message ``read_traces``
    reports for such a row, when its instruction holds a grammar token or a
    lone surrogate, a section holds a lone surrogate or a flag is not a
    str: ``write_traces`` could not write it, or could write only a row
    that ``read_traces`` refuses."""

    instruction: str
    trajectory: Trajectory
    passage_meta: tuple[tuple[int, str, int], ...]
    steps: tuple[StepRecord, ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (problem := text_violation(self.instruction)) is not None:
            raise ValueError(f"the instruction {problem}")
        for step in self.trajectory.steps:
            if (problem := surrogate_violation(step.body)) is not None:
                raise ValueError(f"the {step.kind.value} section {problem}")
        if not set(map(type, self.flags)) <= {str}:
            raise ValueError("'flags' must be a list of str")
        _text_starts(_section(self.trajectory, StepKind.RETRIEVAL), self.passage_meta)

    @_cached
    def passages(self) -> tuple[Passage, ...]:
        body = _section(self.trajectory, StepKind.RETRIEVAL)
        starts = _text_starts(body, self.passage_meta)
        if body is None:  # no section, so no passages
            return ()
        passages = []
        for (pid, title, words), start in zip(self.passage_meta, starts):
            end = body.find("\n", start)  # -1 on the last line
            passages.append(Passage(pid, title, body[start:end if end != -1 else None], words))
        return tuple(passages)

    @_cached
    def intents(self) -> IntentSet | None:
        body = _section(self.trajectory, StepKind.RECONSTRUCTOR)
        return None if body is None else _kept_intents(parse_intents(body), self.flags)

    @_cached
    def judgments(self) -> tuple[LocatorJudgment, ...]:
        body = _section(self.trajectory, StepKind.LOCATOR)
        return () if body is None else tuple(parse_locator_body(body))

    @_cached
    def _generated(self) -> tuple[str, CitationList]:
        body = _section(self.trajectory, StepKind.GENERATOR)
        return ("", CitationList()) if body is None else parse_citations(body)

    @property
    def answer(self) -> str:
        return self._generated[0]

    @property
    def citations(self) -> CitationList:
        return self._generated[1]


def _text_starts(body: str | None, meta: Sequence[tuple[int, str, int]]) -> list[int]:
    """Where the text of each passage of meta starts in the retrieval section
    body (None: no section), which must hold one line per passage, line i
    starting ``[i] {title} -``; else a ValueError names the count or the
    first line that does not fit. One ``str.find`` per line, where a split
    would copy the whole body."""
    starts: list[int] = []
    start = 0
    if body is not None:
        for i, (_, title, _) in enumerate(meta, start=1):
            end = body.find("\n", start)
            stop = len(body) if end == -1 else end
            if not body.startswith(prefix := f"[{i}] {title} -", start, stop):
                break
            starts.append(start + len(prefix))
            start = stop + 1
    # Every line fitted, and the last passage's line ended the body.
    if len(starts) == len(meta) and start == (0 if body is None else len(body) + 1):
        return starts
    entries = 0 if body is None else body.count("\n") + 1
    if entries != len(meta):
        raise ValueError(f"{len(meta)} passages but {entries} retrieval entries")
    raise ValueError(f"retrieval entry {len(starts) + 1} does not start with {prefix!r}")


def _section(trajectory: Trajectory, kind: StepKind) -> str | None:
    """The body of the trajectory's section of this kind, or None."""
    for step in trajectory.steps:
        if step.kind is kind:
            return step.body
    return None


class PipelineError(Exception):
    """A stage failed in a way that aborts the trace."""

    def __init__(self, stage: str, message: str) -> None:
        # A lone surrogate is kept as its backslash escape, so every error fits a UTF-8 file.
        self.stage, self.message = (
            text.encode("utf-8", "backslashreplace").decode("utf-8") for text in (stage, message)
        )
        super().__init__(f"{self.stage}: {self.message}")


class TraceFormatError(Exception):
    """A line of a trace file is not a trace or error record."""


_STOPS = {
    kind: (kind.end_surface,) + tuple(k.end_surface for k in StepKind if k is not kind)
    for kind in StepKind
}


def stops_for(kind: StepKind) -> tuple[str, ...]:
    """Stop strings for a stage: its own end token first, then the others."""
    return _STOPS[kind]


def _step_request(
    instruction: str, prior: Sequence[TrajectoryStep], head: StepKind
) -> AgentRequest:
    return AgentRequest(
        instruction=render_instruction(instruction),
        prior_trajectory=serialize_steps(prior),
        head=head.head,
        stop=stops_for(head),
    )


def build_step_prompt(
    instruction: str, prior: Sequence[TrajectoryStep], head: StepKind
) -> str:
    """Compose the exact prompt for one stage from the prior sections."""
    return prompt_text(_step_request(instruction, prior, head))


def run_inference(
    instruction: str,
    index: CorpusIndex,
    backend: Backend,
    config: InferenceConfig | None = None,
) -> InferenceTrace:
    """Run the staged pipeline for one instruction and return its trace, which
    breaks ``validate_trace`` only by the citation problems its flags name."""
    cfg = config or InferenceConfig()
    # The instruction opens every prompt; one that cannot go into a prompt
    # fails this item.
    problem = text_violation(instruction)
    if problem is not None:
        raise PipelineError("instruction", f"the instruction {problem}")
    flags: list[str] = []
    steps: list[TrajectoryStep] = []
    records: list[StepRecord] = []

    def run(stage: StepKind, prior: tuple[TrajectoryStep, ...], parse: Callable[[str], T]) -> T:
        """One backend stage: call, flag, check and parse the reply, record its section."""
        # A prior section (a passage, a reply) may hold a grammar token, so
        # the prompt cannot be serialized; that fails this item, not a batch.
        try:
            request = _step_request(instruction, prior, stage)
        except GrammarError as exc:
            raise PipelineError(stage.value, f"cannot build the prompt: {exc}") from exc
        begin = time.perf_counter()
        try:
            reply = backend.generate(request)
        except BackendError as exc:
            raise PipelineError(stage.value, str(exc)) from exc
        elapsed = time.perf_counter() - begin
        if reply.terminated_by == LENGTH_LIMIT_MARKER:
            flags.append(f"length_limited:{stage.value}")
        elif reply.terminated_by in HEAD_TOKEN_SURFACES:
            flags.append(f"head_mismatch:{stage.value}")
            logger.warning("backend emitted a head token during the %s stage; truncating", stage.value)
        # A grammar token in the body (</eoi>, which no backend cuts at, or a
        # section token a third-party backend left) would make the trace
        # unserializable when the batch is written, and a lone surrogate
        # unencodable; fail the item now.
        problem = text_violation(reply.body)
        if problem is not None:
            raise PipelineError(stage.value, f"the reply {problem}")
        try:
            parsed = parse(reply.body)
        except GrammarError as exc:
            raise PipelineError(stage.value, str(exc)) from exc
        steps.append(TrajectoryStep(stage, reply.body))
        records.append(StepRecord(stage, elapsed, instruction, prior))
        return parsed

    # Stage 1: intent reconstruction.
    proposed = run(StepKind.RECONSTRUCTOR, (), parse_intents)
    intents = proposed
    if proposed.m > cfg.max_intents:
        intents = IntentSet(proposed.intents[: cfg.max_intents])
        flags.append(f"intents_truncated:{proposed.m}->{cfg.max_intents}")

    # Stage 2: retrieval (a deterministic tool step, never the backend).
    begin = time.perf_counter()
    try:
        passages = retrieve_multi(index, intents, cfg.k)
    except EmptyQueryError as exc:
        raise PipelineError(StepKind.RETRIEVAL.value, str(exc)) from exc
    elapsed = time.perf_counter() - begin
    if len(passages) > cfg.max_passages:
        flags.append(f"passages_truncated:{len(passages)}->{cfg.max_passages}")
        passages = passages[: cfg.max_passages]

    judgments: tuple[LocatorJudgment, ...] = ()
    if passages:
        try:
            body = retrieval_body(passages)
        except MultilinePassageError as exc:
            raise PipelineError(StepKind.RETRIEVAL.value, str(exc)) from exc
        steps.append(TrajectoryStep(StepKind.RETRIEVAL, body))
        records.append(StepRecord(StepKind.RETRIEVAL, elapsed, instruction, None))

        # Stage 3: fact location; a reply that does not judge every passage fails the item.
        judgments = tuple(run(StepKind.LOCATOR, tuple(steps), parse_locator_body))
        uncovered = section_violations(len(passages), judgments, CitationList())
        if uncovered:
            raise PipelineError(StepKind.LOCATOR.value, uncovered[0].detail)
    else:
        flags.append("no_passages")

    # Stage 4: answer generation, with facts iff something was judged Relevant.
    relevant = any(j.relevance is Relevance.RELEVANT for j in judgments)
    if not relevant:
        flags.append("generator_fallback")
    _, citations = run(StepKind.GENERATOR, tuple(steps) if relevant else (), parse_citations)
    for violation in section_violations(len(passages), judgments, citations):
        flags.append(f"{violation.code}:{violation.detail}")

    return InferenceTrace(
        instruction=instruction,
        trajectory=Trajectory(tuple(steps)),
        passage_meta=tuple((p.id, p.title, p.word_count) for p in passages),
        steps=tuple(records),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# trace validation


def section_violations(
    passage_count: int,
    judgments: Sequence[LocatorJudgment],
    citations: CitationList,
) -> list[TraceViolation]:
    """The rules a trajectory's sections keep between them, which no one
    section's form shows, over ``passage_count`` passages: the judgments
    (none when there is no locator section) cover each passage once, and
    each citation names a passage judged Relevant. Traces and training
    examples are both checked by it."""
    violations = []
    indices = sorted(j.passage_index for j in judgments)
    expected = list(range(1, passage_count + 1))
    if indices != expected:
        detail = f"judgments cover {indices}, expected {expected}"
        violations.append(TraceViolation("judgment_coverage", detail))
    relevant = {j.passage_index for j in judgments if j.relevance is Relevance.RELEVANT}
    for cited in citations.indices:
        if cited < 1 or cited > passage_count:
            violations.append(TraceViolation("citation_out_of_range", str(cited)))
        elif cited not in relevant:
            violations.append(TraceViolation("citation_unsupported", str(cited)))
    return violations


def validate_trace(trace: InferenceTrace) -> list[TraceViolation]:
    """A generator section, then ``section_violations`` over the trace's
    passages. The rest holds by construction, and ``parse_trajectory``
    keeps the sections in stage order. Never raises on a trace whose
    sections parse; ``run_inference`` builds traces that can break only the
    citation rules, so this is run on traces read back from disk.
    """
    violations: list[TraceViolation] = []
    if _section(trace.trajectory, StepKind.GENERATOR) is None:
        violations.append(TraceViolation("generator_missing", "no generator section"))
    violations.extend(section_violations(len(trace.passage_meta), trace.judgments, trace.citations))
    return violations


# ---------------------------------------------------------------------------
# batching and trace files


# Instructions a pool starts ahead of the one yielded, per worker; 4 read
# slower in `infer`. One worker starts none ahead.
_WINDOW_PER_WORKER = 16


def iter_batch(
    instructions: Iterable[str],
    index: CorpusIndex,
    backend: Backend,
    config: InferenceConfig | None = None,
    *,
    max_workers: int = 4,
) -> Iterator[InferenceTrace | PipelineError]:
    """Yield each instruction's trace, or the PipelineError that failed it, in
    input order: memory does not grow with the batch. One worker runs each
    instruction in the caller's thread when its item is asked for, one in
    flight; more run on a thread pool with at most ``16 * max_workers`` in
    flight."""

    def work(instruction: str) -> InferenceTrace | PipelineError:
        try:
            return run_inference(instruction, index, backend, config)
        except PipelineError as exc:
            # Without its frames, which would keep the failed run's locals alive.
            exc.__cause__ = exc.__context__ = None
            return exc.with_traceback(None)

    workers = max(1, max_workers)
    if workers == 1:
        # A pool of one would add only hand-offs and lock waits.
        for instruction in instructions:
            yield work(instruction)
        return
    from concurrent.futures import ThreadPoolExecutor  # a process that starts no pool skips the import

    pool = ThreadPoolExecutor(max_workers=workers)
    pending: deque[Future[InferenceTrace | PipelineError]] = deque()
    try:
        for instruction in instructions:
            if len(pending) == _WINDOW_PER_WORKER * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(work, instruction))
        while pending:
            yield pending.popleft().result()
    finally:
        # A consumer that stops early does not wait for work it will not read.
        pool.shutdown(cancel_futures=True)


def run_batch(
    instructions: Sequence[str],
    index: CorpusIndex,
    backend: Backend,
    config: InferenceConfig | None = None,
    *,
    max_workers: int = 4,
) -> list[InferenceTrace | PipelineError]:
    """``iter_batch``'s items as a list."""
    return list(iter_batch(instructions, index, backend, config, max_workers=max_workers))


def trace_to_dict(trace: InferenceTrace) -> dict:
    """JSON form of a trace (format v2): the trajectory and what it cannot
    hold. Intents, judgments, answer and passage texts are in its sections
    and are not stored twice; the citations are, as the row's summary.
    Per-step prompts and timings stay out, so identical runs serialize to
    identical bytes."""
    return {
        "instruction": trace.instruction,
        "passages": [
            {"id": pid, "title": title, "word_count": words}
            for pid, title, words in trace.passage_meta
        ],
        "citations": list(trace.citations.indices),
        "trajectory": serialize_trajectory(trace.trajectory),
        "flags": list(trace.flags),
    }


# Format v1 rows also held these keys, and each passage's text.
_V1_KEYS = ("answer", "judgments", "intents")
_V1_COMPLAINT = (
    "trace format version 1 is no longer read; re-run `factrail infer` "
    "on the instructions to rewrite the traces"
)


def _kept_intents(raw: IntentSet, flags: Sequence[str]) -> IntentSet:
    """The intents retrieval used: all of the section's, or the first n that
    an ``intents_truncated:m->n`` flag names, m and n in ASCII digits."""
    for flag in flags:
        if flag.startswith("intents_truncated:"):
            m, arrow, n = flag[len("intents_truncated:") :].partition("->")
            if not (arrow and m.isdigit() and n.isdigit() and flag.isascii()):
                raise ValueError(f"flag {flag} is not of the form intents_truncated:<m>-><n>")
            try:
                fits = int(m) == raw.m and 0 < int(n) < raw.m
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                fits = False
            if not fits:
                raise ValueError(f"flag {flag} does not fit the {raw.m} intents of the section")
            return IntentSet(raw.intents[: int(n)])
    return raw


def _passage_meta(rows: object) -> tuple[tuple[int, str, int], ...]:
    """The (id, title, word_count) of each passage a row lists."""
    if type(rows) is not list:
        raise TypeError("'passages' must be a list")
    meta = []
    for at, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(f"passages[{at}] must be an object, not {type(row).__name__}")
        if "text" in row:
            raise ValueError(_V1_COMPLAINT)
        title = typed_field(row, "title")
        meta.append((typed_field(row, "id", int), title, typed_field(row, "word_count", int)))
    return tuple(meta)


def trace_from_dict(data: dict) -> InferenceTrace:
    """The trace a ``trace_to_dict`` record holds. Its sections are parsed
    here once, so a record that is malformed, contradicts itself or is of
    format v1 raises KeyError, TypeError, ValueError or (a section)
    GrammarError."""
    if any(key in data for key in _V1_KEYS):
        raise ValueError(_V1_COMPLAINT)
    trace = InferenceTrace(
        instruction=typed_field(data, "instruction"),
        trajectory=parse_trajectory(typed_field(data, "trajectory")),
        passage_meta=_passage_meta(data["passages"]),
        flags=string_list(data.get("flags", []), "flags"),
    )
    # Read every section now, so one that does not parse fails on its line.
    _ = trace.intents, trace.judgments
    citations = typed_field(data, "citations", list)
    if any(type(cited) is not int for cited in citations):
        raise ValueError("'citations' must be a list of int")
    if citations != list(trace.citations.indices):
        raise ValueError("'citations' differ from those of the generator section")
    return trace


def write_traces(items: Iterable[InferenceTrace | PipelineError], path: str | Path) -> None:
    """Write a row per trace or error as it arrives; the file appears once all are."""
    with atomic_path(path) as temp, open(temp, "w", encoding="utf-8") as handle:
        for item in drawn_ahead(items):
            if isinstance(item, PipelineError):
                record = {"error": {"stage": item.stage, "message": item.message}}
            else:
                record = trace_to_dict(item)
            handle.write(json_line(record))


def _trace_row(record: dict) -> InferenceTrace | PipelineError:
    if "error" in record:
        error = record["error"]
        # Neither field may hold what no UTF-8 file can: a lone surrogate.
        for name in ("stage", "message"):
            if (problem := surrogate_violation(typed_field(error, name))) is not None:
                raise ValueError(f"{name!r} {problem}")
        return PipelineError(error["stage"], error["message"])
    return trace_from_dict(record)


def iter_traces(path: str | Path) -> Iterator[tuple[int, InferenceTrace | PipelineError]]:
    """Stream a trace file as (line number, trace or recorded error) pairs; a
    row that is neither raises TraceFormatError naming its line."""
    return read_jsonl(path, _trace_row, "trace record", TraceFormatError, (GrammarError,))


def read_traces(path: str | Path) -> list[InferenceTrace | PipelineError]:
    """The items ``write_traces`` wrote, in order."""
    return [row for _, row in iter_traces(path)]
