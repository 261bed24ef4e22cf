"""Pipeline driver: staged inference over a corpus index and a backend.

One inference runs up to four stages. The backend proposes search intents,
a deterministic tool step retrieves passages, the backend judges each
passage, and the backend writes the answer. The answer prompt includes the
judged facts exactly when at least one passage was judged Relevant;
otherwise the generator sees the instruction alone and cites nothing.
Prompts grow cumulatively, each one a prefix of the next, and the orchestrator
itself inserts every section head so the token skeleton is never left to the
model.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .backends import (
    LENGTH_LIMIT_MARKER,
    AgentRequest,
    Backend,
    BackendError,
    HEAD_TOKEN_SURFACES,
    prompt_text,
)
from .corpus import CorpusIndex, EmptyQueryError, Passage, retrieve_multi
from .fileio import atomic_path, read_jsonl, string_list, typed_field
from .grammar import (
    CitationList,
    GrammarError,
    IntentSet,
    LocatorJudgment,
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
    step_violation,
    parse_trajectory,
    text_violation,
)

__all__ = [
    "InferenceConfig",
    "StepRecord",
    "InferenceTrace",
    "TraceViolation",
    "PipelineError",
    "TraceFormatError",
    "BatchResult",
    "build_step_prompt",
    "stops_for",
    "run_inference",
    "validate_trace",
    "run_batch",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces",
    "iter_traces",
    "read_traces",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class InferenceConfig:
    k: int = 3
    max_intents: int = 4
    max_passages: int = 12
    locator_required: bool = True
    generator_fallback: bool = True

    def __post_init__(self) -> None:
        for name in ("k", "max_intents", "max_passages"):
            typed_field(vars(self), name, int)
        for name in ("locator_required", "generator_fallback"):
            typed_field(vars(self), name, bool)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_intents < 1:
            raise ValueError("max_intents must be at least 1")
        if self.max_passages < self.k:
            raise ValueError("max_passages must be at least k")


@dataclass(frozen=True)
class StepRecord:
    """What one stage actually saw and produced. Tool steps have no prompt."""

    kind: StepKind
    prompt: str | None
    body: str
    duration_s: float


@dataclass(frozen=True)
class TraceViolation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class InferenceTrace:
    instruction: str
    intents: IntentSet | None
    passages: tuple[Passage, ...]
    judgments: tuple[LocatorJudgment, ...]
    answer: str
    citations: CitationList
    trajectory: Trajectory
    steps: tuple[StepRecord, ...]
    flags: tuple[str, ...] = ()


class PipelineError(Exception):
    """A stage failed in a way that aborts the trace."""

    def __init__(self, stage: str, message: str) -> None:
        self.stage = stage
        super().__init__(f"{stage}: {message}")
        self.message = message


class TraceFormatError(Exception):
    """A line of a trace file is not a trace or error record."""


@dataclass(frozen=True)
class BatchResult:
    index: int
    trace: InferenceTrace | None = None
    error: PipelineError | None = None


_STOPS = {
    kind: (kind.end.value,) + tuple(k.end.value for k in StepKind if k is not kind)
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


def _strip_premature_heads(body: str, stage: str, flags: list[str]) -> str:
    """Cut the reply at any head token the model emitted early; heads are ours to insert."""
    earliest = -1
    for surface in HEAD_TOKEN_SURFACES:
        at = body.find(surface)
        if at != -1 and (earliest == -1 or at < earliest):
            earliest = at
    if earliest == -1:
        return body
    flags.append(f"head_mismatch:{stage}")
    logger.warning("backend emitted a head token during the %s stage; truncating", stage)
    trimmed = body[:earliest]
    if trimmed.endswith("\n"):
        trimmed = trimmed[:-1]
    return trimmed


def _judgment_coverage_problem(
    judgments: Sequence[LocatorJudgment], passage_count: int
) -> str | None:
    indices = sorted(j.passage_index for j in judgments)
    expected = list(range(1, passage_count + 1))
    if indices != expected:
        return f"judgments cover {indices}, expected {expected}"
    return None


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

    def call(stage: StepKind, prior: Sequence[TrajectoryStep]) -> tuple[str, str, float]:
        # A prior section (a passage, a reply) may hold a grammar token, so
        # the prompt cannot be serialized; that fails this item, not a batch.
        try:
            request = _step_request(instruction, prior, stage)
        except GrammarError as exc:
            raise PipelineError(stage.value, f"cannot build the prompt: {exc}") from exc
        prompt = prompt_text(request)
        begin = time.perf_counter()
        try:
            reply = backend.generate(request)
        except BackendError as exc:
            raise PipelineError(stage.value, str(exc)) from exc
        elapsed = time.perf_counter() - begin
        if reply.terminated_by == LENGTH_LIMIT_MARKER:
            flags.append(f"length_limited:{stage.value}")
        body = _strip_premature_heads(reply.body, stage.value, flags)
        if not body:
            raise PipelineError(stage.value, "reply is empty after head truncation")
        # A token left in the body (an end token, </eoi>) would make the
        # trace unserializable when the batch is written, and a lone
        # surrogate unencodable; fail the item now.
        problem = step_violation(TrajectoryStep(stage, body))
        if problem is None and not body.isascii():
            # No token is left, so text_violation can only name a surrogate.
            unclean = text_violation(body)
            if unclean is not None:
                problem = f"the reply {unclean}"
        if problem:
            raise PipelineError(stage.value, problem)
        return prompt, body, elapsed

    # Stage 1: intent reconstruction.
    prompt, body, elapsed = call(StepKind.RECONSTRUCTOR, [])
    try:
        proposed = parse_intents(body)
    except GrammarError as exc:
        raise PipelineError(StepKind.RECONSTRUCTOR.value, str(exc)) from exc
    steps.append(TrajectoryStep(StepKind.RECONSTRUCTOR, body))
    records.append(StepRecord(StepKind.RECONSTRUCTOR, prompt, body, elapsed))
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
        body = retrieval_body(passages)
        steps.append(TrajectoryStep(StepKind.RETRIEVAL, body))
        records.append(StepRecord(StepKind.RETRIEVAL, None, body, elapsed))

        # Stage 3: fact location.
        prompt, body, elapsed = call(StepKind.LOCATOR, steps)
        try:
            parsed = tuple(parse_locator_body(body))
            problem = _judgment_coverage_problem(parsed, len(passages))
            if problem:
                raise PipelineError(StepKind.LOCATOR.value, problem)
        except GrammarError as exc:
            if cfg.locator_required:
                raise PipelineError(StepKind.LOCATOR.value, str(exc)) from exc
            flags.append(f"locator_degraded:{exc}")
        except PipelineError:
            if cfg.locator_required:
                raise
            flags.append("locator_degraded:coverage")
        else:
            judgments = parsed
            steps.append(TrajectoryStep(StepKind.LOCATOR, body))
            records.append(StepRecord(StepKind.LOCATOR, prompt, body, elapsed))
    else:
        flags.append("no_passages")

    # Stage 4: answer generation, with facts iff something was judged Relevant.
    relevant = [j for j in judgments if j.relevance is Relevance.RELEVANT]
    if relevant:
        prompt, body, elapsed = call(StepKind.GENERATOR, steps)
    else:
        if not cfg.generator_fallback:
            raise PipelineError(
                StepKind.GENERATOR.value,
                "no relevant facts and the no-facts fallback is disabled",
            )
        flags.append("generator_fallback")
        prompt, body, elapsed = call(StepKind.GENERATOR, [])
    try:
        answer, citations = parse_citations(body)
    except GrammarError as exc:
        raise PipelineError(StepKind.GENERATOR.value, str(exc)) from exc
    steps.append(TrajectoryStep(StepKind.GENERATOR, body))
    records.append(StepRecord(StepKind.GENERATOR, prompt, body, elapsed))
    for violation in _citation_violations(citations, judgments, len(passages)):
        flags.append(f"{violation.code}:{violation.detail}")

    return InferenceTrace(
        instruction=instruction,
        intents=intents,
        passages=tuple(passages),
        judgments=judgments,
        answer=answer,
        citations=citations,
        trajectory=Trajectory(tuple(steps)),
        steps=tuple(records),
        flags=tuple(flags),
    )


def _citation_violations(
    citations: CitationList, judgments: Sequence[LocatorJudgment], passage_count: int
) -> list[TraceViolation]:
    """Each cited number that names no passage, or one not judged Relevant."""
    relevant = {j.passage_index for j in judgments if j.relevance is Relevance.RELEVANT}
    violations = []
    for cited in citations.indices:
        if cited < 1 or cited > passage_count:
            violations.append(TraceViolation("citation_out_of_range", str(cited)))
        elif cited not in relevant:
            violations.append(TraceViolation("citation_unsupported", str(cited)))
    return violations


# ---------------------------------------------------------------------------
# trace validation


def validate_trace(trace: InferenceTrace) -> list[TraceViolation]:
    """Check a trace against the structural contract; total, never raises.

    Sections come in stage order, each field agrees with its section, and
    each citation names a passage judged Relevant. ``run_inference``
    only builds traces that can break the last rule, so this is run on
    traces read back from disk.
    """
    violations: list[TraceViolation] = []
    steps = trace.trajectory.steps

    ranks = [s.kind.rank for s in steps]
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        violations.append(TraceViolation("step_order", f"kinds {[s.kind.value for s in steps]}"))
    # The last generator section: in an ordered trajectory, the last step.
    generator_step = next((s for s in reversed(steps) if s.kind is StepKind.GENERATOR), None)
    if generator_step is None:
        violations.append(TraceViolation("generator_missing", "no generator section"))
    else:
        try:
            answer, citations = parse_citations(generator_step.body)
        except GrammarError as exc:
            violations.append(TraceViolation("generator_mismatch", str(exc)))
        else:
            if answer != trace.answer or citations != trace.citations:
                violations.append(
                    TraceViolation(
                        "generator_mismatch", "answer or citations do not match the section body"
                    )
                )

    by_kind = {s.kind: s for s in steps}
    n = len(trace.passages)

    if StepKind.LOCATOR in by_kind or trace.judgments:
        problem = _judgment_coverage_problem(trace.judgments, n)
        if problem:
            violations.append(TraceViolation("judgment_coverage", problem))
    violations.extend(_citation_violations(trace.citations, trace.judgments, n))

    retrieval_step = by_kind.get(StepKind.RETRIEVAL)
    if trace.passages:
        expected = retrieval_body(trace.passages)
        if retrieval_step is None or retrieval_step.body != expected:
            violations.append(
                TraceViolation("retrieval_mismatch", "retrieval section does not list the passages")
            )
    elif retrieval_step is not None:
        violations.append(
            TraceViolation("retrieval_mismatch", "retrieval section present without passages")
        )

    reconstructor_step = by_kind.get(StepKind.RECONSTRUCTOR)
    if reconstructor_step is not None and trace.intents is not None:
        try:
            raw = parse_intents(reconstructor_step.body)
        except GrammarError as exc:
            violations.append(TraceViolation("intents_mismatch", str(exc)))
        else:
            kept = trace.intents.intents
            if raw.intents[: len(kept)] != kept or len(kept) > raw.m:
                violations.append(
                    TraceViolation("intents_mismatch", "intents do not match the section body")
                )
    elif trace.intents is not None and reconstructor_step is None:
        violations.append(TraceViolation("intents_mismatch", "intents without a reconstructor section"))

    locator_step = by_kind.get(StepKind.LOCATOR)
    if locator_step is not None:
        try:
            parsed = tuple(parse_locator_body(locator_step.body))
        except GrammarError as exc:
            violations.append(TraceViolation("locator_mismatch", str(exc)))
        else:
            if parsed != trace.judgments:
                violations.append(
                    TraceViolation("locator_mismatch", "judgments do not match the section body")
                )

    return violations


# ---------------------------------------------------------------------------
# batching and trace files


def run_batch(
    instructions: Sequence[str],
    index: CorpusIndex,
    backend: Backend,
    config: InferenceConfig | None = None,
    *,
    max_workers: int = 4,
) -> list[BatchResult]:
    """Run many instructions with bounded concurrency; failures stay per-item."""
    results: list[BatchResult | None] = [None] * len(instructions)

    def work(position: int) -> BatchResult:
        try:
            trace = run_inference(instructions[position], index, backend, config)
            return BatchResult(index=position, trace=trace)
        except PipelineError as exc:
            return BatchResult(index=position, error=exc)

    with ThreadPoolExecutor(max_workers=max(1, max_workers)) as pool:
        for result in pool.map(work, range(len(instructions))):
            results[result.index] = result
    return [r for r in results if r is not None]


def trace_to_dict(trace: InferenceTrace) -> dict:
    """JSON form of a trace. Per-step timings are volatile and stay out so
    identical runs serialize to identical bytes."""
    return {
        "instruction": trace.instruction,
        "intents": list(trace.intents.intents) if trace.intents else None,
        "passages": [
            {"id": p.id, "title": p.title, "text": p.text, "word_count": p.word_count}
            for p in trace.passages
        ],
        "judgments": [
            {
                "passage_index": j.passage_index,
                "relevance": j.relevance.value,
                "fact": j.fact,
            }
            for j in trace.judgments
        ],
        "answer": trace.answer,
        "citations": list(trace.citations.indices),
        "trajectory": serialize_trajectory(trace.trajectory),
        "flags": list(trace.flags),
    }


def trace_from_dict(data: dict) -> InferenceTrace:
    """The trace a ``trace_to_dict`` record holds. A malformed record raises
    KeyError, TypeError, ValueError or (its trajectory) GrammarError."""
    trajectory = parse_trajectory(data["trajectory"])
    records = tuple(
        StepRecord(step.kind, None, step.body, 0.0) for step in trajectory.steps
    )
    intents = data.get("intents")
    return InferenceTrace(
        instruction=typed_field(data, "instruction"),
        intents=IntentSet(string_list(intents, "intents")) if intents else None,
        passages=tuple(
            Passage(
                id=p["id"], title=p["title"], text=p["text"], word_count=p["word_count"]
            )
            for p in data["passages"]
        ),
        judgments=tuple(
            LocatorJudgment(
                passage_index=j["passage_index"],
                relevance=Relevance(j["relevance"]),
                fact=j.get("fact"),
            )
            for j in data["judgments"]
        ),
        answer=typed_field(data, "answer"),
        citations=CitationList(tuple(data["citations"])),
        trajectory=trajectory,
        steps=records,
        flags=tuple(data.get("flags", ())),
    )


def write_traces(results: Sequence[BatchResult], path: str | Path) -> None:
    with atomic_path(path) as temp, open(temp, "w", encoding="utf-8") as handle:
        for result in results:
            if result.trace is not None:
                record = trace_to_dict(result.trace)
            else:
                assert result.error is not None
                record = {
                    "error": {"stage": result.error.stage, "message": result.error.message}
                }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _trace_row(record: dict) -> InferenceTrace | PipelineError:
    if "error" in record:
        error = record["error"]
        return PipelineError(typed_field(error, "stage"), typed_field(error, "message"))
    return trace_from_dict(record)


def iter_traces(path: str | Path) -> Iterator[tuple[int, InferenceTrace | PipelineError]]:
    """Stream a trace file as (line number, trace or recorded error) pairs; a
    row that is neither raises TraceFormatError naming its line."""
    return read_jsonl(path, _trace_row, "trace record", TraceFormatError, (GrammarError,))


def read_traces(path: str | Path) -> list[BatchResult]:
    return [
        BatchResult(index=i, error=row)
        if isinstance(row, PipelineError)
        else BatchResult(index=i, trace=row)
        for i, (_, row) in enumerate(iter_traces(path))
    ]
