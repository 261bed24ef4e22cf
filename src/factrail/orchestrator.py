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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .backends import Backend, BackendError, HEAD_TOKEN_SURFACES, prompt_text, AgentRequest
from .corpus import CorpusIndex, EmptyQueryError, Passage, retrieve_multi
from .fileio import atomic_path
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
    parse_trajectory,
)

__all__ = [
    "InferenceConfig",
    "StepRecord",
    "InferenceTrace",
    "TraceViolation",
    "PipelineError",
    "BatchResult",
    "build_step_prompt",
    "stops_for",
    "run_inference",
    "validate_trace",
    "run_batch",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces",
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


@dataclass(frozen=True)
class BatchResult:
    index: int
    trace: InferenceTrace | None = None
    error: PipelineError | None = None


def stops_for(kind: StepKind) -> tuple[str, ...]:
    """Stop strings for a stage: its own end token first, then the others."""
    own = kind.end.value
    rest = tuple(k.end.value for k in StepKind if k is not kind)
    return (own,) + rest


def build_step_prompt(
    instruction: str, prior: Sequence[TrajectoryStep], head: StepKind
) -> str:
    """Compose the exact prompt for one stage from the prior sections."""
    return render_instruction(instruction) + serialize_steps(prior) + head.head.value + "\n"


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
    """Run the staged pipeline for one instruction and return a validated trace."""
    cfg = config or InferenceConfig()
    flags: list[str] = []
    steps: list[TrajectoryStep] = []
    records: list[StepRecord] = []

    def call(stage: StepKind, prior: Sequence[TrajectoryStep]) -> tuple[str, str, float]:
        prompt = build_step_prompt(instruction, prior, stage)
        request = AgentRequest(
            instruction=render_instruction(instruction),
            prior_trajectory=serialize_steps(prior),
            head=stage.head,
            stop=stops_for(stage),
        )
        assert prompt_text(request) == prompt
        begin = time.perf_counter()
        try:
            reply = backend.generate(request)
        except BackendError as exc:
            raise PipelineError(stage.value, str(exc)) from exc
        elapsed = time.perf_counter() - begin
        body = _strip_premature_heads(reply.body, stage.value, flags)
        if not body:
            raise PipelineError(stage.value, "reply is empty after head truncation")
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

    trace = InferenceTrace(
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
    citation_flags = []
    for violation in validate_trace(trace):
        if violation.code in ("citation_out_of_range", "citation_unsupported"):
            citation_flags.append(f"{violation.code}:{violation.detail}")
        else:
            raise PipelineError("validate", str(violation))
    if citation_flags:
        trace = replace(trace, flags=tuple(flags) + tuple(citation_flags))
    return trace


# ---------------------------------------------------------------------------
# trace validation


def _steps_by_kind(trace: InferenceTrace) -> dict[StepKind, TrajectoryStep]:
    return {s.kind: s for s in trace.trajectory.steps}


def validate_trace(trace: InferenceTrace) -> list[TraceViolation]:
    """Check a trace against the structural contract; total, never raises.

    Prompt-shape checks only run for step records that kept their prompts
    (traces reloaded from disk have none).
    """
    violations: list[TraceViolation] = []
    steps = trace.trajectory.steps

    ranks = [s.kind.rank for s in steps]
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        violations.append(TraceViolation("step_order", f"kinds {[s.kind.value for s in steps]}"))
    if StepKind.GENERATOR not in {s.kind for s in steps}:
        violations.append(TraceViolation("generator_missing", "no generator section"))

    by_kind = _steps_by_kind(trace)
    n = len(trace.passages)

    locator_ran = StepKind.LOCATOR in by_kind or bool(trace.judgments)
    if locator_ran:
        indices = sorted(j.passage_index for j in trace.judgments)
        if indices != list(range(1, n + 1)):
            violations.append(
                TraceViolation("judgment_coverage", f"covers {indices} of 1..{n}")
            )

    relevant = {j.passage_index for j in trace.judgments if j.relevance is Relevance.RELEVANT}
    for cited in trace.citations.indices:
        if cited < 1 or cited > n:
            violations.append(TraceViolation("citation_out_of_range", str(cited)))
        elif cited not in relevant:
            violations.append(TraceViolation("citation_unsupported", str(cited)))

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

    generator_step = by_kind.get(StepKind.GENERATOR)
    if generator_step is not None:
        try:
            answer, citations = parse_citations(generator_step.body)
        except GrammarError as exc:
            violations.append(TraceViolation("generator_mismatch", str(exc)))
        else:
            if answer != trace.answer or citations != trace.citations:
                violations.append(
                    TraceViolation("generator_mismatch", "answer or citations do not match the section body")
                )

    violations.extend(_prompt_violations(trace))
    return violations


def _prompt_violations(trace: InferenceTrace) -> list[TraceViolation]:
    violations: list[TraceViolation] = []
    prefix: list[TrajectoryStep] = []
    for record in trace.steps:
        if record.kind is StepKind.GENERATOR and record.prompt is not None:
            has_relevant = any(
                j.relevance is Relevance.RELEVANT for j in trace.judgments
            )
            try:
                expected = (
                    build_step_prompt(trace.instruction, prefix, StepKind.GENERATOR)
                    if has_relevant
                    else build_step_prompt(trace.instruction, [], StepKind.GENERATOR)
                )
            except GrammarError as exc:
                violations.append(TraceViolation("branch_mismatch", str(exc)))
            else:
                if record.prompt != expected:
                    violations.append(
                        TraceViolation(
                            "branch_mismatch",
                            "generator prompt does not match the relevance branch",
                        )
                    )
        elif record.prompt is not None:
            try:
                expected = build_step_prompt(trace.instruction, prefix, record.kind)
            except GrammarError as exc:
                violations.append(TraceViolation("prompt_mismatch", str(exc)))
            else:
                if record.prompt != expected:
                    violations.append(
                        TraceViolation("prompt_mismatch", f"{record.kind.value} prompt is not cumulative")
                    )
        prefix.append(TrajectoryStep(record.kind, record.body))
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
    trajectory = parse_trajectory(data["trajectory"])
    records = tuple(
        StepRecord(step.kind, None, step.body, 0.0) for step in trajectory.steps
    )
    return InferenceTrace(
        instruction=data["instruction"],
        intents=IntentSet(tuple(data["intents"])) if data.get("intents") else None,
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
        answer=data["answer"],
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


def read_traces(path: str | Path) -> list[BatchResult]:
    results: list[BatchResult] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if "error" in record:
                error = PipelineError(record["error"]["stage"], record["error"]["message"])
                results.append(BatchResult(index=len(results), error=error))
            else:
                results.append(
                    BatchResult(index=len(results), trace=trace_from_dict(record))
                )
    return results
