"""Answer-quality metrics and report assembly.

All string metrics share one normalization: lowercase, strip punctuation,
drop the articles a/an/the, collapse whitespace. Accuracy is substring
containment of a normalized gold in the normalized prediction; str_em
generalizes that to answer sets; rouge_l is a word-level LCS F1 taken as
the max over references. Citation precision checks that cited facts
actually contain a gold answer. A trace is scored only if ``validate_trace``
finds nothing wrong with it but citations of passages not judged Relevant.

The LCS length comes from the bit-parallel algorithm of Allison and Dix
(1986) in Hyyrö's (2004) formulation: one match mask per distinct reference
token, held as a Python int, and per prediction token ``u = v & mask``,
``v = ((v + u) | (v - u)) & full``; the LCS is the count of zero bits in v.
It is the exact integer the textbook O(n·m) table gives, so scores are
unchanged, at a cost of O(n·m/w) word operations.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import drawn_ahead, read_jsonl, string_list, typed_field
from .grammar import Relevance
from .orchestrator import InferenceTrace, PipelineError, validate_trace

__all__ = [
    "UnknownTaskError",
    "SchemaMismatchError",
    "EvalExample",
    "EvalReport",
    "normalize_answer",
    "match_accuracy",
    "str_em",
    "rouge_l",
    "citation_precision",
    "evaluate",
    "read_eval_examples",
    "KNOWN_TASKS",
]


class UnknownTaskError(Exception):
    def __init__(self, task: str) -> None:
        super().__init__(f"unknown task tag {task!r}")


class SchemaMismatchError(Exception):
    pass


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLES = {"a", "an", "the"}

KNOWN_TASKS = ("arc-c", "pubhealth", "asqa", "popqa", "squad")


def normalize_answer(text: str) -> str:
    words = text.lower().translate(_PUNCT_TABLE).split()
    return " ".join(w for w in words if w not in _ARTICLES)


def match_accuracy(prediction: str, golds: Sequence[str]) -> int:
    """1 iff any normalized gold occurs in the normalized prediction."""
    if not golds:
        raise ValueError("at least one gold answer is required")
    normalized = normalize_answer(prediction)
    return int(any(normalize_answer(g) in normalized for g in golds))


def str_em(prediction: str, gold_answer_sets: Sequence[Sequence[str]]) -> float:
    """Fraction of answer sets with at least one member present in the prediction."""
    if not gold_answer_sets:
        raise ValueError("at least one answer set is required")
    normalized = normalize_answer(prediction)
    hit = sum(
        1
        for answers in gold_answer_sets
        if any(normalize_answer(a) in normalized for a in answers)
    )
    return hit / len(gold_answer_sets)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of a longest common subsequence, bit-parallel over b (see above)."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(prediction: str, references: Sequence[str]) -> float:
    """Word-level LCS F1 against the best reference; 0 when either side is empty."""
    pred_tokens = normalize_answer(prediction).split()
    best = 0.0
    for reference in references:
        ref_tokens = normalize_answer(reference).split()
        if not pred_tokens or not ref_tokens:
            continue
        lcs = _lcs_length(pred_tokens, ref_tokens)
        if lcs == 0:
            continue
        precision = lcs / len(pred_tokens)
        recall = lcs / len(ref_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def citation_precision(trace: InferenceTrace, golds: Sequence[str]) -> float:
    """Fraction of cited passages whose extracted fact contains a gold answer.

    With nothing cited the score is vacuously 1.0, unless something was
    judged Relevant and should have been cited, which scores 0.0.
    """
    relevant = {
        j.passage_index: j for j in trace.judgments if j.relevance is Relevance.RELEVANT
    }
    if not trace.citations.indices:
        return 1.0 if not relevant else 0.0
    normalized_golds = [normalize_answer(g) for g in golds]
    normalized_golds = [g for g in normalized_golds if g]
    hits = 0
    for cited in trace.citations.indices:
        judgment = relevant.get(cited)
        if judgment is None or judgment.fact is None:
            continue
        fact = normalize_answer(judgment.fact)
        if any(g in fact for g in normalized_golds):
            hits += 1
    return hits / len(trace.citations.indices)


# ---------------------------------------------------------------------------
# reference sets and reports


@dataclass(frozen=True)
class EvalExample:
    """A reference. An asqa example given no answer sets scores each gold
    answer as a set of its own; no answer set may be empty."""

    question: str
    gold_answers: tuple[str, ...]
    task: str
    long_form_refs: tuple[str, ...] | None = None
    answer_sets: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        if self.long_form_refs is not None:
            object.__setattr__(self, "long_form_refs", tuple(self.long_form_refs))
        if self.answer_sets is not None:
            object.__setattr__(
                self, "answer_sets", tuple(tuple(s) for s in self.answer_sets)
            )
        if self.task not in KNOWN_TASKS:
            raise UnknownTaskError(self.task)
        if not self.gold_answers:
            raise ValueError("gold answers must be non-empty")
        if (self.task == "asqa") != (self.long_form_refs is not None):
            raise ValueError("long-form references are for asqa examples exactly")
        if self.task == "asqa" and not self.answer_sets:
            # Without sets of its own, each gold answer is a set of one.
            object.__setattr__(self, "answer_sets", tuple((g,) for g in self.gold_answers))
        if self.answer_sets is not None and not all(self.answer_sets):
            raise ValueError("every answer set must be non-empty")


def _eval_example(record: dict) -> EvalExample:
    task = record["task"]
    gold_answers = string_list(record["gold_answers"], "gold_answers")
    answer_sets = long_form = None
    if task == "asqa":
        raw_sets = record.get("gold_answer_sets") or ()
        answer_sets = tuple(string_list(s, "gold_answer_sets entry") for s in raw_sets)
        long_form = string_list(record["long_form_refs"], "long_form_refs")
    return EvalExample(
        question=typed_field(record, "question"),
        gold_answers=gold_answers,
        task=task,
        long_form_refs=long_form,
        answer_sets=answer_sets,
    )


def read_eval_examples(path: str | Path) -> list[EvalExample]:
    """Read reference records. asqa rows keep their per-disambiguation answer
    grouping via "gold_answer_sets"; rows without it treat each gold answer
    as its own set."""
    rows = read_jsonl(path, _eval_example, "reference", SchemaMismatchError, (UnknownTaskError,))
    return [example for _, example in rows]


@dataclass(frozen=True)
class EvalReport:
    task: str
    n: int
    metrics: dict[str, float]
    citations: dict[str, float]
    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "n": self.n,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "citations": {k: self.citations[k] for k in sorted(self.citations)},
            "rows": self.rows,
        }

    def format_table(self) -> str:
        display = {"acc": "Acc", "str_em": "Str_EM", "rouge_l": "R-L"}
        header = f"task={self.task} n={self.n}"
        parts = [f"{display.get(k, k)}={self.metrics[k]:.4f}" for k in sorted(self.metrics)]
        parts.append(f"CitePrec={self.citations['precision_mean']:.4f}")
        return header + "\n" + "  ".join(parts)


def _unscorable(item: InferenceTrace | PipelineError) -> str | None:
    """Why a row is an error row rather than scored, or None: its item is a
    PipelineError, or ``validate_trace`` finds a problem in its trace other
    than a citation of a passage not judged Relevant (the first such problem)."""
    if isinstance(item, PipelineError):
        return str(item)
    for violation in validate_trace(item):
        if violation.code != "citation_unsupported":
            return str(violation)
    return None


# The metrics each task reports, by name, each scoring a prediction
# against its reference example.
_ASQA_METRICS = {
    "str_em": lambda prediction, example: str_em(prediction, example.answer_sets),
    "rouge_l": lambda prediction, example: rouge_l(prediction, example.long_form_refs),
}
_ACCURACY = {"acc": lambda prediction, example: match_accuracy(prediction, example.gold_answers)}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def evaluate(
    items: Iterable[InferenceTrace | PipelineError], examples: Sequence[EvalExample], task: str
) -> EvalReport:
    """Score traces against references, paired by position. The items (each a
    trace or the PipelineError that failed it) are streamed once the
    references are checked, and read to their end.

    A PipelineError, or a trace that ``validate_trace`` rejects for
    anything but an unsupported citation, is an error row: it scores as an
    empty prediction, gets no citation precision, and names its fault under
    "error". An unsupported citation lowers the citation precision instead.
    """
    if task not in KNOWN_TASKS:
        raise UnknownTaskError(task)
    for example in examples:
        if example.task != task:
            raise SchemaMismatchError(
                f"reference task {example.task!r} does not match {task!r}"
            )

    scorers = _ASQA_METRICS if task == "asqa" else _ACCURACY
    rows: list[dict] = []
    precision_values: list[float] = []
    errors = 0
    items = drawn_ahead(items)
    # References first: zip draws no item once they run out.
    for position, (example, item) in enumerate(zip(examples, items)):
        row: dict = {"i": position}
        problem = _unscorable(item)
        if problem is not None:
            errors += 1
            prediction = ""
            row["error"] = problem
        else:
            prediction = item.answer
        row["prediction"] = prediction
        for name, score in scorers.items():
            row[name] = score(prediction, example)
        if problem is None:
            row["citation_precision"] = citation_precision(item, example.gold_answers)
            precision_values.append(row["citation_precision"])
        rows.append(row)
    traces = len(rows) + sum(1 for _ in items)
    if traces != len(examples):
        raise SchemaMismatchError(f"{traces} traces but {len(examples)} references")

    metrics = {name: _mean([row[name] for row in rows]) for name in scorers}
    citations = {
        "precision_mean": _mean(precision_values),
        "traces_scored": float(len(precision_values)),
        "errors": float(errors),
    }
    return EvalReport(task=task, n=len(examples), metrics=metrics, citations=citations, rows=rows)
