"""Corpus ingestion, fixed-width chunking, and BM25 retrieval.

Documents are split into non-overlapping 100-word passages that carry their
source title. Retrieval runs over an in-memory inverted index with BM25
scoring (k1=1.2, b=0.75) and a stable score-then-id tie-break, so results
are fully deterministic. Indexes persist as versioned JSON, written
atomically; derived structures are rebuilt on load.

Posting lists are kept in ascending passage id. ``retrieve`` prunes exactly
(MaxScore): it scans rare terms first and skips the posting lists of
common terms once their summed upper bounds can no longer lift an unseen
passage into the top k. It looks the skipped terms up by binary search for
the passages still in contention, then rescores the survivors adding terms
in query order, so scores and ranks equal those of an exhaustive scan.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import atomic_path
from .grammar import IntentSet

__all__ = [
    "CHUNK_WORDS",
    "BM25_K1",
    "BM25_B",
    "CorpusError",
    "EmptyDocumentError",
    "DuplicatePassageError",
    "EmptyQueryError",
    "IndexFormatError",
    "Passage",
    "CorpusIndex",
    "RetrievalResult",
    "tokenize",
    "chunk_document",
    "build_index",
    "retrieve",
    "retrieve_multi",
    "save_index",
    "load_index",
    "read_documents",
    "index_documents",
]

CHUNK_WORDS = 100
BM25_K1 = 1.2
BM25_B = 0.75

INDEX_FORMAT = "factrail-index"
INDEX_VERSION = 1

# Absorbs rounding in the partial sums that decide what retrieve may skip.
_PRUNE_SLACK = 1e-9


class CorpusError(Exception):
    pass


class EmptyDocumentError(CorpusError):
    def __init__(self, title: str) -> None:
        super().__init__(f"document {title!r} has no words")


class DuplicatePassageError(CorpusError):
    def __init__(self, passage_id: int) -> None:
        self.passage_id = passage_id
        super().__init__(f"duplicate passage id {passage_id}")


class EmptyQueryError(CorpusError):
    def __init__(self, query: str) -> None:
        super().__init__(f"query {query!r} contains no indexable terms")


class IndexFormatError(CorpusError):
    pass


@dataclass(frozen=True)
class Passage:
    """A chunk of at most CHUNK_WORDS whitespace-delimited words."""

    id: int
    title: str
    text: str
    word_count: int


# Alphanumeric runs, unicode-aware, underscores excluded.
_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TERM_RE.findall(text.lower())


def chunk_document(title: str, body: str, *, start_id: int = 0) -> list[Passage]:
    """Split a document into consecutive passages of at most CHUNK_WORDS words.

    The body is whitespace-normalized first, so joining the passage texts
    with single spaces reconstructs it exactly. Ids are assigned
    sequentially from start_id.
    """
    title = " ".join(title.split())
    words = body.split()
    if not words:
        raise EmptyDocumentError(title)
    passages = []
    for offset, begin in enumerate(range(0, len(words), CHUNK_WORDS)):
        piece = words[begin : begin + CHUNK_WORDS]
        passages.append(
            Passage(
                id=start_id + offset,
                title=title,
                text=" ".join(piece),
                word_count=len(piece),
            )
        )
    return passages


@dataclass
class CorpusIndex:
    """Inverted index over passages. Treat as immutable once built.

    Each posting list holds ``(passage id, term frequency)`` pairs in
    ascending passage id; ``retrieve`` binary-searches them and relies on
    that order.
    """

    passages: dict[int, Passage]
    postings: dict[str, list[tuple[int, int]]]
    length_norms: dict[int, float]
    avg_doc_length: float
    total_docs: int


def build_index(passages: Sequence[Passage]) -> CorpusIndex:
    by_id: dict[int, Passage] = {}
    for passage in passages:
        if passage.id in by_id:
            raise DuplicatePassageError(passage.id)
        by_id[passage.id] = passage
    postings: dict[str, list[tuple[int, int]]] = {}
    for pid in sorted(by_id):
        passage = by_id[pid]
        # Title terms are appended once so titles are searchable.
        counts = Counter(tokenize(passage.text) + tokenize(passage.title))
        for term, tf in counts.items():
            postings.setdefault(term, []).append((pid, tf))
    total = len(by_id)
    avg = sum(p.word_count for p in by_id.values()) / total if total else 0.0
    # BM25's document-length normalisation, 1 - b + b * dl / avgdl.
    length_norms = {
        pid: 1.0 - BM25_B + BM25_B * p.word_count / avg for pid, p in by_id.items()
    }
    return CorpusIndex(
        passages=by_id,
        postings=postings,
        length_norms=length_norms,
        avg_doc_length=avg,
        total_docs=total,
    )


@dataclass(frozen=True)
class RetrievalResult:
    query: str
    ranked: tuple[tuple[int, float], ...]


def bm25_idf(total_docs: int, doc_freq: int) -> float:
    """Lucene-shaped idf, strictly positive for any in-corpus term."""
    return math.log(1.0 + (total_docs - doc_freq + 0.5) / (doc_freq + 0.5))


def _unique_in_order(terms: Iterable[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out


def _kth_largest(values: Iterable[float], k: int) -> float:
    return sorted(values, reverse=True)[k - 1]


def _term_frequency(postings: list[tuple[int, int]], pid: int) -> int:
    """The tf of pid in a pid-ascending posting list, 0 when absent."""
    at = bisect_left(postings, (pid,))
    if at < len(postings) and postings[at][0] == pid:
        return postings[at][1]
    return 0


def retrieve(index: CorpusIndex, query: str, k: int) -> RetrievalResult:
    """Rank passages by BM25 against the query's unique terms.

    Only passages sharing at least one term score, so zero-score passages
    never appear. Ties break by ascending passage id.

    Retrieval is exact but MaxScore-pruned. A term adds less than its bound
    ``idf * (k1 + 1)`` to any passage, because tf saturates. Terms are
    scanned in descending bound. Once the bounds of the unscanned terms sum
    to less than the k-th best partial score (less a 1e-9 slack for
    rounding), no passage the scan has not reached can enter the top k, so
    the rest of the posting lists are skipped; the scan stops there only
    when those lists hold more postings than there are passages to probe
    instead. Each skipped term is then looked up by binary search for the
    passages that could still reach the k-th best score, and the survivors
    are rescored in full: terms added in query order with the
    exhaustive expression, so scores are bit-identical to a full scan.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    terms = _unique_in_order(tokenize(query))
    if not terms:
        raise EmptyQueryError(query)
    # (idf, postings) per matching term, in query order.
    weighted = [
        (bm25_idf(index.total_docs, len(postings)), postings)
        for postings in (index.postings.get(term) for term in terms)
        if postings
    ]
    norms = index.length_norms

    # (bound, postings) per matching term, largest bound first. bound_left[i]
    # and postings_left[i] total the bounds and the postings of scan[i:].
    scan = sorted(
        ((idf * (BM25_K1 + 1.0), postings) for idf, postings in weighted),
        key=lambda item: -item[0],
    )
    bound_left = [0.0] * (len(scan) + 1)
    postings_left = [0] * (len(scan) + 1)
    for i in range(len(scan) - 1, -1, -1):
        bound_left[i] = bound_left[i + 1] + scan[i][0]
        postings_left[i] = postings_left[i + 1] + len(scan[i][1])

    # Partial sums only steer pruning; the rescoring at the end gives the scores.
    partial: dict[int, float] = {}
    threshold = 0.0  # the k-th best partial score, once k passages have one
    scanned = 0
    for bound, postings in scan:
        if postings_left[scanned] > len(partial) >= k:
            threshold = _kth_largest(partial.values(), k)
            if bound_left[scanned] < threshold - _PRUNE_SLACK:
                break
        for pid, tf in postings:
            partial[pid] = partial.get(pid, 0.0) + bound * tf / (tf + BM25_K1 * norms[pid])
        scanned += 1
    else:
        if len(partial) >= k:
            threshold = _kth_largest(partial.values(), k)

    # A candidate is dropped once even every term it has not been scored
    # on could not lift it to the k-th best score.
    candidates = list(partial)
    for i in range(scanned, len(scan) + 1):
        floor = threshold - _PRUNE_SLACK - bound_left[i]
        candidates = [pid for pid in candidates if partial[pid] >= floor]
        if i == len(scan):
            break
        bound, postings = scan[i]
        for pid in candidates:
            tf = _term_frequency(postings, pid)
            if tf:
                partial[pid] += bound * tf / (tf + BM25_K1 * norms[pid])
        if len(candidates) >= k:
            threshold = _kth_largest([partial[pid] for pid in candidates], k)

    scored = []
    for pid in candidates:
        norm = norms[pid]
        score = 0.0
        for idf, postings in weighted:
            tf = _term_frequency(postings, pid)
            if tf:
                score += idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        scored.append((pid, score))
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))[:k]
    return RetrievalResult(query=query, ranked=tuple(ranked))


def retrieve_multi(index: CorpusIndex, intents: IntentSet, k: int) -> list[Passage]:
    """Run per-intent retrieval and concatenate the top-k lists in intent order.

    Duplicates keep their first occurrence, so the output order defines the
    global passage numbering. Intents without indexable terms are skipped;
    if every intent is unindexable the error propagates.
    """
    ordered: list[int] = []
    seen: set[int] = set()
    indexable = 0
    for intent in intents.intents:
        try:
            result = retrieve(index, intent, k)
        except EmptyQueryError:
            continue
        indexable += 1
        for pid, _score in result.ranked:
            if pid not in seen:
                seen.add(pid)
                ordered.append(pid)
    if indexable == 0:
        raise EmptyQueryError("; ".join(intents.intents))
    return [index.passages[pid] for pid in ordered]


# ---------------------------------------------------------------------------
# persistence and ingestion


def save_index(index: CorpusIndex, path: str | Path) -> None:
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "chunk_words": CHUNK_WORDS,
        "bm25": {"k1": BM25_K1, "b": BM25_B},
        "passages": [
            {
                "id": p.id,
                "title": p.title,
                "text": p.text,
                "word_count": p.word_count,
            }
            for p in (index.passages[pid] for pid in sorted(index.passages))
        ],
    }
    with atomic_path(path) as temp:
        temp.write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )


def load_index(path: str | Path) -> CorpusIndex:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"not an index file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise IndexFormatError("missing or wrong format header")
    if payload.get("version") != INDEX_VERSION:
        raise IndexFormatError(f"unsupported index version {payload.get('version')!r}")
    entries = payload.get("passages")
    if not isinstance(entries, list):
        raise IndexFormatError("index has no 'passages' list")
    return build_index([_passage_from_entry(at, entry) for at, entry in enumerate(entries)])


_ENTRY_FIELDS = (("id", int), ("title", str), ("text", str), ("word_count", int))


def _passage_from_entry(at: int, entry: object) -> Passage:
    if not isinstance(entry, dict):
        raise IndexFormatError(f"passages[{at}] is not an object")
    for name, kind in _ENTRY_FIELDS:
        if name not in entry:
            raise IndexFormatError(f"passages[{at}] has no {name!r}")
        value = entry[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise IndexFormatError(
                f"passages[{at}] {name!r} must be {kind.__name__}, not {type(value).__name__}"
            )
    # A positive length keeps every BM25 length norm, and so retrieve's
    # pruning bounds, valid.
    if entry["word_count"] < 1:
        raise IndexFormatError(f"passages[{at}] 'word_count' must be at least 1")
    return Passage(
        id=entry["id"], title=entry["title"], text=entry["text"], word_count=entry["word_count"]
    )


def read_documents(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSONL corpus of {"title", "text"} records."""
    docs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                docs.append((record["title"], record["text"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorpusError(f"bad corpus record on line {lineno}: {exc}") from exc
    return docs


def index_documents(docs: Iterable[tuple[str, str]]) -> CorpusIndex:
    """Chunk and index documents, assigning globally unique passage ids."""
    passages: list[Passage] = []
    next_id = 0
    for title, body in docs:
        chunks = chunk_document(title, body, start_id=next_id)
        next_id += len(chunks)
        passages.extend(chunks)
    return build_index(passages)
