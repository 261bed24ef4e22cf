"""Corpus ingestion, fixed-width chunking, and BM25 retrieval.

Documents are split into non-overlapping 100-word passages that carry their
source title. Retrieval runs over an in-memory inverted index with BM25
scoring (k1=1.2, b=0.75) and a stable score-then-id tie-break, so results
are fully deterministic.

Terms are lowercased maximal runs of Unicode letters and digits. ASCII text,
the common case, is tokenized by one translate pass and one split, with no
regex; other text by one regex scan.

The postings sit in two flat columns, passage rows and term frequencies,
term after term; a term's postings are one span of both, in ascending row.
A row is a passage's position among the passages sorted by id; only
``retrieve``'s results are mapped back to ids. An index file (format
version 4, written atomically) stores the columns as they are: one JSON
header line of numbers (passage ids, word counts, block sizes and a CRC-32
of every block and column), then the passage titles, the passage texts and
the terms as three UTF-8 blocks of lines, then the document frequencies and
both posting columns as little-endian uint32. Loading decodes and splits
each block once and keeps the columns whole; it parses no per-passage JSON,
never tokenizes a passage and builds no per-term lists. Saving runs the
same checks. Each check is one pass at C speed over a block or a column;
the per-item code that names a fault runs only once a pass finds one.

``retrieve`` is exact, and picks its evaluation from the query's postings.
A query whose terms hold few postings, as most intents do, is scored
term at a time: each term's weights are added in query order, so each sum
is already the exhaustive score. A longer one is pruned (MaxScore): terms
are scanned from the largest upper bound down, and the spans of common
terms are skipped once their summed bounds can no longer lift an unseen
passage into the top k. A term's bound is its BM25 weight at its largest
tf and the shortest passage's length norm, so taking it costs one pass
over the term's tfs, once per index, and never reads its rows. The
skipped terms are looked up by binary search within the term's span for
the passages still in contention (a heap, not a sort, picks the k-th
best of many partial scores), and the survivors are rescored adding
terms in query order, so scores and ranks equal those of an exhaustive
scan. The first scan of a term keeps the BM25 weight of each of its
postings in the index, the exhaustive scan's own expression, and later
scans by either evaluation add those weights instead of recomputing them.
A skipped term that has been probed for enough passages to pay for it gets
a probe table, one byte per passage holding its tf there, and later probes
read the table instead of binary-searching the span.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from heapq import nlargest
from itertools import accumulate, compress, islice, repeat
from operator import ge, lt
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

from .fileio import atomic_path, read_jsonl, typed_field
from .grammar import IntentSet, first_token, text_violation

__all__ = [
    "CHUNK_WORDS",
    "BM25_K1",
    "BM25_B",
    "CorpusError",
    "EmptyQueryError",
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
INDEX_VERSION = 4
# The line blocks in file order, and what an error calls line i of each.
_BLOCK_LINES = {
    "titles": "passages[{}] 'title'",
    "texts": "passages[{}] 'text'",
    "terms": "terms[{}]",
}
# Every column on disk is uint32: document frequencies, passage rows, term frequencies.
_COLUMN_TYPE = "I"
# save_index converts a column this many values at a time.
_WRITE_SLICE = 1 << 16

# Absorbs rounding in the partial sums that decide what retrieve may skip.
_PRUNE_SLACK = 1e-9
# From this many partial scores on, retrieve picks the k-th best with a heap,
# not a sort: the two cost about the same here at k = 3.
_HEAP_SELECT_FROM = 300
# retrieve scores a query whose matching terms hold at most this many
# postings exhaustively, and prunes one with more (MaxScore). Exhaustive
# over MaxScore time, per-query minimum of 5 alternating warm rounds over
# the benchmark generator's seeds 1-6 (2-vCPU Xeon VM, Python 3.11.7): on
# answer-zipf intents 0.73-0.93 below 448 postings, 1.20 at 448-511 (4
# queries), 0.92 at 512-575 and 1.07-1.18 from 576 on; on chain-small's
# build-dataset queries, all below 384, 0.68-0.74.
_PRUNE_FROM = 512
# A probe table holds min(tf, 255) per passage, so 255 sends a probe to the
# term's postings for the exact tf.
_TABLE_TF_CAP = 255
# retrieve builds a term's probe table once the passages probed against the
# term reach its document frequency over this ratio. Over the probes of a
# warm answer-zipf pass at seeds 1 and 3 (68k and 67k probed passages, 2-vCPU
# Xeon VM, Python 3.11.7), a probe took 328-341 ns by binary search and
# 91-105 ns by table, and a table took 36-38 ns a posting to build: it pays
# for itself after about df / 6.4 probes. Retrieval-only passes over the
# intents of seeds 2 and 4-7 read the same cold time (within 5%) for ratios
# 2 to 16; the warm time falls up to a ratio of 4-6 and levels off after.
_TABLE_RATIO = 6


class CorpusError(Exception):
    pass


class EmptyQueryError(CorpusError):
    def __init__(self, query: str) -> None:
        super().__init__(f"query {query!r} contains no indexable terms")


@dataclass(frozen=True)
class Passage:
    """A chunk of at most CHUNK_WORDS whitespace-delimited words."""

    id: int
    title: str
    text: str
    word_count: int


# Runs of word characters: Unicode letters and digits, and "_", which
# tokenize turns into a space first. A scan for \w makes one class test per
# character, where one for [^\W_] makes two.
_WORD_RE = re.compile(r"\w+")
# On ASCII text a letter or digit is [A-Za-z0-9]. This table lowercases the
# letters and maps every other ASCII character ("_", punctuation, control
# characters, whitespace) to a space, so splitting on whitespace yields the
# same runs.
_ASCII_TERM_CHARS = {
    code: chr(code).lower() if chr(code).isalnum() else " " for code in range(128)
}


def tokenize(text: str) -> list[str]:
    """The terms of text: lowercased maximal runs of Unicode letters and digits."""
    if text.isascii():  # O(1); two C passes instead of a regex scan
        return text.translate(_ASCII_TERM_CHARS).split()
    return _WORD_RE.findall(text.lower().replace("_", " "))


def chunk_document(title: str, body: str, *, start_id: int = 0) -> list[Passage]:
    """Split a document into consecutive passages of at most CHUNK_WORDS words.

    The body is whitespace-normalized first, so joining the passage texts
    with single spaces reconstructs it exactly. Ids are assigned
    sequentially from start_id.
    """
    title = " ".join(title.split())
    words = body.split()
    if not words:
        raise CorpusError(f"document {title!r} has no words")
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

    The postings of every term lie in two flat, parallel columns, ``rows``
    and ``tfs``, term after term in the order of ``term_numbers``; term
    number n owns the span ``offsets[n]:offsets[n + 1]`` of both. A row
    names a passage by its position in ``row_ids``, the passage ids in
    ascending order, so rows rise with ids. Within a span the rows strictly
    rise, because ``retrieve`` binary-searches them: ``build_index``
    appends them so, and ``save_index`` and ``load_index`` refuse any other
    order. This is the layout of the index file's columns, so loading
    allocates no per-term containers.

    ``rows`` is a list holding one int object per row, since reading a row
    out of an array would allocate an int per read. ``tfs`` is a uint32
    array, the file's own type: frequencies are small ints that CPython
    caches, so reading them allocates nothing; the array holds 4 bytes per
    posting where a list holds 8, and it gives the garbage collector
    nothing to traverse. ``k1_length_norms[row]`` is k1 times BM25's length
    norm ``1 - b + b * dl / avgdl`` of that passage, the value every BM25
    denominator adds to tf.

    ``weights`` caches, per term that ``retrieve`` has scanned, the BM25
    weight ``idf * tf * (k1 + 1) / (tf + k1 * norm)`` of each of its
    postings, keyed by the start of the term's span (spans are never empty,
    so no two terms share a start). Both of ``retrieve``'s evaluations read
    it, and the expression is the exhaustive scan's own, so adding a
    passage's weights in query order gives its exact score. It is filled
    lazily on a term's first scan and holds 8 bytes per posting of the
    terms scanned so far; saving, loading and comparing ignore it, and a
    copy made with ``dataclasses.replace`` starts with an empty cache.

    ``bounds`` keeps, keyed the same way, the MaxScore upper bound of each
    term a pruned query has met: the weight expression at the term's largest
    tf and at ``min_k1_length_norm``, which no posting of the term exceeds
    (see ``retrieve``). It costs one read of the term's tfs, never of its
    rows. An empty index has no terms, so no bound, nor its smallest norm,
    is ever taken of it.

    ``tables`` is another such cache, keyed the same way, for the terms
    whose spans MaxScore skips and probes instead: a ``bytearray`` of
    ``total_docs`` bytes holding ``min(tf, 255)`` at each row, 0 where the
    passage lacks the term and 255 where the exact tf must be looked up in
    the span. ``probed`` counts, per term without a table, the passages
    probed against it so far; the table is built once that count reaches
    the term's document frequency over ``_TABLE_RATIO``, the point past
    which its build costs less than the binary searches it replaces. These
    three are ignored like ``weights``. A table is stored only once
    complete, so threads that share an index at worst build equal tables,
    or build one late when an update of a count is lost; threads that take
    a bound at once store equal floats.
    """

    passages: dict[int, Passage]
    term_numbers: dict[str, int]
    offsets: list[int]
    rows: list[int]
    row_ids: list[int]
    tfs: array
    k1_length_norms: list[float]
    avg_doc_length: float
    total_docs: int
    weights: dict[int, array] = field(default_factory=dict, init=False, repr=False, compare=False)
    tables: dict[int, bytearray] = field(default_factory=dict, init=False, repr=False, compare=False)
    probed: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    bounds: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def min_k1_length_norm(self) -> float:
        """The smallest of ``k1_length_norms``, that of the shortest passage."""
        return min(self.k1_length_norms)

    def span(self, term: str) -> tuple[int, int]:
        """The (start, end) of term's postings in rows and tfs; empty if unknown."""
        number = self.term_numbers.get(term)
        if number is None:
            return 0, 0
        return self.offsets[number], self.offsets[number + 1]


def build_index(passages: Sequence[Passage]) -> CorpusIndex:
    by_id: dict[int, Passage] = {}
    for passage in passages:
        if passage.id in by_id:
            raise CorpusError(f"duplicate passage id {passage.id}")
        by_id[passage.id] = passage
    row_ids = sorted(by_id)
    # Each term's postings as one list, row, tf, row, tf, ... by ascending row.
    postings: dict[str, list[int]] = {}
    for row, pid in enumerate(row_ids):
        passage = by_id[pid]
        # Title terms are appended once so titles are searchable.
        counts = Counter(tokenize(passage.text) + tokenize(passage.title))
        for term, tf in counts.items():
            pairs = postings.get(term)
            if pairs is None:
                postings[term] = [row, tf]
            else:
                pairs.append(row)
                pairs.append(tf)
    # Flatten once into the layout that save_index writes and load_index
    # reads. Emptying each term's list once it is copied keeps the build's
    # peak memory below that of holding every posting twice.
    rows: list[int] = []
    tfs = array(_COLUMN_TYPE)
    offsets = [0]
    for pairs in postings.values():
        rows += pairs[::2]
        tfs.fromlist(pairs[1::2])
        offsets.append(len(rows))
        pairs.clear()
    term_numbers = dict(zip(postings, range(len(postings))))
    return _corpus_index(by_id, row_ids, term_numbers, offsets, rows, tfs)


def _corpus_index(
    by_id: dict[int, Passage],
    row_ids: list[int],
    term_numbers: dict[str, int],
    offsets: list[int],
    rows: list[int],
    tfs: array,
) -> CorpusIndex:
    """The index of these parts; row_ids must be the passage ids in ascending order."""
    total = len(by_id)
    avg = sum(p.word_count for p in by_id.values()) / total if total else 0.0
    # k1 times BM25's document-length normalisation 1 - b + b * dl / avgdl:
    # the value retrieve adds to tf in every denominator.
    k1_length_norms = [
        BM25_K1 * (1.0 - BM25_B + BM25_B * by_id[pid].word_count / avg) for pid in row_ids
    ]
    return CorpusIndex(
        passages=by_id,
        term_numbers=term_numbers,
        offsets=offsets,
        rows=rows,
        row_ids=row_ids,
        tfs=tfs,
        k1_length_norms=k1_length_norms,
        avg_doc_length=avg,
        total_docs=total,
    )


@dataclass(frozen=True)
class RetrievalResult:
    ranked: tuple[tuple[int, float], ...]


def bm25_idf(total_docs: int, doc_freq: int) -> float:
    """Lucene-shaped idf, strictly positive for any in-corpus term."""
    return math.log(1.0 + (total_docs - doc_freq + 0.5) / (doc_freq + 0.5))


def _kth_largest(values: Collection[float], k: int) -> float:
    if len(values) < _HEAP_SELECT_FROM:
        return sorted(values, reverse=True)[k - 1]
    return nlargest(k, values)[-1]


def retrieve(index: CorpusIndex, query: str, k: int) -> RetrievalResult:
    """Rank passages by BM25 against the query's unique terms.

    Only passages sharing at least one term score, so zero-score passages
    never appear. Ties break by ascending passage id, which is ascending
    row: passages are scored by row and only the top k mapped to ids.
    Scores are bit-identical to an exhaustive scan that adds each term's
    ``idf * tf * (k1 + 1) / (tf + k1 * norm)`` in query order.

    How it gets there depends on the query's postings, the summed spans of
    its matching terms. Up to ``_PRUNE_FROM`` of them, every term's list is
    scanned and its weights added in query order, so each sum is already
    the exhaustive score: only the k-th best score is read, and only the
    passages at or above it are sorted. Short lists are cheaper to scan
    than to prune. Past that, the scan is MaxScore-pruned. A term adds at
    most its bound ``idf * T * (k1 + 1) / (T + k1 * norm_min)`` to any
    passage, where T is its largest tf and norm_min the smallest length
    norm in the index. A weight rises with tf and falls with the norm. The
    norm enters only the denominator, and rounding is monotone, so the
    computed weight keeps that order exactly; a step of tf raises the true
    weight by more than rounding can move it for every tf below about ten
    million, and past that rounding moves it by some 1e-15 of itself, which
    the slack below absorbs. Terms are scanned in descending bound. Once
    the bounds of the unscanned terms sum to less than the k-th best
    partial score (less a 1e-9 slack for rounding), no passage the scan
    has not reached can enter the top k, so the rest of the posting lists
    are skipped; the scan stops there only when those lists hold more
    postings than there are passages to probe instead. Each skipped term
    is then looked up by binary search within its span, or in its probe
    table once it has one, for the passages that could still reach the
    k-th best score, and the survivors are rescored in full, terms added
    in query order.

    Both evaluations read a term's posting weights from ``index.weights``,
    filling them on the term's first scan. A pruned query reads each term's
    bound from ``index.bounds``, filled by one read of the term's tfs the
    first time a pruned query meets it; a skipped term's rows are read only
    to build its table in ``index.tables``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    terms = list(dict.fromkeys(tokenize(query)))  # unique, in query order
    if not terms:
        raise EmptyQueryError(query)
    # (idf, start, end) per matching term, in query order; the term's
    # postings are rows[start:end] and tfs[start:end].
    weighted = [
        (bm25_idf(index.total_docs, end - start), start, end)
        for start, end in map(index.span, terms)
        if end > start
    ]
    if sum(end - start for _, start, end in weighted) > _PRUNE_FROM:
        scored = _maxscore(index, weighted, k)
    else:
        rows = index.rows
        scores: dict[int, float] = {}
        for idf, start, end in weighted:
            span = rows[start:end]
            for row, weight in zip(span, _kept_weights(index, idf, start, span)):
                scores[row] = scores.get(row, 0.0) + weight
        scored = scores.items()
        if len(scores) > k:
            threshold = _kth_largest(scores.values(), k)
            scored = [item for item in scored if item[1] >= threshold]
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))[:k]
    row_ids = index.row_ids
    return RetrievalResult(ranked=tuple((row_ids[row], score) for row, score in ranked))


def _kept_weights(index: CorpusIndex, idf: float, start: int, span: list[int]) -> array:
    """The BM25 weight of each of a term's postings, span being its rows.

    A weight depends on nothing but the index, so a term's first scan
    computes them into ``index.weights`` and every later scan reads them
    back. The expression is the exhaustive scan's own, so adding the
    weights in query order gives its scores bit for bit.
    """
    weights = index.weights.get(start)
    if weights is None:
        k1_norms = index.k1_length_norms
        tfs = index.tfs[start : start + len(span)]
        weights = index.weights[start] = array(
            "d", [idf * tf * (BM25_K1 + 1.0) / (tf + k1_norms[row]) for row, tf in zip(span, tfs)]
        )
    return weights


def _maxscore(
    index: CorpusIndex, weighted: list[tuple[float, int, int]], k: int
) -> list[tuple[int, float]]:
    """The exact scores, by row, of the passages that may be in the top k.

    weighted holds (idf, start, end) per matching term in query order.
    Terms are scanned in descending ``_term_bound``, which no posting of the
    term exceeds (see ``retrieve``); a skipped term costs one read of its
    tfs, for its bound, once per index.
    """
    rows, tfs, k1_norms = index.rows, index.tfs, index.k1_length_norms
    # The matching terms, largest bound first. bound_left[i] and
    # postings_left[i] total the bounds and the postings of scan[i:].
    bounds = {start: _term_bound(index, idf, start, end) for idf, start, end in weighted}
    scan = sorted(weighted, key=lambda item: -bounds[item[1]])
    backwards = scan[::-1]
    bound_left = [*accumulate((bounds[start] for _, start, _ in backwards), initial=0.0)][::-1]
    postings_left = [*accumulate((end - start for _, start, end in backwards), initial=0)][::-1]

    # Partial sums only steer pruning; the rescoring at the end gives the scores.
    partial: dict[int, float] = {}
    threshold = 0.0  # the k-th best partial score, once k passages have one
    scanned = 0
    for idf, start, end in scan:
        if postings_left[scanned] > len(partial) >= k:
            threshold = _kth_largest(partial.values(), k)
            if bound_left[scanned] < threshold - _PRUNE_SLACK:
                break
        span = rows[start:end]
        for row, weight in zip(span, _kept_weights(index, idf, start, span)):
            partial[row] = partial.get(row, 0.0) + weight
        scanned += 1
    else:
        if len(partial) >= k:
            threshold = _kth_largest(partial.values(), k)

    # A candidate is dropped once even every term it has not been scored
    # on could not lift it to the k-th best score. Each probe reads the
    # term's table or bisects only the term's own span, which every index
    # keeps strictly ascending, so a passage in a neighbouring term's span
    # is never found.
    floor = threshold - _PRUNE_SLACK - bound_left[scanned]
    candidates = [row for row, score in partial.items() if score >= floor]
    for i in range(scanned, len(scan)):
        idf, start, end = scan[i]
        table = _probe_table(index, start, end, len(candidates))
        if table is None:
            for row in candidates:
                at = bisect_left(rows, row, start, end)
                if at < end and rows[at] == row:
                    tf = tfs[at]
                    partial[row] += idf * tf * (BM25_K1 + 1.0) / (tf + k1_norms[row])
        else:
            for row in compress(candidates, map(table.__getitem__, candidates)):
                tf = table[row]
                if tf == _TABLE_TF_CAP:
                    tf = tfs[bisect_left(rows, row, start, end)]
                partial[row] += idf * tf * (BM25_K1 + 1.0) / (tf + k1_norms[row])
        if len(candidates) >= k:
            threshold = _kth_largest([partial[row] for row in candidates], k)
        floor = threshold - _PRUNE_SLACK - bound_left[i + 1]
        candidates = [row for row in candidates if partial[row] >= floor]

    # The rescoring reads a tabled term's tf from its table, and bisects the
    # span of any other term, or of a tabled term whose table reads 255.
    terms = [(idf, start, end, index.tables.get(start)) for idf, start, end in weighted]
    scored = []
    for row in candidates:
        score = 0.0
        for idf, start, end, table in terms:
            if table is None:
                at = bisect_left(rows, row, start, end)
                if at == end or rows[at] != row:
                    continue
                tf = tfs[at]
            else:
                tf = table[row]
                if not tf:
                    continue
                if tf == _TABLE_TF_CAP:
                    tf = tfs[bisect_left(rows, row, start, end)]
            score += idf * tf * (BM25_K1 + 1.0) / (tf + k1_norms[row])
        scored.append((row, score))
    return scored


def _term_bound(index: CorpusIndex, idf: float, start: int, end: int) -> float:
    """The BM25 weight expression of the term whose postings span start:end
    at its largest tf and the index's smallest length norm, kept in
    ``index.bounds`` by the first call, which reads the term's tfs."""
    bound = index.bounds.get(start)
    if bound is None:
        top = max(index.tfs[start:end])
        bound = index.bounds[start] = idf * top * (BM25_K1 + 1.0) / (top + index.min_k1_length_norm)
    return bound


def _probe_table(index: CorpusIndex, start: int, end: int, probes: int) -> bytearray | None:
    """The probe table of the term whose postings span start:end, or None.

    probes is the number of passages about to be probed against the term.
    The table is built, and kept in ``index.tables``, once the passages
    probed against the term reach its document frequency over
    ``_TABLE_RATIO``; until then the count grows in ``index.probed``.
    """
    table = index.tables.get(start)
    if table is not None:
        return table
    probed = index.probed.get(start, 0) + probes
    if probed * _TABLE_RATIO < end - start:
        index.probed[start] = probed
        return None
    table = bytearray(index.total_docs)
    tfs = index.tfs[start:end]
    capped = map(min, tfs, repeat(_TABLE_TF_CAP)) if max(tfs) > _TABLE_TF_CAP else tfs
    for row, tf in zip(index.rows[start:end], capped):
        table[row] = tf
    index.tables[start] = table  # published only once complete
    return table


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
    """Write ``index`` to ``path`` in format version 4, atomically.

    The layout is one line of compact JSON (the header: the passage ids and
    word counts in ascending id order, the byte length of each line block
    and the CRC-32 of every block and column as written), then three UTF-8
    line blocks, each line ended by ``\\n``: the passage titles and texts in
    ascending id order, then the terms in build order. Last come three
    little-endian uint32 columns: each term's document frequency, the
    postings' passage rows, and their term frequencies. Equal indexes give
    equal bytes. A block is joined and encoded once, and a column is
    converted a slice at a time, never whole: once for the header's
    checksum, then again to write it.

    Raises CorpusError, with ``load_index``'s message and writing nothing,
    for what ``load_index`` would refuse: passage ids that are not ints, a
    word count below 1, a title, text or term holding a grammar token, a
    lone surrogate or a line break, a term with no postings, columns whose
    lengths disagree with the document frequencies, a tf below 1, a row
    that names no passage, or a term whose rows are not strictly ascending.
    """
    ids, terms = index.row_ids, list(index.term_numbers)
    offsets, rows, tfs = index.offsets, index.rows, index.tfs
    passages = list(map(index.passages.__getitem__, ids))
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "ids": ids,
        "word_counts": [p.word_count for p in passages],
    }
    _passage_numbers(header)
    blocks = {
        "titles": _line_block("titles", [p.title for p in passages]),
        "texts": _line_block("texts", [p.text for p in passages]),
        "terms": _line_block("terms", terms),
    }
    doc_freqs = [end - start for start, end in zip(offsets, islice(offsets, 1, None))]
    _check_doc_freqs(doc_freqs, len(terms), 4 * (len(doc_freqs) + len(rows) + len(tfs)))
    if len(rows) != len(tfs):
        raise CorpusError(f"the index holds {len(rows)} rows but {len(tfs)} term frequencies")
    _check_columns(terms, offsets, rows, tfs, len(ids))
    columns = {"doc_freqs": doc_freqs, "rows": rows, "tfs": tfs}
    header["block_bytes"] = {name: len(block) for name, block in blocks.items()}
    header["crc32"] = {
        **{name: zlib.crc32(block) for name, block in blocks.items()},
        **{name: _column_crc(column) for name, column in columns.items()},
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with atomic_path(path) as temp, open(temp, "wb") as handle:
        handle.write(line.encode("ascii"))
        handle.write(b"\n")
        for block in blocks.values():
            handle.write(block)
        for column in columns.values():
            for part in _file_slices(column):
                part.tofile(handle)


def _line_block(name: str, lines: list[str]) -> bytes:
    """lines as the UTF-8 block ``name``, each ended by ``\\n``.

    Raises CorpusError naming the first line that holds a grammar token, a
    lone surrogate or a line break: none could be read back as that line.
    """
    text = "\n".join([*lines, ""])
    if text.count("\n") == len(lines) and first_token(text) is None:
        with suppress(UnicodeEncodeError):
            return text.encode("utf-8")
    raise _line_fault(name, lines)


def _line_fault(name: str, lines: list[str]) -> CorpusError:
    """The error naming the first line of block ``name`` that holds a
    grammar token, a lone surrogate or a line break, one of which a pass
    over the whole block has found."""
    for at, line in enumerate(lines):
        problem = text_violation(line)
        if problem is None and "\n" in line:
            problem = "holds a line break"
        if problem is not None:
            return CorpusError(f"{_BLOCK_LINES[name].format(at)} {problem}")
    raise ValueError(f"no line of the {name} block is at fault")


def _file_slices(column: Sequence[int]) -> Iterator[array]:
    """column as the file stores it, little-endian uint32, a slice at a time."""
    for at in range(0, len(column), _WRITE_SLICE):
        part = array(_COLUMN_TYPE, column[at : at + _WRITE_SLICE])
        if sys.byteorder != "little":
            part.byteswap()
        yield part


def _column_crc(column: Sequence[int]) -> int:
    crc = 0
    for part in _file_slices(column):
        crc = zlib.crc32(part, crc)
    return crc


def _check_doc_freqs(doc_freqs: Sequence[int], term_count: int, column_bytes: int) -> None:
    """Raise CorpusError unless every document frequency is at least 1 and
    the columns hold the bytes that term_count terms with these need."""
    if doc_freqs and min(doc_freqs) < 1:
        at = next(at for at, freq in enumerate(doc_freqs) if freq < 1)
        raise CorpusError(f"doc_freqs[{at}] must be at least 1")
    need = 4 * term_count + 8 * sum(doc_freqs)
    if column_bytes != need:
        raise CorpusError(
            f"index columns hold {column_bytes} bytes, "
            f"but 4 * len(terms) + 8 * sum(doc_freqs) = {need}"
        )


def _check_columns(
    terms: list[str], offsets: list[int], rows: Sequence[int], tfs: array, passage_count: int | None
) -> None:
    """Raise CorpusError naming the first fault unless every tf is at least
    1, every row names one of passage_count passages and each term's rows
    strictly rise. A passage_count of None skips the range test: loading
    has proved every row in range while sharing the row objects. Rows may
    fall only where a term starts; once that holds, a term's first and last
    rows bound the rest. Only failing columns are scanned to name the fault."""
    # Unsigned, so 0 is the only tf below 1. A zero has a zero low byte, the
    # first of its four in the file, so only a column holding a multiple of
    # 256 is searched in full.
    if any(b"\0" in part.tobytes()[::4] for part in _file_slices(tfs)) and 0 in tfs:
        raise CorpusError("a term frequency in the index is below 1")
    falls = sum(map(ge, rows, islice(rows, 1, None)))
    starts = islice(offsets, 1, len(offsets) - 1)
    if falls == sum(1 for start in starts if rows[start - 1] >= rows[start]) and (
        passage_count is None
        or (
            min(map(rows.__getitem__, offsets[:-1]), default=0) >= 0
            and max((rows[end - 1] for end in islice(offsets, 1, None)), default=0) < passage_count
        )
    ):
        return
    if passage_count is not None:
        for row in rows:
            if not 0 <= row < passage_count:
                raise CorpusError(
                    f"the postings name passage row {row}, but len(passages) = {passage_count}"
                )
    term_ends = {end - 1 for end in islice(offsets, 1, None)}
    for at in compress(range(len(rows) - 1), map(ge, rows, islice(rows, 1, None))):
        if at not in term_ends:
            term = terms[bisect_right(offsets, at) - 1]
            raise CorpusError(f"the passage ids of term {term!r} are not strictly ascending")


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index that ``save_index`` wrote, checking every part of it.

    Raises CorpusError, naming the fault, for anything else: a header that
    is not JSON or nests too deeply, a version 1, 2 or 3 file, passage ids
    that are not strictly ascending ints, word counts that are not ints of
    at least 1 or not one per id, a missing block size, blocks longer than
    the file, a block that does not end with a line break, a passage block
    whose lines are not one per id, a line that is not UTF-8 or holds a
    grammar token, a repeated term, columns too short for the document
    frequencies or whose length disagrees with them, a document frequency
    or tf below 1, a row past the last passage, a term whose rows are not
    strictly ascending, or, once all of that holds, a block or column whose
    CRC-32 differs from the one in the header.

    Each check is one pass at C speed over a block or column (the row check
    is the bounds check of sharing the row objects), and the per-item code
    that names the fault runs only when that pass finds one, so a file with
    several faults reports the first in file order of the first check it
    fails.
    """
    with open(path, "rb") as handle:
        header = _read_header(handle)
        ids, word_counts = _passage_numbers(header)
        sizes = _block_sizes(header)
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size < sum(sizes.values()):
            raise CorpusError(
                f"the index blocks need {sum(sizes.values())} bytes, but {size} follow the header"
            )
        checksums, lines = {}, {}
        for name, block_size in sizes.items():
            block = handle.read(block_size)
            checksums[name] = zlib.crc32(block)
            lines[name] = _block_lines(name, block, None if name == "terms" else len(ids))
            size -= block_size
        titles, texts, terms = lines.values()
        term_numbers = dict(zip(terms, range(len(terms))))
        if len(term_numbers) != len(terms):
            repeated = next(term for term, count in Counter(terms).items() if count > 1)
            raise CorpusError(f"the terms block lists {repeated!r} twice")
        if size < 4 * len(terms):
            raise CorpusError(
                f"index columns hold {size} bytes, fewer than 4 * len(terms) = {4 * len(terms)}"
            )
        doc_freqs, checksums["doc_freqs"] = _read_column(handle, len(terms))
        _check_doc_freqs(doc_freqs, len(terms), size)
        offsets = [0, *accumulate(doc_freqs)]
        rows, checksums["rows"] = _read_column(handle, offsets[-1])
        tfs, checksums["tfs"] = _read_column(handle, offsets[-1])
    by_id = dict(zip(ids, map(Passage, ids, titles, texts, word_counts)))
    # A row's postings share its one int object; about 20% faster than list(map(...)) on
    # CPython 3.11. A row past the last passage stops it, and _check_columns names it.
    shared = list(range(len(ids)))
    passage_count = None
    try:
        rows = [shared[row] for row in rows]
    except IndexError:
        passage_count = len(shared)
    _check_columns(terms, offsets, rows, tfs, passage_count)
    stored = header.get("crc32")
    for name, crc in checksums.items():
        if not isinstance(stored, dict) or stored.get(name) != crc:
            raise CorpusError(f"the index {name} do not match their checksum")
    return _corpus_index(by_id, ids, term_numbers, offsets, rows, tfs)


def _read_header(handle: BinaryIO) -> dict:
    line = handle.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except RecursionError:
        raise CorpusError("the index header nests arrays or objects too deeply") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # A version 1 index is one JSON document, pretty-printed by default,
        # so its first line alone does not parse.
        try:
            header = json.loads((line + handle.read()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            header = None
        if not (isinstance(header, dict) and header.get("version") == 1):
            raise CorpusError(f"not an index file: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
        raise CorpusError("missing or wrong format header")
    version = header.get("version")
    if type(version) is int and version in (1, 2, 3):
        raise CorpusError(
            f"index format version {version} is no longer read; re-run `factrail index` "
            "on the corpus to rebuild the index"
        )
    if version != INDEX_VERSION:
        raise CorpusError(f"unsupported index version {version!r}")
    return header


def _passage_numbers(header: dict) -> tuple[list[int], list[int]]:
    ids, word_counts = header.get("ids"), header.get("word_counts")
    # JSON gives no subclass of int but bool, which the type test refuses.
    if not isinstance(ids, list) or not set(map(type, ids)) <= {int}:
        raise CorpusError("index has no 'ids' list of ints")
    if not isinstance(word_counts, list) or len(word_counts) != len(ids):
        raise CorpusError("index has no 'word_counts' list as long as 'ids'")
    if not all(map(lt, ids, islice(ids, 1, None))):
        at = next(at for at in range(1, len(ids)) if ids[at] <= ids[at - 1])
        raise CorpusError(f"ids[{at}] = {ids[at]} is not above ids[{at - 1}] = {ids[at - 1]}")
    # A positive length keeps every BM25 length norm, and so retrieve's
    # pruning bounds, valid.
    if set(map(type, word_counts)) <= {int} and min(word_counts, default=1) >= 1:
        return ids, word_counts
    for at, words in enumerate(word_counts):  # names the first bad count
        if type(words) is not int:
            raise CorpusError(f"word_counts[{at}] must be int, not {type(words).__name__}")
        if words < 1:
            raise CorpusError(f"word_counts[{at}] must be at least 1")
    return ids, word_counts


def _block_sizes(header: dict) -> dict[str, int]:
    sizes = header.get("block_bytes")
    if not isinstance(sizes, dict):
        sizes = {}
    for name in _BLOCK_LINES:
        if type(sizes.get(name)) is not int or sizes[name] < 0:
            raise CorpusError(f"index has no byte count for its {name} block")
    return {name: sizes[name] for name in _BLOCK_LINES}


def _block_lines(name: str, block: bytes, count: int | None) -> list[str]:
    """The lines of block ``name``, which must hold count of them if given."""
    if block[-1:] not in (b"", b"\n"):
        raise CorpusError(f"the index {name} block does not end with a line break")
    held = block.count(b"\n")
    if count is not None and held != count:
        raise CorpusError(f"the index {name} block holds {held} lines, but 'ids' lists {count}")
    # Strict UTF-8 decodes no lone surrogate, and a line break ends each line.
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = block.count(b"\n", 0, exc.start)
        raise CorpusError(f"{_BLOCK_LINES[name].format(at)} is not UTF-8") from None
    lines = text.split("\n")
    lines.pop()  # the empty string after the last line break
    if first_token(text) is not None:
        raise _line_fault(name, lines)
    return lines


def _read_column(handle: BinaryIO, count: int) -> tuple[array, int]:
    """The next count uint32 of handle, and the CRC-32 of their bytes."""
    raw = handle.read(4 * count)
    column = array(_COLUMN_TYPE, raw)
    if sys.byteorder != "little":
        column.byteswap()
    return column, zlib.crc32(raw)


def _document(row: dict) -> tuple[str, str]:
    return typed_field(row, "title"), typed_field(row, "text")


def read_documents(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSONL corpus of {"title", "text"} records."""
    return [doc for _, doc in read_jsonl(path, _document, "corpus record", CorpusError)]


def index_documents(docs: Iterable[tuple[str, str]]) -> CorpusIndex:
    """Chunk and index documents, assigning globally unique passage ids.

    A title or text that ``text_violation`` rejects (a grammar token or a
    lone surrogate) is refused: a passage holding one could never be put
    into a prompt. Documents are numbered from 1 in the order given, which
    is their line in a corpus file read by ``read_documents`` unless the
    file has blank lines.
    """
    passages: list[Passage] = []
    next_id = 0
    for number, (title, body) in enumerate(docs, start=1):
        for field_name, value in (("title", title), ("text", body)):
            problem = text_violation(value)
            if problem is not None:
                raise CorpusError(
                    f"document {number} ({title!r}): its {field_name} {problem}, "
                    "which no passage may contain"
                )
        chunks = chunk_document(title, body, start_id=next_id)
        next_id += len(chunks)
        passages.extend(chunks)
    return build_index(passages)
