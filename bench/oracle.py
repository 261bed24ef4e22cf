"""Reference implementations the benchmark checks factrail's outputs against.

They share no code with factrail: an exhaustive BM25 scorer that reads every
passage for every query, and the answer metrics used to predict ``eval``.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter

K1 = 1.2
B = 0.75

_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


def terms(text: str) -> list[str]:
    return _TERM_RE.findall(text.lower())


def unique_terms(query: str) -> list[str]:
    return list(dict.fromkeys(terms(query)))


class ExhaustiveBM25:
    """Scores every passage for every query; no inverted index.

    Term statistics are gathered once for the terms of the queries given up
    front, by one pass over all passages.
    """

    def __init__(self, passages, queries) -> None:
        wanted = {t for q in queries for t in unique_terms(q)}
        self._ids = []
        self._lengths = []
        self._tf: list[dict[str, int]] = []
        self._df: Counter = Counter()
        for passage in passages:
            bag = Counter(terms(passage.text) + terms(passage.title))
            hits = {t: bag[t] for t in wanted if t in bag}
            self._df.update(hits.keys())
            self._ids.append(passage.id)
            self._lengths.append(passage.word_count)
            self._tf.append(hits)
        self._avg = sum(self._lengths) / len(self._lengths)

    def doc_freq(self, term: str) -> int:
        return self._df[term]

    def rank(self, query: str, k: int) -> list[tuple[int, float]]:
        n = len(self._ids)
        query_terms = unique_terms(query)
        idf = {t: math.log(1.0 + (n - self._df[t] + 0.5) / (self._df[t] + 0.5)) for t in query_terms}
        scored = []
        for pid, length, tf in zip(self._ids, self._lengths, self._tf):
            norm = 1.0 - B + B * length / self._avg
            score = 0.0
            for term in query_terms:
                count = tf.get(term, 0)
                if count:
                    score += idf[term] * count * (K1 + 1.0) / (count + K1 * norm)
            if score > 0.0:
                scored.append((pid, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def ranking_problem(expected, actual) -> str | None:
    """Order must match exactly and scores within 1e-9."""
    if [pid for pid, _ in expected] != [pid for pid, _ in actual]:
        return f"order {[p for p, _ in actual]} != oracle {[p for p, _ in expected]}"
    for (pid, want), (_, got) in zip(expected, actual):
        if abs(want - got) > 1e-9:
            return f"passage {pid} score {got!r} != oracle {want!r}"
    return None


_PUNCT = str.maketrans("", "", string.punctuation)


def normalize(text: str) -> list[str]:
    words = text.lower().translate(_PUNCT).split()
    return [w for w in words if w not in ("a", "an", "the")]


def _lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def rouge_l(prediction: str, references) -> float:
    pred = normalize(prediction)
    best = 0.0
    for reference in references:
        ref = normalize(reference)
        lcs = _lcs(pred, ref) if pred and ref else 0
        if lcs:
            p, r = lcs / len(pred), lcs / len(ref)
            best = max(best, 2 * p * r / (p + r))
    return best


def str_em(prediction: str, answer_sets) -> float:
    text = " ".join(normalize(prediction))
    hits = sum(1 for golds in answer_sets if any(" ".join(normalize(g)) in text for g in golds))
    return hits / len(answer_sets)
