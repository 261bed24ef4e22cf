"""Seeded input generator for the factrail benchmark.

Everything the program under test reads is made here from one integer seed:
a Zipf(s=1) vocabulary, documents, instructions with their intent tables,
raw ``{task, x, y}`` records and ``asqa`` references. The same seed always
gives the same bytes; ``random.Random`` is seeded with strings, which hash
the same way in every process.

Workload shapes and the reason each exists are recorded beside the code in
``SHAPES``, which the run record copies.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import rouge_l, str_em

VOCAB_SIZE = 60_000
DOC_WORDS = 300
# Consonant-vowel syllables; every vocabulary word is an even-length run of
# them, so document titles ("doc", digits) and query ids ("q17") never
# collide with a vocabulary term.
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

SHAPES = {
    "ingest-zipf": {
        "docs": 4000,
        "doc_words": DOC_WORDS,
        "vocab": VOCAB_SIZE,
        "zipf_s": 1.0,
        "why": "corpus write path (index via cli.main) and load_index; no retrieval",
    },
    "answer-zipf": {
        "docs": 4000,
        "doc_words": DOC_WORDS,
        "vocab": VOCAB_SIZE,
        "zipf_s": 1.0,
        "instructions": 100,
        "intents": 3,
        "terms_per_intent": [3, 6],
        "term_ranks": "whole Zipf law, head terms included",
        "why": "retrieval over head terms whose posting lists span most of the corpus",
    },
    "chain-small": {
        "docs": 300,
        "doc_words": DOC_WORDS,
        "vocab": VOCAB_SIZE,
        "zipf_s": 1.0,
        "instructions": 800,
        "intents": 4,
        "terms_per_intent": [2, 4],
        "term_ranks": [200, 3000],
        "max_passages": 12,
        "why": "CLI chain overhead: grammar, prompts, validation, trace I/O, dataset, eval",
    },
}


def word(rank: int) -> str:
    """The vocabulary word of a 0-based Zipf rank (base-70 syllable digits)."""
    digits = []
    while True:
        rank, digit = divmod(rank, len(_SYLLABLES))
        digits.append(_SYLLABLES[digit])
        if rank == 0:
            break
        rank -= 1
    return "".join(reversed(digits))


def vocabulary(size: int = VOCAB_SIZE) -> list[str]:
    return [word(rank) for rank in range(size)]


def zipf_cum_weights(size: int, s: float = 1.0) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(size)))


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"factrail-bench:{seed}:{part}")


def documents(seed: int, n_docs: int) -> list[tuple[str, str]]:
    """n_docs documents of DOC_WORDS Zipf words, in sentences of 8-14 words."""
    rng = _rng(seed, "docs")
    vocab = vocabulary()
    cum = zipf_cum_weights(len(vocab))
    docs = []
    for number in range(n_docs):
        words = rng.choices(vocab, cum_weights=cum, k=DOC_WORDS)
        at = 0
        while at < DOC_WORDS:
            at += rng.randint(8, 14)
            words[min(at, DOC_WORDS) - 1] += "."
        docs.append((f"Doc {number}", " ".join(words)))
    return docs


def corpus_terms(docs: list[tuple[str, str]]) -> set[str]:
    return {w.rstrip(".") for _title, text in docs for w in text.split()}


@dataclass(frozen=True)
class Plan:
    """What the canned backend answers for one instruction."""

    intents: tuple[str, ...]
    fact: str
    answer: str


def _draw_terms(
    rng: random.Random,
    vocab: list[str],
    cum: list[float],
    present: set[str],
    count: int,
) -> list[str]:
    """Draw count distinct corpus terms from the Zipf law given by cum."""
    terms: list[str] = []
    while len(terms) < count:
        term = rng.choices(vocab, cum_weights=cum, k=1)[0]
        if term in present and term not in terms:
            terms.append(term)
    return terms


def answer_instructions(
    seed: int, docs: list[tuple[str, str]], n: int
) -> tuple[list[str], dict[str, Plan]]:
    """n instructions of 3 intents of 3-6 terms drawn from the whole Zipf law.

    Intent lengths cycle through 3-6 and term ranks are drawn by stratified
    sampling of the Zipf distribution, so every seed asks for nearly the
    same retrieval work; seeds differ in which terms meet in a query.
    """
    shape = SHAPES["answer-zipf"]
    per, (low, high) = shape["intents"], shape["terms_per_intent"]
    rng = _rng(seed, "answer")
    vocab = vocabulary()
    cum = zipf_cum_weights(len(vocab))
    present = corpus_terms(docs)
    lengths = (list(range(low, high + 1)) * n)[: per * n]
    rng.shuffle(lengths)
    strata = list(range(sum(lengths)))
    rng.shuffle(strata)

    def term(stratum: int) -> str:
        while True:
            mass = (stratum + rng.random()) / len(strata) * cum[-1]
            candidate = vocab[min(bisect.bisect(cum, mass), len(vocab) - 1)]
            if candidate in present:
                return candidate

    draws = iter(strata)
    instructions, plans = [], {}
    for i in range(n):
        intents = tuple(
            " ".join(term(next(draws)) for _ in range(lengths[per * i + j])) for j in range(per)
        )
        instruction = f"q{i}: " + ", ".join(intents) + "?"
        instructions.append(instruction)
        plans[instruction] = Plan(intents, f"fact for q{i}.", f"answer for q{i}.")
    return instructions, plans


@dataclass(frozen=True)
class ChainInputs:
    instructions: list[str]
    plans: dict[str, Plan]
    raw: list[dict]
    refs: list[dict]
    expected_eval: dict[str, float]


def chain_inputs(seed: int, docs: list[tuple[str, str]], n: int) -> ChainInputs:
    """Instructions of 4 mid-frequency intents, raw records and asqa references.

    The expected eval report values come from the benchmark's own metric
    code (oracle.py), so a drift in factrail's metrics fails the run.
    """
    shape = SHAPES["chain-small"]
    rng = _rng(seed, "chain")
    low, high = shape["term_ranks"]
    fewest, most = shape["terms_per_intent"]
    band = vocabulary()[low:high]
    cum = zipf_cum_weights(high)[low:]
    base = cum[0]
    cum = [c - base + 1e-12 for c in cum]
    present = corpus_terms(docs)
    instructions, plans, raw, refs = [], {}, [], []
    str_em_values, rouge_values = [], []
    for i in range(n):
        intents = tuple(
            " ".join(_draw_terms(rng, band, cum, present, rng.randint(fewest, most)))
            for _ in range(shape["intents"])
        )
        instruction = f"q{i}: " + ", ".join(intents) + "?"
        gold = [" ".join(rng.choices(band, k=2)) for _ in range(2)]
        sentences = [" ".join(rng.choices(band, k=rng.randint(8, 12))) for _ in range(2)]
        sentences[0] = gold[0] + " " + sentences[0]
        if rng.random() < 0.5:
            sentences[1] += " " + gold[1]
        answer = ". ".join(sentences) + "."
        long_form = []
        for _ in range(2):
            words = answer.split()
            for _ in range(len(words) // 4):
                words[rng.randrange(len(words))] = rng.choice(band)
            long_form.append(" ".join(words))
        instructions.append(instruction)
        plans[instruction] = Plan(intents, f"{gold[0]} is supported here.", answer)
        raw.append({"task": "open-qa", "x": instruction, "y": intents[0].split()[0]})
        answer_sets = [[gold[0]], [gold[1]]]
        refs.append(
            {
                "task": "asqa",
                "question": instruction,
                "gold_answers": gold,
                "gold_answer_sets": answer_sets,
                "long_form_refs": long_form,
            }
        )
        str_em_values.append(str_em(answer, answer_sets))
        rouge_values.append(rouge_l(answer, long_form))
    expected = {
        "str_em": sum(str_em_values) / n,
        "rouge_l": sum(rouge_values) / n,
        "precision_mean": 1.0,
    }
    return ChainInputs(instructions, plans, raw, refs, expected)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def write_corpus(path: Path, docs: list[tuple[str, str]]) -> None:
    write_jsonl(path, ({"title": t, "text": x} for t, x in docs))
