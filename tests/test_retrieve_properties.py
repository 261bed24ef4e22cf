"""Property tests of retrieval: both of ``retrieve``'s evaluations, term at a
time and MaxScore-pruned, give the exhaustive oracle's ranking and scores bit
for bit, on a built index and on its saved and loaded copy, and on one index
over a batch run three times while its probe tables appear; and a batch
whose workers fill one index's weight cache at once writes the bytes of a
serial run, whatever the schedule.

The number of examples is the Hypothesis profile's (see conftest.py);
``HYPOTHESIS_PROFILE=ci`` runs more.
"""

import functools
import random
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import corpus
from factrail.backends import ScriptedBackend, prompt_text
from factrail.corpus import (
    build_index,
    index_documents,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from factrail.grammar import (
    LocatorJudgment,
    Relevance,
    StepKind,
    format_judgment,
    parse_retrieval_body,
    parse_trajectory,
    render_instruction,
)
from factrail.orchestrator import InferenceConfig, run_batch, write_traces

from helpers import VOCAB, ZIPF_DRAWS, brute_force_bm25, make_passage, query_postings

# _PRUNE_FROM values that send every query down one evaluation: no query
# has more than 0 postings, and none of these cases has a billion.
EVALUATIONS = {"maxscore": 0, "term-at-a-time": 10**9}

HEAD = "every"


@st.composite
def tie_heavy_cases(draw):
    """A small Zipf-skewed corpus with duplicated passages, a query and a k."""
    originals = draw(
        st.lists(
            st.tuples(
                st.sampled_from(VOCAB),
                st.lists(st.sampled_from(ZIPF_DRAWS), min_size=1, max_size=30),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=10,
        )
    )
    # Copies of a passage tie exactly, so only the id orders them. Sparse
    # ids, negative ones among them, keep a passage's row apart from its id.
    bodies = [(title, words) for title, words, copies in originals for _ in range(copies)]
    if draw(st.booleans()):
        bodies = [(title, words + [HEAD]) for title, words in bodies]
    ids = draw(st.lists(st.integers(-400, 400), min_size=len(bodies), max_size=len(bodies), unique=True))
    passages = [make_passage(pid, title, " ".join(words)) for pid, (title, words) in zip(ids, bodies)]
    query = draw(st.lists(st.sampled_from(VOCAB + [HEAD, "zebra"]), min_size=1, max_size=8))
    k = draw(st.integers(1, len(passages) + 3))
    return passages, " ".join(query), k


@pytest.mark.parametrize("prune_from", EVALUATIONS.values(), ids=EVALUATIONS.keys())
@settings(deadline=None)
@given(tie_heavy_cases())
def test_retrieve_matches_brute_force_on_tie_heavy_corpora(prune_from, case):
    passages, query, k = case
    built = build_index(passages)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "idx.bin"
        save_index(built, path)
        loaded = load_index(path)
    # The oracle adds the same expression in query order, so even the last
    # bit agrees.
    want = brute_force_bm25(passages, query, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_PRUNE_FROM", prune_from)
        for index in (built, loaded):
            assert list(retrieve(index, query, k).ranked) == want


# ---------------------------------------------------------------------------
# a batch's bytes do not depend on its schedule


def _batch_documents():
    """700 one-passage documents: "alpha" in about 95% of them, "beta" in
    80%, mid0-mid5 in 10% each and rare0-rare9 in 1.5% each."""
    rng = random.Random(5)
    shares = [("alpha", 0.95), ("beta", 0.8)]
    shares += [(f"mid{m}", 0.1) for m in range(6)] + [(f"rare{r}", 0.015) for r in range(10)]
    docs = []
    for n in range(700):
        words = rng.choices(["filler", "pad", "more"], k=rng.randint(2, 14))
        words += [term for term, share in shares if rng.random() < share]
        rng.shuffle(words)
        docs.append((f"doc{n}", " ".join(words)))
    return docs


BATCH_INDEX = index_documents(_batch_documents())
# Intents scored term at a time, and intents pruned that share their terms.
SHORT_INTENTS = ("rare1 mid2", "mid0 mid3 rare4", "rare5", "mid1")
HEAD_INTENTS = ("alpha rare1", "beta mid2 rare5", "alpha beta mid0", "rare4 alpha mid1")
STAGES = (StepKind.RECONSTRUCTOR, StepKind.LOCATOR, StepKind.GENERATOR)


def test_the_batch_intents_take_both_evaluations():
    short = [query_postings(BATCH_INDEX, intent) for intent in SHORT_INTENTS]
    head = [query_postings(BATCH_INDEX, intent) for intent in HEAD_INTENTS]
    assert 0 < min(short) and max(short) <= corpus._PRUNE_FROM < min(head)
    head_terms = {term for intent in HEAD_INTENTS for term in tokenize(intent)}
    assert all(set(tokenize(intent)) & head_terms for intent in SHORT_INTENTS)


# A ratio at which the head terms' tables pay after about ten probed passages,
# so that on BATCH_INDEX they appear partway through a batch's first pass.
BATCH_TABLE_RATIO = 60
BATCH_QUERIES = SHORT_INTENTS + HEAD_INTENTS + ("alpha beta", "beta rare3", "mid5 alpha rare7 beta")


@functools.cache
def _batch_oracle(query):
    return brute_force_bm25(list(BATCH_INDEX.passages.values()), query, 5)


def test_probe_tables_appear_partway_through_a_batch(monkeypatch):
    monkeypatch.setattr(corpus, "_TABLE_RATIO", BATCH_TABLE_RATIO)
    index = replace(BATCH_INDEX)
    tables = []
    for intent in HEAD_INTENTS:
        retrieve(index, intent, 3)
        tables.append(len(index.tables))
    assert tables[0] == 0 < tables[-1]


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(BATCH_QUERIES), st.integers(1, 5)), min_size=1, max_size=12))
def test_a_batch_run_three_times_ranks_exactly_while_its_tables_appear(batch):
    # One index for the three passes: each probe of a head term adds to its
    # count, and the probe that pays builds the table the rest then read.
    index = replace(BATCH_INDEX)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_TABLE_RATIO", BATCH_TABLE_RATIO)
        for _ in range(3):
            for query, k in batch:
                assert list(retrieve(index, query, k).ranked) == _batch_oracle(query)[:k], query


class DelayedReplies:
    """Answers each stage after the delay drawn for it: the instruction's
    intents, a judgment of every passage listed (the first Relevant), and an
    answer citing passage 1."""

    def __init__(self, plans, delays):
        self.plans = {render_instruction(i): plan for i, plan in plans.items()}
        self.delays = {render_instruction(i): delay for i, delay in delays.items()}
        self.script = ScriptedBackend()

    def generate(self, request):
        stage = next(stage for stage in STAGES if stage.head is request.head)
        time.sleep(self.delays.get(request.instruction, (0.0,) * 3)[STAGES.index(stage)])
        if stage is StepKind.RECONSTRUCTOR:
            body = "Search(" + "; ".join(self.plans[request.instruction]) + ")"
        elif stage is StepKind.LOCATOR:
            steps = parse_trajectory(request.prior_trajectory).steps
            retrieval = next(s.body for s in steps if s.kind is StepKind.RETRIEVAL)
            entries = parse_retrieval_body(retrieval)
            fact = " ".join(entries[0][1].split()[:3]) + "."
            judgments = [LocatorJudgment(1, Relevance.RELEVANT, fact)]
            judgments += [
                LocatorJudgment(i, Relevance.IRRELEVANT, None) for i in range(2, len(entries) + 1)
            ]
            body = "\n".join(map(format_judgment, judgments))
        else:
            body = "the answer\n[Cite]: [1]"
        self.script.add_reply(prompt_text(request), body)
        return self.script.generate(request)


def _trace_bytes(instructions, backend, max_workers):
    # A copy of the index starts with an empty weight cache.
    index = replace(BATCH_INDEX)
    items = run_batch(instructions, index, backend, InferenceConfig(), max_workers=max_workers)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "traces.jsonl"
        write_traces(items, path)
        return path.read_bytes()


delay = st.sampled_from([0.0, 0.0005, 0.002])


@settings(deadline=None)
@given(
    cases=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(SHORT_INTENTS + HEAD_INTENTS), min_size=1, max_size=3, unique=True
            ),
            st.tuples(delay, delay, delay),
        ),
        min_size=1,
        max_size=8,
    ),
    max_workers=st.integers(1, 4),
)
def test_a_batch_writes_the_bytes_of_a_serial_run_whatever_the_schedule(cases, max_workers):
    instructions = [f"q{n}: {', '.join(intents)}?" for n, (intents, _) in enumerate(cases)]
    plans = {instruction: intents for instruction, (intents, _) in zip(instructions, cases)}
    delays = {instruction: drawn for instruction, (_, drawn) in zip(instructions, cases)}
    serial = _trace_bytes(instructions, DelayedReplies(plans, {}), 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _trace_bytes(instructions, DelayedReplies(plans, delays), max_workers)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert serial.count(b"\n") == len(instructions) and b'"error"' not in serial
