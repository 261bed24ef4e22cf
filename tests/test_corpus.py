"""Chunking, BM25 scoring against independent oracles, and index persistence."""

import errno
import gc
import json
import math
import random
import re
import stat
import string
import sys
import threading
import zlib
from array import array
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import corpus
from factrail.corpus import (
    BM25_B,
    BM25_K1,
    CHUNK_WORDS,
    CorpusError,
    EmptyQueryError,
    Passage,
    build_index,
    chunk_document,
    index_documents,
    load_index,
    read_documents,
    retrieve,
    retrieve_multi,
    save_index,
    tokenize,
)
from factrail.grammar import IntentSet

from helpers import (
    VOCAB,
    ZIPF_DRAWS,
    brute_force_bm25,
    exactly,
    join_index,
    make_passage,
    query_postings,
    split_index,
    uint32s,
)


# ---------------------------------------------------------------------------
# tokenization and chunking


def test_tokenize_lowercases_and_splits_on_non_word():
    assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]
    assert tokenize("foo_bar") == ["foo", "bar"]
    assert tokenize("...") == []
    assert tokenize("naïve café") == ["naïve", "café"]


# Characters where the ASCII pass or the non-ASCII scan could part from the
# regex: ASCII separators (punctuation, "_", the whitespace controls \x0b,
# \x0c and \x1c-\x1f), and non-ASCII text whose lowercasing or letter class
# differs from ASCII's: NBSP, "ß", "²", the Kelvin sign and "İ", which lowers
# to "i" plus a combining dot.
_TOKEN_ALPHABET = (
    string.ascii_letters[:6] + "XYZ" + string.digits[:4] + string.punctuation
    + " \t\n\x0b\x0c\x1c\x1d\x1e\x1f" + "\u00a0ß²\u212aİé"
)


# The definition of a term: a maximal run of Unicode letters and digits.
_TERM_RE = re.compile(r"[^\W_]+")


def _regex_tokenize(text):
    return _TERM_RE.findall(text.lower())


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=40))
def test_tokenize_equals_the_unicode_regex(text):
    assert tokenize(text) == _regex_tokenize(text)


@pytest.mark.parametrize(
    "docs",
    [
        [
            ("C++ & C#: a_b", "it's 3.14 -- e.g. x_y, (foo)[bar]{baz} A/B\tC\x0bD\x1fE!?"),
            ("Re: RE: re", "don't-stop  __init__ 1,000,000 v2.0-RC1 ~user@host.org"),
        ],
        [
            ("İstanbul", "Straße² \u212aelvin caf\u00e9\u00a0naïve ΣΊΣΥΦΟΣ 東京 ١٢٣"),
            ("Mixed", "plain ascii words, then Ünïcödé_words and İİ"),
        ],
    ],
    ids=["punctuation-heavy-ascii", "mixed-script"],
)
def test_index_bytes_equal_those_of_the_regex_tokenizer(tmp_path, monkeypatch, docs):
    save_index(index_documents(docs), tmp_path / "fast.idx")
    monkeypatch.setattr(corpus, "tokenize", _regex_tokenize)
    save_index(index_documents(docs), tmp_path / "regex.idx")
    assert (tmp_path / "fast.idx").read_bytes() == (tmp_path / "regex.idx").read_bytes()


def test_chunk_document_sizes():
    words = " ".join(f"w{i}" for i in range(250))
    chunks = chunk_document("Doc", words)
    assert [c.word_count for c in chunks] == [100, 100, 50]
    assert [c.id for c in chunks] == [0, 1, 2]
    assert all(c.title == "Doc" for c in chunks)


def test_chunk_document_reconstructs_body():
    body = "  one\ttwo \n three  four five  "
    chunks = chunk_document("T", body)
    assert " ".join(c.text for c in chunks) == " ".join(body.split())


def test_chunk_document_start_id_and_title_normalization():
    chunks = chunk_document("  Two \n Lines ", "a b c", start_id=7)
    assert chunks[0].id == 7
    assert chunks[0].title == "Two Lines"


def test_chunk_document_rejects_empty():
    with pytest.raises(CorpusError, match=exactly("document 'T' has no words")):
        chunk_document("T", "   \n ")


def test_exact_boundary_makes_single_full_chunk():
    words = " ".join(f"w{i}" for i in range(CHUNK_WORDS))
    chunks = chunk_document("T", words)
    assert len(chunks) == 1
    assert chunks[0].word_count == CHUNK_WORDS


# ---------------------------------------------------------------------------
# BM25 scoring


def test_bm25_hand_computed_scores():
    p0 = make_passage(0, "Alpha", "cat sat")
    p1 = make_passage(1, "Beta", "dog sat sat")
    index = build_index([p0, p1])
    result = retrieve(index, "sat cat", k=2)

    avg = 2.5
    norm0 = 1.0 - BM25_B + BM25_B * 2 / avg
    norm1 = 1.0 - BM25_B + BM25_B * 3 / avg
    idf_sat = math.log(1.0 + (2 - 2 + 0.5) / (2 + 0.5))
    idf_cat = math.log(1.0 + (2 - 1 + 0.5) / (1 + 0.5))
    expected0 = (idf_sat + idf_cat) * 1 * (BM25_K1 + 1) / (1 + BM25_K1 * norm0)
    expected1 = idf_sat * 2 * (BM25_K1 + 1) / (2 + BM25_K1 * norm1)

    assert [pid for pid, _ in result.ranked] == [0, 1]
    assert result.ranked[0][1] == pytest.approx(expected0, abs=1e-12)
    assert result.ranked[1][1] == pytest.approx(expected1, abs=1e-12)


def test_title_terms_are_searchable():
    p0 = make_passage(0, "Photosynthesis", "plants make food")
    p1 = make_passage(1, "Weather", "rain falls down")
    index = build_index([p0, p1])
    result = retrieve(index, "photosynthesis", k=2)
    assert [pid for pid, _ in result.ranked] == [0]


def test_repeated_query_terms_count_once():
    p = make_passage(0, "T", "cat cat dog")
    index = build_index([p])
    once = retrieve(index, "cat", k=1).ranked[0][1]
    thrice = retrieve(index, "cat cat cat", k=1).ranked[0][1]
    assert once == thrice


def test_zero_score_passages_are_excluded():
    p0 = make_passage(0, "A", "cat")
    p1 = make_passage(1, "B", "dog")
    index = build_index([p0, p1])
    result = retrieve(index, "cat", k=5)
    assert [pid for pid, _ in result.ranked] == [0]


def test_out_of_vocabulary_query_returns_empty():
    index = build_index([make_passage(0, "A", "cat")])
    assert retrieve(index, "zebra", k=3).ranked == ()


def test_ties_break_by_ascending_id():
    twin_a = make_passage(5, "Same", "same text here")
    twin_b = make_passage(2, "Same", "same text here")
    index = build_index([twin_a, twin_b])
    result = retrieve(index, "same text", k=2)
    assert [pid for pid, _ in result.ranked] == [2, 5]
    assert result.ranked[0][1] == result.ranked[1][1]


def test_retrieve_argument_validation():
    index = build_index([make_passage(0, "A", "cat")])
    with pytest.raises(ValueError):
        retrieve(index, "cat", k=0)
    with pytest.raises(EmptyQueryError):
        retrieve(index, "!!! ...", k=1)


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(CorpusError, match=exactly("duplicate passage id 0")):
        build_index([make_passage(0, "A", "x"), make_passage(0, "B", "y")])


def _random_corpus(rng, n_docs):
    vocab = [f"term{i}" for i in range(30)]
    passages = []
    next_id = 0
    for d in range(n_docs):
        length = rng.randint(3, 120)
        body = " ".join(rng.choice(vocab) for _ in range(length))
        title = " ".join(rng.sample(vocab, rng.randint(1, 3)))
        chunks = chunk_document(title, body, start_id=next_id)
        next_id += len(chunks)
        passages.extend(chunks)
    return passages


@pytest.mark.parametrize("prune_from", [0, corpus._PRUNE_FROM])
def test_retrieve_matches_brute_force_on_random_corpora(monkeypatch, prune_from):
    monkeypatch.setattr(corpus, "_PRUNE_FROM", prune_from)
    rng = random.Random(42)
    vocab = [f"term{i}" for i in range(30)] + ["zebra"]
    for trial in range(15):
        passages = _random_corpus(rng, rng.randint(3, 12))
        index = build_index(passages)
        for _ in range(5):
            query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            k = rng.randint(1, 10)
            # Both evaluations add the oracle's expression in query order, so
            # even the last bit of each score agrees.
            assert list(retrieve(index, query, k).ranked) == brute_force_bm25(passages, query, k)


class ScanRecordingList(list):
    """A posting column that records the ranges it is scanned over.

    Slicing records its range and iterating records the whole column;
    binary search reads single items, which are not recorded.
    """

    def __init__(self, values):
        super().__init__(values)
        self.scanned = []

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.scanned.append((key.start, key.stop))
        return super().__getitem__(key)

    def __iter__(self):
        self.scanned.append((0, len(self)))
        return super().__iter__()


# The passages that hold "rare" besides "common".
_RARE_PIDS = (7, 57, 107, 157)


def _common_and_rare_passages(size=2 * corpus._PRUNE_FROM):
    """size passages, each holding "common"; four of them also hold "rare".
    So "common rare" has size + 4 postings, by default enough to be pruned."""
    return [
        make_passage(pid, "T", "common " + "rare " * (pid in _RARE_PIDS) + "filler " * (pid % 9))
        for pid in range(size)
    ]


def test_pruning_skips_the_head_term_list():
    passages = _common_and_rare_passages()
    index = build_index(passages)
    start, end = index.span("common")
    index.rows, index.tfs = ScanRecordingList(index.rows), ScanRecordingList(index.tfs)
    got = retrieve(index, "common rare", k=2).ranked
    assert index.rows.scanned == [index.span("rare")]
    for lo, hi in index.rows.scanned:
        assert hi <= start or end <= lo
    # The head term's tfs are read once, by its bound, and its rows never;
    # the rare term's tfs are read by its bound and by its scan.
    assert sorted(index.tfs.scanned) == sorted([(start, end)] + [index.span("rare")] * 2)
    assert index.bounds[start] < corpus.bm25_idf(index.total_docs, end - start) * (BM25_K1 + 1.0)
    # The skipped term still counts in the exact scores.
    assert list(got) == brute_force_bm25(passages, "common rare", 2)


def test_a_warm_scan_reads_kept_weights_and_still_skips_the_head_term_list():
    passages = _common_and_rare_passages()
    index = build_index(passages)
    head_start = index.span("common")[0]
    index.rows, index.tfs = ScanRecordingList(index.rows), ScanRecordingList(index.tfs)
    cold = retrieve(index, "common rare", k=2).ranked
    index.rows.scanned.clear()
    index.tfs.scanned.clear()
    warm = retrieve(index, "common rare", k=2).ranked
    # The warm scan reads the rare term's rows and its kept weights, no tf.
    assert index.rows.scanned == [index.span("rare")]
    assert index.tfs.scanned == []
    assert list(index.weights) == [index.span("rare")[0]]
    assert head_start not in index.weights
    assert warm == cold
    assert list(warm) == brute_force_bm25(passages, "common rare", 2)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_query_is_pruned_only_past_prune_from_postings(monkeypatch, extra):
    # "common rare" holds exactly _PRUNE_FROM postings, or one more.
    passages = _common_and_rare_passages(corpus._PRUNE_FROM - len(_RARE_PIDS) + extra)
    index = build_index(passages)
    common, rare = index.span("common"), index.span("rare")
    assert common[1] - common[0] + rare[1] - rare[0] == corpus._PRUNE_FROM + extra
    probes = []

    def counted_bisect_left(*args):
        probes.append(args)
        return bisect_left(*args)

    monkeypatch.setattr(corpus, "bisect_left", counted_bisect_left)
    index.rows, index.tfs = ScanRecordingList(index.rows), ScanRecordingList(index.tfs)
    got = retrieve(index, "common rare", k=2).ranked
    if extra:
        # MaxScore: the rare list alone is scanned and the head list probed.
        assert index.rows.scanned == [rare]
        assert probes
    else:
        # Term at a time in query order: both lists scanned, nothing probed.
        assert index.rows.scanned == [common, rare]
        assert probes == []
    assert list(got) == brute_force_bm25(passages, "common rare", 2)


def test_pruning_keeps_an_unscanned_passage_that_beats_the_threshold(monkeypatch):
    # Too few postings to be pruned unless every query is.
    monkeypatch.setattr(corpus, "_PRUNE_FROM", 0)
    # After the rare term the best partial score is 0.944 (passages 0, 2, 3).
    # Passage 1, which the rare list never reaches, scores 0.956 from the
    # common term alone: tf 9 at the shortest length here, so that is also
    # the common term's bound. A stop rule looser than the bound by more
    # than 0.012 would rank passage 0 first.
    passages = [make_passage(0, "T", "rare" + " x" * 8), make_passage(1, "T", "common " * 9)]
    passages += [make_passage(pid, "T", "rare" + " y" * 8) for pid in (2, 3)]
    passages += [make_passage(pid, "T", "common" + " y" * 8) for pid in range(4, 8)]
    got = retrieve(build_index(passages), "rare common", k=1).ranked
    assert list(got) == brute_force_bm25(passages, "rare common", 1)
    assert got[0][0] == 1


def _skewed_corpus(rng):
    """600 short passages and copies of 40 of them: "every" in 95% of them,
    ten mid terms in about 30% each, twenty rare terms in about 2%, and
    "scarce" in exactly two."""
    ids = rng.sample(range(5000), 600)
    scarce = set(rng.sample(ids[40:], 2))  # never copied
    passages = []
    for pid in ids:
        words = rng.choices(["filler", "pad", "more"], k=rng.randint(1, 12))
        if rng.random() < 0.95:
            words += ["every"] * rng.randint(1, 3)
        words += [f"mid{m}" for m in range(10) if rng.random() < 0.3]
        words += [f"rare{r}" for r in range(20) if rng.random() < 0.02]
        if pid in scarce:
            words.append("scarce")
        rng.shuffle(words)
        passages.append(make_passage(pid, "T", " ".join(words)))
    # Copies tie exactly, so only the id orders them.
    passages += [replace(p, id=5000 + at) for at, p in enumerate(passages[:40])]
    return passages


_SKEWED_QUERIES = (
    "rare3 every",  # the rare list sets the threshold; "every" is probed, not scanned
    "rare1 mid2 mid5 every",
    "mid0 mid1 mid2 every",  # hundreds of partial scores when the threshold is read
    "scarce every mid4",  # fewer postings than k: the head list is scanned in full
    "every mid7 every rare9",
    "pad every",
)


def test_pruned_retrieve_is_bit_exact_on_long_head_lists(tmp_path, monkeypatch):
    passages = _skewed_corpus(random.Random(17))
    built = build_index(passages)
    save_index(built, tmp_path / "skewed.idx")
    loaded = load_index(tmp_path / "skewed.idx")
    calls = {"nlargest": 0, "bisect probes": 0, "table probes": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    real_probe_table = corpus._probe_table

    def probe_table(index, start, end, probes):
        table = real_probe_table(index, start, end, probes)
        calls["bisect probes" if table is None else "table probes"] += probes
        return table

    monkeypatch.setattr(corpus, "nlargest", counted("nlargest", corpus.nlargest))
    monkeypatch.setattr(corpus, "_probe_table", probe_table)
    for query in _SKEWED_QUERIES:
        expected = brute_force_bm25(passages, query, 10)
        for k in (1, 3, 10):
            for index in (built, loaded):
                assert list(retrieve(index, query, k).ranked) == expected[:k], (query, k)
                # A run on an empty weight cache, then one on the cache it filled.
                fresh = replace(index)
                cold = list(retrieve(fresh, query, k).ranked)
                assert fresh.weights
                assert cold == list(retrieve(fresh, query, k).ranked) == expected[:k], (query, k)
    # Every path ran: heap selection, and probes both by binary search and by
    # table (the cold runs probe by search until a table pays).
    assert calls["nlargest"] > 0, calls
    assert calls["bisect probes"] > 500 and calls["table probes"] > 5000, calls


def test_a_term_weight_array_is_built_once():
    index = build_index(_skewed_corpus(random.Random(17)))
    start, end = index.span("scarce")
    assert end - start == 2
    # The first query is scored term at a time, the second pruned: both
    # evaluations read the one array.
    short, pruned = query_postings(index, "scarce mid4"), query_postings(index, "pad scarce")
    assert short <= corpus._PRUNE_FROM < pruned
    retrieve(index, "scarce mid4", 3)
    kept = index.weights[start]
    retrieve(index, "pad scarce", 3)
    assert index.weights[start] is kept
    # Each weight is the exhaustive scan's expression for its posting.
    idf = corpus.bm25_idf(index.total_docs, 2)
    assert list(kept) == [
        idf * tf * (BM25_K1 + 1.0) / (tf + index.k1_length_norms[row])
        for row, tf in zip(index.rows[start:end], index.tfs[start:end])
    ]
    # The cache is no part of the index's value, and a copy starts empty.
    copy = replace(index)
    assert copy == index and copy.weights == {}


def test_a_probe_table_keeps_a_term_frequency_past_a_byte_exact(monkeypatch):
    # The first probe of "common" builds its table. Three of the passages
    # that also hold "rare", and so are probed, repeat "common" 254, 255 and
    # 300 times: a table holds the first, and 255 for the other two, whose
    # tfs the probe then looks up in the span.
    monkeypatch.setattr(corpus, "_TABLE_RATIO", 10**9)
    heavy = dict(zip(_RARE_PIDS, (254, 255, 300)))
    passages = [
        make_passage(pid, "T", "rare " + "common " * heavy[pid]) if pid in heavy else passage
        for pid, passage in enumerate(_common_and_rare_passages())
    ]
    partial_sums = []

    def kth_largest(values, k):
        partial_sums.append(sorted(values, reverse=True))
        return real_kth_largest(values, k)

    real_kth_largest = corpus._kth_largest
    monkeypatch.setattr(corpus, "_kth_largest", kth_largest)
    for k in (1, 2, 3, 4):
        index = build_index(passages)
        want = brute_force_bm25(passages, "rare common", k)
        assert list(retrieve(index, "rare common", k).ranked) == want
        table = index.tables[index.span("common")[0]]
        assert len(table) == index.total_docs
        assert [table[index.row_ids.index(pid)] for pid in heavy] == [254, 255, 255]
        assert table[index.row_ids.index(_RARE_PIDS[-1])] == 1
    # The scores are rescored in full, so only pruning reads the probes. The
    # last partial sums pruning read, all four passages probed, are the
    # exhaustive scores but for rounding: each probe added the exact tf.
    assert partial_sums[-1] == pytest.approx([score for _, score in want], rel=0, abs=1e-12)


def test_a_probe_table_is_built_once_the_probes_reach_its_df_over_the_ratio(monkeypatch):
    index = build_index(_common_and_rare_passages())
    start, end = index.span("common")
    retrieve(index, "common rare", 2)
    # The first query probes a few passages against the head term: no table.
    probed = index.probed[start]
    assert 0 < probed and probed * corpus._TABLE_RATIO < end - start
    assert index.tables == {}
    # Each run of the query probes as many. At a ratio that makes the fifth
    # run bring the count to exactly df / ratio, that run builds the table,
    # total_docs bytes.
    monkeypatch.setattr(corpus, "_TABLE_RATIO", (end - start) / (5 * probed))
    for run in range(2, 5):
        retrieve(index, "common rare", 2)
        assert index.probed[start] == run * probed and index.tables == {}
    cold = retrieve(index, "common rare", 2)
    assert list(index.tables) == [start] and len(index.tables[start]) == index.total_docs
    assert retrieve(index, "common rare", 2) == cold
    # Tables and counts are no part of the index's value, and a copy starts without them.
    copy = replace(index)
    assert copy == index and copy.tables == {} and copy.probed == {}


# Queries scored term at a time, each sharing a term with the query of
# _SKEWED_QUERIES at its place, which is pruned.
_SHORT_SKEWED_QUERIES = ("rare3 mid2", "scarce rare1 mid5", "mid0 mid1", "mid4 scarce", "rare9 mid7")


def test_threads_that_fill_the_weight_cache_at_once_rank_exactly(monkeypatch):
    passages = _skewed_corpus(random.Random(17))
    index = build_index(passages)
    pairs = list(zip(_SKEWED_QUERIES, _SHORT_SKEWED_QUERIES))
    for pruned, short in pairs:
        assert set(tokenize(pruned)) & set(tokenize(short))
        assert query_postings(index, short) <= corpus._PRUNE_FROM < query_postings(index, pruned)
    queries = set(_SKEWED_QUERIES + _SHORT_SKEWED_QUERIES)
    want = {query: brute_force_bm25(passages, query, 3) for query in queries}

    def run(fresh, barrier, query):
        barrier.wait(timeout=60)
        return retrieve(fresh, query, 3)

    def race(queries):
        """The copy of index on which four threads, released at once, ran queries."""
        fresh, barrier = replace(index), threading.Barrier(4)
        futures = [pool.submit(run, fresh, barrier, query) for query in queries]
        for query, future in zip(queries, futures):
            assert list(future.result(timeout=60).ranked) == want[query], query
        return fresh

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # Four threads on an empty cache, two on each query, fill the
            # shared terms' weights together.
            for pruned, short in pairs * 10:
                race([pruned, short, pruned, short])
            # With every first probe paying for a table, four threads on one
            # pruned query build the skipped terms' tables together.
            monkeypatch.setattr(corpus, "_TABLE_RATIO", 10**9)
            serial = replace(index)
            for pruned in _SKEWED_QUERIES:
                retrieve(serial, pruned, 3)
            # They fill the query's term bounds together too.
            built = 0
            for pruned in _SKEWED_QUERIES * 5:
                fresh = race([pruned] * 4)
                assert all(table == serial.tables[start] for start, table in fresh.tables.items())
                built += len(fresh.tables)
                starts = {index.span(term)[0] for term in tokenize(pruned)}
                assert fresh.bounds == {start: serial.bounds[start] for start in starts}
            assert built
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("size", [1, 7, corpus._HEAP_SELECT_FROM - 1, corpus._HEAP_SELECT_FROM, 2000])
def test_the_kth_largest_score_is_that_of_a_full_sort(size):
    rng = random.Random(size)
    # Few distinct values, so ties are everywhere.
    values = [rng.choice([0.25, 0.5, 1.5, 2.0, 3.125]) * rng.choice([1, 1, 3]) for _ in range(size)]
    for k in range(1, min(size, 12) + 1):
        want = sorted(values, reverse=True)[k - 1]
        assert corpus._kth_largest(values, k) == want
        assert corpus._kth_largest(dict(enumerate(values)).values(), k) == want


def test_postings_are_row_ascending_after_build_and_load(tmp_path):
    rng = random.Random(5)
    ids = rng.sample(range(1000), 40)
    passages = [
        make_passage(pid, rng.choice(VOCAB), " ".join(rng.choices(ZIPF_DRAWS, k=rng.randint(1, 20))))
        for pid in ids
    ]
    built = build_index(passages)
    path = tmp_path / "idx.json"
    save_index(built, path)
    for index in (built, load_index(path)):
        assert index.offsets[0] == 0
        assert index.offsets[-1] == len(index.rows) == len(index.tfs)
        assert index.row_ids == sorted(ids)
        for term in index.term_numbers:
            start, end = index.span(term)
            rows, tfs = index.rows[start:end], index.tfs[start:end]
            assert rows == sorted(set(rows)), term
            assert len(tfs) == len(rows) and min(tfs) >= 1, term


@pytest.mark.parametrize("prune_from", [0, corpus._PRUNE_FROM])
def test_a_term_frequency_lookup_stays_inside_its_span(monkeypatch, prune_from):
    monkeypatch.setattr(corpus, "_PRUNE_FROM", prune_from)
    # Passage 0 holds only "alpha", passage 1 only "beta", and "beta"'s span
    # follows "alpha"'s: rows == [0, 1]. Probing "alpha" for passage 1 lands
    # on the first row past its span, which is 1, and a search of "beta"
    # begun before its span would find passage 0. Either slip would give a
    # passage a tf it does not have.
    passages = [make_passage(0, "alpha", "alpha"), make_passage(1, "beta", "beta beta")]
    index = build_index(passages)
    assert list(index.term_numbers) == ["alpha", "beta"]
    assert index.rows == [0, 1] and list(index.tfs) == [2, 3]
    assert index.span("alpha") == (0, 1) and index.span("beta") == (1, 2)
    assert index.span("gamma") == (0, 0)
    for query in ("alpha", "beta", "alpha beta", "beta alpha"):
        for k in (1, 2):
            assert list(retrieve(index, query, k).ranked) == brute_force_bm25(passages, query, k)


def _tracked_objects_kept_by_load(path):
    # The GC-tracked objects reachable from the loaded index, classes aside.
    # Counting them, not the change in len(gc.get_objects()), leaves out
    # whatever else the interpreter allocates or frees during the load.
    index = load_index(path)
    gc.collect()  # untracks the tuples and dicts that hold only atoms
    seen = {id(index)}
    todo = [index]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    return len(seen)


def test_load_keeps_gc_tracked_objects_per_passage_not_per_term(tmp_path):
    # Equal passages: 50 of 100 words each, drawn from 10 terms in one index
    # and from 5,000 (100 per passage) in the other.
    few = [
        make_passage(pid, "T", " ".join(f"w{(pid + at) % 10}" for at in range(100)))
        for pid in range(50)
    ]
    many = [
        make_passage(pid, "T", " ".join(f"w{pid * 100 + at}" for at in range(100)))
        for pid in range(50)
    ]
    kept = {}
    for name, passages in (("few", few), ("many", many)):
        path = tmp_path / f"{name}.idx"
        save_index(build_index(passages), path)
        kept[name] = _tracked_objects_kept_by_load(path)
    assert len(build_index(many).term_numbers) == 5001
    # A container per term would keep thousands more in the larger index.
    assert abs(kept["many"] - kept["few"]) <= 5, kept


# ---------------------------------------------------------------------------
# multi-intent retrieval


def _animal_index():
    return build_index(
        [
            make_passage(0, "Cats", "cat purrs often"),
            make_passage(1, "Pets", "cat and dog together"),
            make_passage(2, "Dogs", "dog barks loud"),
        ]
    )


def test_retrieve_multi_concatenates_and_deduplicates():
    index = _animal_index()
    passages = retrieve_multi(index, IntentSet(("cat", "dog")), k=2)
    assert [p.id for p in passages] == [0, 1, 2]


def test_retrieve_multi_skips_unindexable_intents():
    index = _animal_index()
    passages = retrieve_multi(index, IntentSet(("!!!", "cat")), k=1)
    assert [p.id for p in passages] == [0]


def test_retrieve_multi_unknown_terms_are_indexable_but_empty():
    index = _animal_index()
    assert retrieve_multi(index, IntentSet(("zebra",)), k=2) == []


def test_retrieve_multi_all_unindexable_raises():
    index = _animal_index()
    with pytest.raises(EmptyQueryError):
        retrieve_multi(index, IntentSet(("!!!", "???")), k=2)


# ---------------------------------------------------------------------------
# persistence and ingestion


def test_save_and_load_round_trip(tmp_path):
    rng = random.Random(3)
    passages = _random_corpus(rng, 6)
    index = build_index(passages)
    path = tmp_path / "corpus.index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.passages == index.passages
    assert loaded.term_numbers == index.term_numbers
    assert loaded.offsets == index.offsets
    assert loaded.rows == index.rows
    assert loaded.row_ids == index.row_ids
    assert loaded.tfs == index.tfs
    assert loaded.avg_doc_length == index.avg_doc_length
    got = retrieve(loaded, "term1 term2", k=5).ranked
    want = retrieve(index, "term1 term2", k=5).ranked
    assert got == want


def test_load_rejects_wrong_version(tmp_path):
    index = build_index([make_passage(0, "A", "cat")])
    path = tmp_path / "idx.json"
    save_index(index, path)
    line, newline, columns = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["version"] = 99
    path.write_bytes(json.dumps(header).encode() + newline + columns)
    with pytest.raises(CorpusError, match=exactly("unsupported index version 99")):
        load_index(path)


def test_index_file_is_a_json_header_then_line_blocks_then_little_endian_columns(tmp_path):
    index = build_index([make_passage(0, "A", "cat dog"), make_passage(300, "Zoë", "dog dog")])
    path = tmp_path / "idx.bin"
    save_index(index, path)
    data = path.read_bytes()
    line, _, _ = data.partition(b"\n")
    header = json.loads(line)
    assert line == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    titles, texts = "A\nZoë\n".encode(), b"cat dog\ndog dog\n"
    terms = "cat\ndog\na\nzoë\n".encode()
    doc_freqs = uint32s([1, 2, 1, 1])
    # Passage 300 is row 1: its place among the passages sorted by id.
    rows, tfs = uint32s([0, 0, 1, 0, 1]), uint32s([1, 1, 2, 1, 1])
    assert header == {
        "format": "factrail-index",
        "version": 5,
        "ids": [0, 300],
        "word_counts": [2, 2],
        "block_bytes": {"titles": len(titles), "texts": len(texts), "terms": len(terms)},
    }
    body = line + b"\n" + titles + texts + terms + doc_freqs + rows + tfs
    assert data == body + zlib.crc32(body).to_bytes(4, "little")


def test_saves_of_one_index_are_byte_identical(tmp_path):
    passages = _random_corpus(random.Random(7), 8)
    index = build_index(passages)
    first, second, again, rebuilt = (tmp_path / f"{name}.idx" for name in "abcd")
    save_index(index, first)
    save_index(index, second)
    save_index(load_index(first), again)
    save_index(build_index(passages), rebuilt)
    assert first.read_bytes() == second.read_bytes() == again.read_bytes() == rebuilt.read_bytes()


@pytest.mark.parametrize("size", [1, 3, 7])
def test_columns_written_in_slices_have_the_bytes_of_one_write(tmp_path, monkeypatch, size):
    # Sparse ids, some negative, so no posting's row equals its passage id.
    passages = [replace(p, id=3 * p.id - 5) for p in _random_corpus(random.Random(7), 8)]
    index = build_index(passages)
    save_index(index, tmp_path / "whole.idx")
    monkeypatch.setattr(corpus, "_WRITE_SLICE", size)
    save_index(index, tmp_path / "sliced.idx")
    assert (tmp_path / "sliced.idx").read_bytes() == (tmp_path / "whole.idx").read_bytes()
    assert load_index(tmp_path / "sliced.idx") == index


@pytest.mark.parametrize("size", [1, 3, 7])
def test_line_blocks_written_in_slices_have_the_bytes_of_one_slice(tmp_path, monkeypatch, size):
    # Non-ASCII titles, so a slice's byte length is not its length in characters.
    passages = [
        replace(p, title=f"{p.title} Zoë Земля") if p.id % 3 else p
        for p in _random_corpus(random.Random(7), 16)
    ]
    index = build_index(passages)
    assert len(passages) > 2 * 7 and len(index.term_numbers) > 2 * 7  # every block spans slices
    save_index(index, tmp_path / "whole.idx")
    monkeypatch.setattr(corpus, "_LINE_SLICE", size)
    save_index(index, tmp_path / "sliced.idx")
    assert (tmp_path / "sliced.idx").read_bytes() == (tmp_path / "whole.idx").read_bytes()
    assert load_index(tmp_path / "sliced.idx") == index


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("text", "a <Locator> b", "passages[5] 'text' holds the grammar token <Locator>"),
        ("title", "T\udc80", "passages[5] 'title' holds the lone surrogate '\\udc80'"),
        ("text", "a\nb", "passages[5] 'text' holds a line break"),
    ],
    ids=["token", "surrogate", "line-break"],
)
def test_a_line_in_a_later_slice_is_named_by_its_line_in_the_block(
    tmp_path, monkeypatch, field, value, message
):
    monkeypatch.setattr(corpus, "_LINE_SLICE", 2)  # line 5 is the second of the third slice
    passages = [make_passage(pid, "T", "word") for pid in range(8)]
    passages[5] = replace(passages[5], **{field: value})
    with pytest.raises(CorpusError, match=exactly(message)):
        save_index(build_index(passages), tmp_path / "idx.bin")
    assert list(tmp_path.iterdir()) == []


def test_a_passage_holds_no_instance_dict_and_refuses_assignment():
    passage = make_passage(0, "Moon", "the moon orbits")
    assert not hasattr(passage, "__dict__")
    with pytest.raises(FrozenInstanceError):
        passage.text = "the sun"
    assert replace(passage, text="the sun") == Passage(0, "Moon", "the sun", passage.word_count)
    assert hash(passage) == hash(make_passage(0, "Moon", "the moon orbits"))
    assert repr(passage) == "Passage(id=0, title='Moon', text='the moon orbits', word_count=3)"


def test_a_host_of_the_other_byte_order_writes_each_uint32_swapped_and_reads_it_back(
    tmp_path, monkeypatch
):
    # Runners are little-endian, so a stand-in for sys whose byte order is
    # the other one ("big" there) takes the branch that swaps every slice.
    passages = [replace(p, id=3 * p.id - 5) for p in _random_corpus(random.Random(7), 8)]
    index = build_index(passages)
    native, other = tmp_path / "native.idx", tmp_path / "other.idx"
    save_index(index, native)
    flipped = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(corpus, "sys", SimpleNamespace(byteorder=flipped))
    monkeypatch.setattr(corpus, "_WRITE_SLICE", 3)  # several slices per column
    save_index(index, other)
    native_header, native_parts = split_index(native.read_bytes())
    other_header, other_parts = split_index(other.read_bytes())
    for name in ("doc_freqs", "rows", "tfs"):
        swapped = array("I", native_parts[name])
        swapped.byteswap()
        assert other_parts[name] == swapped.tobytes() != native_parts[name]
    # Only the columns and the checksum differ: the checksum is of the bytes written.
    assert {**other_parts, "doc_freqs": b"", "rows": b"", "tfs": b""} == {
        **native_parts, "doc_freqs": b"", "rows": b"", "tfs": b""
    }
    assert other_header == native_header
    assert other.read_bytes() == join_index(other_header, other_parts)
    assert load_index(other) == index


def _hand_built(rows, tfs=None):
    """An index of passages 0 and 1 whose one term "word" has these postings."""
    passages = [make_passage(pid, "T", "word") for pid in (0, 1)]
    return replace(
        build_index(passages),
        term_numbers={"word": 0},
        offsets=[0, len(rows)],
        rows=rows,
        tfs=array("I", tfs or [1] * len(rows)),
    )


@pytest.mark.parametrize(
    "rows, bad",
    [([0, 1, 2], 2), ([-1, 0, 1], -1), ([0, 2**32], 2**32), ([0, -1, 1], -1), ([1, 0, 5], 5)],
    ids=["past-the-last", "negative", "beyond-uint32", "negative-and-falling", "late-and-falling"],
)
def test_save_refuses_postings_naming_no_passage(tmp_path, rows, bad):
    # A hand-built index; save_index would otherwise write a file that
    # load_index refuses. A row out of range is named before a fall.
    path = tmp_path / "idx.bin"
    message = f"the postings name passage row {bad}, but len(passages) = 2"
    with pytest.raises(CorpusError, match=exactly(message)):
        save_index(_hand_built(rows), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "rows, tfs, message",
    [
        ([0, 1], [1, 0], "a term frequency in the index is below 1"),
        ([1, 0], [1, 1], "the passage ids of term 'word' are not strictly ascending"),
        ([0, 0], [1, 1], "the passage ids of term 'word' are not strictly ascending"),
        ([1, 5], [0, 1], "a term frequency in the index is below 1"),
    ],
    ids=["zero-tf", "falling", "repeated", "zero-tf-before-bad-row"],
)
def test_save_refuses_what_load_refuses_with_its_message(tmp_path, monkeypatch, rows, tfs, message):
    index, path = _hand_built(rows, tfs), tmp_path / "idx.bin"
    with pytest.raises(CorpusError, match=exactly(message)):
        save_index(index, path)
    assert not path.exists()
    if max(rows) < 2:
        # Written without the check, the file is refused on load with the same message.
        with monkeypatch.context() as patched:
            patched.setattr(corpus, "_check_columns", lambda *args: None)
            save_index(index, path)
        with pytest.raises(CorpusError, match=exactly(message)):
            load_index(path)


def test_save_refuses_a_term_without_postings_with_loads_message(tmp_path):
    index = replace(_hand_built([0, 1]), term_numbers={"word": 0, "none": 1}, offsets=[0, 2, 2])
    with pytest.raises(CorpusError, match=exactly("doc_freqs[1] must be at least 1")):
        save_index(index, tmp_path / "idx.bin")
    assert not (tmp_path / "idx.bin").exists()


# How load_index's column-length message ends for one term of 2 postings.
NEED_20 = "but 4 * len(terms) + 8 * sum(doc_freqs) = 20"


@pytest.mark.parametrize(
    "rows, tfs, message",
    [
        ([0, 1], [1], "index columns hold 16 bytes, " + NEED_20),
        ([0, 1, 1], [1, 1, 1], "index columns hold 28 bytes, " + NEED_20),
        ([0, 1, 1], [1], "the index holds 3 rows but 1 term frequencies"),
    ],
    ids=["a-tf-short", "a-posting-past-the-offsets", "rows-and-tfs-differ"],
)
def test_save_refuses_columns_whose_lengths_disagree_with_the_offsets(
    tmp_path, monkeypatch, rows, tfs, message
):
    index, path = replace(_hand_built([0, 1]), rows=rows, tfs=array("I", tfs)), tmp_path / "idx.bin"
    assert index.offsets == [0, 2]
    with pytest.raises(CorpusError, match=exactly(message)):
        save_index(index, path)
    assert not path.exists()
    if len(rows) == len(tfs):
        # Written without the check, the file is refused on load with the same message.
        with monkeypatch.context() as patched:
            patched.setattr(corpus, "_check_doc_freqs", lambda *args: None)
            save_index(index, path)
        with pytest.raises(CorpusError, match=exactly(message)):
            load_index(path)


@pytest.mark.parametrize(
    "title, text, message",
    [
        ("The <Locator> stone", "a b", "passages[1] 'title' holds the grammar token <Locator>"),
        ("T", "a </eog> b", "passages[1] 'text' holds the grammar token </eog>"),
        ("Mo\non", "a b", "passages[1] 'title' holds a line break"),
        ("T", "a\nb", "passages[1] 'text' holds a line break"),
        ("T\udc80", "a b", "passages[1] 'title' holds the lone surrogate '\\udc80'"),
        ("T", "a \ud800 b", "passages[1] 'text' holds the lone surrogate '\\ud800'"),
    ],
    ids=[
        "token-title", "token-text", "line-break-title", "line-break-text",
        "surrogate-title", "surrogate-text",
    ],
)
def test_save_refuses_a_passage_that_could_not_be_read_back(tmp_path, title, text, message):
    passages = [make_passage(0, "A", "cat"), Passage(1, title, text, 2), make_passage(2, "B", "x")]
    path = tmp_path / "idx.bin"
    with pytest.raises(CorpusError, match=exactly(message)):
        save_index(build_index(passages), path)
    assert not path.exists()


def test_save_refuses_a_term_holding_a_line_break(tmp_path):
    index = replace(_hand_built([0, 1]), term_numbers={"wo\nrd": 0})
    with pytest.raises(CorpusError, match=exactly("terms[0] holds a line break")):
        save_index(index, tmp_path / "idx.bin")
    assert not (tmp_path / "idx.bin").exists()


def test_built_and_loaded_postings_hold_one_int_object_per_row(tmp_path):
    # 300 passages, so most rows are above 256 and not interned by CPython.
    passages = chunk_document("T", "alpha beta " * 15_000, start_id=1000)
    assert len(passages) == 300
    built = build_index(passages)
    path = tmp_path / "idx.bin"
    save_index(built, path)
    loaded = load_index(path)
    for index in (built, loaded):
        assert len(index.rows) == 3 * len(passages)  # alpha, beta and the title t
        assert index.rows[: len(passages)] == list(range(len(passages)))
        assert len({id(row) for row in index.rows}) == len(passages)
        assert index.row_ids == list(range(1000, 1300))


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(CorpusError, match=exactly("missing or wrong format header")):
        load_index(path)
    path.write_text("not json at all")
    message = "not an index file: Expecting value: line 1 column 1 (char 0)"
    with pytest.raises(CorpusError, match=exactly(message)):
        load_index(path)


def test_failed_save_keeps_previous_index_bytes(tmp_path, monkeypatch):
    path = tmp_path / "idx.json"
    save_index(build_index([make_passage(0, "A", "cat")]), path)
    before = path.read_bytes()
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    class HalfWrittenArray(array):
        """A column whose write stops halfway, as on a full disk."""

        def tofile(self, handle):
            data = self.tobytes()
            handle.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(corpus, "array", HalfWrittenArray)
    with pytest.raises(OSError, match="No space left"):
        save_index(build_index([make_passage(0, "B", "dog bird")]), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["idx.json", "plain.txt"]


def test_read_documents_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text(
        json.dumps({"title": "A", "text": "one two"})
        + "\n\n"
        + json.dumps({"title": "B", "text": "three"})
        + "\n"
    )
    assert read_documents(path) == [("A", "one two"), ("B", "three")]


def test_read_documents_reports_bad_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"title": "A", "text": "one"}\n{"no_text": 1}\n')
    with pytest.raises(CorpusError, match="line 2"):
        read_documents(path)


def test_index_documents_assigns_global_ids():
    long_body = " ".join(f"w{i}" for i in range(250))
    index = index_documents([("Long", long_body), ("Short", "tiny body")])
    assert sorted(index.passages) == [0, 1, 2, 3]
    assert index.passages[3].title == "Short"
    assert index.total_docs == 4
