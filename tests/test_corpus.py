"""Chunking, BM25 scoring against independent oracles, and index persistence."""

import errno
import json
import math
import random
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail.corpus import (
    BM25_B,
    BM25_K1,
    CHUNK_WORDS,
    CorpusError,
    DuplicatePassageError,
    EmptyDocumentError,
    EmptyQueryError,
    IndexFormatError,
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

from helpers import brute_force_bm25


def make_passage(pid, title, text):
    return Passage(id=pid, title=title, text=text, word_count=len(text.split()))


# ---------------------------------------------------------------------------
# tokenization and chunking


def test_tokenize_lowercases_and_splits_on_non_word():
    assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]
    assert tokenize("foo_bar") == ["foo", "bar"]
    assert tokenize("...") == []
    assert tokenize("naïve café") == ["naïve", "café"]


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
    with pytest.raises(EmptyDocumentError):
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
    with pytest.raises(DuplicatePassageError):
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


def test_retrieve_matches_brute_force_on_random_corpora():
    rng = random.Random(42)
    vocab = [f"term{i}" for i in range(30)] + ["zebra"]
    for trial in range(15):
        passages = _random_corpus(rng, rng.randint(3, 12))
        index = build_index(passages)
        for _ in range(5):
            query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            k = rng.randint(1, 10)
            expected = brute_force_bm25(passages, query, k)
            got = retrieve(index, query, k).ranked
            assert [pid for pid, _ in got] == [pid for pid, _ in expected]
            for (_, got_score), (_, want_score) in zip(got, expected):
                assert got_score == pytest.approx(want_score, abs=1e-9)


VOCAB = [f"w{i}" for i in range(12)]
# Term w<r> is drawn about 12/(r+1) times as often as w0: Zipf-skewed text.
ZIPF_DRAWS = [term for rank, term in enumerate(VOCAB) for _ in range(12 // (rank + 1))]
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
    # Copies of a passage tie exactly, so only the id orders them.
    bodies = [(title, words) for title, words, copies in originals for _ in range(copies)]
    if draw(st.booleans()):
        bodies = [(title, words + [HEAD]) for title, words in bodies]
    ids = draw(st.lists(st.integers(0, 400), min_size=len(bodies), max_size=len(bodies), unique=True))
    passages = [make_passage(pid, title, " ".join(words)) for pid, (title, words) in zip(ids, bodies)]
    query = draw(st.lists(st.sampled_from(VOCAB + [HEAD, "zebra"]), min_size=1, max_size=8))
    k = draw(st.integers(1, len(passages) + 3))
    return passages, " ".join(query), k


@settings(max_examples=300, deadline=None)
@given(tie_heavy_cases())
def test_pruned_retrieve_matches_brute_force(case):
    passages, query, k = case
    got = retrieve(build_index(passages), query, k).ranked
    expected = brute_force_bm25(passages, query, k)
    assert [pid for pid, _ in got] == [pid for pid, _ in expected]
    # Stronger than agreeing within 1e-9: the oracle adds the same expression
    # in query order, so even the last bit agrees.
    assert list(got) == expected


class IterationCountingList(list):
    """A posting list that counts full scans; binary search does not count."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_pruning_skips_the_head_term_list():
    passages = [
        make_passage(pid, "T", "common " + ("rare " if pid % 50 == 7 else "") + "filler " * (pid % 9))
        for pid in range(200)
    ]
    index = build_index(passages)
    head = IterationCountingList(index.postings["common"])
    index.postings["common"] = head
    got = retrieve(index, "common rare", k=2).ranked
    assert head.scans == 0
    # The skipped term still counts in the exact scores.
    assert list(got) == brute_force_bm25(passages, "common rare", 2)


def test_pruning_keeps_an_unscanned_passage_that_beats_the_threshold():
    # After the rare term the best partial score is 0.944 (passages 0, 2, 3).
    # The common term's bound is 1.083, and passage 1, which the rare list
    # never reaches, scores 0.956 from the common term alone. A stop rule
    # looser than the bound by more than 0.14 would rank passage 0 first.
    passages = [make_passage(0, "T", "rare" + " x" * 8), make_passage(1, "T", "common " * 9)]
    passages += [make_passage(pid, "T", "rare" + " y" * 8) for pid in (2, 3)]
    passages += [make_passage(pid, "T", "common" + " y" * 8) for pid in range(4, 8)]
    got = retrieve(build_index(passages), "rare common", k=1).ranked
    assert list(got) == brute_force_bm25(passages, "rare common", 1)
    assert got[0][0] == 1


def test_postings_are_pid_ascending_after_build_and_load(tmp_path):
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
        for term, postings in index.postings.items():
            pids = [pid for pid, _ in postings]
            assert pids == sorted(set(pids)), term


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
    assert loaded.postings == index.postings
    assert loaded.avg_doc_length == index.avg_doc_length
    got = retrieve(loaded, "term1 term2", k=5).ranked
    want = retrieve(index, "term1 term2", k=5).ranked
    assert got == want


def test_load_rejects_wrong_version(tmp_path):
    index = build_index([make_passage(0, "A", "cat")])
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(IndexFormatError):
        load_index(path)
    path.write_text("not json at all")
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_failed_save_keeps_previous_index_bytes(tmp_path, monkeypatch):
    path = tmp_path / "idx.json"
    save_index(build_index([make_passage(0, "A", "cat")]), path)
    before = path.read_bytes()
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def half_then_disk_full(self, data, encoding=None):
        with open(self, "w", encoding=encoding) as handle:
            handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_disk_full)
    with pytest.raises(OSError):
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
