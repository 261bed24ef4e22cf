"""Differential tests of ``load_index`` over corrupted index files: every
file loads to the index that ``helpers.reference_load_index`` (plain loops
over every entry and posting) loads, or fails with the same message. A
corruption that keeps the columns well-formed is refused by their checksum.

The number of examples is the Hypothesis profile's (see conftest.py);
``HYPOTHESIS_PROFILE=ci`` runs more. Generation is derandomized, so a run
corrupts the same files every time.
"""

import json
import random
import tempfile
import zlib
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import corpus
from factrail.corpus import CorpusError, index_documents, load_index, save_index
from factrail.grammar import TokenKind
from helpers import reference_load_index

_DOCS = [
    ("Moon", "the moon orbits the earth and the moon pulls the tide " * 3),
    ("Sun", "the sun lights the earth by day"),
    ("Tide", "the tide rises twice a day as the moon pulls the sea " * 2),
    ("Earth", "the earth turns and the sun sets and the moon rises"),
]
# Values that a corrupted header field may take: other JSON types, ints out
# of range, a grammar token, non-ASCII text, a lone surrogate and a line break.
_VALUES = [
    None, True, False, 0, -1, 1, 3, 2**40, 1.5, "", "x", "a < b", "<Locator>", "Zoë",
    "\udc80", "a\nb", [], [1], {}, {"id": 0},
]


def _saved_index() -> tuple[dict, bytes, bytes]:
    """The header, row column and tf column of the saved index of ``_DOCS``."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "base.idx"
        save_index(index_documents(_DOCS), path)
        line, _, columns = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    return header, columns[: len(columns) // 2], columns[len(columns) // 2 :]


_HEADER, _ROW_BYTES, _TF_BYTES = _saved_index()
_POSTINGS = len(_TF_BYTES) // 4
_PASSAGES = len(_HEADER["passages"])


def _corrupt_header(rng: random.Random, header: dict) -> None:
    """Retype or remove one field of header: a top-level key, a passage
    entry or one of its keys, a term or a document frequency."""
    where = rng.choice(["top", "entry", "entry field", "term", "doc freq"])
    if where == "top":
        container, key = header, rng.choice(sorted(header))
    elif where == "entry field":
        entries = header.get("passages")
        container = rng.choice(entries) if isinstance(entries, list) and entries else None
        if not isinstance(container, dict) or not container:
            return
        key = rng.choice(sorted(container))
    else:
        name = {"entry": "passages", "term": "terms", "doc freq": "doc_freqs"}[where]
        container = header.get(name)
        if not isinstance(container, list) or not container:
            return
        key = rng.randrange(len(container))
    if rng.random() < 0.3:
        del container[key]
    else:
        container[key] = rng.choice(_VALUES)


def _get_int(column: bytes, at: int) -> int:
    return int.from_bytes(column[4 * at : 4 * at + 4], "little")


def _set_int(column: bytearray, at: int, value: int) -> None:
    column[4 * at : 4 * at + 4] = value.to_bytes(4, "little")


def _row_replacements() -> list[tuple[int, int]]:
    """Each (posting, row) where writing the row, another known one, keeps
    the posting's term strictly ascending."""
    spans = [0, *accumulate(_HEADER["doc_freqs"])]
    found = []
    for start, end in zip(spans, spans[1:]):
        rows = [-1, *(_get_int(_ROW_BYTES, at) for at in range(start, end)), _PASSAGES]
        for at in range(start, end):
            low, row, high = rows[at - start : at - start + 3]
            found += [(at, other) for other in range(low + 1, high) if other != row]
    return found


_ROW_REPLACEMENTS = _row_replacements()


def _corrupted(kind: str, rng: random.Random) -> bytes:
    header = json.loads(json.dumps(_HEADER))
    rows, tfs = bytearray(_ROW_BYTES), bytearray(_TF_BYTES)
    at = rng.randrange(_POSTINGS)
    if kind in ("header", "two in header"):
        for _ in range(1 + (kind == "two in header")):
            _corrupt_header(rng, header)
    elif kind == "bit flip":
        columns = rng.choice([rows, tfs])
        bit = rng.randrange(8 * len(columns))
        columns[bit // 8] ^= 1 << (bit % 8)
    elif kind == "row":
        _set_int(rows, at, rng.choice([_PASSAGES, 2**32 - 1, rng.randint(_PASSAGES, 2**32 - 1)]))
    elif kind == "known row":
        _set_int(rows, *rng.choice(_ROW_REPLACEMENTS))
    elif kind == "swap":
        at = rng.randrange(_POSTINGS - 1)
        rows[4 * at : 4 * at + 8] = rows[4 * at + 4 : 4 * at + 8] + rows[4 * at : 4 * at + 4]
    elif kind == "tf 0":
        _set_int(tfs, at, 0)
    elif kind == "tf":
        _set_int(tfs, at, rng.choice([_get_int(tfs, at) + 1, 2**32 - 1, 256]))
    return _file(header, rows, tfs)


def _file(header: dict, rows: bytes = _ROW_BYTES, tfs: bytes = _TF_BYTES) -> bytes:
    # ASCII JSON, which escapes what UTF-8 cannot encode (a lone surrogate).
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return line.encode() + b"\n" + bytes(rows) + bytes(tfs)


def _outcome(load, path):
    try:
        return load(path)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def _assert_loads_as_the_reference(data: bytes) -> object:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "corrupted.idx"
        path.write_bytes(data)
        want = _outcome(reference_load_index, path)
        assert _outcome(load_index, path) == want
    return want


@settings(deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["header", "two in header", "bit flip", "row", "known row", "swap", "tf 0", "tf"]
    ),
    rng=st.randoms(use_true_random=False),
)
def test_a_corrupted_index_loads_as_the_reference_loads_it(kind, rng):
    _assert_loads_as_the_reference(_corrupted(kind, rng))


def test_the_uncorrupted_index_loads_as_the_reference_loads_it():
    loaded = _assert_loads_as_the_reference(_file(_HEADER))
    assert loaded == index_documents(_DOCS)


def _edited(edit) -> dict:
    header = json.loads(json.dumps(_HEADER))
    edit(header)
    return header


@pytest.mark.parametrize("name", ["title", "text"])
@pytest.mark.parametrize(
    "value", ["<Locator>", "a </eog>", "a < b", "\udc80", "Zoë", "", 7, "a\nb", "Zoë\n", "<Locator>\n"]
)
def test_each_text_field_of_an_entry_is_checked_as_the_reference_checks_it(name, value):
    header = _edited(lambda header: header["passages"][3].update({name: value}))
    _assert_loads_as_the_reference(_file(header))


@pytest.mark.parametrize("value", [0, -3, 1, True, 2.0, "9"])
def test_a_word_count_is_checked_as_the_reference_checks_it(value):
    header = _edited(lambda header: header["passages"][2].update(word_count=value))
    _assert_loads_as_the_reference(_file(header))


def test_a_row_past_the_passages_inside_a_term_is_named_before_the_order():
    # The row names no passage, and it is above the row after it, so the
    # span is out of order too; an unknown row is the fault named first.
    start, end = index_documents(_DOCS).span("moon")
    assert end - start >= 3
    rows = bytearray(_ROW_BYTES)
    _set_int(rows, start + 1, 2**32 - 7)
    outcome = _assert_loads_as_the_reference(_file(_HEADER, rows))
    assert outcome == (
        f"CorpusError: the postings name passage row {2**32 - 7}, but len(passages) = {_PASSAGES}"
    )


def _with_checksums(data: bytes) -> bytes:
    """data with the checksums of its own columns in its header."""
    line, _, columns = data.partition(b"\n")
    header = json.loads(line)
    half = len(columns) // 2
    header["crc32"] = {"rows": zlib.crc32(columns[:half]), "tfs": zlib.crc32(columns[half:])}
    return _file(header, columns[:half], columns[half:])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["tf", "known row"])
def test_a_well_formed_corruption_is_refused_by_the_checksum_alone(kind, seed):
    data = _corrupted(kind, random.Random(seed))
    outcome = _assert_loads_as_the_reference(data)
    assert outcome == "CorpusError: the index columns do not match their checksum"
    # Every other check passes it: with its checksums fixed, the file loads.
    loaded = _assert_loads_as_the_reference(_with_checksums(data))
    assert loaded != index_documents(_DOCS)


def test_the_first_faulty_entry_is_named_when_a_clean_looking_one_follows():
    def edit(header):
        header["passages"][0]["title"] = "The <Locator> stone"
        header["passages"][2]["word_count"] = "100"

    outcome = _assert_loads_as_the_reference(_file(_edited(edit)))
    assert outcome == "CorpusError: passages[0] 'title' holds the grammar token <Locator>"


def test_a_non_ascii_title_takes_the_exact_check_and_loads(monkeypatch):
    checked = []
    exact = corpus._passage_from_entry

    def spy(at, entry):
        checked.append(at)
        return exact(at, entry)

    monkeypatch.setattr(corpus, "_passage_from_entry", spy)

    def edit(header):
        header["passages"][1]["title"] = "Zoë"

    loaded = _assert_loads_as_the_reference(_file(_edited(edit)))
    assert checked == [1]
    assert loaded.passages[1].title == "Zoë"


def test_every_grammar_token_starts_with_the_character_the_quick_check_looks_for():
    assert all(token.value.startswith(corpus._TOKEN_START) for token in TokenKind)


def test_a_tf_whose_low_byte_is_zero_is_not_taken_for_zero():
    tfs = bytearray(_TF_BYTES)
    _set_int(tfs, 0, 512)
    loaded = _assert_loads_as_the_reference(_with_checksums(_file(_HEADER, tfs=tfs)))
    assert loaded.tfs[0] == 512
