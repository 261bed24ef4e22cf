"""Differential tests of ``load_index`` over corrupted index files: every
file loads to the index that ``helpers.reference_load_index`` (plain loops
over every header number, block line and posting) loads, or fails with the
same message. A corruption that keeps the header, every block and every
column well-formed is refused by the checksum, and so is every flip of a
single bit.

The number of examples is the Hypothesis profile's (see conftest.py);
``HYPOTHESIS_PROFILE=ci`` runs more. Generation is derandomized, so a run
corrupts the same files every time.
"""

import copy
import random
import tempfile
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import corpus
from factrail.corpus import CorpusError, index_documents, load_index, save_index
from helpers import (
    BLOCKS,
    join_index,
    reference_load_index,
    sized,
    split_index,
    uint32s,
)

_DOCS = [
    ("Moon", "the moon orbits the earth and the moon pulls the tide " * 3),
    ("Sun", "the sun lights the earth by day"),
    ("Tide", "the tide rises twice a day as the moon pulls the sea " * 2),
    ("Earth", "the earth turns and the sun sets and the moon rises"),
]
# Values that a corrupted header number may take: other JSON types, ints
# out of range and in range, and a string.
_VALUES = [None, True, False, 0, -1, 1, 3, 2**40, 1.5, "", "x", [], [1], {}, {"titles": 0}]
# What a corrupted line may gain: a grammar token, text that only looks
# like one, non-ASCII text, and bytes that are not UTF-8 (a lone surrogate
# as UTF-8 would encode it, a stray continuation byte, a cut sequence).
_TEXTS = ["<Locator>", "a </eog>", "a < b", "Zoë", "Земля", " "]
_NOT_UTF8 = [b"\xed\xb2\x80", b"\x80", b"\xc3", b"\xff"]


def _get_int(column: bytes, at: int) -> int:
    return int.from_bytes(column[4 * at : 4 * at + 4], "little")


def _lines(block: bytes) -> list[bytes]:
    return block.split(b"\n")[:-1]


def _block(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


def _saved_index() -> bytes:
    """The saved index file of ``_DOCS``, 917 bytes."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "base.idx"
        save_index(index_documents(_DOCS), path)
        return path.read_bytes()


_SAVED = _saved_index()
_HEADER, _PARTS = split_index(_SAVED)
# The saved file's checksum, which a corruption of the file leaves as it was.
_CRC = _SAVED[-4:]
_POSTINGS = len(_PARTS["tfs"]) // 4
_PASSAGES = len(_HEADER["ids"])
_DOC_FREQS = [_get_int(_PARTS["doc_freqs"], at) for at in range(len(_PARTS["doc_freqs"]) // 4)]


def _corrupt_header(rng: random.Random, header: dict) -> None:
    """Retype, change or remove one header number: a top-level entry, a
    passage id or word count, or a block size."""
    where = rng.choice(["top", "ids", "word_counts", "block_bytes"])
    container = header if where == "top" else header.get(where)
    if isinstance(container, dict) and container:
        key = rng.choice(sorted(container))
    elif isinstance(container, list) and container:
        key = rng.randrange(len(container))
    else:
        return
    value = container[key]
    if rng.random() < 0.2:
        del container[key]
    elif type(value) is int and rng.random() < 0.5:
        container[key] = value + rng.choice([-1, 1])
    else:
        container[key] = rng.choice(_VALUES)


def _set_int(column: bytearray, at: int, value: int) -> None:
    column[4 * at : 4 * at + 4] = value.to_bytes(4, "little")


def _row_replacements() -> list[tuple[int, int]]:
    """Each (posting, row) where writing the row, another known one, keeps
    the posting's term strictly ascending."""
    spans = [0, *accumulate(_DOC_FREQS)]
    found = []
    for start, end in zip(spans, spans[1:]):
        rows = [-1, *(_get_int(_PARTS["rows"], at) for at in range(start, end)), _PASSAGES]
        for at in range(start, end):
            low, row, high = rows[at - start : at - start + 3]
            found += [(at, other) for other in range(low + 1, high) if other != row]
    return found


_ROW_REPLACEMENTS = _row_replacements()


def _edit_line(rng: random.Random, block: bytes, edit) -> bytes:
    """block with one of its lines passed through edit."""
    lines = _lines(block)
    at = rng.randrange(len(lines))
    lines[at] = edit(lines[at])
    return _block(lines)


def _insert(rng: random.Random, line: bytes, piece: bytes) -> bytes:
    at = rng.randint(0, len(line))
    return line[:at] + piece + line[at:]


def _corrupted(kind: str, rng: random.Random) -> bytes:
    header, parts = copy.deepcopy(_HEADER), dict(_PARTS)
    name = rng.choice(BLOCKS)
    block = parts[name]
    if kind in ("header", "two in header"):
        for _ in range(1 + (kind == "two in header")):
            _corrupt_header(rng, header)
        return join_index(header, parts, _CRC)
    if kind == "block byte":
        at = rng.randrange(len(block))
        parts[name] = block[:at] + bytes([rng.randrange(256)]) + block[at + 1 :]
    elif kind == "line break removed":
        at = rng.choice([at for at, byte in enumerate(block) if byte == ord("\n")])
        parts[name] = block[:at] + block[at + 1 :]
    elif kind == "line break inserted":
        at = rng.randrange(len(block) + 1)
        parts[name] = block[:at] + b"\n" + block[at:]
    elif kind == "not UTF-8":
        parts[name] = _edit_line(rng, block, lambda line: _insert(rng, line, rng.choice(_NOT_UTF8)))
    elif kind == "text":
        piece = rng.choice(_TEXTS).encode()
        parts[name] = _edit_line(rng, block, lambda line: _insert(rng, line, piece))
    else:
        parts.update(_corrupted_columns(kind, rng))
        return join_index(header, parts, _CRC)
    # A block that changed length moves its true size into the header, so
    # that the file reaches the checks of the block's lines.
    header["block_bytes"] = sized(header, parts)["block_bytes"]
    return join_index(header, parts, _CRC)


def _corrupted_columns(kind: str, rng: random.Random) -> dict[str, bytes]:
    doc_freqs, rows, tfs = (bytearray(_PARTS[name]) for name in ("doc_freqs", "rows", "tfs"))
    at = rng.randrange(_POSTINGS)
    if kind == "bit flip":
        flipped = rng.choice([doc_freqs, rows, tfs])
        bit = rng.randrange(8 * len(flipped))
        flipped[bit // 8] ^= 1 << (bit % 8)
    elif kind == "doc freq":
        term = rng.randrange(len(_DOC_FREQS))
        _set_int(doc_freqs, term, rng.choice([0, _DOC_FREQS[term] - 1, _DOC_FREQS[term] + 1]))
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
    return {"doc_freqs": bytes(doc_freqs), "rows": bytes(rows), "tfs": bytes(tfs)}


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


_KINDS = [
    "header", "two in header", "block byte", "line break removed", "line break inserted",
    "not UTF-8", "text",
    "bit flip", "doc freq", "row", "known row", "swap", "tf 0", "tf",
]


@settings(deadline=None, derandomize=True)
@given(kind=st.sampled_from(_KINDS), rng=st.randoms(use_true_random=False))
def test_a_corrupted_index_loads_as_the_reference_loads_it(kind, rng):
    _assert_loads_as_the_reference(_corrupted(kind, rng))


def test_the_uncorrupted_index_loads_as_the_reference_loads_it():
    assert join_index(_HEADER, _PARTS) == _SAVED
    loaded = _assert_loads_as_the_reference(_SAVED)
    assert loaded == index_documents(_DOCS)


def _with_line(name: str, at: int, line: bytes) -> bytes:
    """The saved file with line ``at`` of block ``name`` replaced, its block
    size and checksum true."""
    lines = _lines(_PARTS[name])
    lines[at] = line
    parts = {**_PARTS, name: _block(lines)}
    return join_index(sized(_HEADER, parts), parts)


@pytest.mark.parametrize("name", BLOCKS)
@pytest.mark.parametrize(
    "line",
    [
        "<Locator>", "a </eog>", "a < b", "Zoë", "", "a\nb", "Zoë\n", "<Locator>\n",
        b"\xed\xb2\x80", b"Zo\xc3", b"\xff<Locator>",
    ],
)
def test_each_block_line_is_checked_as_the_reference_checks_it(name, line):
    raw = line if isinstance(line, bytes) else line.encode()
    _assert_loads_as_the_reference(_with_line(name, 2, raw))


@pytest.mark.parametrize("value", [0, -3, 1, True, 2.0, "9"])
def test_a_word_count_is_checked_as_the_reference_checks_it(value):
    header = copy.deepcopy(_HEADER)
    header["word_counts"][2] = value
    _assert_loads_as_the_reference(join_index(header, _PARTS))


def test_a_row_past_the_passages_inside_a_term_is_named_before_the_order():
    # The row names no passage, and it is above the row after it, so the
    # span is out of order too; an unknown row is the fault named first.
    start, end = index_documents(_DOCS).span("moon")
    assert end - start >= 3
    rows = bytearray(_PARTS["rows"])
    _set_int(rows, start + 1, 2**32 - 7)
    outcome = _assert_loads_as_the_reference(join_index(_HEADER, {**_PARTS, "rows": bytes(rows)}))
    assert outcome == (
        f"CorpusError: the postings name passage row {2**32 - 7}, but len(passages) = {_PASSAGES}"
    )


def _word_count_changed(rng: random.Random) -> bytes:
    """The saved file with one passage's word count changed to another."""
    header = copy.deepcopy(_HEADER)
    at = rng.randrange(_PASSAGES)
    header["word_counts"][at] += rng.randint(1, 5)
    return join_index(header, _PARTS, _CRC)


def _letter_changed(rng: random.Random) -> bytes:
    """The saved file with one letter of a title or text changed to another."""
    header, parts = copy.deepcopy(_HEADER), dict(_PARTS)
    name = rng.choice(["titles", "texts"])
    block = parts[name]
    at = rng.choice([at for at, byte in enumerate(block) if chr(byte).isalpha()])
    other = rng.choice([letter for letter in b"xyzXYZ" if letter != block[at]])
    parts[name] = block[:at] + bytes([other]) + block[at + 1 :]
    return join_index(header, parts, _CRC)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["tf", "known row", "letter", "word count"])
def test_a_well_formed_corruption_is_refused_by_the_checksum_alone(kind, seed):
    rng = random.Random(seed)
    changed = {"letter": _letter_changed, "word count": _word_count_changed}.get(kind)
    data = changed(rng) if changed else _corrupted(kind, rng)
    outcome = _assert_loads_as_the_reference(data)
    assert outcome == "CorpusError: the index file does not match its checksum"
    # Every other check passes it: with its checksum fixed, the file loads.
    loaded = _assert_loads_as_the_reference(join_index(*split_index(data)))
    assert loaded != index_documents(_DOCS)


def test_every_single_bit_flip_is_refused(tmp_path):
    path, loaded = tmp_path / "flipped.idx", []
    for bit in range(8 * len(_SAVED)):
        flipped = bytearray(_SAVED)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        try:
            load_index(path)
        except CorpusError:
            continue
        loaded.append(bit)
    assert loaded == []


def test_the_first_faulty_line_in_file_order_is_named():
    # Passage 0's text and passage 2's title both hold a token; the titles
    # block comes first in the file.
    titles, texts = _lines(_PARTS["titles"]), _lines(_PARTS["texts"])
    texts[0] = b"the <Generator> moon"
    titles[2] = b"The <Locator> stone"
    titles[3] = b"The </eog> stone"
    parts = {**_PARTS, "titles": _block(titles), "texts": _block(texts)}
    outcome = _assert_loads_as_the_reference(join_index(sized(_HEADER, parts), parts))
    assert outcome == "CorpusError: passages[2] 'title' holds the grammar token <Locator>"


def test_a_clean_file_of_non_ascii_text_and_angle_brackets_names_no_line(monkeypatch):
    # Only a pass over a block that finds a fault leads to the per-line search.
    searched = []
    monkeypatch.setattr(corpus, "_line_fault", lambda *args: searched.append(args))
    lines = _lines(_PARTS["titles"])
    lines[1], lines[3] = "Zoë < Земля".encode(), "a <b> c".encode()
    parts = {**_PARTS, "titles": _block(lines)}
    loaded = _assert_loads_as_the_reference(join_index(sized(_HEADER, parts), parts))
    assert searched == []
    assert loaded.passages[_HEADER["ids"][1]].title == "Zoë < Земля"


def test_a_tf_whose_low_byte_is_zero_is_not_taken_for_zero():
    tfs = bytearray(_PARTS["tfs"])
    _set_int(tfs, 0, 512)
    loaded = _assert_loads_as_the_reference(join_index(_HEADER, {**_PARTS, "tfs": bytes(tfs)}))
    assert loaded.tfs[0] == 512


def test_a_term_frequency_column_of_the_wrong_length_is_named_by_its_bytes():
    parts = {**_PARTS, "tfs": _PARTS["tfs"] + uint32s([1])}
    outcome = _assert_loads_as_the_reference(join_index(sized(_HEADER, parts), parts))
    need = 4 * len(_DOC_FREQS) + 8 * _POSTINGS
    assert outcome == (
        f"CorpusError: index columns hold {need + 4} bytes, "
        f"but 4 * len(terms) + 8 * sum(doc_freqs) = {need}"
    )
