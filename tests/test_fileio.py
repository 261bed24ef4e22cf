"""Input and output helpers shared by every file kind."""

import io
import json

from hypothesis import given
from hypothesis import strategies as st

from factrail.fileio import drawn_ahead, json_line


def test_drawn_ahead_keeps_order_and_draws_a_chunk_at_a_time():
    drawn = []

    def items():
        for n in range(70):
            drawn.append(n)
            yield n

    seen = [(item, len(drawn)) for item in drawn_ahead(items())]
    assert [item for item, _ in seen] == list(range(70))
    assert [count for _, count in seen] == [32] * 32 + [64] * 32 + [70] * 6


# Characters the two encoders treat differently or alike: non-ASCII, control
# characters, DEL, a backslash and a "u", quotes, and lone surrogates.
SPECIAL = ["é", "€", "𝄞", " ", "\x00", "\x1f", "\n", "\t", "\x7f", "\\", "u", '"', "\ud800", "\udc80"]
texts = st.text(st.one_of(st.characters(codec="ascii"), st.characters(), st.sampled_from(SPECIAL)))
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


def _written(line: str) -> bytes | tuple:
    """The bytes a UTF-8 text file receives for line, or what its write raises."""
    handle = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        handle.write(line)
        handle.flush()
    except UnicodeEncodeError as exc:
        return type(exc), exc.args
    return handle.buffer.getvalue()


@given(st.dictionaries(texts, values, max_size=5))
def test_json_line_writes_the_bytes_of_the_non_ascii_encoder(record):
    old = json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
    assert json_line(record) == old
    # A lone surrogate fails at the write, with the same exception.
    assert _written(json_line(record)) == _written(old)


def test_json_line_keeps_what_the_ascii_encoder_would_escape():
    record = {"a": "é\x7f\\u00e9", "b": "\udc80"}
    assert json_line(record) == '{"a": "é\x7f\\\\u00e9", "b": "\udc80"}\n'
    assert _written(json_line(record))[0] is UnicodeEncodeError
