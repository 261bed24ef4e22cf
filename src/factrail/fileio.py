"""Atomic replacement of output files.

Every file factrail writes (index, traces, dataset) goes through
``atomic_path``, so an interrupted or failed write never leaves a truncated
file where a reader expects a complete one.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_path"]


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
