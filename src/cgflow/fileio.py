"""Atomic artifact writes: a reader sees the old file or the new one, never
half of one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle on a temp file next to ``path``.

    On a clean exit the temp file replaces ``path`` with ``os.replace``; if
    the body raises, the temp file is removed and ``path`` keeps its old
    bytes.  The temp file sits in the target directory so the replace never
    crosses a filesystem.  There is no fsync: this guards against a crashed
    or failing process, not against power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a replace
