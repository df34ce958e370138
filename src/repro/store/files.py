"""The on-disk idioms every durable file in the tree shares, one copy each.

Journals (ledgers, traces, checkpoint pointers, the family index) are
append-only JSONL whose last line a crash may tear; pointers, manifests,
leases, port files and blobs are published by write-temp-then-replace.
Temps are ``.tmp-*.tmp`` in the target's directory (same filesystem: the
replace is atomic) — a suffix no listing globs, so in-flight writes stay
invisible.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Iterator


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """A journal's records in order.  A missing file reads as empty;
    blank, unparseable (a torn write) and non-dict lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    records = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def open_journal(path: str | Path) -> IO[str]:
    """Open a journal for appending, creating its directory.

    A process killed mid-append leaves no final newline, so the next
    record would be glued onto the torn one and both lost: a non-empty
    file not ending in one gets it first (a torn tail costs one record).
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a+", encoding="utf-8")
    size = os.fstat(fh.fileno()).st_size
    if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
        fh.write("\n")
    return fh


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` so readers see the old content or the new, never a
    torn file: the temp replaces it on success and is removed on any
    exception (the target is then untouched)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".tmp")
    try:
        with os.fdopen(fd, mode,
                       encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def read_json(path: str | Path) -> dict[str, Any] | None:
    """The JSON object in ``path``; None when missing, torn or not a dict."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` exists on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-uid process
        pass
    return True
