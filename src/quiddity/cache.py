"""Persistent result cache for the command-line ``table`` verb, the
only verb that still caches.

One CSV file per command family under the cache directory, key columns
first and the value last (for ``table``, the path of a side file that
holds the payload), so cached results stay inspectable and diffable.
Rows carry a hash of the package's source files; rows written by any
other source are ignored, so a code change never serves an old answer.
Writes take an advisory lock on the directory so concurrent
invocations stay single-writer.
"""
from __future__ import annotations

import csv
import fcntl
import functools
import hashlib
import os
from pathlib import Path
from typing import Optional

ENV_CACHE_DIR = "QUIDDITY_CACHE_DIR"

_FIELDS = ["command", "n", "m", "filter", "order", "value", "tool_version"]


def resolve_cache_dir(flag_value: Optional[str] = None) -> Path:
    """Explicit flag first, then the environment override, then a
    per-user default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "quiddity"


@functools.lru_cache(maxsize=None)
def source_key() -> str:
    """Hash of the package's source files, computed on first use (not
    at import) and kept for the life of the process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = directory

    def _file(self, family: str) -> Path:
        return self.directory / f"{family}.csv"

    @staticmethod
    def _row_key(command: str, n: str, m: str, filt: str, order: str) -> tuple[str, ...]:
        return (command, n, m, filt, order)

    def get(self, family: str, command: str, n: str = "", m: str = "",
            filt: str = "", order: str = "") -> Optional[str]:
        path = self._file(family)
        if not path.exists():
            return None
        key = self._row_key(command, n, m, filt, order)
        hit: Optional[str] = None
        try:
            with path.open(newline="") as handle:
                for row in csv.DictReader(handle):
                    if row.get("tool_version") != source_key():
                        continue
                    if self._row_key(row["command"], row["n"], row["m"],
                                     row["filter"], row["order"]) == key:
                        hit = row["value"]  # last write wins
        except (OSError, KeyError):
            return None
        return hit

    def get_payload(self, family: str, command: str, filename: str,
                    compute, n: str = "", m: str = "", filt: str = "",
                    order: str = "") -> str:
        """Multi-line results: the CSV row stores a file path, the
        payload lives in a side file under the cache directory, named
        ``filename`` with the source hash before its suffix, so each
        source reads only the side files it wrote.  The directory is made
        first, so an unusable one is refused before ``compute`` runs."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = Path(filename)
        side_file = self.directory / f"{name.stem}-{source_key()}{name.suffix}"
        row = self.get(family, command, n, m, filt, order)
        if row is not None and side_file.exists():
            return side_file.read_text()
        payload = compute()
        side_file.write_text(payload)
        if row is None:
            self.put(family, command, str(side_file), n, m, filt, order)
        return payload

    def put(self, family: str, command: str, value: str, n: str = "",
            m: str = "", filt: str = "", order: str = "") -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.directory / ".lock"
        with lock_path.open("w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                path = self._file(family)
                fresh = not path.exists()
                with path.open("a", newline="") as handle:
                    writer = csv.DictWriter(handle, fieldnames=_FIELDS)
                    if fresh:
                        writer.writeheader()
                    writer.writerow({
                        "command": command, "n": n, "m": m, "filter": filt,
                        "order": order, "value": value,
                        "tool_version": source_key(),
                    })
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)
