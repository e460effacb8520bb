"""Persistent result cache for the command-line ``table`` verb, the
only verb that still caches.

Each result is one file under the cache directory, named after the
result with a hash of the package's source files before its suffix
(``table-8-<hash>.csv``), so cached results stay inspectable and
diffable, and a code change never serves an old answer: other source
never reads the files this source wrote.  A result is written under a
temporary name in the same directory and moved into place with
``os.replace``, so a reader sees a whole file or none, and concurrent
writers need no lock; there is no index.  Only the ``table`` verb
reaches the cache, so the modules it alone needs are imported where
they are used, not with the package.
"""
from __future__ import annotations

import functools
import os

ENV_CACHE_DIR = "QUIDDITY_CACHE_DIR"


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Explicit flag first, then the environment override, then a
    per-user default."""
    from pathlib import Path

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
    import hashlib
    from pathlib import Path

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = directory

    def _file(self, filename: str) -> Path:
        path = self.directory / filename
        return path.with_name(f"{path.stem}-{source_key()}{path.suffix}")

    def get(self, filename: str) -> str | None:
        """The result this source stored as ``filename``, or None."""
        try:
            return self._file(filename).read_text()
        except FileNotFoundError:
            return None

    def put(self, filename: str, payload: str) -> None:
        """Store ``payload`` as ``filename``: written whole under a name
        no other process or thread uses, then renamed into place."""
        import threading

        path = self._file(filename)
        temporary = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}")
        try:
            temporary.write_text(payload)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise

    def get_payload(self, family: str, command: str, filename: str, compute) -> str:
        """The stored result ``filename``, else ``compute()``, stored.  The
        directory is made first, so an unusable one is refused before
        ``compute`` runs.  ``family`` and ``command`` are unused: the
        file name is the whole key.  They keep ``compute`` fourth, where
        the benchmark's tracer reads it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = self.get(filename)
        if payload is None:
            payload = compute()
            self.put(filename, payload)
        return payload
