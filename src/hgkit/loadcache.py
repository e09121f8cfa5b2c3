"""Content-addressed store of ``marshal`` payloads, one per input and key.

Each CLI command is a fresh process, so a batch of commands on one input
would derive the same values from the same bytes once per command.
``Session.load`` keeps what a command derived from an input as an entry
instead, and the next command that asks for the same bytes under the
same key reads it back.  The caller owns every payload: what it holds,
and which shape a payload must have to be used (``hgkit.cli`` describes
its entries).  A payload must be made of the values ``marshal`` writes;
one that ``marshal`` refuses is not stored.

An entry's name is the SHA-256 of the input's SHA-256, the caller's key,
``sys.implementation.cache_tag``, ``marshal.version``, ``sys.byteorder``
and the name and bytes of every ``hgkit/*.py`` source, so other input
bytes, another key, another interpreter or machine word order, or edited
code never read it.  An entry is named by its input, not by its payload's
bytes: ``marshal`` writes a value whose objects are shared as references,
so two runs may store one payload as different bytes, and either entry
loads the same value.  An entry file is the SHA-256 of its payload
followed by the payload; one whose digest does not match, or whose payload
the caller refuses, is ignored and rewritten.
Entries are written to a temporary file in the cache directory and moved
into place with ``os.replace``, and only after the command that derived
them has succeeded (``Session.commit``).

The directory is ``$XDG_CACHE_HOME/hgkit`` (``~/.cache/hgkit`` when
that variable is unset or not absolute), created mode 0700.  It is not
used when it is a symlink, is owned by another user, is writable by
group or others, or cannot be created or opened; loads then derive as if
there were no cache.  It holds at most ``MAX_ENTRIES`` entries: a write
evicts the least recently used, and a hit touches its entry.  Inputs
smaller than ``MIN_BYTES`` are never cached: below it, writing an entry
and reading it once costs about as much as deriving it twice.  Deleting
the directory clears the cache.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from pathlib import Path
from typing import Any, Callable

MIN_BYTES = 32 * 1024
"""Inputs below this many bytes are never cached."""
MAX_ENTRIES = 8
"""The most entries the directory holds; a write evicts the least recently used beyond it."""

_SUFFIX = ".marshal"
_DIGEST = hashlib.sha256().digest_size
_SUPPORTED = (
    hasattr(os, "geteuid")
    and hasattr(os, "O_NOFOLLOW")
    and hasattr(os, "O_DIRECTORY")
    and {os.open, os.unlink, os.rename, os.utime} <= os.supports_dir_fd
    and os.scandir in os.supports_fd
)


class Session:
    """One command's use of the cache: lookups as it loads, writes once it has succeeded."""

    def __init__(self) -> None:
        # (entry name, payload) of each entry this command derived.
        self._staged: list[tuple[str, Any]] = []

    def load(self, data: bytes, key: str, make: Callable[[], Any], fits: Callable[[Any], bool]) -> Any:
        """The payload of input ``data`` under ``key``: its entry's when ``fits`` accepts it, else ``make()``'s.

        A payload made for an input of at least ``MIN_BYTES`` is staged
        for ``commit``.
        """
        if len(data) < MIN_BYTES or not _SUPPORTED:
            return make()
        name = _entry_name(data, key)
        payload = _read_entry(name)
        if payload is not None and fits(payload):
            return payload
        payload = make()
        self._staged.append((name, payload))
        return payload

    def commit(self) -> None:
        """Write the staged entries; call it only when the command has succeeded."""
        staged, self._staged = self._staged, []
        fd = _open_directory() if staged else None
        if fd is None:
            return
        try:
            for name, payload in staged:
                _write_entry(fd, name, payload)
            _evict(fd)
        finally:
            os.close(fd)


def _entry_name(data: bytes, key: str) -> str:
    parts = [hashlib.sha256(data).digest(), key.encode(), f"{sys.implementation.cache_tag} {marshal.version} {sys.byteorder}".encode()]
    for source in sorted(Path(__file__).parent.glob("*.py")):
        parts += [source.name.encode(), source.read_bytes()]
    key = hashlib.sha256()
    for part in parts:
        # Length-prefixed, so that no two lists of parts hash the same bytes.
        key.update(len(part).to_bytes(8, "big") + part)
    return key.hexdigest() + _SUFFIX


def _open_directory() -> int | None:
    """A descriptor of the cache directory, created if missing, or None when it must not be used."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory either
        return None
    path = os.path.join(base, "hgkit")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC)
    except OSError:
        return None
    st = os.fstat(fd)
    if st.st_uid != os.geteuid() or st.st_mode & 0o022:
        os.close(fd)
        return None
    return fd


def _read_entry(name: str) -> Any:
    """The payload of an entry whose digest matches, touched as just used, or None."""
    fd = _open_directory()
    if fd is None:
        return None
    try:
        entry = os.open(name, os.O_RDONLY | os.O_NOFOLLOW | os.O_CLOEXEC, dir_fd=fd)
        with open(entry, "rb") as f:
            blob = f.read()
        digest, payload = blob[:_DIGEST], memoryview(blob)[_DIGEST:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        value = marshal.loads(payload)
        os.utime(name, dir_fd=fd)
    except (OSError, ValueError, EOFError):
        return None
    finally:
        os.close(fd)
    return value


def _write_entry(fd: int, name: str, value: Any) -> None:
    try:
        payload = marshal.dumps(value)
    except ValueError:  # JSON metadata nested deeper than marshal writes
        return
    temp = f".{name}.{os.getpid()}.tmp"
    try:
        out = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC, 0o600, dir_fd=fd)
        with open(out, "wb") as f:
            f.write(hashlib.sha256(payload).digest())
            f.write(payload)
        os.replace(temp, name, src_dir_fd=fd, dst_dir_fd=fd)
    except OSError:
        try:
            os.unlink(temp, dir_fd=fd)
        except OSError:
            pass


def _evict(fd: int) -> None:
    """Remove the least recently used entries beyond ``MAX_ENTRIES``."""
    try:
        with os.scandir(fd) as it:
            entries = [
                (e.stat(follow_symlinks=False).st_mtime_ns, e.name)
                for e in it
                if e.name.endswith(_SUFFIX) and not e.name.startswith(".")
            ]
        for _, name in sorted(entries)[: max(len(entries) - MAX_ENTRIES, 0)]:
            os.unlink(name, dir_fd=fd)
    except OSError:
        pass
