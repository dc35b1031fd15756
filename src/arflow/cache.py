"""Atomic artifact writes, and the binary cache ``X.f8`` beside a JSON artifact.

Every artifact is written through :func:`atomic_open`.  After writing a
motion or model file ``X``, ``data.save_samples`` and ``model.save_params``
also write ``X.f8``: one JSON header line, then X's arrays as raw
little-endian float64, keyed by the SHA-256 of X's bytes (the ``.pyc``
pattern).  ``data.load_samples`` and ``model.load_params`` take the arrays
from the cache when :func:`read` finds it valid, and parse X otherwise.  X
stays the interchange format and the source of truth; deleting ``X.f8`` is
always safe.  See README "Binary cache (`X.f8`)".
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections.abc import Callable

import numpy as np

from .errors import ArflowError

FORMAT = "arflow-f8"
VERSION = 1
SUFFIX = ".f8"
_CHUNK = 1 << 20


def sha256(path: str) -> str:
    """SHA-256 of the file at ``path``, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Writer:
    """A binary file that takes text (written as UTF-8) or bytes, and feeds
    what is written to ``digest`` unless it is None."""

    def __init__(self, fh, digest):
        self._fh = fh
        self._digest = digest

    def write(self, data) -> None:
        if isinstance(data, str):
            data = data.encode()
        if self._digest is not None:
            self._digest.update(data)
        self._fh.write(data)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def atomic_open(path: str, digests: dict[str, str] | None = None):
    """Writable handle on a temporary file next to ``path``.

    ``write`` takes text or bytes.  A clean exit gives the file the mode
    ``open`` would (0o666 less the umask; ``mkstemp`` makes it 0o600) and
    moves it onto ``path`` with ``os.replace``; an exception removes it, so
    readers see the old file or the whole new one.  Given a dict
    ``digests``, what is written is hashed on the way, and
    ``digests[path]`` receives its SHA-256.
    """
    digest = hashlib.sha256() if digests is not None else None
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield _Writer(fh, digest)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if digest is not None:
        digests[path] = digest.hexdigest()


def _meta_sha256(meta) -> str:
    return hashlib.sha256(json.dumps(meta).encode()).hexdigest()


def write(path: str, source_sha256: str, meta: dict, arrays) -> None:
    """Write ``path + SUFFIX``, the cache of the JSON file ``path`` whose
    bytes hash to ``source_sha256``: a header line holding the format,
    version, both digests and ``meta`` (the non-array fields), then
    ``arrays`` in order as raw little-endian float64."""
    payload = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    digest = hashlib.sha256()
    for a in payload:
        digest.update(a)
    head = {"format": FORMAT, "version": VERSION, "source_sha256": source_sha256,
            "payload_sha256": digest.hexdigest(), "meta_sha256": _meta_sha256(meta),
            "meta": meta}
    with atomic_open(os.fspath(path) + SUFFIX) as fh:
        fh.write(json.dumps(head) + "\n")
        for a in payload:
            fh.write(a)


def _hash_span(fh, nbytes: int, digest) -> None:
    while nbytes > 0:
        chunk = fh.read(min(nbytes, _CHUNK))
        if not chunk:  # the file shrank after its size was checked; the digest tells
            return
        digest.update(chunk)
        nbytes -= len(chunk)


def read(path: str, layout: Callable[[dict], tuple], digests: dict[str, str] | None = None):
    """``(plan, values)`` from the cache of the JSON file ``path``, or None
    when the cache cannot stand in for it.

    The cache is used only when its header parses and names this format and
    version, its ``source_sha256`` is the digest of ``path`` as it is now,
    its metadata hashes to ``meta_sha256``, the file holds exactly the
    header and 8 bytes per value that the metadata implies (checked before
    the payload is read), and the payload hashes to ``payload_sha256``.

    ``layout(meta)`` returns ``(plan, total, start, stop)``: what the caller
    needs back, the number of values the metadata implies, and the range of
    them to return, read straight into one float64 array.  A ``LookupError``,
    ``TypeError``, ``ValueError`` or ``ArflowError`` from it means the
    metadata is unusable.  ``digests[path]`` receives the digest of ``path``
    once it is taken.
    """
    try:
        fh = open(os.fspath(path) + SUFFIX, "rb")
    except OSError:
        return None
    with fh:
        line = fh.readline()
        try:
            head = json.loads(line)
            usable = (head["format"] == FORMAT and type(head["version"]) is int
                      and head["version"] == VERSION)
        except (ValueError, TypeError, KeyError):  # UnicodeDecodeError is a ValueError
            return None
        if not usable:
            return None
        try:
            source = sha256(path)
        except OSError:
            return None
        if digests is not None:
            digests[path] = source
        if (head.get("source_sha256") != source
                or head.get("meta_sha256") != _meta_sha256(head.get("meta"))):
            return None
        try:
            plan, total, start, stop = layout(head["meta"])
        except (LookupError, TypeError, ValueError, ArflowError):
            return None
        if os.fstat(fh.fileno()).st_size != len(line) + 8 * total:
            return None
        digest = hashlib.sha256()
        _hash_span(fh, 8 * start, digest)
        values = np.empty(stop - start, dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            return None
        digest.update(values)
        _hash_span(fh, 8 * (total - stop), digest)
        if digest.hexdigest() != head.get("payload_sha256"):
            return None
    return plan, values
