"""Code fingerprints: which source a cached point's value came from.

A journaled or catalogued value is only the right answer for the code
that computed it. :func:`code_fingerprint` digests that code — every
``.py`` file of the ``repro`` package plus the source file of the worker
function's own module (so workers that live outside ``repro``, such as
test or script workers, are covered too) — and
:func:`~repro.resilience.point_envelope` folds it into every point's
content key. Editing any of those files therefore turns every entry
written before the edit into a miss that is recomputed, instead of a
stale value served as a verified hit.

A source file is not always what runs. The interpreter executes a
file's cached bytecode (its ``__pycache__`` entry) whenever that entry's
header stamp — the source's mtime in whole seconds and its size — still
matches, so a same-size edit within the same second keeps running the
old code. Each file therefore contributes its source bytes plus, when a
current-stamped cache entry was *not* compiled from that source, the
entry's bytes too: the stale code that will run gets a key of its own,
never the key of the new source. Comparing the cached code with a fresh
compile (instead of hashing every cache entry) keeps the fingerprint
independent of whether a file has been imported and cached yet.

Each digest is computed at most once per process (the package digest
once, each worker module's file once), so the per-point cost is a dict
lookup. The fingerprint reflects the files as they were when first
hashed; a process that edits its own sources mid-run keeps the old
fingerprint, exactly as it keeps running the old code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import marshal
import sys
from pathlib import Path
from typing import Optional

#: The ``repro`` package directory whose sources every fingerprint covers.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _stale_bytecode(path: Path, source: bytes) -> bytes:
    """The cached bytecode the interpreter runs for ``path`` instead of
    ``source``'s code, or ``b""`` when what runs is compiled from it.

    A timestamp-stamped cache entry is used while its stamp matches the
    source's stat; an unchecked hash-based one is used regardless. A
    checked hash-based entry is validated against the source by the
    interpreter itself.
    """
    try:
        data = Path(importlib.util.cache_from_source(str(path))).read_bytes()
        stat = path.stat()
    except (OSError, NotImplementedError):
        return b""  # no cache entry: the source is compiled
    if len(data) < 16 or data[:4] != importlib.util.MAGIC_NUMBER:
        return b""  # another interpreter's entry: the source is compiled
    flags = int.from_bytes(data[4:8], "little")
    if flags & 0b10:
        return b""  # checked hash-based entry
    if not flags & 0b1:
        mtime = int(stat.st_mtime) & 0xFFFFFFFF
        size = stat.st_size & 0xFFFFFFFF
        if data[8:16] != mtime.to_bytes(4, "little") + size.to_bytes(4, "little"):
            return b""  # stale stamp: the interpreter recompiles the source
    try:
        fresh = compile(source, str(path), "exec", dont_inherit=True)
        cached = marshal.loads(data[16:])
    except (SyntaxError, ValueError, EOFError, TypeError):
        return data  # the source does not compile, yet the entry runs
    return b"" if cached == fresh else data


def _executed_bytes(path: Path) -> bytes:
    """A file's source bytes, plus any stale bytecode that runs in its place."""
    source = path.read_bytes()
    stale = _stale_bytecode(path, source)
    return source + b"\x00" + stale if stale else source


@functools.lru_cache(maxsize=None)
def package_digest() -> str:
    """blake2b over every ``repro`` source file (relative path + bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE_ROOT).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(_executed_bytes(path))
        digest.update(b"\x00")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _module_digest(module_name: str) -> str:
    """Digest of one imported module's source file ("" when it has none)."""
    module = sys.modules.get(module_name)
    filename: Optional[str] = getattr(module, "__file__", None)
    if not filename:
        return ""
    try:
        source = _executed_bytes(Path(filename))
    except OSError:
        return ""
    return hashlib.blake2b(source, digest_size=16).hexdigest()


def _worker_module(fn_name: str) -> Optional[str]:
    """The longest dotted prefix of ``fn_name`` that is an imported module.

    ``fn_name`` is a :func:`~repro.resilience.worker_name` — module plus
    qualname, both possibly dotted — so the split point is found by
    asking ``sys.modules`` rather than by parsing.
    """
    parts = fn_name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in sys.modules:
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def code_fingerprint(fn_name: str) -> str:
    """Short digest of the code behind worker ``fn_name``.

    Covers the ``repro`` package sources and the worker module's source
    file. A name whose module is not imported (or has no source file)
    is fingerprinted by the package alone.
    """
    module = _worker_module(fn_name)
    worker = _module_digest(module) if module is not None else ""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(package_digest().encode("ascii"))
    digest.update(b"\x00")
    digest.update(worker.encode("ascii"))
    return digest.hexdigest()
