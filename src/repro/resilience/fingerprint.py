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

Each digest is computed at most once per process (the package digest
once, each worker module's file once), so the per-point cost is a dict
lookup. The fingerprint reflects the files as they were when first
hashed; a process that edits its own sources mid-run keeps the old
fingerprint, exactly as it keeps running the old code.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from pathlib import Path
from typing import Optional

#: The ``repro`` package directory whose sources every fingerprint covers.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def package_digest() -> str:
    """blake2b over every ``repro`` source file (relative path + bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE_ROOT).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
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
        source = Path(filename).read_bytes()
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
