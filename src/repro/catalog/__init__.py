"""Durable cross-invocation result cataloguing for sweep experiments.

The catalog is the run journal's store kept across runs: every
completed sweep point, from every run, lives under its content key
(worker, code fingerprint, envelope) with a verified envelope and
integrity hash, and a ``--catalog`` run serves already-proven points
from the cache instead of recomputing them — with a bit-identity
assertion on every hit, so a poisoned entry raises a *catalog
determinism violation* rather than silently corrupting results. See
``docs/CATALOG.md``.

Import discipline: this package imports only the standard library,
:mod:`repro.errors`, and :mod:`repro.resilience` (for the content keys
and the shared NDJSON store); ``repro.parallel`` imports *it*.

``python -m repro.catalog stats|compact`` inspects and maintains catalog
files (see :mod:`~repro.catalog.__main__`).
"""

from .store import CATALOG_SCHEMA_VERSION, RunCatalog, entry_integrity

__all__ = [
    "CATALOG_SCHEMA_VERSION",
    "RunCatalog",
    "entry_integrity",
]
