"""Resilient sweep execution: journaling, retries, salvage, cancellation.

The paper's QoS machinery bounds waiting (Eq. 1), polices abusive flows,
and degrades gracefully under faults; this package applies the same
discipline to the *harness* that reproduces those results. It provides:

* :mod:`~repro.resilience.atomic` — crash-safe file replacement
  (write-temp + fsync + rename) used for every load-bearing artifact;
* :mod:`~repro.resilience.store` — the one fsync'd NDJSON store (header,
  appends, torn-tail salvage, atomic rewrite, compaction) behind both
  the run journal and :class:`repro.catalog.RunCatalog`;
* :mod:`~repro.resilience.journal` — the run journal: an atomic,
  resumable checkpoint store keyed by point content, with a bit-identity
  assertion on every re-executed point;
* :mod:`~repro.resilience.fingerprint` — the code fingerprint every
  content key carries, so stored results of edited code are misses;
* :mod:`~repro.resilience.policy` — per-point timeouts, bounded retries
  with deterministic seeded-jitter backoff, and the
  fail-fast vs salvage :class:`FailurePolicy`;
* :mod:`~repro.resilience.outcome` — explicit accounting of partial
  results (holes are loud, never silent);
* :mod:`~repro.resilience.options` — the bundle CLIs thread through
  experiments into :class:`repro.parallel.SweepExecutor`.

Import discipline: this package imports only the standard library and
:mod:`repro.errors`; ``repro.parallel``, ``repro.obs``, and
``repro.bench`` import *it* (typing-only back references excepted), so
the dependency edge stays one-directional.

``python -m repro.resilience hash|diff`` inspects and compares journals
(see :mod:`~repro.resilience.__main__`).
"""

from .atomic import atomic_write_json, atomic_write_text
from .journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    journal_hashes,
    point_envelope,
    point_key,
    restorable_repr,
    sweep_id,
    worker_name,
)
from .options import ResilienceOptions
from .outcome import PointFailure, SweepOutcome
from .policy import FailurePolicy, RetryPolicy, backoff_delay

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "FailurePolicy",
    "PointFailure",
    "ResilienceOptions",
    "RetryPolicy",
    "RunJournal",
    "SweepOutcome",
    "atomic_write_json",
    "atomic_write_text",
    "backoff_delay",
    "journal_hashes",
    "point_envelope",
    "point_key",
    "restorable_repr",
    "sweep_id",
    "worker_name",
]
