"""The run catalog: a durable, cross-invocation sweep-result cache.

A :class:`~repro.resilience.RunJournal` checkpoints *one* run; the
catalog remembers **every** run. Each completed sweep point is stored
under its content key (:func:`repro.resilience.point_key` — a blake2b
digest of the worker's dotted name, the fingerprint of the code it runs,
and the point's index, label, seed, and params), together with the full
envelope repr the key was derived from, the value's exact ``repr``, and
an integrity hash binding the two. Any later invocation — a resumed CLI
run, a different job count — that submits an already-catalogued point
gets the recorded value back instantly instead of recomputing it. An
invocation running edited code derives different keys, so entries the
old code wrote are misses and the points are recomputed.

Cache hits are *checked*, never trusted: a lookup re-derives the
envelope from the live point and asserts it matches the stored envelope
character for character, re-derives the integrity hash over
``envelope + NUL + value_repr``, and round-trips the restored value's
repr — any mismatch raises ``SimulationError`` naming a **catalog
determinism violation** instead of silently serving a poisoned entry.
Re-recording a key asserts the same bit-identity, so a nondeterministic
worker can never overwrite history.

The file is the journal's format and goes through the same
:class:`~repro.resilience.store.NdjsonStore`: a header line, one fsync'd
append per new entry, atomic full rewrites for creation and
:meth:`RunCatalog.compact`, and torn-final-line salvage on load — a
catalog killed mid-append is always openable. What differs from the
journal is only what is kept here: entries are verified on every hit
and re-record, duplicate keys fold last-wins, and there is no
``resume`` flag — an existing file is *always* loaded (the whole point
is surviving invocations), a missing one is created.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from ..errors import SimulationError
from ..resilience.journal import (
    SweepPointLike,
    envelope_key,
    point_envelope,
    restorable_repr,
)
from ..resilience.store import NdjsonStore

#: Bumped when the catalog line layout changes incompatibly.
CATALOG_SCHEMA_VERSION = 1

#: Fields every entry record must carry (the parser validates presence).
_ENTRY_FIELDS = (
    "key",
    "sweep",
    "fn",
    "index",
    "label",
    "envelope",
    "value_repr",
    "restorable",
    "integrity",
)


def entry_integrity(envelope: str, value_repr: str) -> str:
    """Content hash binding an entry's envelope to its recorded value.

    blake2b over ``envelope + NUL + value_repr`` — recomputed on every
    lookup, so mutating either half of an entry on disk (the poisoned
    cache case) is detected before the value is ever served.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(envelope.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(value_repr.encode("utf-8"))
    return digest.hexdigest()


class RunCatalog:
    """Content-addressed store of completed sweep points, across runs.

    Args:
        path: catalog file. Loaded if it exists (salvaging at most one
            torn final line), created on first append otherwise.

    Attributes:
        hits: lookups served from the catalog this session.
        misses: lookups that found no servable entry this session.
        appends: new entries durably appended this session.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        #: point key -> parsed entry record
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._store = NdjsonStore(
            path,
            noun="catalog",
            tool="repro-catalog",
            schema_version=CATALOG_SCHEMA_VERSION,
            fields={"entry": _ENTRY_FIELDS},
            snapshot=self._entries.values,
        )
        self.hits = 0
        self.misses = 0
        self.appends = 0
        if self._store.path.exists():
            for record in self._store.load():
                self._entries[str(record["key"])] = record

    # ------------------------------------------------------------------ state

    @property
    def path(self) -> str:
        """The catalog file path, as given."""
        return str(self._store.path)

    @property
    def entry_count(self) -> int:
        """Entries currently catalogued (all sweeps, all sessions)."""
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the store for ``python -m repro.catalog stats``."""
        restorable = sum(
            1 for entry in self._entries.values() if entry["restorable"]
        )
        functions: Dict[str, int] = {}
        for entry in self._entries.values():
            fn = str(entry["fn"])
            functions[fn] = functions.get(fn, 0) + 1
        return {
            "path": self.path,
            "entries": len(self._entries),
            "restorable": restorable,
            "functions": functions,
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
        }

    # ----------------------------------------------------------------- lookup

    def lookup(self, fn_name: str, point: SweepPointLike) -> Tuple[bool, Any]:
        """``(True, value)`` when the point is catalogued and verified.

        ``(False, None)`` means a genuine miss (never catalogued, or the
        recorded value's repr is not a Python literal, so it must be
        recomputed — the recomputation still gets the bit-identity assert
        in :meth:`record`).

        Raises:
            SimulationError: **catalog determinism violation** — the
                stored envelope does not match the live point, the
                integrity hash does not match the stored bytes, or the
                restored value does not round-trip to the recorded repr.
                A poisoned entry is never served silently.
        """
        envelope = point_envelope(fn_name, point)
        key = envelope_key(envelope)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        self._verify(entry, envelope)
        if not entry["restorable"]:
            self.misses += 1
            return False, None
        value = ast.literal_eval(str(entry["value_repr"]))
        if repr(value) != entry["value_repr"]:
            raise SimulationError(
                f"catalog determinism violation: entry {key} "
                f"({entry['label']!r}) does not round-trip: stored repr "
                f"{str(entry['value_repr'])[:200]!r} restored to "
                f"{repr(value)[:200]!r}. The catalog {self.path} cannot "
                "be trusted; delete the entry or the file."
            )
        self.hits += 1
        return True, value

    def _verify(self, entry: Dict[str, Any], envelope: str) -> None:
        """Bit-identity checks every hit and re-record must pass."""
        if entry["envelope"] != envelope:
            raise SimulationError(
                f"catalog determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) hash-matches a different envelope.\n"
                f"  catalogued: {str(entry['envelope'])[:200]}\n"
                f"  submitted:  {envelope[:200]}\n"
                f"The catalog {self.path} holds a mutated or colliding "
                "entry; delete it before resubmitting."
            )
        expected = entry_integrity(str(entry["envelope"]), str(entry["value_repr"]))
        if entry["integrity"] != expected:
            raise SimulationError(
                f"catalog determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) failed its integrity check "
                f"(stored {entry['integrity']}, recomputed {expected}) — "
                f"the entry was mutated on disk. The catalog {self.path} "
                "cannot be trusted; delete the entry or the file."
            )

    # -------------------------------------------------------------- recording

    def record(
        self, fn_name: str, sweep: str, point: SweepPointLike, value: Any
    ) -> bool:
        """Catalogue one completed point; True when a new entry was appended.

        Re-recording an existing key is the cross-run determinism assert:
        the envelope and the value repr must both match the catalogued
        entry bit for bit (returns False — nothing new to store).

        Raises:
            SimulationError: **catalog determinism violation** when the
                re-recorded value differs from the catalogued one, or the
                existing entry fails verification.
        """
        envelope = point_envelope(fn_name, point)
        key = envelope_key(envelope)
        value_repr, restorable = restorable_repr(value)
        existing = self._entries.get(key)
        if existing is not None:
            self._verify(existing, envelope)
            if existing["value_repr"] != value_repr:
                raise SimulationError(
                    f"catalog determinism violation: point {point.label!r} "
                    f"(key {key}) re-executed to a different value.\n"
                    f"  catalogued: {str(existing['value_repr'])[:200]}\n"
                    f"  recomputed: {value_repr[:200]}\n"
                    f"The catalog {self.path} does not describe this "
                    "sweep; delete it or fix the nondeterminism."
                )
            return False
        entry = {
            "kind": "entry",
            "key": key,
            "sweep": sweep,
            "fn": fn_name,
            "index": point.index,
            "label": point.label,
            "envelope": envelope,
            "value_repr": value_repr,
            "restorable": restorable,
            "integrity": entry_integrity(envelope, value_repr),
        }
        self._store.append(entry)
        self._entries[key] = entry
        self.appends += 1
        return True

    # -------------------------------------------------------------- file I/O

    def compact(self) -> int:
        """Atomically rewrite the file to one canonical line per key.

        Folds whatever the append-only format accumulated — salvaged torn
        tails, duplicate keys from concatenated catalogs (the parser is
        last-wins) — into exactly one header plus one line per entry, via
        write-temp + fsync + rename. Returns the bytes reclaimed.
        """
        return self._store.compact()

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        self._store.close()

    def __enter__(self) -> "RunCatalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
