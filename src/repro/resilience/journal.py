"""The run journal: a crash-safe checkpoint store for sweep results.

Every completed sweep point is recorded — key, label, and the exact
``repr`` of its payload — the moment it finishes, as one fsync'd
newline-terminated JSON line appended to the journal through the shared
:class:`~repro.resilience.store.NdjsonStore` (the header and any
rewrite go through the atomic path in :mod:`repro.resilience.atomic`).
A sweep killed mid-run (crash, OOM, SIGKILL, Ctrl-C) therefore leaves a
journal that is always a *complete prefix* of the run plus at most one
torn final line — which resume detects (unterminated last line) and
drops — and ``--resume`` picks up exactly where it stopped: restored
points are served from the journal, missing points are recomputed. Keys
carry the code fingerprint (:mod:`repro.resilience.fingerprint`), so a
resume after a code edit recomputes the points instead of restoring
values the edited code might not produce.

Why ``repr`` and not pickle: the executor's merged ``result_hash`` is
defined over ``repr`` (floats round-trip exactly), so storing the repr
makes the resume guarantee *checkable* — a restored value hashes
identically by construction, and a recomputed point is asserted against
the journaled repr on re-execution (:meth:`RunJournal.record` raises
``SimulationError`` on any bit difference). Payloads whose repr is not a
Python literal (custom result objects, NaNs) are journaled with
``restorable: false``; resume recomputes them and still gets the
identity assertion.

File format: newline-delimited JSON. Line one is a header; ``sweep``
lines name each registered sweep (a pure function of the worker function
and the ordered point keys, so the same sweep re-registers identically on
resume); ``point`` lines carry completed results. One journal file can
hold many sweeps — ``repro-exp fig4 --journal run.journal`` records both
panels — and :func:`journal_hashes` folds each sweep's ordered reprs into
the same digest :func:`repro.parallel.result_hash` would produce, which
is what the CI chaos job diffs against an uninterrupted run.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Protocol, Sequence, Tuple, Union

from ..errors import ConfigError, SimulationError
from .fingerprint import code_fingerprint
from .store import NdjsonStore, read_records

#: Bumped when the journal line layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Record kind -> fields every journal record of that kind must carry.
_RECORD_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sweep": ("id", "fn", "points"),
    "point": ("sweep", "key", "index", "label", "value_repr", "restorable"),
}


class SweepPointLike(Protocol):
    """The envelope fields a journal key is derived from.

    Structural (not an import of :class:`repro.parallel.SweepPoint`) so the
    resilience package never imports ``repro.parallel`` — the executor
    imports *us*, and keeping the edge one-directional avoids a cycle.
    """

    @property
    def index(self) -> int: ...

    @property
    def label(self) -> str: ...

    @property
    def seed(self) -> int: ...

    @property
    def params(self) -> Tuple[Tuple[str, Any], ...]: ...


def worker_name(fn: object) -> str:
    """Stable dotted name for a worker callable (functions and instances).

    Instances (e.g. the replication adapter) key by their *class*, never
    by ``repr`` — object reprs carry memory addresses, which would change
    the key on every run and silently defeat resume.
    """
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not isinstance(qualname, str):
        qualname = type(fn).__qualname__
        module = type(fn).__module__
    return f"{module}.{qualname}"


def point_envelope(fn_name: str, point: SweepPointLike) -> str:
    """The exact repr payload a point's content key hashes.

    Exposed (rather than inlined in :func:`point_key`) because the run
    catalog stores this string verbatim next to each cached value: a
    cache hit re-derives the envelope from the live point and asserts it
    matches the stored one character for character, so a catalog entry
    whose envelope was mutated on disk can never be served silently.

    The second field is :func:`~repro.resilience.fingerprint.code_fingerprint`
    of the worker: entries written by different code never match.
    """
    return repr(
        (
            fn_name,
            code_fingerprint(fn_name),
            point.index,
            point.label,
            point.seed,
            point.params,
        )
    )


def point_key(fn_name: str, point: SweepPointLike) -> str:
    """Content key of one sweep point under one worker function.

    A pure function of everything that determines the point's result —
    the worker's dotted name, the fingerprint of the code it runs, and
    the envelope's index, label, seed, and params (all reprs are
    deterministic: params are primitives or frozen dataclasses). Two
    runs of the same sweep on the same code derive the same keys in any
    process, which is the whole resume contract; after a code edit the
    keys change, so a resume recomputes the points instead of restoring
    values the current code might not produce.
    """
    return envelope_key(point_envelope(fn_name, point))


def envelope_key(envelope: str) -> str:
    """The content key of a :func:`point_envelope` string (blake2b)."""
    return hashlib.blake2b(envelope.encode("utf-8"), digest_size=16).hexdigest()


def sweep_id(fn_name: str, keys: Sequence[str]) -> str:
    """Stable id for a sweep: worker name + digest of its ordered keys."""
    digest = hashlib.blake2b(
        "\n".join(keys).encode("utf-8"), digest_size=6
    ).hexdigest()
    return f"{fn_name}#{digest}"


def restorable_repr(value: Any) -> Tuple[str, bool]:
    """``(repr, restorable)`` — restorable iff the repr literal-evals back.

    ``ast.literal_eval`` covers every payload built from primitives,
    tuples, lists, dicts, and sets; the round-trip repr comparison proves
    bit-exactness (floats round-trip exactly through repr).
    """
    text = repr(value)
    try:
        restored = ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        return text, False
    return text, repr(restored) == text


class RunJournal:
    """Append-only checkpoint store for completed sweep points.

    Args:
        path: journal file. With ``resume=False`` a fresh journal is
            started (an existing file is replaced — atomically — on the
            first record). With ``resume=True`` the file must exist and
            parse; its points become restorable checkpoints.

    The file mechanics (header, fsync'd appends, torn-tail salvage,
    atomic rewrite, compaction) live in the shared
    :class:`~repro.resilience.store.NdjsonStore`. The journal is
    parent-process-only state: worker processes never see it, and one
    journal instance must not be shared between concurrently running
    executors (sweeps within one CLI invocation run sequentially, which
    is the supported sharing).
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.resume = resume
        #: point key -> parsed point record
        self._points: Dict[str, Dict[str, Any]] = {}
        #: sweep id -> sweep record, in first-appearance order
        self._sweeps: Dict[str, Dict[str, Any]] = {}
        self._store = NdjsonStore(
            path,
            noun="journal",
            tool="repro-journal",
            schema_version=JOURNAL_SCHEMA_VERSION,
            fields=_RECORD_FIELDS,
            snapshot=self._records,
        )
        if resume:
            if not self._store.path.exists():
                raise ConfigError(
                    f"cannot resume: journal {self._store.path} does not exist"
                )
            self._sweeps, self._points = _index_records(self._store.load())

    # ------------------------------------------------------------------ state

    @property
    def path(self) -> str:
        """The journal file path, as given."""
        return str(self._store.path)

    @property
    def point_count(self) -> int:
        """Completed points currently journaled (all sweeps)."""
        return len(self._points)

    def entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The journaled point record for ``key``, or None."""
        return self._points.get(key)

    def restore(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` when ``key`` is journaled and restorable.

        ``(False, None)`` means the point must be recomputed — either it
        was never journaled (by this code: keys carry the code
        fingerprint) or its payload is not a Python literal (the
        re-execution still gets the identity assertion in
        :meth:`record`).
        """
        record = self._points.get(key)
        if record is None or not record["restorable"]:
            return False, None
        return True, ast.literal_eval(record["value_repr"])

    # -------------------------------------------------------------- mutation

    def register_sweep(
        self, fn_name: str, points: Sequence[SweepPointLike]
    ) -> str:
        """Ensure a sweep record exists; returns its stable id."""
        keys = [point_key(fn_name, point) for point in points]
        identity = sweep_id(fn_name, keys)
        if identity not in self._sweeps:
            record = {
                "kind": "sweep",
                "id": identity,
                "fn": fn_name,
                "points": len(points),
            }
            self._store.append(record)
            self._sweeps[identity] = record
        return identity

    def record(
        self, sweep: str, key: str, point: SweepPointLike, value: Any
    ) -> None:
        """Checkpoint one completed point (fsync'd append before returning).

        Re-recording an already-journaled key is the *determinism assert*:
        a resumed or retried execution must reproduce the journaled repr
        bit for bit.

        Raises:
            SimulationError: when a re-executed point's value differs from
                the journaled one — the sweep is not deterministic and the
                journal must not be trusted for resume.
        """
        value_repr, restorable = restorable_repr(value)
        existing = self._points.get(key)
        if existing is not None:
            if existing["value_repr"] != value_repr:
                raise SimulationError(
                    f"journal determinism violation: point {point.label!r} "
                    f"(key {key}) re-executed to a different value.\n"
                    f"  journaled: {existing['value_repr'][:200]}\n"
                    f"  recomputed: {value_repr[:200]}\n"
                    f"The journal {self.path} does not describe this sweep; "
                    "delete it or fix the nondeterminism before resuming."
                )
            return  # identical re-execution; nothing new to record
        record = {
            "kind": "point",
            "sweep": sweep,
            "key": key,
            "index": point.index,
            "label": point.label,
            "value_repr": value_repr,
            "restorable": restorable,
        }
        self._store.append(record)
        self._points[key] = record

    # -------------------------------------------------------------- file I/O

    def compact(self) -> int:
        """Fold the on-disk journal to one canonical line per record.

        The append-only format can accumulate superseded bytes that the
        in-memory state has already resolved: a torn final line salvaged
        on resume, duplicate point lines left by an interrupted writer
        or a journal concatenation (the parser is last-wins per key), or
        simply a stale pre-resume file. Compaction atomically rewrites
        the file from the canonical in-memory state — exactly one
        header, one line per sweep, one line per point key — and returns
        the number of bytes reclaimed. Resume behavior is identical
        before and after: both parse to the same sweeps and points, so
        :func:`journal_hashes` is unchanged byte for byte.
        """
        return self._store.compact()

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        self._store.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _records(self) -> Iterator[Dict[str, Any]]:
        """Canonical file order: every sweep, then every point."""
        return itertools.chain(self._sweeps.values(), self._points.values())


def _index_records(
    records: Sequence[Dict[str, Any]],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """Parsed journal records -> (sweeps by id, points by key), last wins."""
    sweeps: Dict[str, Dict[str, Any]] = {}
    points: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record["kind"] == "sweep":
            sweeps[str(record["id"])] = record
        else:
            points[str(record["key"])] = record
    return sweeps, points


def journal_hashes(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Per-sweep merged digests of a journal's checkpointed values.

    For each sweep: points ordered by index, digest =
    SHA-256 over ``repr(value) + NUL`` per point — exactly
    :func:`repro.parallel.result_hash` of the sweep's ordered payloads, so
    a resumed run's journal hash can be diffed directly against an
    uninterrupted run's.
    """
    records, _ = read_records(
        Path(path), "journal", JOURNAL_SCHEMA_VERSION, _RECORD_FIELDS
    )
    sweeps, points = _index_records(records)
    out: Dict[str, Dict[str, Any]] = {}
    for identity, sweep_record in sweeps.items():
        members = sorted(
            (record for record in points.values() if record["sweep"] == identity),
            key=lambda record: int(record["index"]),
        )
        digest = hashlib.sha256()
        for record in members:
            digest.update(str(record["value_repr"]).encode("utf-8"))
            digest.update(b"\x00")
        out[identity] = {
            "points": len(members),
            "expected_points": int(sweep_record["points"]),
            "complete": len(members) == int(sweep_record["points"]),
            "hash": digest.hexdigest(),
        }
    return out
