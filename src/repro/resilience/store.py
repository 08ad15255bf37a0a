"""The one NDJSON store behind the run journal and the run catalog.

Both :class:`~repro.resilience.RunJournal` (one run's checkpoints) and
:class:`repro.catalog.RunCatalog` (every run's verified results) persist
through :class:`NdjsonStore`, which owns the file mechanics and nothing
else:

* a header line (``kind: header``, ``schema_version``, ``tool``) first;
* one ``write`` + ``flush`` + ``fsync`` per appended record, so a process
  killed at any instant (SIGKILL included) leaves a complete prefix plus
  at most one torn final line;
* atomic full rewrites (write-temp + fsync + rename, via
  :mod:`repro.resilience.atomic`) for creation, for the clean prefix
  after a salvaged tail, and for :meth:`NdjsonStore.compact`;
* torn-final-line salvage on load: an unterminated final line that does
  not parse is dropped; corruption anywhere else fails loudly with
  :class:`~repro.errors.ConfigError`.

The owning class declares which record kinds its file holds and the
fields each must carry (the parser enforces them); what a record
*means* (sweeps and points, or verified cache entries) stays with the
owner, which hands the store a ``snapshot`` callable returning its
canonical records for every rewrite.

The store is parent-process-only, single-threaded state: worker
processes never see it, and it is not multi-process-safe — one CLI
invocation owns its journal and catalog files for its duration.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..errors import ConfigError
from .atomic import atomic_write_text

#: Record kind -> the fields every record of that kind must carry.
RecordFields = Mapping[str, Tuple[str, ...]]


def read_records(
    path: Path,
    noun: str,
    schema_version: int,
    fields: RecordFields,
    salvage_tail: bool = False,
) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a store file -> (records after the header, salvaged).

    Every record after the header must have a ``kind`` listed in
    ``fields`` and carry every field listed for that kind.

    With ``salvage_tail``, a *final* line that both fails to parse and is
    unterminated (no trailing newline) is recognised as a write torn by a
    crash mid-append and dropped; ``salvaged`` is True so the caller can
    rewrite the clean prefix. Corruption anywhere else — including a
    malformed line that *is* newline-terminated — still fails loudly.

    Raises:
        ConfigError: on an unreadable or empty file, a missing or
            mismatched header, an unknown record kind, a missing field,
            or any malformed line — a store that does not parse must fail
            loudly, not resume from garbage.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {noun} {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{noun} {path} is empty (no header)")
    records: List[Dict[str, Any]] = []
    salvaged = False
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if (
                salvage_tail
                and lineno == len(lines)
                and lineno > 1
                and not text.endswith("\n")
            ):
                salvaged = True
                break
            raise ConfigError(
                f"{noun} {path}:{lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise ConfigError(
                f"{noun} {path}:{lineno}: expected an object with 'kind'"
            )
        if lineno == 1:
            if record["kind"] != "header":
                raise ConfigError(f"{noun} {path}: first line must be the header")
            if record.get("schema_version") != schema_version:
                raise ConfigError(
                    f"{noun} {path}: schema_version "
                    f"{record.get('schema_version')} != {schema_version}"
                )
            continue
        kind = record["kind"]
        if kind not in fields:
            raise ConfigError(
                f"{noun} {path}:{lineno}: unknown record kind {kind!r}"
            )
        for name in fields[kind]:
            if name not in record:
                raise ConfigError(
                    f"{noun} {path}:{lineno}: {kind} record missing {name!r}"
                )
        records.append(record)
    return records, salvaged


class NdjsonStore:
    """Header, fsync'd appends, atomic rewrite, compaction for one file.

    Args:
        path: the store file.
        noun: ``"journal"`` or ``"catalog"`` — names the file in errors.
        tool: the header's ``tool`` field.
        schema_version: the header's ``schema_version``; loading a file
            with any other version fails loudly.
        fields: the record kinds the file may hold, each with the fields
            its records must carry.
        snapshot: returns the owner's canonical records, in file order,
            for every full rewrite.

    Until :meth:`load` finds a clean file, the on-disk bytes are taken
    not to reflect the owner's state (a fresh store, or a salvaged torn
    tail), so the first append atomically rewrites the file first.
    """

    def __init__(
        self,
        path: Union[str, Path],
        noun: str,
        tool: str,
        schema_version: int,
        fields: RecordFields,
        snapshot: Callable[[], Iterable[Dict[str, Any]]],
    ) -> None:
        self.path = Path(path)
        self._noun = noun
        self._tool = tool
        self._schema_version = schema_version
        self._fields = fields
        self._snapshot = snapshot
        self._stale = True
        #: lazily opened append handle (records are appended, not rewritten)
        self._fh: Optional[TextIO] = None

    def load(self) -> List[Dict[str, Any]]:
        """Parse the file, salvaging a torn final line (rewritten on the
        next append)."""
        records, salvaged = read_records(
            self.path, self._noun, self._schema_version, self._fields,
            salvage_tail=True,
        )
        self._stale = salvaged
        return records

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record line (fsync before returning).

        Callers must append *before* inserting ``record`` into the state
        ``snapshot`` returns: the first append may atomically rewrite that
        state, and a pre-inserted record would then be written twice.
        """
        if self._fh is None:
            if self._stale:
                self._rewrite()
                self._stale = False
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def compact(self) -> int:
        """Atomically rewrite the file from the canonical snapshot.

        Folds whatever the append-only format accumulated — a salvaged
        torn tail, duplicate lines from an interrupted writer or a file
        concatenation (owners parse last-wins per key), a stale file —
        into exactly one header plus one line per record. Returns the
        bytes reclaimed.
        """
        self.close()
        before = self.path.stat().st_size if self.path.exists() else 0
        self._rewrite()
        self._stale = False
        return max(0, before - self.path.stat().st_size)

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _rewrite(self) -> None:
        """Write header plus snapshot atomically (old file survives a crash)."""
        header = {
            "kind": "header",
            "schema_version": self._schema_version,
            "tool": self._tool,
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(record) for record in self._snapshot())
        atomic_write_text(self.path, "\n".join(lines) + "\n")
