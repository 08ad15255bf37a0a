"""Per-run report: kernel counters + flow statistics as one JSON document.

A :class:`RunReport` is built from a finished
:class:`~repro.switch.simulator.SimulationResult` (either kernel produces
one) and, optionally, the :class:`~repro.obs.probe.CountingProbe` that was
attached to the run. Serialization of the flow statistics lives in
:mod:`repro.serialization` next to the config/workload codecs, so the whole
experiment — inputs and outputs — round-trips through the same module.

Schema (see ``docs/OBSERVABILITY.md`` for field-by-field docs)::

    {"schema_version": 1, "kernel": "event", "workload": "...",
     "horizon": 50000, "warmup_cycles": 5000,
     "grants": 123, "chained_grants": 0,
     "counters": {"kernel.wakes": ...}, "maxima": {...}, "timings": {...},
     "gl_throttle_events": {"0": 17, ...},
     "output_utilization": {"0": 0.88, ...},
     "config": {...}, "flows": [{...}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..resilience import atomic_write_text
from ..serialization import JSONDict, config_to_dict, stats_collector_to_dict
from .probe import CountingProbe

if TYPE_CHECKING:  # keep kernel imports out of the runtime graph
    from ..switch.simulator import SimulationResult

#: Bumped when the report layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Everything measured about one simulation run, JSON-ready.

    Attributes:
        kernel: which engine produced the run (``event``/``flit``).
        workload: workload label.
        horizon: simulated cycles.
        warmup_cycles: cycles excluded from measurement.
        grants: total arbitration grants.
        chained_grants: grants that skipped the arbitration bubble.
        counters: probe counters (empty when no probe was attached).
        maxima: probe high-water gauges.
        timings: probe wall-clock timers (harness-side only).
        gl_throttle_events: per-output count of (cycle, input) denial
            decisions where GL priority was withheld from a pending GL
            request.
        output_utilization: delivered flits/cycle per output.
        config: the switch configuration (serialized).
        flows: per-flow statistics (serialized).
        resilience: sweep-outcome dicts (journal/retry/salvage accounting)
            when the run used ``repro.resilience``; empty — and omitted
            from the JSON — otherwise, so pre-resilience reports are
            byte-identical.
    """

    kernel: str
    workload: str
    horizon: int
    warmup_cycles: int
    grants: int
    chained_grants: int
    counters: Dict[str, int] = field(default_factory=dict)
    maxima: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    gl_throttle_events: Dict[int, int] = field(default_factory=dict)
    output_utilization: Dict[int, float] = field(default_factory=dict)
    config: JSONDict = field(default_factory=dict)
    flows: List[JSONDict] = field(default_factory=list)
    resilience: List[JSONDict] = field(default_factory=list)

    @classmethod
    def from_result(
        cls,
        result: "SimulationResult",
        probe: Optional[CountingProbe] = None,
    ) -> "RunReport":
        """Assemble a report from a finished run and its optional probe."""
        return cls(
            kernel=result.kernel,
            workload=result.workload_name,
            horizon=result.horizon,
            warmup_cycles=result.warmup_cycles,
            grants=result.grants,
            chained_grants=result.chained_grants,
            counters=probe.counters if probe is not None else {},
            maxima=probe.maxima if probe is not None else {},
            timings=probe.timings if probe is not None else {},
            gl_throttle_events=dict(result.gl_throttle_events),
            output_utilization=dict(result.output_utilization),
            config=config_to_dict(result.config),
            flows=stats_collector_to_dict(result.stats),
        )

    def to_dict(self) -> JSONDict:
        """Plain JSON-compatible dict (int keys become strings)."""
        document: JSONDict = {
            "schema_version": SCHEMA_VERSION,
            "kernel": self.kernel,
            "workload": self.workload,
            "horizon": self.horizon,
            "warmup_cycles": self.warmup_cycles,
            "grants": self.grants,
            "chained_grants": self.chained_grants,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "timings": dict(self.timings),
            "gl_throttle_events": {
                str(o): n for o, n in sorted(self.gl_throttle_events.items())
            },
            "output_utilization": {
                str(o): u for o, u in sorted(self.output_utilization.items())
            },
            "config": self.config,
            "flows": self.flows,
        }
        if self.resilience:
            document["resilience"] = list(self.resilience)
        return document

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: Union[str, Path]) -> None:
        """Write the report to ``path`` as JSON, atomically.

        The file is written to a temp name and renamed into place, so a
        crash mid-write never tears an existing report (``--report`` over
        a previous run's file either fully replaces it or leaves it
        intact).
        """
        atomic_write_text(Path(path), self.to_json() + "\n")
