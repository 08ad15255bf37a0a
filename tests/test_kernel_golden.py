"""Golden digests of the behavioural kernels' observable output.

Event↔array parity (``tests/test_array_kernel_parity.py``) proves the two
kernels agree with each other; it cannot catch a change in the run
skeleton they share, because such a change moves both the same way. These
tests pin literal sha256 digests instead, over everything a run reports:
the collected grant/delivery events, the probe's counters and gauges, the
structured trace events, ``grants``, ``chained_grants`` and
``gl_throttle_events``. Each scenario covers a path with no twin kernel
(chaining, VOQ matchers, declining and fixed-priority arbiters, range-length
saturating sources, every behavioural fault kind) or one of the array
kernel's own operating points.

The digests were captured before the kernels shared a skeleton. A digest
that moves means the schedule moved: that is a behaviour change, and it
must be justified, never re-pinned to make the test pass.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.bench.suite import _paper_config
from repro.config import GLPolicerConfig
from repro.experiments.common import ARBITER_PRESETS, voq_config
from repro.faults import (
    FaultPlan,
    counter_bitflip,
    crosspoint_dead,
    input_stall,
    packet_drop,
    packet_dup,
)
from repro.obs.probe import CountingProbe, EventValue
from repro.switch.array_kernel import ArraySimulation
from repro.switch.simulator import Simulation
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.patterns import (
    fig4_workload,
    uniform_be_workload,
    uniform_random_workload,
)


class _RecordingProbe(CountingProbe):
    """Counting probe that also keeps every structured trace event."""

    trace = True

    def __init__(self) -> None:
        super().__init__()
        self.trace_events: List[Tuple[str, int, List[Tuple[str, EventValue]]]] = []

    # Positional-only: fault events carry their own ``kind=`` field.
    def event(self, kind: str, cycle: int, /, **fields: EventValue) -> None:
        self.trace_events.append((kind, cycle, sorted(fields.items())))


#: (config, workload, extra constructor kwargs) for one scenario.
Scenario = Tuple[Any, Workload, Dict[str, Any]]


def _three_class_policed() -> Scenario:
    """The paper's operating point: GB everywhere plus BE and GL per input."""
    config = _paper_config(
        gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=64)
    )
    workload = uniform_random_workload(8, inject_rate=0.5, reserved_share=0.8)
    for src in range(8):
        workload.add(be_flow(src, (3 * src + 1) % 8, inject_rate=0.2))
        workload.add(gl_flow(src, (5 * src + 2) % 8, inject_rate=0.02))
    return config, workload, {}


def _chained() -> Scenario:
    config = _paper_config(packet_chaining=True)
    return config, fig4_workload(inject_rate=None), {}


def _voq(policy: str) -> Callable[[], Scenario]:
    def build() -> Scenario:
        workload = uniform_be_workload(8, inject_rate=0.9)
        return voq_config(8), workload, {"arbiter_factory": ARBITER_PRESETS[policy]}

    return build


def _preset(policy: str) -> Callable[[], Scenario]:
    def build() -> Scenario:
        workload = fig4_workload(inject_rate=0.3)
        workload.add(be_flow(3, 0, inject_rate=0.1))
        return (
            _paper_config(),
            workload,
            {"arbiter_factory": ARBITER_PRESETS[policy]},
        )

    return build


def _range_saturating() -> Scenario:
    """Saturating sources that draw packet lengths from their RNG."""
    workload = Workload(name="range-saturating")
    workload.add(gb_flow(0, 0, reserved_rate=0.4, packet_length=(2, 7)))
    workload.add(gb_flow(1, 0, reserved_rate=0.2, packet_length=(1, 9)))
    workload.add(be_flow(2, 0, packet_length=(3, 5)))
    workload.add(gb_flow(3, 1, reserved_rate=0.3, packet_length=8))
    return _paper_config(), workload, {}


def _all_faults(horizon: int) -> FaultPlan:
    return FaultPlan(
        seed=7,
        faults=(
            input_stall(1, start=horizon // 4, duration=horizon // 8),
            crosspoint_dead(2, 0),
            counter_bitflip(3, 0, bit=4, at_cycle=horizon // 3),
            packet_drop(0.05, output=0),
            packet_dup(0.03, output=0),
        ),
    )


def _faulted() -> Scenario:
    workload = fig4_workload(inject_rate=None)
    workload.add(be_flow(4, 0, inject_rate=0.2))
    return _paper_config(), workload, {"fault_plan": _all_faults(HORIZON)}


def _uniform() -> Scenario:
    return (
        _paper_config(),
        uniform_random_workload(8, inject_rate=0.7, reserved_share=0.9),
        {},
    )


def _radix128() -> Scenario:
    workload = Workload(name="hotspot-r128")
    for src in range(128):
        workload.add(gb_flow(src, src % 8, reserved_rate=0.05, inject_rate=None))
    return _paper_config(radix=128), workload, {}


HORIZON = 2_000

#: name -> (kernel class, scenario builder, horizon, pinned sha256)
SCENARIOS: Dict[str, Tuple[type, Callable[[], Scenario], int, str]] = {
    "event-three-class-gl-policed": (
        Simulation, _three_class_policed, HORIZON,
        "ea0298220fc7bc8ef3fd7874d266f7d591bc5bd796bb57ad9136df3496e92ba4",
    ),
    "event-packet-chaining": (
        Simulation, _chained, HORIZON,
        "1910a1534b19569ff68e655532b172614d5058391003074888249ef620f37848",
    ),
    "event-voq-islip": (
        Simulation, _voq("islip"), HORIZON,
        "3ac2f9ba3274270d111c1f845d6a42ad0d9288391404f987e9b937a5b97d8024",
    ),
    "event-voq-qps-r": (
        Simulation, _voq("qps-r"), HORIZON,
        "ff145e18e7ee3d7cc12dab53b39bc3c06cbd764f0cf4ef5b57ec014ca65ecbdb",
    ),
    "event-voq-sw-qps": (
        Simulation, _voq("sw-qps"), HORIZON,
        "02308d5cace4b941ae3caedd24cb341e6b272e5b9c551ed799ce2e0bc3cd3e40",
    ),
    "event-wrr-strict": (
        Simulation, _preset("wrr-strict"), HORIZON,
        "9f5be80210e10bb5d12b02c899077c6bf8e95a7823e465122fdc112e842e9631",
    ),
    "event-fixed-priority": (
        Simulation, _preset("fixed-priority"), HORIZON,
        "45331185aaf26ef56e872698ebe0f43108c940e9eae25a181f5a8b8b380037bc",
    ),
    "event-range-length-saturating": (
        Simulation, _range_saturating, HORIZON,
        "c307856c05120a1cea8f48df9a9de92625db3f064fb63b82e10a422dfcce6b77",
    ),
    "event-all-fault-kinds": (
        Simulation, _faulted, HORIZON,
        "1187d774817f286690867f3d8a2e75f5ba39a90dffad244c8b1d4f64b2ba6ec5",
    ),
    "array-all-fault-kinds": (
        ArraySimulation, _faulted, HORIZON,
        "1187d774817f286690867f3d8a2e75f5ba39a90dffad244c8b1d4f64b2ba6ec5",
    ),
    "array-uniform": (
        ArraySimulation, _uniform, HORIZON,
        "d7dce70b301dcfecaeb2a39d4891c12e83db449de8bd1c5a1f41d61f45175414",
    ),
    "array-radix-128": (
        ArraySimulation, _radix128, 400,
        "63039d36d7cb6fa7b8bbd548ef2fd8ffe5f95af1a111c187e7ae9fd97c8f95dd",
    ),
}


@functools.lru_cache(maxsize=None)
def _digest(name: str) -> Tuple[str, Any, _RecordingProbe]:
    kernel, build, horizon, _ = SCENARIOS[name]
    config, workload, kwargs = build()
    probe = _RecordingProbe()
    result = kernel(
        config, workload, seed=3, collect_events=True, probe=probe, **kwargs
    ).run(horizon)
    parts = [
        repr(result.events),
        repr(sorted(probe.counters.items())),
        repr(sorted(probe.maxima.items())),
        repr(probe.trace_events),
        repr(result.grants),
        repr(result.chained_grants),
        repr(sorted(result.gl_throttle_events.items())),
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest, result, probe


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_output_matches_golden_digest(name: str) -> None:
    digest, result, _ = _digest(name)
    assert result.grants > 0
    assert digest == SCENARIOS[name][3]


def test_scenarios_reach_the_paths_they_name() -> None:
    """Each scenario exercises what its name claims, so a pinned digest
    never silently covers an idle path."""
    _, chained, _ = _digest("event-packet-chaining")
    assert chained.chained_grants > 0
    _, _, strict = _digest("event-wrr-strict")
    assert strict.counters.get("kernel.declines", 0) > 0
    _, _, voq = _digest("event-voq-sw-qps")
    assert voq.counters.get("voq.matches", 0) > 0
    _, policed, _ = _digest("event-three-class-gl-policed")
    assert sum(policed.gl_throttle_events.values()) > 0
    for name in ("event-all-fault-kinds", "array-all-fault-kinds"):
        _, _, faulted = _digest(name)
        for counter in (
            "faults.stall_masked",
            "faults.dead_crosspoint_masked",
            "faults.counter_bitflips",
            "faults.packet_drops",
            "faults.packet_dups",
        ):
            assert faulted.counters.get(counter, 0) > 0, (name, counter)
