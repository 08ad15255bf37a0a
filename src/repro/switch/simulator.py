"""Event-driven simulation kernel with cycle-exact semantics.

The kernel advances between *wake times* — cycles where something can
happen: a scheduled packet arrival, an output channel (and its sending
input) becoming free, or a retry after a non-work-conserving arbiter
declined to grant. At each wake time it (1) admits arrivals into the input
port buffers (overflow waits in unbounded per-flow source queues — the
source side of the network interface), (2) tops up saturating sources, and
(3) arbitrates every idle output. This produces exactly the schedule a
per-cycle loop would, at a fraction of the cost, because nothing
observable changes between wake times.

:meth:`Simulation.run` is the one run skeleton: wake heap, arrival
admission and overflow, saturating top-up, fault dispatch, grant
bookkeeping (transmission timing, packet chaining, drop/dup accounting,
statistics, trace and collected events, the freed-buffer refill), the
probe flush and the result. Only step (3), arbitration, is pluggable: an
:class:`ArbitrationStage` is a bundle of closures built once per run, and
the skeleton calls its ``arbitrate`` once per wake. Three stages exist:

* per-output arbiters (the paper's switch, :func:`_per_output_stage`):
  every idle output consults its own
  :class:`~repro.qos.base.OutputArbiter` in a rotating order;
* switch-wide iterative matching (:func:`_voq_stage` — iSLIP, QPS-r,
  SW-QPS; requires ``config.voq``): one
  :meth:`~repro.qos.iterative.IterativeArbiter.match` over the VOQ
  backlog of every free input per wake;
* the array kernel's batched matrices
  (:class:`~repro.switch.array_kernel.ArraySimulation`).

Timing, fault accounting and observability therefore cannot drift between
the stages: they share every line of the code that implements them.

Timing model (see DESIGN.md): a grant at cycle ``t`` for an ``L``-flit
packet occupies the output channel and the winning input until
``t + arbitration_cycles + L``; with the Swizzle Switch's single
arbitration cycle a saturated channel therefore sustains ``L/(L+1)``
flits/cycle — the 0.89 ceiling of Fig. 4 for 8-flit packets.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SwitchConfig
from ..core.arbitration import Request
from ..errors import ConfigError, SimulationError
from ..faults import FaultInjector, FaultKind, FaultPlan, resolve_injector
from ..metrics.counters import StatsCollector
from ..obs.probe import EventHook, Probe, resolve_hooks
from ..qos.iterative import IterativeArbiter
from ..types import FlowId, TrafficClass
from .buffers import FlitBuffer
from .crossbar import ArbiterFactory, SwizzleSwitch
from .events import GrantEvent, PacketDelivered
from .flit import Packet, fresh_packet_ids

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from ..traffic.flows import Workload
    from ..traffic.generators import FlowSource


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        config: the switch configuration simulated.
        workload_name: label of the workload.
        horizon: cycles simulated.
        warmup_cycles: cycles excluded from measurement.
        stats: per-flow statistics collector (finished).
        output_utilization: delivered flits/cycle per output over the whole
            run (including warmup; per-flow rates in ``stats`` exclude it).
        grants: total arbitration grants performed.
        chained_grants: grants that skipped the arbitration bubble via
            packet chaining (0 unless ``config.packet_chaining``).
        events: grant/delivery trace when event collection was enabled.
        gl_throttle_events: per-output count of (cycle, input) denial
            decisions where the GL policer withheld absolute priority from
            a pending GL head (empty for arbiters without a
            ``gl_policer``). Two distinct GL inputs denied in the same
            cycle count as two events.
        kernel: which engine produced this result (``event``/``flit``/``array``).
    """

    config: SwitchConfig
    workload_name: str
    horizon: int
    warmup_cycles: int
    stats: StatsCollector
    output_utilization: Dict[int, float]
    grants: int
    chained_grants: int = 0
    events: List[object] = field(default_factory=list)
    gl_throttle_events: Dict[int, int] = field(default_factory=dict)
    kernel: str = "event"

    def accepted_rate(self, flow: FlowId) -> float:
        """Flow's delivered flits/cycle inside the measurement window."""
        return self.stats.accepted_rate(flow)

    def mean_latency(self, flow: FlowId) -> float:
        """Flow's mean creation-to-delivery latency in cycles."""
        return self.stats.flow_stats(flow).latency.mean

    def max_waiting(self, flow: FlowId) -> int:
        """Flow's maximum injection-to-grant waiting time in cycles."""
        return self.stats.flow_stats(flow).waiting.maximum

    def summary_table(self) -> str:
        """Per-flow offered/accepted/latency summary as an ASCII table."""
        from ..metrics.report import format_table

        cycles = self.stats.measured_cycles
        rows = []
        for flow in sorted(self.stats.flows, key=str):
            stats = self.stats.flow_stats(flow)
            delivered = stats.latency.count
            rows.append(
                (
                    str(flow),
                    stats.offered_rate(cycles),
                    stats.accepted_rate(cycles),
                    stats.latency.mean if delivered else None,
                    stats.latency.p99 if delivered else None,
                )
            )
        return format_table(
            ["flow", "offered", "accepted", "mean lat", "p99 lat"],
            rows,
            title=f"{self.workload_name}: {self.horizon} cycles "
            f"({self.warmup_cycles} warmup)",
        )


def _validate_packet_sizes(workload: "Workload", config: SwitchConfig) -> None:
    """Reject flows whose packets can never fit their class buffer.

    A packet larger than its buffer would sit in the source queue forever
    (the buffer admits whole packets only); failing fast beats a silently
    dead flow.
    """
    capacities = {
        TrafficClass.BE: config.be_buffer_flits,
        TrafficClass.GB: config.gb_buffer_flits,
        TrafficClass.GL: config.gl_buffer_flits,
    }
    for spec in workload:
        if spec.process is None:
            continue
        length = spec.packet_length
        longest = length if isinstance(length, int) else length[1]
        capacity = capacities[spec.flow.traffic_class]
        if longest > capacity:
            raise SimulationError(
                f"flow {spec.flow}: {longest}-flit packets can never fit the "
                f"{capacity}-flit {spec.flow.traffic_class.short_name} buffer"
            )


def _checked_injector(
    plan: Optional[FaultPlan], radix: int, arbiters: Sequence[object]
) -> Optional[FaultInjector]:
    """Resolve a fault plan, failing fast on faults this kernel cannot host.

    Behavioral kernels model arbitration outcomes, not bitlines, so
    circuit-level fault kinds must be injected into
    :class:`repro.circuit.fabric.ArbitrationFabric` instead; and a counter
    bit-flip needs an arbiter that actually owns an auxVC counter.
    """
    injector = resolve_injector(plan)
    if injector is None:
        return None
    if injector.has_circuit_faults:
        raise ConfigError(
            "bitline/sense faults model the arbitration circuit; inject them "
            "into repro.circuit.ArbitrationFabric, not a behavioral kernel"
        )
    for spec in injector.plan.faults:
        if spec.input_port is not None and not 0 <= spec.input_port < radix:
            raise ConfigError(
                f"{spec.kind.value} fault targets input {spec.input_port} "
                f"outside radix {radix}"
            )
        if spec.output is not None and not 0 <= spec.output < radix:
            raise ConfigError(
                f"{spec.kind.value} fault targets output {spec.output} "
                f"outside radix {radix}"
            )
        if spec.kind is FaultKind.COUNTER_BITFLIP and not hasattr(
            arbiters[spec.output], "inject_counter_bitflip"
        ):
            raise ConfigError(
                f"arbiter {getattr(arbiters[spec.output], 'name', '?')!r} at "
                f"output {spec.output} has no auxVC counter to flip"
            )
    return injector


# ------------------------------------------------------ arbitration stages


@dataclass(frozen=True)
class RunContext:
    """What the run skeleton lends an arbitration stage, once per run.

    Attributes:
        switch: the switch (ports, channels, arbiters, ``config``).
        seed: the simulation's master seed.
        wake: schedule a wake time (ignored at or past the horizon).
        grant: ``grant(output, input, packet, contenders, now)`` pops the
            granted head-of-line packet and runs the shared delivery
            bookkeeping; returns the delivery cycle.
        injector: the resolved fault injector, if a plan is active.
        event_hook: the probe's trace hook, if tracing.
        collect_events: whether grant/delivery events are collected.
        tally: the run's probe counter totals by name, flushed once after
            the horizon; a stage adds to its own (``kernel.arbitrations``,
            ``voq.*``, ...).
    """

    switch: SwizzleSwitch
    seed: int
    wake: Callable[[int], None]
    grant: Callable[[int, int, Packet, int, int], int]
    injector: Optional[FaultInjector]
    event_hook: Optional[EventHook]
    collect_events: bool
    tally: Dict[str, int]


@dataclass(frozen=True)
class ArbitrationStage:
    """One kernel's arbitration decision, as closures built once per run.

    Attributes:
        arbitrate: ``arbitrate(now)`` grants every idle output it can at
            ``now`` through :attr:`RunContext.grant`; called once per wake,
            after arrivals, refills and counter bit-flips.
        flip_counter: optional ``flip_counter(output, input, bit, now)``
            applying one scheduled auxVC counter bit-flip; without it the
            output arbiter's own ``inject_counter_bitflip`` is called.
        before_arrivals: optional ``before_arrivals(now)`` run at the
            start of every wake, before any arrival is admitted.
        on_head: optional ``on_head(packet)``: an injection made
            ``packet`` the head of a previously empty queue.
        on_pop: optional ``on_pop(output, input, packet)``: the granted
            ``packet`` was popped; called before the freed buffer refills.
    """

    arbitrate: Callable[[int], None]
    flip_counter: Optional[Callable[[int, int, int, int], None]] = None
    before_arrivals: Optional[Callable[[int], None]] = None
    on_head: Optional[Callable[[Packet], None]] = None
    on_pop: Optional[Callable[[int, int, Packet], None]] = None


#: Builds a kernel's arbitration stage for one run.
StageBuilder = Callable[[RunContext], ArbitrationStage]

#: Probe counters in flush order. A counter that never fired is not
#: flushed, so ``voq.*`` and ``faults.*`` appear only for runs that use
#: a matching scheduler or an active fault plan.
_COUNTERS = (
    "kernel.wakes",
    "kernel.heap_pushes",
    "kernel.arrivals",
    "kernel.arbitrations",
    "kernel.declines",
    "kernel.grants",
    "kernel.chain_grants",
    "kernel.gl_throttles",
    "kernel.overflow_flows_scanned",
    "voq.matches",
    "voq.matched_pairs",
    "voq.iterations",
    "voq.proposals",
    "faults.stall_masked",
    "faults.dead_crosspoint_masked",
    "faults.counter_bitflips",
    "faults.packet_drops",
    "faults.packet_dups",
)


def _per_output_stage(ctx: RunContext) -> ArbitrationStage:
    """The paper's switch: each idle output runs its own select/commit."""
    switch = ctx.switch
    radix = switch.radix
    inputs = switch.inputs
    outputs = switch.outputs
    arbiters = switch.arbiters
    # Per-output structures that cannot change during a run.
    policers = [getattr(arbiters[o], "gl_policer", None) for o in range(radix)]
    grant = ctx.grant
    wake = ctx.wake
    event_hook = ctx.event_hook
    tally = ctx.tally
    injector = ctx.injector
    faults_stall = injector is not None and injector.has_stalls
    faults_dead = injector is not None and injector.has_dead

    def arbitrate(now: int) -> None:
        # Arbitrate idle outputs, rotating the start to avoid bias.
        for k in range(radix):
            o = (now + k) % radix
            channel = outputs[o]
            if not channel.is_idle(now):
                continue
            arbiter = arbiters[o]
            policer = policers[o]
            allow_gl = policer is None or policer.eligible(now)
            requests = []
            gl_denied_inputs = []
            for port in inputs:
                if port.busy_until > now:
                    continue
                queued = port.total_occupancy_flits
                if queued == 0:
                    continue  # empty input: no head, no masked GL
                if faults_stall and injector.stalled(port.port, now):
                    # A stalled input raises nothing this cycle: no
                    # request and no policer-throttle decision either.
                    if port.head_for_output(o, allow_gl=True) is not None:
                        tally["faults.stall_masked"] += 1
                    continue
                if faults_dead and injector.crosspoint_dead(port.port, o):
                    # A dead crosspoint cannot raise its request line;
                    # packets to this output block at the head (HOL).
                    if port.head_for_output(o, allow_gl=True) is not None:
                        tally["faults.dead_crosspoint_masked"] += 1
                    continue
                head = port.head_for_output(o, allow_gl=allow_gl)
                if not allow_gl:
                    # A GL head masked by the policer is a throttle
                    # decision even though it never becomes a request
                    # (the GB/BE head in front of it requests instead).
                    if port.gl_head_for(o) is not None:
                        gl_denied_inputs.append(port.port)
                if head is None:
                    continue
                requests.append(
                    Request(
                        input_port=port.port,
                        traffic_class=head.traffic_class,
                        packet_flits=head.flits,
                        queued_flits=queued,
                        arrival_cycle=(
                            head.injected_cycle
                            if head.injected_cycle is not None
                            else head.created_cycle
                        ),
                    )
                )
            if gl_denied_inputs and policer is not None:
                # One throttle event per denied (cycle, input) pair; the
                # arbiter's own note_throttled for demoted GL requests
                # folds into these via the policer's per-cycle dedupe.
                for denied_input in gl_denied_inputs:
                    policer.note_throttled(now, denied_input)
                    tally["kernel.gl_throttles"] += 1
                    if event_hook is not None:
                        event_hook("gl_throttle", now, output=o, input=denied_input)
            if not requests:
                continue
            tally["kernel.arbitrations"] += 1
            winner = arbiter.select(requests, now)
            if winner is None:
                tally["kernel.declines"] += 1
                wake(now + 1)  # non-work-conserving decline: retry
                continue
            arbiter.commit(winner, now)
            port = inputs[winner.input_port]
            packet = port.head_for_output(o, allow_gl=allow_gl)
            if packet is None or packet.flits != winner.packet_flits:
                raise SimulationError(
                    f"arbiter granted a request that is no longer head-of-line "
                    f"at input {winner.input_port}"
                )
            grant(o, winner.input_port, packet, len(requests), now)

    return ArbitrationStage(arbitrate=arbitrate)


def _voq_stage(scheduler: IterativeArbiter, ctx: RunContext) -> ArbitrationStage:
    """Switch-wide iterative matching: one match() covers every idle output."""
    # Sampling schedulers key every draw on (seed, cycle, round, port);
    # binding here makes replay independent of sweep fan-out.
    scheduler.bind_seed(ctx.seed)
    switch = ctx.switch
    radix = switch.radix
    inputs = switch.inputs
    outputs = switch.outputs
    grant = ctx.grant
    wake = ctx.wake
    event_hook = ctx.event_hook
    tally = ctx.tally
    injector = ctx.injector
    faults_stall = injector is not None and injector.has_stalls
    faults_dead = injector is not None and injector.has_dead

    def arbitrate(now: int) -> None:
        free_outputs = [o for o in range(radix) if outputs[o].is_idle(now)]
        if not free_outputs:
            return
        backlog: Dict[int, Dict[int, int]] = {}
        for port in inputs:
            if port.busy_until > now or port.total_occupancy_flits == 0:
                continue
            if faults_stall and injector.stalled(port.port, now):
                # A stalled input raises no request lines at all this
                # cycle; its whole backlog is masked.
                tally["faults.stall_masked"] += 1
                continue
            per_port = port.voq_backlog(free_outputs)
            if faults_dead:
                for dead_o in list(per_port):
                    if injector.crosspoint_dead(port.port, dead_o):
                        # A dead crosspoint cannot raise its request line;
                        # that VOQ sits blocked in place.
                        del per_port[dead_o]
                        tally["faults.dead_crosspoint_masked"] += 1
            if per_port:
                backlog[port.port] = per_port
        if not backlog:
            return
        tally["kernel.arbitrations"] += 1
        matching = scheduler.match(backlog, free_outputs, now)
        tally["voq.matches"] += 1
        tally["voq.matched_pairs"] += len(matching.pairs)
        tally["voq.iterations"] += matching.iterations
        tally["voq.proposals"] += matching.proposals
        if event_hook is not None:
            event_hook(
                "match",
                now,
                scheduler=scheduler.name,
                requests=len(backlog),
                free_outputs=len(free_outputs),
                pairs=len(matching.pairs),
                iterations=matching.iterations,
                proposals=matching.proposals,
            )
        if not matching.pairs:
            tally["kernel.declines"] += 1
        for in_port, o in sorted(matching.pairs, key=lambda pair: pair[1]):
            packet = inputs[in_port].head_for_output(o, allow_gl=True)
            if packet is None:
                raise SimulationError(
                    f"{scheduler.name} matched input {in_port} to "
                    f"output {o} but that VOQ is empty"
                )
            contenders = sum(1 for b in backlog.values() if o in b)
            grant(o, in_port, packet, contenders, now)
        if len({pair[0] for pair in matching.pairs}) < len(backlog):
            # Some requesting input went unmatched (bounded iterations, a
            # sampling collision, or a stale window slot): retry next
            # cycle like a declining arbiter.
            wake(now + 1)

    return ArbitrationStage(arbitrate=arbitrate)


class Simulation:
    """Couples a switch, a workload, and a statistics collector.

    Args:
        config: switch parameters.
        workload: flows to simulate (validated against the config).
        arbiter_factory: per-output arbitration policy; defaults to the
            paper's three-class SSVC stack. A factory built with
            :func:`repro.qos.shared_iterative_factory` instead selects the
            switch-wide matching path (requires ``config.voq``; packet
            chaining is rejected).
        seed: master seed; each flow gets an independent child stream so
            adding a flow never perturbs the others' arrivals.
        warmup_cycles: measurement starts here (defaults to 10% of the
            horizon, set at :meth:`run`).
        collect_events: record :class:`GrantEvent`/:class:`PacketDelivered`
            (memory-proportional to traffic; off by default).
        window_cycles: windowed-throughput bucket width.
        probe: optional :class:`~repro.obs.probe.Probe` fed kernel counters
            (wakes, heap pushes, arbitrations, declines, grants, chain
            hits, GL throttles, overflow scans) and, when its ``trace``
            flag is set, structured grant events. ``None`` (the default)
            keeps the hot path free of instrumentation work.
        fault_plan: optional :class:`~repro.faults.FaultPlan` of behavioral
            faults (input stalls, dead crosspoints, counter bit-flips,
            packet drops/dups) injected deterministically during the run.
            ``None`` or an empty plan leaves the kernel bit-identical to an
            unfaulted run; circuit-level fault kinds are rejected here (see
            :func:`_checked_injector`).
    """

    #: Name reported as :attr:`SimulationResult.kernel`.
    _kernel_name = "event"

    def __init__(
        self,
        config: SwitchConfig,
        workload: Workload,
        arbiter_factory: Optional[ArbiterFactory] = None,
        seed: int = 0,
        warmup_cycles: Optional[int] = None,
        collect_events: bool = False,
        window_cycles: int = 1024,
        probe: Optional[Probe] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        workload.validate(config.radix, config.gl_policer.reserved_rate)
        _validate_packet_sizes(workload, config)
        self.config = config
        self.workload = workload
        self.switch = SwizzleSwitch(config, arbiter_factory)
        self._build_stage = self._select_stage()
        self.seed = seed
        self._warmup_override = warmup_cycles
        self.collect_events = collect_events
        self.window_cycles = window_cycles
        self.probe = probe
        self.fault_plan = fault_plan
        self._programmed = False

    # ----------------------------------------------------------------- setup

    def _select_stage(self) -> StageBuilder:
        """Validate the switch's arbiters and pick the arbitration stage.

        Iterative schedulers compute one matching for the whole switch, so
        every output must share a single instance (built through
        :func:`repro.qos.shared_iterative_factory`), the input ports must
        be fully virtual-output-queued, and packet chaining — a per-output
        repeat-winner shortcut that would bypass the matching — is not
        modeled. Any other arbiter runs the per-output stage.

        Raises:
            ConfigError: on any violation; misconfigured matching would
                otherwise silently double-book inputs.
        """
        config = self.config
        arbiters = self.switch.arbiters
        if not any(isinstance(a, IterativeArbiter) for a in arbiters):
            return _per_output_stage
        first = arbiters[0]
        if not isinstance(first, IterativeArbiter) or any(
            a is not first for a in arbiters
        ):
            raise ConfigError(
                "iterative schedulers are switch-wide: every output must "
                "share one instance — build the arbiter factory with "
                "repro.qos.shared_iterative_factory"
            )
        if not config.voq:
            raise ConfigError(
                f"{first.name} matches over virtual output queues; set "
                "SwitchConfig(voq=True) (classic ports only VOQ the GB class)"
            )
        if config.packet_chaining:
            raise ConfigError(
                "packet chaining is a per-output repeat-winner shortcut and "
                f"is not modeled for the {first.name} matching scheduler"
            )
        if first.num_inputs != config.radix:
            raise ConfigError(
                f"{first.name} was built for {first.num_inputs} ports but "
                f"the switch radix is {config.radix}"
            )
        return functools.partial(_voq_stage, first)

    def _program_switch(self) -> None:
        """Install reservations and priority levels from the workload."""
        if self._programmed:
            return
        for spec in self.workload:
            if spec.reserved_rate is not None:
                self.switch.reserve_gb(
                    spec.flow.src,
                    spec.flow.dst,
                    spec.reserved_rate,
                    max(int(round(spec.mean_packet_flits)), 1),
                )
            if spec.priority_level:
                try:
                    self.switch.set_priority_level(spec.flow.src, spec.priority_level)
                except Exception:  # reprolint: disable=swallowed-exception
                    # Levels are only meaningful for the fixed-priority
                    # baseline; other arbiters reject or ignore them by
                    # design, so a failed set_priority_level is expected.
                    pass
        self._programmed = True

    def _build_sources(self, horizon: int) -> "List[FlowSource]":
        from ..traffic.generators import FlowSource

        seeds = np.random.SeedSequence(self.seed).spawn(len(self.workload.flows))
        packet_ids = fresh_packet_ids()  # per-run ids: replayable traces
        sources = []
        for spec, child in zip(self.workload, seeds):
            if spec.process is None:
                continue  # reservation-only flow: no traffic
            sources.append(
                FlowSource(
                    flow=spec.flow,
                    process=spec.process,
                    packet_length=spec.packet_length,
                    horizon=horizon,
                    rng=np.random.default_rng(child),
                    id_source=packet_ids,
                )
            )
        return sources

    # ------------------------------------------------------------------- run

    def run(self, horizon: int) -> SimulationResult:
        """Simulate ``horizon`` cycles and return the collected results."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        warmup = (
            self._warmup_override
            if self._warmup_override is not None
            else horizon // 10
        )
        if warmup >= horizon:
            raise SimulationError(f"warmup {warmup} must be below horizon {horizon}")
        self._program_switch()
        stats = StatsCollector(warmup_cycles=warmup, window_cycles=self.window_cycles)
        sources = self._build_sources(horizon)
        events: List[object] = []
        # Hooks are resolved once per run; the loop below counts into a
        # plain local tally and flushes it to the probe after the horizon.
        # Only trace events (ordered, payload-bearing) are emitted inline.
        hooks = resolve_hooks(self.probe)
        gauge_hook = hooks.gauge
        event_hook = hooks.event
        tally = dict.fromkeys(_COUNTERS, 0)
        max_overflow_flows = 0
        max_overflow_depth = 0

        switch = self.switch
        radix = switch.radix
        inputs = switch.inputs
        outputs = switch.outputs
        arbiters = switch.arbiters
        policers = [getattr(arbiters[o], "gl_policer", None) for o in range(radix)]
        arb_cycles_for = [switch.arbitration_cycles_for(o) for o in range(radix)]
        packet_chaining = self.config.packet_chaining
        max_chain_length = self.config.max_chain_length
        collect = self.collect_events

        # Fault injection: resolved once; per-kind flags keep the unfaulted
        # hot path to a handful of false boolean checks.
        injector = _checked_injector(self.fault_plan, radix, arbiters)
        faults_flips = injector is not None and injector.has_flips
        faults_drop = injector is not None and injector.has_drops
        faults_dup = injector is not None and injector.has_dups

        # Saturating sources grouped by input so top-up is O(active inputs),
        # each with its fixed packet length (0 when lengths are drawn from
        # the source's RNG), target queue, that queue's capacity, and its
        # id-burning skip_packet.
        saturating: Dict[
            int, List[Tuple["FlowSource", int, FlitBuffer, int, Callable[[], None]]]
        ] = {}
        # Scheduled arrivals as a heap of (next_time, tiebreak, source).
        arrival_heap: List = []
        for idx, source in enumerate(sources):
            if source.saturating:
                queue = inputs[source.flow.src].queue_for(source.flow)
                cap = queue.capacity_flits
                assert cap is not None  # input-port buffers are always bounded
                length = source.packet_length
                length = length if isinstance(length, int) else 0
                entry = (source, length, queue, cap, source.skip_packet)
                saturating.setdefault(source.flow.src, []).append(entry)
            else:
                t0 = source.peek_time()
                if t0 is not None:
                    heapq.heappush(arrival_heap, (t0, idx, source))

        overflow: Dict[FlowId, Deque[Packet]] = {}

        # Packet-chaining state per output: (last winner, its delivery
        # cycle, packets chained so far). See SwitchConfig.packet_chaining.
        chain_last_input = [-1] * radix
        chain_last_delivered = [-1] * radix
        chain_length = [0] * radix

        wake_heap: List[int] = [0]
        pending_wakes = {0}

        def wake(t: int) -> None:
            if t < horizon and t not in pending_wakes:
                heapq.heappush(wake_heap, t)
                pending_wakes.add(t)
                tally["kernel.heap_pushes"] += 1

        # Every scheduled source's first arrival must be a wake time.
        for t0, _, _ in arrival_heap:
            wake(int(t0))

        if injector is not None:
            # Stall boundaries and bit-flip cycles must be wake times so
            # this sparse kernel re-evaluates exactly when the per-cycle
            # flit kernel would (kernel parity under an active plan).
            for t in injector.wake_cycles():
                wake(t)

        def top_up_input(port_index: int, now: int) -> None:
            # Keep saturating buffers full. A fixed-length source prechecks
            # capacity arithmetically and burns the id of the one packet
            # that no longer fits (skip_packet), so a still-full buffer
            # costs one compare; a range-length source must draw the next
            # length to know, so it builds that packet and rolls it back.
            entries = saturating.get(port_index)
            if entries is None:
                return
            port = inputs[port_index]
            for source, length, queue, cap, skip_packet in entries:
                if length and queue.occupancy_flits + length > cap:
                    skip_packet()
                    continue
                new_head = on_head is not None and not queue
                while True:
                    packet = source.make_packet(now)
                    if not length and not queue.fits(packet):
                        source.created_count -= 1  # not offered after all
                        break
                    stats.on_created(packet)
                    if not port.try_inject(packet, now):
                        raise SimulationError("fits() and try_inject() disagree")
                    if length and queue.occupancy_flits + length > cap:
                        skip_packet()
                        break
                if new_head and queue:
                    on_head(queue.head())

        def drain_overflow(now: int) -> None:
            # Scans are O(flows with backlog): flows whose queue empties are
            # pruned from the dict, so long-drained flows cost nothing here.
            if not overflow:
                return
            tally["kernel.overflow_flows_scanned"] += len(overflow)
            drained = []
            for flow, queue in overflow.items():
                port = inputs[flow.src]
                packet = queue[0]
                if not port.try_inject(packet, now):
                    continue  # buffer still full — the common case
                queue.popleft()
                if on_head is not None and len(port.queue_for(packet)) == 1:
                    on_head(packet)
                while queue and port.try_inject(queue[0], now):
                    queue.popleft()
                if not queue:
                    drained.append(flow)
            for flow in drained:
                del overflow[flow]

        def book_grant(
            o: int, in_port: int, packet: Packet, contenders: int, now: int
        ) -> int:
            """Pop the granted packet and run the shared delivery bookkeeping.

            Every arbitration stage funnels its grants through here, so
            transmission timing, packet chaining, drop/dup fault
            accounting, statistics, trace/collected events, and the
            freed-buffer refill can never drift between them. Returns the
            delivery cycle.
            """
            port = inputs[in_port]
            port.pop_packet(packet)
            arb_cycles = arb_cycles_for[o]
            if packet_chaining:
                if (
                    chain_last_input[o] == in_port
                    and chain_last_delivered[o] == now
                    and chain_length[o] < max_chain_length
                ):
                    # Back-to-back repeat winner: the chain request was
                    # raised during the previous tail flit, so no
                    # arbitration bubble is paid.
                    arb_cycles = 0
                    chain_length[o] += 1
                    tally["kernel.chain_grants"] += 1
                else:
                    chain_length[o] = 0
            delivered = outputs[o].start_transmission(packet, now, arb_cycles)
            chain_last_input[o] = in_port
            chain_last_delivered[o] = delivered
            port.busy_until = delivered
            if on_pop is not None:
                on_pop(o, in_port, packet)
            # A dropped packet still used the channel; only the delivery
            # accounting is lost. A duplicated one is accounted twice.
            dropped = faults_drop and injector.drop_delivery(
                o, packet.packet_id, now
            )
            duplicated = False
            if not dropped:
                stats.on_delivered(packet)
                duplicated = faults_dup and injector.duplicate_delivery(
                    o, packet.packet_id, now
                )
                if duplicated:
                    stats.on_delivered(packet)
            if dropped or duplicated:
                tally["faults.packet_drops" if dropped else "faults.packet_dups"] += 1
                if event_hook is not None:
                    event_hook(
                        "fault",
                        now,
                        kind="packet-drop" if dropped else "packet-dup",
                        output=o,
                        input=in_port,
                        packet_id=packet.packet_id,
                    )
            tally["kernel.grants"] += 1
            if event_hook is not None:
                event_hook(
                    "grant",
                    now,
                    output=o,
                    input=in_port,
                    flow=str(packet.flow),
                    packet_id=packet.packet_id,
                    flits=packet.flits,
                    contenders=contenders,
                    delivered=delivered,
                    latency=packet.latency,
                    waiting=packet.waiting_time,
                )
            if collect:
                events.append(
                    GrantEvent(
                        cycle=now,
                        output=o,
                        input_port=in_port,
                        flow=packet.flow,
                        packet_id=packet.packet_id,
                        packet_flits=packet.flits,
                        contenders=contenders,
                    )
                )
                if not dropped:
                    events.append(
                        PacketDelivered(
                            cycle=delivered,
                            flow=packet.flow,
                            packet_id=packet.packet_id,
                            latency=packet.latency,
                            waiting_time=packet.waiting_time,
                        )
                    )
            wake(delivered)
            # Freed buffer space: admit waiting/saturating packets now
            # so their injection timestamps are exact.
            drain_overflow(now)
            top_up_input(in_port, now)
            return delivered

        stage = self._build_stage(
            RunContext(
                switch=switch,
                seed=self.seed,
                wake=wake,
                grant=book_grant,
                injector=injector,
                event_hook=event_hook,
                collect_events=collect,
                tally=tally,
            )
        )
        arbitrate = stage.arbitrate
        flip_counter = stage.flip_counter
        before_arrivals = stage.before_arrivals
        on_head = stage.on_head
        on_pop = stage.on_pop

        while wake_heap:
            now = heapq.heappop(wake_heap)
            pending_wakes.discard(now)
            tally["kernel.wakes"] += 1
            if before_arrivals is not None:
                before_arrivals(now)

            # 1. Scheduled arrivals up to and including `now`.
            while arrival_heap and arrival_heap[0][0] <= now:
                _, idx, source = heapq.heappop(arrival_heap)
                packet = source.pop_scheduled()
                stats.on_created(packet)
                flow_overflow = overflow.get(packet.flow)
                port = inputs[packet.src]
                if flow_overflow:
                    flow_overflow.append(packet)  # FIFO behind older packets
                elif port.try_inject(packet, now):
                    if on_head is not None and len(port.queue_for(packet)) == 1:
                        on_head(packet)
                else:
                    overflow.setdefault(packet.flow, deque()).append(packet)
                tally["kernel.arrivals"] += 1
                if gauge_hook is not None:
                    queued = overflow.get(packet.flow)
                    if queued is not None:
                        if len(overflow) > max_overflow_flows:
                            max_overflow_flows = len(overflow)
                        if len(queued) > max_overflow_depth:
                            max_overflow_depth = len(queued)
                next_time = source.peek_time()
                if next_time is not None:
                    heapq.heappush(arrival_heap, (next_time, idx, source))
                    tally["kernel.heap_pushes"] += 1
                    wake(int(next_time))

            # 2. Refill buffers: overflow first (older packets), then
            #    saturating sources.
            drain_overflow(now)
            for port_index in saturating:
                top_up_input(port_index, now)

            # 2b. Counter bit-flips fire before any arbitration this cycle,
            #     mirroring the flit kernel's per-cycle ordering.
            if faults_flips:
                for spec in injector.counter_flips_at(now):
                    if flip_counter is None:
                        arbiters[spec.output].inject_counter_bitflip(
                            spec.input_port, spec.bit, now
                        )
                    else:
                        flip_counter(spec.output, spec.input_port, spec.bit, now)
                    tally["faults.counter_bitflips"] += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            kind="counter-bitflip",
                            output=spec.output,
                            input=spec.input_port,
                            bit=spec.bit,
                        )

            # 3. Arbitrate every idle output.
            arbitrate(now)

        # Flush locally-accumulated aggregates to the probe once. Counters
        # that never fired stay absent, matching the old inline behaviour.
        count_hook = hooks.count
        if count_hook is not None:
            for name, total in tally.items():
                if total:
                    count_hook(name, total)
        if gauge_hook is not None:
            if max_overflow_flows:
                gauge_hook("kernel.overflow_flows", max_overflow_flows)
            if max_overflow_depth:
                gauge_hook("kernel.overflow_queue_depth", max_overflow_depth)

        stats.finish(horizon)
        gl_throttle_events = {
            o: p.throttle_events for o, p in enumerate(policers) if p is not None
        }
        return SimulationResult(
            chained_grants=tally["kernel.chain_grants"],
            config=self.config,
            workload_name=self.workload.name,
            horizon=horizon,
            warmup_cycles=warmup,
            stats=stats,
            output_utilization={
                o: outputs[o].utilization(horizon) for o in range(radix)
            },
            grants=tally["kernel.grants"],
            events=events,
            gl_throttle_events=gl_throttle_events,
            kernel=self._kernel_name,
        )
