"""Array-batched arbitration: one cycle's arbitration as matrix ops.

:class:`ArraySimulation` runs the event kernel's skeleton
(:meth:`Simulation.run <repro.switch.simulator.Simulation.run>`) with a
different arbitration stage, so it reproduces the event kernel's schedule
bit for bit (same wake times, same grants, same trace events, same probe
counters) while replacing the per-output, per-input Python arbitration
loop with NumPy integer matrix operations batched across **all outputs at
once**:

* request state per class lives in ``(output, input)`` matrices — GB head
  flits, GL/BE head destinations, auxVC counters in exact subtick units;
* the SSVC coarse-level compare is a floor-divide + minimum over the
  counter matrix (:func:`repro.core.vectorized.thermometer_levels`);
* the GB thermometer mask and the GL > GB > BE plane priority collapse
  into one integer *coarse band* per crosspoint;
* the LRG tie-break is a per-output rank vector fused into a composite key
  ``coarse * radix + rank`` whose row-wise argmin is the grant decision;
* GL policer eligibility is one integer threshold per output
  (:func:`repro.core.vectorized.gl_eligibility_threshold`), recomputed only
  when the usage clock moves.

The grant path compares **integers only** — the scalar stack's one float
quantity (the policer clock) is folded into an integer cycle threshold
outside the per-cycle loop, and every counter uses the same subtick units
as :class:`repro.core.ssvc.SSVCCore`, so equality with the reference kernel
is exact, not approximate. ``tests/test_array_kernel_parity.py`` holds the
kernel to that contract on uniform, hotspot, GL-policed, and faulted
scenarios; see docs/KERNELS.md for the parity contract and the reasoning
behind the incremental (dirty-row) rebuild scheme.

The kernel intentionally supports exactly the paper's three-class SSVC
arbitration stack (the :class:`~repro.qos.three_class.ThreeClassArbiter`
with an SSVC GB plane — the default arbiter). Alternative arbiters (plain
LRG, WFQ, fixed-priority baselines) and packet chaining stay on the event
kernel, which remains the oracle.
"""

from __future__ import annotations

import functools
from typing import List, Set

import numpy as np

from ..core import vectorized as vec
from ..errors import ArbitrationError, ConfigError, SimulationError
from ..qos.ssvc_arbiter import SSVCArbiter
from ..qos.three_class import ThreeClassArbiter
from ..types import CounterMode, TrafficClass
from .flit import Packet
from .simulator import ArbitrationStage, RunContext, Simulation, StageBuilder

#: Coarse band of a crosspoint presenting nothing (mirrors vectorized.py).
_NO_REQ = vec.NO_REQUEST
#: Masked-entry sentinel (busy/stalled/dead/empty inputs).
_BIG = vec.MASKED


class ArraySimulation(Simulation):
    """Batched-arbitration twin of :class:`Simulation` (``kernel="array"``).

    Accepts the same arguments as :class:`Simulation` and produces a
    bit-identical :class:`SimulationResult` (``result.kernel == "array"``).
    Raises :class:`ConfigError` at construction for features the batched
    backend does not model: packet chaining, full-VOQ ports and
    non-three-class arbiters.
    """

    _kernel_name = "array"

    # The run skeleton is the event kernel's; only the stage differs.
    run = Simulation.run

    def _select_stage(self) -> StageBuilder:
        """Validate that the batched stage models this switch; pick it."""
        config = self.config
        if config.packet_chaining:
            raise ConfigError(
                "the array kernel does not model packet chaining; use the "
                "event kernel for chained-grant experiments"
            )
        if config.voq:
            raise ConfigError(
                "the array kernel vectorizes the classic partially-queued "
                "ports; full-VOQ mode (config.voq) needs the event kernel"
            )
        stacks: List[ThreeClassArbiter] = []
        for o, arb in enumerate(self.switch.arbiters):
            if not isinstance(arb, ThreeClassArbiter) or not isinstance(
                arb.gb_arbiter, SSVCArbiter
            ):
                raise ConfigError(
                    f"the array kernel vectorizes the three-class SSVC stack; "
                    f"output {o} uses arbiter {getattr(arb, 'name', '?')!r} "
                    "(use the event kernel for other arbitration policies)"
                )
            stacks.append(arb)
        if (config.qos.levels + 2) * config.radix >= _NO_REQ:
            raise ConfigError(
                f"radix {config.radix} with {config.qos.levels} coarse levels "
                "overflows the array kernel's composite priority key"
            )
        return functools.partial(_array_stage, stacks)


def _array_stage(stacks: List[ThreeClassArbiter], ctx: RunContext) -> ArbitrationStage:
    """The batched arbitration stage over one run's matrix state."""
    switch = ctx.switch
    n = switch.radix
    inputs = switch.inputs
    outputs = switch.outputs
    policers = [stack.gl_policer for stack in stacks]
    grant = ctx.grant
    event_hook = ctx.event_hook
    need_contenders = event_hook is not None or ctx.collect_events
    qos = switch.config.qos
    levels = qos.levels
    top_level = levels - 1
    quantum = qos.quantum
    counter_bits = qos.counter_bits
    mode = qos.counter_mode
    sync_needed = mode is CounterMode.SUBTRACT
    injector = ctx.injector
    faults_stall = injector is not None and injector.has_stalls
    faults_dead = injector is not None and injector.has_dead
    tally = ctx.tally

    # ------------------------------------------------ vectorized QoS state
    # Matrices are [output, input] in int64; counters use the exact
    # subtick units exported by each output's SSVCCore so the integer
    # arithmetic below is the reference arithmetic, just batched.
    value = np.zeros((n, n), dtype=np.int64)
    vtick = np.zeros((n, n), dtype=np.int64)
    registered = np.zeros((n, n), dtype=np.bool_)
    epoch_mat = np.zeros((n, n), dtype=np.int64)
    rank = np.zeros((n, n), dtype=np.int64)
    qn: List[int] = []
    sat: List[int] = []
    scale: List[int] = []
    thr: List[int] = []
    for o, stack in enumerate(stacks):
        state = stack.gb_arbiter.core.export_state()  # type: ignore[union-attr]
        qn.append(state.quantum_num)
        sat.append(state.saturation_num)
        scale.append(state.scale)
        if state.saturation_num + state.quantum_num >= 1 << 62:
            raise ConfigError(
                f"output {o}: subtick scale {state.scale} puts the "
                "saturation register beyond the array kernel's int64 range"
            )
        for i, (vtick_num, value_num, epoch) in state.flows.items():
            vtick[o, i] = vtick_num
            value[o, i] = value_num
            epoch_mat[o, i] = epoch
            registered[o, i] = True
        rank[o] = vec.lrg_ranks(stack.lrg.order)
        pol = policers[o]
        thr.append(
            vec.gl_eligibility_threshold(
                pol.usage_clock, pol.config.burst_window, pol.config.reserved_rate
            )
        )
    qn_col = np.array(qn, dtype=np.int64).reshape(n, 1)
    # Outputs whose eligibility can flip over time (positive reservation
    # with a finite burst window); the rest are constant for the run.
    dynamic_policed = [
        o
        for o, pol in enumerate(policers)
        if pol.config.reserved_rate > 0.0 and pol.config.burst_window is not None
    ]
    allow: List[bool] = [0 >= t for t in thr]
    min_epoch_done = int(epoch_mat.min()) if sync_needed else 0

    # ------------------------------------------------------- head mirrors
    # Filled from the ports' current heads once the hooks below exist.
    gl_dst = np.full(n, -1, dtype=np.int64)
    gl_flits = np.zeros(n, dtype=np.int64)
    be_dst = np.full(n, -1, dtype=np.int64)
    be_flits = np.zeros(n, dtype=np.int64)
    gb_head = np.zeros((n, n), dtype=np.int64)
    busy_arr = np.array([port.busy_until for port in inputs], dtype=np.int64)
    occ_nz = np.zeros(n, dtype=np.bool_)
    gl_count = 0
    be_count = 0
    out_busy = [outputs[o].busy_until for o in range(n)]

    coarse = np.full((n, n), _NO_REQ, dtype=np.int64)
    key = np.zeros((n, n), dtype=np.int64)
    rowdirty: Set[int] = set(range(n))
    keydirty: Set[int] = set()
    # Requesting crosspoints per output row: a row whose count is zero
    # has nothing to arbitrate, throttle, or fault-mask this cycle, so
    # the per-wake work scales with *contended* outputs, not radix.
    present_count = [0] * n
    active = np.empty(n, dtype=np.bool_)
    colok_buf = np.empty(n, dtype=np.bool_)
    rowmask_buf = np.empty(n, dtype=np.bool_)
    stalled_np = np.zeros(n, dtype=np.bool_)
    live = (
        np.array(
            [[not injector.crosspoint_dead(i, o) for i in range(n)] for o in range(n)],
            dtype=np.bool_,
        )
        if faults_dead and injector is not None
        else np.ones((n, n), dtype=np.bool_)
    )
    noreq_limit = _NO_REQ * n

    # ----------------------------------------------- incremental rebuilds

    def rebuild_coarse_row(o: int) -> None:
        """Recompute one output's coarse bands from the head mirrors."""
        lvl = value[o] // qn[o]
        np.minimum(lvl, top_level, out=lvl)
        gb_here = gb_head[o] != 0
        if bool(np.any(gb_here & ~registered[o])):
            # tie-break: only names the first offender for the error
            # message; the raise aborts the run either way.
            bad = int(np.argmax(gb_here & ~registered[o]))
            raise ArbitrationError(f"input {bad} has no GB reservation at this output")
        if gl_count or be_count:
            coarse[o] = vec.coarse_row(
                gl_dst == o, gb_here, be_dst == o, lvl, allow[o], levels
            )
        else:
            lvl += 1
            coarse[o] = np.where(gb_here, lvl, _NO_REQ)
        present_count[o] = int(np.count_nonzero(coarse[o] != _NO_REQ))

    def refresh_entry(o: int, i: int) -> None:
        """Recompute one crosspoint's coarse band (head/counter change)."""
        if allow[o] and int(gl_dst[i]) == o:
            band = 0
        elif int(gb_head[o, i]) != 0:
            if not registered[o, i]:
                raise ArbitrationError(
                    f"input {i} has no GB reservation at this output"
                )
            lvl = int(value[o, i]) // qn[o]
            band = (lvl if lvl < top_level else top_level) + 1
        elif int(be_dst[i]) == o or int(gl_dst[i]) == o:
            band = levels + 1
        else:
            band = _NO_REQ
        was_present = int(coarse[o, i]) != _NO_REQ
        coarse[o, i] = band
        if (band != _NO_REQ) != was_present:
            present_count[o] += 1 if band != _NO_REQ else -1
        keydirty.add(o)

    # ---------------------------------------------------- skeleton hooks

    def note_new_head(packet: Packet) -> None:
        """A previously-empty queue gained ``packet`` as its head."""
        nonlocal gl_count, be_count
        flow = packet.flow
        i = flow.src
        dst = flow.dst
        cls = flow.traffic_class
        occ_nz[i] = True
        if cls is TrafficClass.GB:
            gb_head[dst, i] = packet.flits
        elif cls is TrafficClass.GL:
            gl_dst[i] = dst
            gl_flits[i] = packet.flits
            gl_count += 1
        else:
            be_dst[i] = dst
            be_flits[i] = packet.flits
            be_count += 1
        refresh_entry(dst, i)

    def note_pop(o: int, w: int, packet: Packet) -> None:
        """Mirror a grant's pop: clear the head, then show the next one."""
        nonlocal gl_count, be_count
        port = inputs[w]
        cls = packet.flow.traffic_class
        if cls is TrafficClass.GB:
            gb_head[o, w] = 0
            head = port.gb_queues[o].head()
        elif cls is TrafficClass.GL:
            gl_dst[w] = -1
            gl_flits[w] = 0
            gl_count -= 1
            head = port.gl_queue.head()
        else:
            be_dst[w] = -1
            be_flits[w] = 0
            be_count -= 1
            head = port.be_queue.head()
        occ_nz[w] = port.total_occupancy_flits > 0
        if head is None or head.flow.dst != o:
            refresh_entry(o, w)  # else note_new_head refreshes (o, w)
        if head is not None:
            note_new_head(head)

    for port in inputs:
        for queue in port.all_queues():
            head = queue.head()
            if head is not None:
                note_new_head(head)

    def before_arrivals(now: int) -> None:
        nonlocal min_epoch_done
        # Eager SUBTRACT-mode window decay: the reference core syncs each
        # flow lazily at first touch within a cycle; applying the
        # identical clamped decay to the whole matrix up front is
        # equivalent (max(max(v-a,0)-b,0) == max(v-a-b,0)) and makes
        # every later read this wake sync-free.
        if sync_needed:
            now_epoch = now // quantum
            if now_epoch > min_epoch_done:
                delta = now_epoch - epoch_mat
                np.maximum(delta, 0, out=delta)
                np.minimum(delta, levels, out=delta)
                np.subtract(value, delta * qn_col, out=value)
                np.maximum(value, 0, out=value)
                np.maximum(epoch_mat, now_epoch, out=epoch_mat)
                min_epoch_done = now_epoch
                rowdirty.update(range(n))
        # GL eligibility thresholds -> per-output allow bits.
        for o in dynamic_policed:
            eligible = now >= thr[o]
            if eligible != allow[o]:
                allow[o] = eligible
                if gl_count:
                    rowdirty.add(o)

    def flip_counter(o_f: int, i_f: int, bit: int, now: int) -> None:
        if bit < 0 or bit >= counter_bits:
            raise ConfigError(f"bit {bit} outside the {counter_bits}-bit register")
        if not registered[o_f, i_f]:
            raise ArbitrationError(
                f"input {i_f} has no GB reservation at this output"
            )
        cycles = int(value[o_f, i_f]) // scale[o_f]
        flipped = int(value[o_f, i_f]) + ((cycles ^ (1 << bit)) - cycles) * scale[o_f]
        if flipped > sat[o_f]:
            flipped = sat[o_f]
        value[o_f, i_f] = flipped
        refresh_entry(o_f, i_f)

    # ----------------------------------------------------------- arbitrate

    def arbitrate(now: int) -> None:
        # Rebuild dirty priority rows, then batch-arbitrate.
        if rowdirty:
            for o in rowdirty:
                rebuild_coarse_row(o)
            keydirty.update(rowdirty)
            rowdirty.clear()
        if keydirty:
            for o in keydirty:
                np.multiply(coarse[o], n, out=key[o])
                key[o] += rank[o]
            keydirty.clear()

        # Arbitrate idle outputs, rotating the start to avoid bias. Rows
        # with no requesting crosspoint (the common case away from
        # contended outputs) are skipped before any array work; the
        # availability columns are built lazily on the first row that
        # needs them.
        cols_ready = False
        col_ok = active
        for k in range(n):
            o = (now + k) % n
            if out_busy[o] > now or not present_count[o]:
                continue
            if not cols_ready:
                np.less_equal(busy_arr, now, out=active)
                np.logical_and(active, occ_nz, out=active)
                if faults_stall and injector is not None:
                    for i in range(n):
                        stalled_np[i] = injector.stalled(i, now)
                    np.logical_not(stalled_np, out=colok_buf)
                    np.logical_and(active, colok_buf, out=colok_buf)
                    col_ok = colok_buf
                else:
                    col_ok = active
                cols_ready = True

            if faults_stall or faults_dead:
                present = coarse[o] < _NO_REQ
                if faults_stall:
                    tally["faults.stall_masked"] += int(
                        np.count_nonzero(active & stalled_np & present)
                    )
                    avail = active & ~stalled_np
                else:
                    avail = active
                if faults_dead:
                    tally["faults.dead_crosspoint_masked"] += int(
                        np.count_nonzero(avail & ~live[o] & present)
                    )

            if gl_count and not allow[o]:
                denied = active & (gl_dst == o)
                if faults_stall:
                    denied &= ~stalled_np
                if faults_dead:
                    denied &= live[o]
                if bool(denied.any()):
                    policer = policers[o]
                    for i in np.nonzero(denied)[0].tolist():
                        policer.note_throttled(now, i)
                        tally["kernel.gl_throttles"] += 1
                        if event_hook is not None:
                            event_hook("gl_throttle", now, output=o, input=i)

            if faults_dead:
                np.logical_and(col_ok, live[o], out=rowmask_buf)
                row = np.where(rowmask_buf, key[o], _BIG)
            else:
                row = np.where(col_ok, key[o], _BIG)
            # tie-break: composite keys are unique within a row (LRG
            # ranks are a permutation), so argmin never faces a tie.
            w = int(row.argmin())
            mv = int(row[w])
            if mv >= noreq_limit:
                continue
            tally["kernel.arbitrations"] += 1
            band = mv // n
            allow_o = allow[o]

            # The event kernel's select() resolved; derive the winning
            # head's class and flits from the mirrors (the composite band
            # encodes the presented head unambiguously).
            if band == 0:
                expected = int(gl_flits[w])
                winner_class = TrafficClass.GL
                eligible_gl = True
            elif band <= levels:
                expected = int(gb_head[o, w])
                winner_class = TrafficClass.GB
                eligible_gl = False
            elif int(be_dst[w]) == o:
                expected = int(be_flits[w])
                winner_class = TrafficClass.BE
                eligible_gl = False
            else:
                expected = int(gl_flits[w])  # policer-demoted GL head
                winner_class = TrafficClass.GL
                eligible_gl = False

            contenders = 0
            if need_contenders:
                contenders = int(np.count_nonzero(row < _NO_REQ))

            # Commit — the exact grant-time updates of the scalar stack.
            if winner_class is TrafficClass.GB:
                v = int(value[o, w]) + int(vtick[o, w])
                if sync_needed:
                    # SUBTRACT: only the winner can newly reach saturation
                    # (every other counter was clamped when it last
                    # changed), so a scalar clamp suffices.
                    if v > sat[o]:
                        v = sat[o]
                    value[o, w] = v
                else:
                    value[o, w] = v
                    if int(value[o].max()) >= sat[o]:
                        np.minimum(value[o], sat[o], out=value[o])
                        if mode is CounterMode.HALVE:
                            value[o] //= 2
                            stacks[o].gb_arbiter.core.halve_events += 1  # type: ignore[union-attr]
                        else:
                            value[o].fill(0)
                            stacks[o].gb_arbiter.core.reset_events += 1  # type: ignore[union-attr]
                        rowdirty.add(o)
            elif eligible_gl:
                policer = policers[o]
                policer.on_transmit(expected, now)
                thr[o] = vec.gl_eligibility_threshold(
                    policer.usage_clock,
                    policer.config.burst_window,
                    policer.config.reserved_rate,
                )
            # Every winner advances LRG. A BE head, or a GL head the
            # policer demoted, is served best-effort: no reservation charge.
            vec.lrg_commit(rank[o], w)
            keydirty.add(o)

            packet = inputs[w].head_for_output(o, allow_gl=allow_o)
            if packet is None or packet.flits != expected:
                raise SimulationError(
                    f"arbiter granted a request that is no longer head-of-line "
                    f"at input {w}"
                )
            delivered = grant(o, w, packet, contenders, now)
            out_busy[o] = delivered
            busy_arr[w] = delivered
            active[w] = False
            if col_ok is not active:
                col_ok[w] = False

    return ArbitrationStage(
        arbitrate=arbitrate,
        flip_counter=flip_counter,
        before_arrivals=before_arrivals,
        on_head=note_new_head,
        on_pop=note_pop,
    )
