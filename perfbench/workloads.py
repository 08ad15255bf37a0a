"""The benchmark's workloads: inputs made from a seed, and the ops run on them.

An *op* is one simulation or one sweep point. Every input is derived from
the benchmark seed here; the program only ever sees the generated
configs, workloads and sweep points.

Importing this module imports ``repro`` (and numpy through it), so a
fresh interpreter's import cost is the cost of importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.experiments.tournament import POLICIES, run_tournament
from repro.parallel import SweepPoint, result_hash
from repro.switch.array_kernel import ArraySimulation
from repro.switch.simulator import Simulation, SimulationResult
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.patterns import uniform_random_workload

# --------------------------------------------------------------- paper-r8

PAPER_R8_OPS = 8
PAPER_R8_HORIZON = 5_000
PAPER_R8_RADIX = 8

# -------------------------------------------------------------- r128-array

R128_OPS = 4
R128_HORIZON = 5_000
R128_RADIX = 128
R128_HOT_OUTPUTS = 8

# -------------------------------------------------------- tournament-sweep

TOURNAMENT_SCENARIOS = ("uniform", "faulted")
TOURNAMENT_RATES = (0.95, 0.99)
TOURNAMENT_HORIZON = 2_000
TOURNAMENT_POINTS = len(TOURNAMENT_SCENARIOS) * len(POLICIES) * len(TOURNAMENT_RATES)
#: Sweep seeds per run: one sweep's cost depends on its seed, so a run
#: cycles through several and its median covers them all.
TOURNAMENT_SEEDS = 4


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def paper_config(radix: int, gl_rate: float) -> SwitchConfig:
    """The paper's switch: 16-flit buffers, 4-bit thermometer, GL policer."""
    return SwitchConfig(
        radix=radix,
        channel_bits=128,
        gb_buffer_flits=16,
        be_buffer_flits=16,
        gl_buffer_flits=16,
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=gl_rate),
    )


def result_digest(result: SimulationResult) -> str:
    """Digest of everything a simulation reports, flow by flow."""
    stats = result.stats
    flows = sorted(stats.flows.items(), key=lambda item: str(item[0]))
    return result_hash(
        [
            result.grants,
            result.chained_grants,
            sorted(result.output_utilization.items()),
            sorted(result.gl_throttle_events.items()),
        ]
        + [
            (
                str(flow),
                fs.offered_packets,
                fs.offered_flits,
                fs.delivered_packets,
                fs.delivered_flits,
                fs.latency.count,
                fs.latency.mean,
                fs.waiting.count,
                fs.waiting.mean,
            )
            for flow, fs in flows
        ]
    )


# ------------------------------------------------------------------- paper-r8


def paper_r8_points(seed: int) -> List[SweepPoint]:
    """One point per simulation: its seed and the BE/GL destinations."""
    rng = _rng(seed, "paper-r8")
    points = []
    for k in range(PAPER_R8_OPS):
        be_dst = tuple(int(d) for d in rng.integers(0, PAPER_R8_RADIX, PAPER_R8_RADIX))
        gl_dst = tuple(int(d) for d in rng.integers(0, PAPER_R8_RADIX, PAPER_R8_RADIX))
        points.append(
            SweepPoint.make(
                k,
                f"paper-r8:{k}",
                seed=int(rng.integers(0, 2**31)),
                be_dst=be_dst,
                gl_dst=gl_dst,
                horizon=PAPER_R8_HORIZON,
            )
        )
    return points


def paper_r8_build(point: SweepPoint, probe: Any = None) -> Simulation:
    """Event kernel, radix 8: GB to every output, one BE and one GL flow per input."""
    workload = uniform_random_workload(PAPER_R8_RADIX, inject_rate=0.5, reserved_share=0.8)
    workload.name = "paper-r8"
    for src in range(PAPER_R8_RADIX):
        workload.add(be_flow(src, point.param("be_dst")[src], inject_rate=0.2))
        workload.add(gl_flow(src, point.param("gl_dst")[src], inject_rate=0.01))
    return Simulation(
        paper_config(PAPER_R8_RADIX, 0.05), workload, seed=point.seed, probe=probe
    )


def paper_r8_point(point: SweepPoint) -> Tuple[int, str]:
    """Sweep worker: one paper-r8 simulation -> (grants, digest)."""
    result = paper_r8_build(point).run(point.param("horizon"))
    return result.grants, result_digest(result)


# ----------------------------------------------------------------- r128-array


def r128_points(seed: int) -> List[SweepPoint]:
    """One point per simulation: 8 hot outputs, each fed by 16 sources."""
    rng = _rng(seed, "r128-array")
    points = []
    for k in range(R128_OPS):
        hot = rng.choice(R128_RADIX, size=R128_HOT_OUTPUTS, replace=False)
        order = rng.permutation(R128_RADIX)
        dst = [0] * R128_RADIX
        for j, src in enumerate(order):
            dst[int(src)] = int(hot[j % R128_HOT_OUTPUTS])
        points.append(
            SweepPoint.make(
                k,
                f"r128-array:{k}",
                seed=int(rng.integers(0, 2**31)),
                dst=tuple(dst),
                horizon=R128_HORIZON,
            )
        )
    return points


def r128_build(point: SweepPoint, probe: Any = None) -> ArraySimulation:
    """Array kernel, radix 128: saturating GB flows funnelled 16:1."""
    workload = Workload(name="r128-array")
    for src, dst in enumerate(point.param("dst")):
        workload.add(gb_flow(src, dst, reserved_rate=0.05, inject_rate=None))
    return ArraySimulation(
        paper_config(R128_RADIX, 0.0), workload, seed=point.seed, probe=probe
    )


def r128_point(point: SweepPoint) -> Tuple[int, str]:
    """Sweep worker: one r128-array simulation -> (grants, digest)."""
    result = r128_build(point).run(point.param("horizon"))
    return result.grants, result_digest(result)


# ----------------------------------------------------------- tournament-sweep


def tournament_seeds(seed: int) -> List[int]:
    rng = _rng(seed, "tournament-sweep")
    return [int(s) for s in rng.integers(0, 2**31, TOURNAMENT_SEEDS)]


def tournament_pass(sweep_seed: int, jobs: int, resilience: Any) -> Tuple[str, Any]:
    """One tournament sweep (16 points); returns (hash, result)."""
    result = run_tournament(
        rates=TOURNAMENT_RATES,
        scenarios=TOURNAMENT_SCENARIOS,
        horizon=TOURNAMENT_HORIZON,
        seed=sweep_seed,
        jobs=jobs,
        resilience=resilience,
    )
    return result.hash(), result


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class SimWorkload:
    """A workload whose op is one simulation built from a sweep point."""

    points: Callable[[int], List[SweepPoint]]
    build: Callable[..., Simulation]
    worker: Callable[[SweepPoint], Tuple[int, str]]


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    "paper-r8": SimWorkload(paper_r8_points, paper_r8_build, paper_r8_point),
    "r128-array": SimWorkload(r128_points, r128_build, r128_point),
}

NAMES = ("paper-r8", "r128-array", "tournament-sweep")


def first_cycle(name: str, seed: int) -> None:
    """Build the workload's first simulation and simulate one cycle.

    The set-up probe times this after a fresh import: config, workload
    and simulation construction up to the first simulated cycle.
    """
    if name in SIM_WORKLOADS:
        spec = SIM_WORKLOADS[name]
        spec.build(spec.points(seed)[0]).run(1)
        return
    run_tournament(
        rates=TOURNAMENT_RATES[:1],
        scenarios=TOURNAMENT_SCENARIOS[:1],
        policies=POLICIES[:1],
        horizon=1,
        seed=tournament_seeds(seed)[0],
    )
