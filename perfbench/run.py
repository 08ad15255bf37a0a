"""Benchmark of the QoS switch simulator, measured from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-r8 --seed 1 --seconds 25 --trace 0

``--workload`` is ``paper-r8``, ``r128-array``, ``tournament-sweep`` or
``all``. With ``--trace 0`` the run times the workload's ops for
``--seconds`` seconds and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed set of ops untraced and then traced, and
prints the per-layer metrics. Either way every op's result digest is
checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Single-process timings are reference-normalised: ``raw * R0 / R``, where
``R`` is the time of the frozen loop in ``refloop.py`` measured right
before and after each timed unit, and ``R0`` is its time recorded in
``reference.json``.
Raw seconds and ``R`` are printed beside every normalised figure;
``reference.json`` records why each metric is normalised.

Exit codes: 0 when every op succeeded and every check held, 1 when an op
failed or a check did not hold (the result line says which counts), 2
when the benchmark cannot run at all (no result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Fresh-interpreter set-up measurements per run, the first a warm-up
#: (the median of the rest is reported).
SETUP_REPEATS = 16
#: Share of ``--seconds`` spent re-serving ops from a warm catalog.
WARM_SHARE = 0.3
#: Warm passes are timed in batches of at least this many seconds.
WARM_BATCH_S = 0.1
#: Share of a traced run, timed from outside the tracer, that the layers'
#: self times must cover. The rest is the benchmark's own glue between
#: shimmed calls (building workloads, hashing results).
TRACE_COVERAGE = 0.95

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -------------------------------------------------------------- host record


class Reference:
    """Times the frozen reference loop and normalises units against it."""

    def __init__(self, r0: float, checksum: int) -> None:
        from refloop import reference_loop

        self._loop = reference_loop
        self.r0 = r0
        self.checksum = checksum
        self.samples: List[float] = []

    def measure(self) -> float:
        seconds, checksum = self._loop()
        if checksum != self.checksum:
            raise BenchError(
                f"reference loop checksum {checksum} != pinned {self.checksum}: "
                "refloop.py was edited, so R0 no longer applies"
            )
        self.samples.append(seconds)
        return seconds

    def around(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn``; return (result, raw seconds, R next to it)."""
        before = self.samples[-1] if self.samples else self.measure()
        start = clock()
        result = fn()
        raw = clock() - start
        after = self.measure()
        return result, raw, (before + after) / 2


class Units:
    """Timed units of one metric: raw seconds and the R measured beside each.

    ``r0`` is the recorded time of the reference that R measures. The
    first ``warmup`` units let lazy set-up and caches settle: their
    outputs are still checked, but their times are dropped.
    """

    def __init__(self, r0: float, warmup: int = 0) -> None:
        self.r0 = r0
        self.raw: List[float] = []
        self.refs: List[float] = []
        self._warmup = warmup

    def add(self, raw: float, ref: float) -> None:
        if self._warmup:
            self._warmup -= 1
            return
        self.raw.append(raw)
        self.refs.append(ref)

    def __len__(self) -> int:
        return len(self.raw)

    def raw_median(self) -> float:
        return statistics.median(self.raw)

    def normalised_median(self) -> float:
        return statistics.median(r * self.r0 / ref for r, ref in zip(self.raw, self.refs))

    def ref_median(self) -> float:
        return statistics.median(self.refs)


def fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ------------------------------------------------------------------ ledger


class Ledger:
    """Ops attempted and failed, and the checks that did not hold.

    Each op is charged at most once: a pass's checks are combined into one
    :meth:`check`. A check that belongs to no op (``ops=0``) still makes
    the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.messages: List[str] = []

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok: bool, message: str, ops: int = 1) -> None:
        if not ok:
            self.fail(message, ops)

    @property
    def correct(self) -> bool:
        return self.problems == 0


def pinned(ref: Dict[str, Any], name: str, seed: int) -> Optional[List[str]]:
    """The digests pinned for ``name``, or None away from the default seed."""
    if seed != ref["default_seed"]:
        return None
    return list(ref["pinned_digests"].get(name, []))


def check_pinned(
    ledger: Ledger, ref: Dict[str, Any], name: str, seed: int, digests: List[str], ops: int
) -> None:
    """At the default seed, the first repetition's digests must equal the pins."""
    pins = pinned(ref, name, seed)
    if pins is None:
        return
    ledger.check(
        digests == pins[: len(digests)] and len(pins) >= len(digests),
        f"{name}: digests {digests} at the default seed != pinned {pins}",
        ops,
    )


# ----------------------------------------------------------- timed phases


def run_sims(spec: Any, points: List[Any], budget: float, host: Reference,
             ledger: Ledger, first: Dict[int, Any],
             setup: Optional["SetupProbes"] = None) -> Units:
    """Run repetitions of the points' simulations until ``budget`` ends.

    Each unit is one simulation's ``run()``. ``first`` maps a point to the
    (grants, digest) of its first run; every later run must reproduce it.
    The budget is checked only between repetitions, so every point is
    timed equally often; a budget of 0 runs exactly one repetition.
    ``setup``'s children run between simulations, outside the budget.
    """
    from workloads import result_digest

    units = Units(host.r0)
    start = clock()
    deadline = start + budget
    while True:
        for point in points:
            ledger.attempted += 1
            try:
                sim = spec.build(point)
                horizon = point.param("horizon")
                result, raw, ref = host.around(lambda: sim.run(horizon))
                value = (result.grants, result_digest(result))
            except Exception as exc:  # counted: an op that raises failed
                ledger.fail(f"{point.label}: {type(exc).__name__}: {exc}")
                continue
            units.add(raw, ref)
            expected = first.setdefault(point.index, value)
            ledger.check(value == expected, f"{point.label}: digest changed between repetitions")
            if setup is not None:
                deadline += setup.due((clock() - start) / max(budget, 1e-9))
        if clock() >= deadline:
            return units


def warm_batches(
    one_pass: Callable[[], Any],
    check: Callable[[Any], None],
    points: int,
    budget: float,
    host: Reference,
    ledger: Ledger,
) -> Units:
    """Time warm re-runs in batches; each unit is one pass (batch mean)."""
    units = Units(host.r0, warmup=1)
    gc.collect()
    deadline = clock() + budget
    while not len(units) or clock() < deadline:
        before = host.samples[-1] if host.samples else host.measure()
        elapsed = 0.0
        passes = 0
        while elapsed < WARM_BATCH_S:
            ledger.attempted += points
            start = clock()
            try:
                out = one_pass()
            except Exception as exc:  # counted: a warm pass that raises failed
                ledger.fail(f"warm pass: {type(exc).__name__}: {exc}", points)
                return units
            elapsed += clock() - start
            passes += 1
            check(out)
        units.add(elapsed / passes, (before + host.measure()) / 2)
    return units


def sim_warm_pass(spec: Any, points: List[Any], catalog_path: Path) -> Callable[[], Any]:
    """One warm re-run of the points: every one served by the reopened catalog."""
    from repro.catalog import RunCatalog
    from repro.parallel import SweepExecutor
    from repro.resilience import ResilienceOptions

    def one_pass() -> Tuple[List[Any], Any]:
        catalog = RunCatalog(catalog_path)
        try:
            options = ResilienceOptions(catalog=catalog)
            results = SweepExecutor(jobs=1, resilience=options).map(spec.worker, points)
        finally:
            catalog.close()
        return [r.value for r in results], options.outcomes[-1]

    return one_pass


def fill_catalog(spec: Any, points: List[Any], values: Dict[int, Any], path: Path) -> None:
    from repro.catalog import RunCatalog
    from repro.resilience import worker_name

    with RunCatalog(path) as catalog:
        for point in points:
            catalog.record(worker_name(spec.worker), "perfbench", point, values[point.index])


def tournament_cold(sweep_seed: int, jobs: int, directory: Path) -> Tuple[str, Any]:
    """One cold tournament pass with a fresh journal and catalog attached."""
    from repro.catalog import RunCatalog
    from repro.resilience import ResilienceOptions, RunJournal
    from workloads import tournament_pass

    directory.mkdir(parents=True)
    journal = RunJournal(directory / "journal.ndjson")
    catalog = RunCatalog(directory / "catalog.ndjson")
    try:
        options = ResilienceOptions(journal=journal, catalog=catalog)
        digest, _result = tournament_pass(sweep_seed, jobs, options)
    finally:
        journal.close()
        catalog.close()
    return digest, options.outcomes[-1]


def tournament_warm_pass(sweep_seed: int, jobs: int, directory: Path) -> Callable[[], Any]:
    from repro.catalog import RunCatalog
    from repro.resilience import ResilienceOptions
    from workloads import tournament_pass

    def one_pass() -> Tuple[str, Any]:
        catalog = RunCatalog(directory / "catalog.ndjson")
        try:
            options = ResilienceOptions(catalog=catalog)
            digest, _result = tournament_pass(sweep_seed, jobs, options)
        finally:
            catalog.close()
        return digest, options.outcomes[-1]

    return one_pass


class SetupProbes:
    """Set-up timed in fresh interpreters, spread through the timed phase.

    Each child imports numpy, then the program, builds the workload's first
    simulation and simulates one cycle (``setup_probe.py``). The unit is
    the program's part, import plus build; numpy's import is timed apart
    and left out, because on this kind of host it swings by a factor of
    two with no change to any code (``reference.json``,
    ``normalisation_evidence``). Each unit is normalised by the R this
    process measures right before and after the child. Children run
    between the timed units, so a slow stretch of the host cannot catch
    all of them.
    """

    def __init__(self, name: str, seed: int, host: Reference, ledger: Ledger) -> None:
        self.name = name
        self.seed = seed
        self.host = host
        self.ledger = ledger
        self.units = Units(host.r0)
        self.imports: List[float] = []
        self.builds: List[float] = []
        self.numpy: List[float] = []
        self.started = 0
        # Children write and reuse bytecode caches, as an installed program
        # would: whether the host's environment forbids writing them must
        # not decide whether set-up includes compiling every module.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def run_one(self) -> None:
        host = self.host
        before = host.samples[-1] if host.samples else host.measure()
        self.started += 1
        self.ledger.attempted += 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.name, str(self.seed)],
            cwd=str(ROOT),
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        after = host.measure()
        if proc.returncode != 0:
            self.ledger.fail(
                f"{self.name} set-up probe exited {proc.returncode}: {proc.stderr[-500:]}"
            )
            return
        if self.started == 1:
            return  # warm-up: writes the bytecode caches; the page cache settles
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        self.imports.append(data["import_s"])
        self.builds.append(data["build_s"])
        self.numpy.append(data["numpy_s"])
        self.units.add(data["import_s"] + data["build_s"], (before + after) / 2)

    def due(self, fraction: float) -> float:
        """Start the children due ``fraction`` of the way through the phase;
        return the seconds they took."""
        start = clock()
        while self.started < SETUP_REPEATS * min(fraction, 1.0):
            self.run_one()
        return clock() - start

    def finish(self) -> Units:
        self.due(1.0)
        return self.units


# ---------------------------------------------------------- end to end


def sims_end_to_end(name: str, seed: int, run_budget: float, warm_budget: float,
                    host: Reference, ledger: Ledger, ref: Dict[str, Any],
                    tmp: Path, setup: SetupProbes) -> Tuple[Units, Units]:
    """An untimed repetition that fills a catalog, warm re-serves of its
    points from that catalog, then timed repetitions for ``run_budget``."""
    from repro.parallel import result_hash
    from workloads import SIM_WORKLOADS

    spec = SIM_WORKLOADS[name]
    points = spec.points(seed)
    first: Dict[int, Any] = {}
    run_sims(spec, points, 0.0, host, ledger, first)  # warm-up, untimed
    if len(first) < len(points):
        return Units(host.r0), Units(host.r0)
    expected = [first[p.index] for p in points]
    check_pinned(ledger, ref, name, seed, [result_hash(expected)], len(points))
    catalog = tmp / f"{name}.catalog.ndjson"
    fill_catalog(spec, points, first, catalog)

    def check(out: Any) -> None:
        values, outcome = out
        ledger.check(
            values == expected and outcome.cache_hits == len(points),
            f"{name}: warm pass was not all verified catalog hits",
            len(points),
        )

    warm_units = warm_batches(
        sim_warm_pass(spec, points, catalog), check, len(points), warm_budget, host, ledger
    )
    gc.collect()
    run_units = run_sims(spec, points, run_budget, host, ledger, first, setup)
    return run_units, warm_units


def tournament_end_to_end(name: str, seed: int, run_budget: float, warm_budget: float,
                          host: Reference, ledger: Ledger, ref: Dict[str, Any],
                          tmp: Path, setup: SetupProbes) -> Tuple[Units, Units]:
    """An untimed cold pass, warm re-runs from its catalog, then rounds of
    cold passes at 2 jobs, one per sweep seed, for ``run_budget``.

    Every pass gets one combined check, so its points are charged at most
    once: its digest must equal the first pass's on the same sweep seed
    (and the pin, at the default seed); a cold pass must have no catalog
    hits and no failures; a warm pass must be all verified hits.
    """
    from workloads import TOURNAMENT_POINTS, tournament_seeds

    sweep_seeds = tournament_seeds(seed)
    pins = pinned(ref, name, seed)
    expected: Dict[int, str] = {}

    def check_cold(k: int, digest: str, outcome: Any, what: str) -> None:
        problems = []
        if digest != expected.setdefault(k, digest):
            problems.append("digest changed between repetitions")
        if pins is not None and (k >= len(pins) or digest != pins[k]):
            problems.append(f"digest {digest} at the default seed is not pinned")
        if outcome.cache_hits or outcome.failures:
            problems.append("served from a catalog or had failures")
        ledger.check(
            not problems, f"{name}: {what} on sweep seed {k}: {'; '.join(problems)}",
            TOURNAMENT_POINTS,
        )

    warm_dir = tmp / "warm-up"
    ledger.attempted += TOURNAMENT_POINTS
    try:
        # Untimed: lazy imports and first forks settle.
        digest, outcome = tournament_cold(sweep_seeds[0], 2, warm_dir)
    except Exception as exc:  # counted: the pass's points failed
        ledger.fail(f"{name}: warm-up pass {type(exc).__name__}: {exc}", TOURNAMENT_POINTS)
        return Units(host.r0), Units(host.r0)
    check_cold(0, digest, outcome, "warm-up pass")

    def check_warm(out: Any) -> None:
        digest, outcome = out
        ledger.check(
            digest == expected[0] and outcome.cache_hits == TOURNAMENT_POINTS,
            f"{name}: warm pass was not all verified catalog hits",
            TOURNAMENT_POINTS,
        )

    warm_units = warm_batches(
        tournament_warm_pass(sweep_seeds[0], 2, warm_dir), check_warm, TOURNAMENT_POINTS,
        warm_budget, host, ledger,
    )
    gc.collect()
    run_units = Units(host.r0)
    start = clock()
    deadline = start + run_budget
    while not len(run_units) or clock() < deadline:
        for k, sweep_seed in enumerate(sweep_seeds):
            directory = tmp / f"cold-{len(run_units)}"
            ledger.attempted += TOURNAMENT_POINTS
            try:
                (digest, outcome), raw, r = host.around(
                    lambda: tournament_cold(sweep_seed, 2, directory)
                )
            except Exception as exc:  # counted: the pass's points failed
                ledger.fail(f"{name}: cold pass {type(exc).__name__}: {exc}", TOURNAMENT_POINTS)
                return run_units, warm_units
            shutil.rmtree(directory)
            run_units.add(raw, r)
            check_cold(k, digest, outcome, "cold pass")
            deadline += setup.due((clock() - start) / max(run_budget, 1e-9))
    return run_units, warm_units


def end_to_end(name: str, seed: int, seconds: float, host: Reference,
               ledger: Ledger, ref: Dict[str, Any], tmp: Path) -> Dict[str, Units]:
    """Time the workload untraced; returns the timed units per metric."""
    from workloads import SIM_WORKLOADS

    phase = sims_end_to_end if name in SIM_WORKLOADS else tournament_end_to_end
    setup = SetupProbes(name, seed, host, ledger)
    gc.collect()
    host.measure()
    run_units, warm_units = phase(
        name, seed, seconds * (1.0 - WARM_SHARE), seconds * WARM_SHARE, host, ledger, ref, tmp,
        setup,
    )
    units = setup.finish()
    if setup.numpy:
        print(f"{name} numpy import (left out of setup_s): "
              f"{statistics.median(setup.numpy):.6g} s raw")
    return {"run_s": run_units, "warm_s": warm_units, "setup_s": units}


# ---------------------------------------------------------------- traced


def layer_metrics(tracer: Any, probe: Any) -> Dict[str, float]:
    """Per-layer metrics from the tracer's aggregates and the kernel counters."""
    totals = tracer.layer_totals()
    counters = probe.counters

    def calls(layer: str) -> int:
        return int(totals.get(layer, {}).get("calls", 0))

    def self_s(layer: str) -> float:
        return float(totals.get(layer, {}).get("self_s", 0.0))

    def method(name: str, parent: Optional[str] = None) -> int:
        return sum(
            n for (label, p), (n, _t) in tracer.methods.items()
            if (label == name or label.endswith("." + name)) and (parent is None or p == parent)
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    grants = counters.get("kernel.grants", 0)
    catalog_init = sum(
        t for (label, _p), (_n, t) in tracer.methods.items() if label == "RunCatalog.__init__"
    )
    return {
        "switch.buffers.calls": calls("switch.buffers"),
        "switch.buffers.self_s": self_s("switch.buffers"),
        "switch.buffers.inject_ok_ratio": ratio(
            tracer.counts.get("inject_ok", 0), method("InputPort.try_inject")
        ),
        "switch.kernel.overflow_flows_scanned": counters.get("kernel.overflow_flows_scanned", 0),
        "qos.calls": calls("qos"),
        "qos.self_s": self_s("qos"),
        "qos.grants_per_select": ratio(
            method("commit", "switch.kernel"), method("select", "switch.kernel")
        ),
        "qos.iterative.calls": calls("qos.iterative"),
        "qos.iterative.self_s": self_s("qos.iterative"),
        "qos.iterative.pairs_per_match": ratio(
            counters.get("voq.matched_pairs", 0), counters.get("voq.matches", 0)
        ),
        "faults.calls": calls("faults"),
        "faults.self_s": self_s("faults"),
        "switch.kernel.self_s": self_s("switch.kernel"),
        "switch.kernel.calls_per_grant": ratio(tracer.calls_from("switch.kernel"), grants),
        "switch.kernel.wakes": counters.get("kernel.wakes", 0),
        "switch.kernel.arbitrations": counters.get("kernel.arbitrations", 0),
        "switch.kernel.declines": counters.get("kernel.declines", 0),
        "core.vectorized.calls": calls("core.vectorized"),
        "core.vectorized.self_s": self_s("core.vectorized"),
        "traffic.calls": calls("traffic"),
        "traffic.self_s": self_s("traffic"),
        "traffic.useful_ratio": ratio(
            method("StatsCollector.on_created"),
            method("FlowSource.make_packet") + method("FlowSource.skip_packet"),
        ),
        "switch.output_channel.calls": calls("switch.output_channel"),
        "switch.output_channel.self_s": self_s("switch.output_channel"),
        "metrics.calls": calls("metrics"),
        "metrics.self_s": self_s("metrics"),
        "parallel.self_s": self_s("parallel"),
        "parallel.points": tracer.counts.get("parallel.points", 0),
        "resilience.journal.calls": calls("resilience.journal"),
        "resilience.journal.self_s": self_s("resilience.journal"),
        "catalog.calls": calls("catalog"),
        "catalog.self_s": self_s("catalog"),
        "catalog.load_s": catalog_init,
        "catalog.hit_ratio": ratio(
            tracer.counts.get("catalog.hits", 0), method("RunCatalog.lookup")
        ),
    }


def traced_sims(name: str, seed: int, host: Reference, ledger: Ledger,
                ref: Dict[str, Any], tmp: Path, tracer: Any, probe: Any
                ) -> Tuple[float, Dict[str, float]]:
    """Each point untraced with and without a probe, then traced; one warm pass.

    Returns the seconds the shims were installed, and diagnostics.
    """
    from repro.obs.probe import CountingProbe
    from repro.parallel import result_hash
    from tracer import install
    from workloads import SIM_WORKLOADS, result_digest

    spec = SIM_WORKLOADS[name]
    points = spec.points(seed)
    plain: Dict[int, Any] = {}
    plain_s: List[float] = []
    probed_s: List[float] = []
    for point in points:
        order = (None, CountingProbe()) if point.index % 2 == 0 else (CountingProbe(), None)
        for attached in order:
            ledger.attempted += 1
            sim = spec.build(point, probe=attached)
            start = clock()
            result = sim.run(point.param("horizon"))
            elapsed = clock() - start
            value = (result.grants, result_digest(result))
            expected = plain.setdefault(point.index, value)
            ledger.check(value == expected, f"{point.label}: probe changed the result")
            (plain_s if attached is None else probed_s).append(elapsed)
        host.measure()
    expected_values = [plain[p.index] for p in points]
    check_pinned(ledger, ref, name, seed, [result_hash(expected_values)], len(points))
    catalog = tmp / f"{name}.catalog.ndjson"
    fill_catalog(spec, points, plain, catalog)
    traced_s = 0.0
    install(tracer, probe)
    window = clock()
    try:
        for point in points:
            ledger.attempted += 1
            sim = spec.build(point)
            start = clock()
            result = sim.run(point.param("horizon"))
            traced_s += clock() - start
            ledger.check(
                (result.grants, result_digest(result)) == plain[point.index],
                f"{point.label}: traced digest != untraced digest",
            )
        ledger.attempted += len(points)
        values, outcome = sim_warm_pass(spec, points, catalog)()
    finally:
        window = clock() - window
        tracer.uninstall()
    ledger.check(
        values == expected_values and outcome.cache_hits == len(points),
        f"{name}: traced warm pass was not all verified catalog hits",
        len(points),
    )
    return window, {
        "host.raw_run_s": statistics.median(plain_s),
        "host.tracing_overhead": traced_s / sum(plain_s),
        "obs.probe_overhead": sum(probed_s) / sum(plain_s),
    }


def traced_tournament(name: str, seed: int, host: Reference, ledger: Ledger,
                      ref: Dict[str, Any], tmp: Path, tracer: Any, probe: Any
                      ) -> Tuple[float, Dict[str, float]]:
    """A cold pass untraced, then a cold and a warm pass traced, all at 1 job
    and on the first sweep seed.

    One job keeps every point in the traced process; the sweep's digest is
    the same at any job count, so it is still checked against the pin.
    Returns the seconds the shims were installed, and diagnostics.
    """
    from tracer import install
    from workloads import TOURNAMENT_POINTS, tournament_seeds

    sweep_seed = tournament_seeds(seed)[0]
    ledger.attempted += TOURNAMENT_POINTS
    start = clock()
    digest, _outcome = tournament_cold(sweep_seed, 1, tmp / "untraced")
    plain_s = clock() - start
    check_pinned(ledger, ref, name, seed, [digest], TOURNAMENT_POINTS)
    install(tracer, probe)
    window = clock()
    try:
        ledger.attempted += TOURNAMENT_POINTS
        start = clock()
        traced_digest, _outcome = tournament_cold(sweep_seed, 1, tmp / "traced")
        traced_s = clock() - start
        ledger.attempted += TOURNAMENT_POINTS
        warm_digest, warm = tournament_warm_pass(sweep_seed, 1, tmp / "traced")()
    finally:
        window = clock() - window
        tracer.uninstall()
    ledger.check(
        traced_digest == digest, f"{name}: traced digest != untraced digest", TOURNAMENT_POINTS
    )
    ledger.check(
        warm_digest == digest and warm.cache_hits == TOURNAMENT_POINTS,
        f"{name}: traced warm pass was not all verified catalog hits",
        TOURNAMENT_POINTS,
    )
    return window, {
        "host.raw_run_s": plain_s,
        "host.tracing_overhead": traced_s / plain_s,
        # measured on the single-simulation workloads only
        "obs.probe_overhead": 0.0,
    }


def traced(name: str, seed: int, host: Reference, ledger: Ledger,
           ref: Dict[str, Any], tmp: Path) -> Dict[str, float]:
    """Fixed ops untraced, then traced; returns the per-layer metrics."""
    from repro.obs.probe import CountingProbe
    from tracer import Tracer
    from workloads import SIM_WORKLOADS

    tracer = Tracer()
    probe = CountingProbe()
    phase = traced_sims if name in SIM_WORKLOADS else traced_tournament
    host.measure()
    window, extra = phase(name, seed, host, ledger, ref, tmp, tracer, probe)
    covered = tracer.self_total()
    print(
        f"{name} tracer: layer self times sum to {covered:.6g} s of the "
        f"{window:.6g} s the shims were installed ({covered / window:.4f})"
    )
    ledger.check(
        window * TRACE_COVERAGE <= covered <= window,
        f"tracer: layer self times sum to {covered} s, outside "
        f"[{TRACE_COVERAGE} x, 1 x] the {window} s traced run",
        ops=0,
    )
    trace_file = WORK / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": name, "seed": seed, "traced_s": window, **tracer.as_json(),
         "probe": probe.counters},
        indent=1,
    ))
    metrics = layer_metrics(tracer, probe)
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------- command line


def result_line(correct: bool, ledger: Ledger, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ref: Dict[str, Any], catalogue: Dict[str, Any]) -> Tuple[Ledger, Dict[str, Tuple[float, str]]]:
    host = Reference(ref["r0_s"], ref["ref_checksum"])
    ledger = Ledger()
    tmp = WORK / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    out: Dict[str, Tuple[float, str]] = {}
    try:
        if trace:
            values = traced(name, seed, host, ledger, ref, tmp)
            setup = SetupProbes(name, seed, host, ledger)
            setup.finish()
            imports, builds = setup.imports, setup.builds
            values["setup.import_s"] = statistics.median(imports) if imports else 0.0
            values["setup.build_s"] = statistics.median(builds) if builds else 0.0
            values["host.ref_s"] = statistics.median(host.samples)
            declared = {m["name"]: m["unit"] for m in catalogue["per_layer"]}
            if set(declared) != set(values):
                raise BenchError(
                    "per-layer metrics disagree with BENCHMARK.json: "
                    f"{sorted(set(declared) ^ set(values))}"
                )
            out = {metric: (float(values[metric]), unit) for metric, unit in declared.items()}
        else:
            timed = end_to_end(name, seed, seconds, host, ledger, ref, tmp)
            values = {"peak_rss_mb": peak_rss_mb()}
            for metric, units in timed.items():
                if not len(units):
                    continue  # its phase failed; the ledger says why
                values[metric] = units.normalised_median()
                print(
                    f"{name} {metric}: {values[metric]:.6g} s normalised "
                    f"(raw {units.raw_median():.6g} s, R {units.ref_median():.6g} s, "
                    f"R0 {units.r0:.6g} s, n={len(units)})"
                )
            values["success_rate"] = (ledger.attempted - ledger.failed) / max(ledger.attempted, 1)
            out = {
                m["name"]: (float(values[m["name"]]), m["unit"])
                for m in catalogue["end_to_end"]
                if m["name"] in values
            }
    except BenchError:
        raise
    except Exception as exc:  # counted: the program raised outside an op
        traceback.print_exc()
        ledger.fail(f"{name}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ledger, out


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    from workloads import NAMES

    ledger = Ledger()
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"{name} exited {proc.returncode} without a result")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ledger.attempted += result["attempted"]
        ledger.failed += result["failed"]
        ledger.problems += 0 if result["correct"] else 1
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (value["value"], value["unit"])
    print(result_line(ledger.correct, ledger, metrics))
    return 0 if ledger.correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {SRC}; run from a checkout root")
        sys.path[:0] = [str(SRC), str(HERE)]
        from workloads import NAMES

        if args.workload == "all":
            return run_all(args)
        if args.workload not in NAMES:
            raise BenchError(f"unknown workload {args.workload!r}; valid: {list(NAMES)} or all")
        ref = json.loads(REFERENCE.read_text())
        catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(exist_ok=True)
        print("host:", json.dumps(fingerprint()))
        ledger, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ref, catalogue
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value!r} {unit}")
    for message in ledger.messages:
        print(f"FAILED: {message}")
    print(result_line(ledger.correct, ledger, metrics))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed hash seed keeps dict and set layouts, and so timings,
        # the same from run to run; it is recorded in the host line.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
