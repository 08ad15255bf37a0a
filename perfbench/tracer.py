"""Outside-in layer tracer: timing shims on the program's public entry points.

The benchmark never edits the program. In a traced run it replaces each
public entry point listed in :func:`install` with a wrapper that records
the call's duration and the layer that called it, then puts the original
back. A call's *self time* is its duration minus the durations of the
wrapped calls it contains, so the self times of all layers add up to the
time spent inside the outermost wrapped calls. The benchmark compares
that sum with the traced run's duration measured outside the tracer
(:meth:`Tracer.self_total`), so time a shim loses, or traced work no
shim covers, shows up.

Aggregates are kept in memory per ``(layer, parent layer)`` and written
out once, when the run ends. Closures inside a kernel's ``run()`` are not
entry points; their time folds into ``switch.kernel``.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> what it covers, for the written trace.
LAYERS = {
    "switch.kernel": "Simulation/ArraySimulation construction and run() "
    "(closures inside run() included)",
    "traffic": "FlowSource packet factory",
    "switch.buffers": "InputPort queues and FlitBuffer.fits",
    "qos": "per-output arbiters' select/commit and the GL policer",
    "qos.iterative": "switch-wide VOQ matchers' match",
    "core.vectorized": "numpy arbitration primitives used by the array kernel",
    "switch.output_channel": "OutputChannel",
    "metrics": "StatsCollector",
    "faults": "FaultInjector",
    "parallel": "SweepExecutor.map",
    "resilience.journal": "RunJournal",
    "catalog": "RunCatalog",
}


class _Agg:
    __slots__ = ("calls", "total", "own")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    """Aggregating span recorder shared by every shim of one traced run."""

    def __init__(self) -> None:
        #: (layer, parent layer or "root") -> aggregate
        self.spans: Dict[Tuple[str, str], _Agg] = {}
        #: ("Class.method", parent layer) -> [calls, total seconds]
        self.methods: Dict[Tuple[str, str], List[Any]] = {}
        #: named counts observed from arguments and return values
        self.counts: Dict[str, int] = {}
        #: open frames: [layer, time spent in wrapped children]
        self._stack: List[List[Any]] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        methods = self.methods
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += elapsed
                    parent = parent_frame[0]
                else:
                    parent = "root"
                agg = spans.get((layer, parent))
                if agg is None:
                    agg = spans[(layer, parent)] = _Agg()
                agg.calls += 1
                agg.total += elapsed
                agg.own += elapsed - frame[1]
                row = methods.get((name, parent))
                if row is None:
                    row = methods[(name, parent)] = [0, 0.0]
                row[0] += 1
                row[1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return shim

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        around: Optional[Callable[[Callable[..., Any]], Callable[..., Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module function) with a shim."""
        original = owner.__dict__[attr]
        target = original if around is None else around(original)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self.wrap(target, layer, label, observe))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_public(
        self,
        cls: type,
        layer: str,
        with_init: bool = False,
        observers: Optional[Dict[str, Callable[["Tracer", tuple, Any], None]]] = None,
    ) -> None:
        """Shim every public plain method defined on ``cls`` itself."""
        for attr, value in list(cls.__dict__.items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr.startswith("_") and not (with_init and attr == "__init__"):
                continue
            self.patch(cls, attr, layer, observe=(observers or {}).get(attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def bump(self, name: str, delta: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + delta

    # ------------------------------------------------------------- results

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Layer -> {calls, self_s} summed over parents."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _parent), agg in self.spans.items():
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += agg.calls
            row["self_s"] += agg.own
        return out

    def calls_from(self, parent: str) -> int:
        return sum(a.calls for (_l, p), a in self.spans.items() if p == parent)

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(row["self_s"] for row in self.layer_totals().values())

    def as_json(self) -> Dict[str, Any]:
        return {
            "layers": LAYERS,
            "spans": [
                {
                    "layer": layer,
                    "parent": parent,
                    "calls": agg.calls,
                    "total_s": agg.total,
                    "self_s": agg.own,
                }
                for (layer, parent), agg in sorted(self.spans.items())
            ],
            "methods": [
                {"method": name, "parent": parent, "calls": calls, "total_s": total}
                for (name, parent), (calls, total) in sorted(self.methods.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------- shim list


def _count_inject_ok(tracer: Tracer, args: tuple, result: Any) -> None:
    if result:
        tracer.bump("inject_ok")


def _count_catalog_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result[0]:
        tracer.bump("catalog.hits")


def _count_points(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.bump("parallel.points", len(args[2]))


def install(tracer: Tracer, probe: Any) -> None:
    """Shim every traced entry point; ``tracer.uninstall()`` restores them.

    ``probe`` is handed to every simulation built without one, so the
    kernels' own ``kernel.*``/``voq.*``/``faults.*`` counters are read
    through it. Probes are observation-only, which the benchmark checks
    by comparing traced and untraced result digests.
    """
    from repro import qos
    from repro.catalog import RunCatalog
    from repro.core import vectorized
    from repro.faults import FaultInjector
    from repro.metrics.counters import StatsCollector
    from repro.parallel import SweepExecutor
    from repro.resilience import RunJournal
    from repro.switch.array_kernel import ArraySimulation
    from repro.switch.buffers import FlitBuffer, InputPort
    from repro.switch.output_channel import OutputChannel
    from repro.switch.simulator import Simulation
    from repro.traffic.generators import FlowSource

    def with_probe(init: Callable[..., Any]) -> Callable[..., Any]:
        def build(*args: Any, **kwargs: Any) -> Any:
            # probe is the ninth positional parameter, counting self
            if kwargs.get("probe") is None and len(args) <= 8:
                kwargs["probe"] = probe
            return init(*args, **kwargs)

        return build

    tracer.patch(Simulation, "__init__", "switch.kernel", around=with_probe)
    tracer.patch(Simulation, "run", "switch.kernel")
    tracer.patch(ArraySimulation, "run", "switch.kernel")

    for attr in ("make_packet", "pop_scheduled", "peek_time", "skip_packet"):
        tracer.patch(FlowSource, attr, "traffic")

    for attr in (
        "queue_for",
        "head_for_output",
        "gl_head_for",
        "voq_backlog",
        "pop_packet",
    ):
        tracer.patch(InputPort, attr, "switch.buffers")
    tracer.patch(
        InputPort, "try_inject", "switch.buffers", observe=_count_inject_ok
    )
    tracer.patch(FlitBuffer, "fits", "switch.buffers")

    for name in qos.__all__:
        cls = getattr(qos, name)
        if not inspect.isclass(cls):
            continue
        iterative = issubclass(cls, qos.IterativeArbiter)
        for attr in ("select", "commit", "match"):
            if attr not in cls.__dict__:
                continue
            if iterative and attr != "match":
                continue  # IterativeArbiter refuses select/commit
            layer = "qos.iterative" if attr == "match" else "qos"
            tracer.patch(cls, attr, layer)
    for attr in ("eligible", "note_throttled"):
        tracer.patch(qos.GLPolicer, attr, "qos")

    for attr, value in list(vars(vectorized).items()):
        if (
            inspect.isfunction(value)
            and not attr.startswith("_")
            and value.__module__ == vectorized.__name__
        ):
            tracer.patch(vectorized, attr, "core.vectorized")

    tracer.patch_public(OutputChannel, "switch.output_channel")
    tracer.patch_public(StatsCollector, "metrics")
    tracer.patch_public(FaultInjector, "faults")
    tracer.patch(SweepExecutor, "map", "parallel", observe=_count_points)
    tracer.patch_public(RunJournal, "resilience.journal", with_init=True)
    tracer.patch_public(
        RunCatalog, "catalog", with_init=True,
        observers={"lookup": _count_catalog_hit},
    )
