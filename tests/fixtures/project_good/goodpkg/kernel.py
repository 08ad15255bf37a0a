"""Probe-flush discipline: batch locally, flush once on every exit path."""

from .probe import resolve_hooks


def run(probe, horizon):
    hooks = resolve_hooks(probe)
    count_hook = hooks.count
    grants = 0
    declines = 0
    for now in range(horizon):
        if now % 3:
            grants += 1
        else:
            declines += 1
    if count_hook is not None:
        count_hook("kernel.grants", grants)
        count_hook("kernel.declines", declines)
    return grants, declines


def run_tally(probe, horizon):
    hooks = resolve_hooks(probe)
    count_hook = hooks.count
    tally = dict.fromkeys(("kernel.wakes", "kernel.grants"), 0)
    for now in range(horizon):
        tally["kernel.wakes"] += 1
        if now % 2:
            tally["kernel.grants"] += 1
    if count_hook is not None:
        for name, total in tally.items():
            if total:
                count_hook(name, total)
    return tally["kernel.grants"]
