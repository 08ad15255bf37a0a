"""RP204 bait: batched counters that never (fully) reach the probe."""

from .probe import resolve_hooks


def run_forgotten(probe, horizon):
    # RP204: binds the count hook and batches, but never flushes.
    hooks = resolve_hooks(probe)
    count_hook = hooks.count
    grants = 0
    declines = 0
    for now in range(horizon):
        if now % 3:
            grants += 1
        else:
            declines += 1
    return grants, declines


def run_early_exit(probe, horizon):
    # RP204: the saturation path returns before the end-of-run flush.
    hooks = resolve_hooks(probe)
    count_hook = hooks.count
    grants = 0
    for now in range(horizon):
        grants += 1
        if grants > 1000:
            return grants
    if count_hook is not None:
        count_hook("kernel.grants", grants)
    return grants


def run_tally_early_exit(probe, horizon):
    # RP204: counters batched in a tally dict are lost the same way.
    hooks = resolve_hooks(probe)
    count_hook = hooks.count
    tally = dict.fromkeys(("kernel.wakes",), 0)
    for now in range(horizon):
        tally["kernel.wakes"] += 1
        if now > 1000:
            return now
    if count_hook is not None:
        for name, total in tally.items():
            count_hook(name, total)
    return horizon
