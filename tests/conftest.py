"""Shared fixtures: each preset's full run, made once per Tier-1 session."""

import time

from quadsafe.config import load_preset
from quadsafe.sim import run

_cache = {}


def preset_trace(name):
    """(trace, wall seconds of sim.run) of the preset's full run, cached;
    the wall time is that of the first, uncached run."""
    if name not in _cache:
        t0 = time.perf_counter()
        _cache[name] = (run(load_preset(name)), time.perf_counter() - t0)
    return _cache[name]
