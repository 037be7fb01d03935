"""Shared fixtures: each preset's full run, made once per Tier-1 session,
and the refusal check of a dataclass field."""

import math
import time

import numpy as np
import pytest

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


def check_refusals(cls, name, infinite=False):
    """cls, built from Python with its other fields at their defaults,
    refuses NaN and (unless infinite) +-inf in one entry of field name, and
    a wrong entry count, each by a ValueError that names the field."""
    good = np.asarray(getattr(cls(), name), dtype=float)
    for bad in (math.nan,) if infinite else (math.nan, math.inf, -math.inf):
        value = good.copy()
        value.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must (be finite|not be NaN), got"):
            cls(**{name: value if good.ndim else value.item()})
    with pytest.raises(ValueError, match=rf"^{name} must be (a number|\d numbers), got"):
        cls(**{name: np.resize(good, 2 if good.size != 2 else 3)})
