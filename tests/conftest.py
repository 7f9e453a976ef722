"""Test-suite settings and fixtures shared by every test module."""

import time

import pytest
from hypothesis import settings

from gradesync import GRADES, PISYNC, estimate_variance_mc
from gradesync.scenarios import variance_grid

# Draw the same examples on every run, local or CI, so a property's verdict on
# a given tree is reproducible.  A derandomized profile has no example
# database either, so no failure saved by an earlier run is replayed.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def grid_estimates():
    """Oracle estimates on the theory-check grid, as ``(p, protocol, estimate)`` rows, and
    their seconds: one run that criteria 3 and 4 and their mutations share."""
    t0 = time.perf_counter()
    rows = []
    for i, p in enumerate(variance_grid()):
        estimates = estimate_variance_mc(p, (GRADES, PISYNC), rounds=1200, trials=1500, seed=5 + i)
        rows.extend((p, proto, mc) for proto, mc in zip((GRADES, PISYNC), estimates))
    return rows, time.perf_counter() - t0
