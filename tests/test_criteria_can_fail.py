"""Every acceptance criterion can fail: under each mutation below its verdict must be FAIL.

A mutation is a monkeypatch on the module through which the criterion reaches the code
it measures (``criterion_NN`` in ``test_acceptance.py``).  A pair that still passes is a
known gap: it is marked ``xfail(strict=True)`` and names the ROADMAP item whose fix must
turn it into a catch and remove the marker.
"""

import pytest
from test_acceptance import criterion_01, criterion_02, criterion_06, criterion_07, criterion_08

from gradesync import analysis, protocols, scenarios, sim
from gradesync.protocols import GRADES, PISYNC, error_scale, step_size_limit


def update_gain_times(factor):
    """Scale every gain the simulator applies by ``factor``."""
    def mutate(monkeypatch):
        monkeypatch.setattr(sim, "error_scale", lambda *args: factor * error_scale(*args))
    return mutate


def step_size_limit_times_1_1(monkeypatch):
    monkeypatch.setattr(protocols, "step_size_limit", lambda *args: 1.1 * step_size_limit(*args))


def error_scales_swapped(monkeypatch):
    other = {GRADES: PISYNC, PISYNC: GRADES}
    monkeypatch.setattr(analysis, "error_scale", lambda p, b, f0: error_scale(other[p], b, f0))


def adaptation_off(monkeypatch):
    monkeypatch.setattr(protocols, "adapt_step", lambda gain, *args: gain)


def pisync_at_a_quarter_of_its_limit(monkeypatch):
    monkeypatch.setattr(scenarios, "step_size_limit",
                        lambda p, *args: step_size_limit(p, *args) / (4 if p == PISYNC else 1))


UNTIL_ITEM_1 = "ROADMAP item 1: the criterion cannot yet tell this mutation apart"

MUTATIONS = [
    # Worst decay-ratio deviation 40% (lambda = 0.2 becomes 0.12) against a 1% tolerance.
    pytest.param(criterion_01, update_gain_times(1.1), id="1-update-gain-x1.1"),
    # lambda = 0.2 becomes 0: the error reaches exactly 0 and has no decay ratio after it.
    pytest.param(criterion_01, update_gain_times(1.25), id="1-update-gain-x1.25-deadbeat"),
    pytest.param(criterion_02, step_size_limit_times_1_1, id="2-step-size-limit-x1.1"),
    pytest.param(criterion_08, error_scales_swapped, id="8-error-scales-swapped"),
    # "adaptive" then runs at half the limit: it locks in 2 rounds against 36, with a
    # steady spread ratio of 1.68 against a bound of 2.
    pytest.param(criterion_06, adaptation_off, id="6-adaptation-off",
                 marks=pytest.mark.xfail(strict=True, reason=UNTIL_ITEM_1)),
    # Mean- and peak-skew ratios 1.16 and 1.11 stay within [0.5, 2] and under 1.25.
    pytest.param(criterion_07, pisync_at_a_quarter_of_its_limit, id="7-pisync-at-a-quarter",
                 marks=pytest.mark.xfail(strict=True, reason=UNTIL_ITEM_1)),
]


@pytest.mark.parametrize("criterion, mutate", MUTATIONS)
def test_the_criterion_fails_under_the_mutation(criterion, mutate, monkeypatch, tmp_path):
    mutate(monkeypatch)
    ok, detail = criterion(tmp_path) if criterion in (criterion_06, criterion_07) else criterion()
    assert not ok, detail
