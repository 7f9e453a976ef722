"""Every acceptance criterion can fail: under each mutation below its verdict must be FAIL.

A mutation is a monkeypatch on the module through which the criterion reaches the code
it measures (``criterion_NN`` in ``test_acceptance.py``), or on a scenario's defaults.
A pair that still passes is a known gap: it is marked ``xfail(strict=True)`` and names
the ROADMAP item whose fix must turn it into a catch and remove the marker.
"""

import inspect
import math
from dataclasses import replace

import pytest
from test_acceptance import (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_08,
    criterion_09,
    criterion_10,
)

from gradesync import analysis, protocols, scenarios, sim
from gradesync.protocols import GRADES, PISYNC, error_scale, gain_limit, step_size_limit
from gradesync.scenarios import variance_grid


def criterion_04_on_its_own_oracle_run():
    """Criterion 4 on an oracle run made after the mutation applies, which the session's
    ``grid_estimates`` is not: the theory-check grid at 400 trials of 400 rounds."""
    rows = []
    for i, p in enumerate(variance_grid()):
        estimates = analysis.estimate_variance_mc(p, (GRADES, PISYNC), rounds=400, trials=400,
                                                  seed=5 + i)
        rows.extend((p, proto, mc) for proto, mc in zip((GRADES, PISYNC), estimates))
    return criterion_04((rows, 0.0))


def update_gain_times(factor):
    """Scale every gain the simulator applies by ``factor``: it starts at a fraction of
    ``gain_limit``."""
    def mutate(monkeypatch):
        monkeypatch.setattr(sim, "gain_limit", lambda *args: factor * gain_limit(*args))
    return mutate


def step_size_limit_times_1_1(monkeypatch):
    monkeypatch.setattr(protocols, "step_size_limit", lambda *args: 1.1 * step_size_limit(*args))


def error_scales_swapped(monkeypatch):
    other = {GRADES: PISYNC, PISYNC: GRADES}
    monkeypatch.setattr(analysis, "error_scale", lambda p, b, f0: error_scale(other[p], b, f0))


def variance_times_1_25(monkeypatch):
    variance = analysis.variance
    monkeypatch.setattr(analysis, "variance", lambda *args: 1.25 * variance(*args))


def pisync_variance_nan(monkeypatch):
    variance = analysis.variance
    monkeypatch.setattr(analysis, "variance",
                        lambda p, proto: math.nan if proto == PISYNC else variance(p, proto))


def standard_errors_nan(monkeypatch):
    estimate = analysis.estimate_variance_mc
    monkeypatch.setattr(analysis, "estimate_variance_mc", lambda *args, **kwargs: tuple(
        replace(mc, se_mean_error=math.nan) for mc in estimate(*args, **kwargs)))


def scenario_default_times(scenario, name, factor):
    """Scale one default parameter of a scenario by ``factor``."""
    def mutate(monkeypatch):
        defaults = scenarios.SCENARIOS[scenario].defaults
        monkeypatch.setitem(defaults, name, factor * defaults[name])
    return mutate


def adaptation_off(monkeypatch):
    monkeypatch.setattr(protocols, "adapt_step", lambda gain, *args: gain)


def adapt_step_mutated(shrink, clamp):
    """``protocols.adapt_step`` dividing by ``shrink`` on a sign flip, its clamp optional."""
    def adapt_step(gain, error_now, error_prev, gain_max):
        grown = 2.0 * gain if error_now * error_prev > 0 else gain / shrink
        if clamp and grown > gain_max:
            grown = gain_max
        return grown if grown != 0.0 else gain

    def mutate(monkeypatch):
        monkeypatch.setattr(protocols, "adapt_step", adapt_step)
    return mutate


def stale_check_off_by_one(monkeypatch):
    """``sim.run`` with both stale checks, at send and at delivery, letting equal seqs through."""
    source = inspect.getsource(sim.run)
    assert source.count("seq <= seqs[") == 2  # so the row fails loudly if the checks move
    namespace = dict(vars(sim))
    exec(compile(source.replace("seq <= seqs[", "seq < seqs["), sim.__file__, "exec"), namespace)
    monkeypatch.setattr(sim, "run", namespace["run"])


UNTIL_ITEM_6 = "ROADMAP item 6: the criterion cannot yet tell this mutation apart"

MUTATIONS = [
    # Worst decay-ratio deviation 40% (lambda = 0.2 becomes 0.12) against a 1% tolerance.
    pytest.param(criterion_01, update_gain_times(1.1), id="1-update-gain-x1.1"),
    # lambda = 0.2 becomes 0: the error reaches exactly 0 and has no decay ratio after it.
    pytest.param(criterion_01, update_gain_times(1.25), id="1-update-gain-x1.25-deadbeat"),
    pytest.param(criterion_02, step_size_limit_times_1_1, id="2-step-size-limit-x1.1"),
    # Every formula variance 1.25x the oracle's: a relative error near 20% against 10%.
    pytest.param(criterion_03, variance_times_1_25, id="3-variance-x1.25"),
    # NaN on every pisync row: it must fail though a finite grades row comes first.
    pytest.param(criterion_03, pisync_variance_nan, id="3-pisync-variance-nan"),
    # Every |mean error|/SE is NaN: it must fail, not count as 0 standard errors.
    pytest.param(criterion_04_on_its_own_oracle_run, standard_errors_nan,
                 id="4-standard-errors-nan"),
    # Re-lock takes 38 rounds against a bound of 15.
    pytest.param(criterion_05, scenario_default_times("fig1-pairwise", "delay_std", 3),
                 id="5-fig1-delay-noise-x3"),
    pytest.param(criterion_08, error_scales_swapped, id="8-error-scales-swapped"),
    # 15 of 16 checks: a doubled 0.8 is not clamped to the limit 1.
    pytest.param(criterion_10, adapt_step_mutated(3.0, clamp=False),
                 id="10-adapt-step-unclamped"),
    # 14 of 16 checks: both shrink branches give 0.15, not 0.1.
    pytest.param(criterion_10, adapt_step_mutated(2.0, clamp=True),
                 id="10-adapt-step-halves-on-a-sign-flip"),
    # 10 of 16 checks: diamond nodes apply a flood more than once.  Mutating only the
    # send-time check would change nothing: the delivery-time check drops the same floods.
    pytest.param(criterion_10, stale_check_off_by_one, id="10-stale-check"),
    # "adaptive" then runs at half the limit: its |error| stays in the band only from
    # round 261, against 50 for const-0.02.
    pytest.param(criterion_06, adaptation_off, id="6-adaptation-off"),
    # Fitted exponents 0.324 and 0.372 both lie in the accepted window [0.25, 0.75].
    pytest.param(criterion_09, scenario_default_times("scaling", "delay_std", 0),
                 id="9-no-delay-noise", marks=pytest.mark.xfail(strict=True, reason=UNTIL_ITEM_6)),
    pytest.param(criterion_09, scenario_default_times("scaling", "max_deviation", 10),
                 id="9-drift-x10", marks=pytest.mark.xfail(strict=True, reason=UNTIL_ITEM_6)),
]


@pytest.mark.parametrize("criterion, mutate", MUTATIONS)
def test_the_criterion_fails_under_the_mutation(criterion, mutate, monkeypatch, request):
    # A criterion's required arguments name fixtures, made before the mutation applies.
    params = inspect.signature(criterion).parameters.values()
    args = [request.getfixturevalue(p.name) for p in params if p.default is p.empty]
    mutate(monkeypatch)
    ok, detail = criterion(*args)
    assert not ok, detail


def test_criterion_4s_own_oracle_run_passes_unmutated():
    ok, detail = criterion_04_on_its_own_oracle_run()
    assert ok, detail
