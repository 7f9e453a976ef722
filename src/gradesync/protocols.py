"""The synchronization protocols' update rule.

Two rate-correcting flooding protocols share one update rule.  On an accepted
message with sync error e a node jumps its logical value onto the received
clock (offset correction) and moves its rate multiplier by ``-gain * e``.  A
gain is a step size times the protocol's ``error_scale`` and has one bound,
``gain_limit``, so a protocol is only the unit of its step:

* ``grades`` descends the gradient 2 * beacon_period * nominal_freq * e of the
  squared sync error: its error scale is 2 * beacon_period * nominal_freq.
* ``pisync`` is a proportional-integral controller whose offset jump is the
  proportional part: its error scale is 1.

Flood freshness is not decided here: the simulator keeps one sequence number
per node and drops a flood that is not strictly newer before it reaches the
update rule.  The rule exists once, as ``update``: plain floats in,
``(error, gain, rate)`` out, which the simulator calls for every accepted
flood on its flat per-node lists.  The simulator builds its beacons inline.
"""

from __future__ import annotations

import math

from .clocks import read_before_update
from .errors import DrivenRate

GRADES = "grades"
PISYNC = "pisync"
PROTOCOLS = (GRADES, PISYNC)


def gain_limit(beacon_period: float, nominal_freq: float) -> float:
    """Largest stable gain of either protocol: 2 / (beacon_period * nominal_freq)."""
    return 2.0 / ticks if (ticks := beacon_period * nominal_freq) else math.inf


def step_size_limit(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Largest stable step size: ``gain_limit`` over the protocol's ``error_scale``.

    grades: 1 / (beacon_period * nominal_freq)**2
    pisync: 2 / (beacon_period * nominal_freq)

    A limit that is not finite and positive (the product over- or underflows)
    raises ValueError.
    """
    scale = error_scale(protocol, beacon_period, nominal_freq)
    limit = gain_limit(beacon_period, nominal_freq) / scale
    if not 0 < limit < math.inf:
        raise ValueError(
            f"beacon_period={beacon_period:g} and nominal_freq={nominal_freq:g} put the "
            f"{protocol} step size limit at {limit}, not finite and positive"
        )
    return limit


def error_scale(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Factor turning the protocol's step size into a gain on the sync error.

    grades: 2 * beacon_period * nominal_freq (the squared-error gradient)
    pisync: 1
    """
    if protocol == GRADES:
        return 2.0 * beacon_period * nominal_freq
    if protocol == PISYNC:
        return 1.0
    raise ValueError(f"unknown protocol: {protocol!r}")


def adapt_step(gain: float, error_now: float, error_prev: float, gain_max: float) -> float:
    """Sign-agreement gain adaptation.

    Consecutive sync errors with the same sign mean we are still far from
    the optimum: double the gain.  A sign flip (or a zero, including the very
    first update) means overshoot: divide by three.  The result is clamped to
    ``gain_max``, the ``gain_limit``; if the shrink underflows to exactly zero
    the previous gain is kept.
    """
    grown = 2.0 * gain if error_now * error_prev > 0 else gain / 3.0
    if grown > gain_max:
        grown = gain_max
    if grown == 0.0:
        grown = gain
    return grown


def update(value, rate, hw_at, gain, prev_error, received, hw_now, gain_max, adapt=True):
    """The update rule on one node's clock ``value + rate * (hw - hw_at)``, gain and last error.

    The sync error is the local logical reading minus ``received`` (which
    already carries the channel noise).  ``gain`` is a step size times the
    protocol's ``error_scale``, and ``gain_max`` the ``gain_limit`` both
    protocols share.  Returns the error, the new gain and the new rate
    multiplier; the new clock is ``(received, rate, hw_now)``.
    """
    if hw_now < hw_at:
        raise read_before_update(hw_now, hw_at)
    error = value + rate * (hw_now - hw_at) - received
    if adapt:
        gain = adapt_step(gain, error, prev_error, gain_max)
    rate -= gain * error
    if rate <= 0:
        raise DrivenRate(rate, gain, gain_max, error, hw_now - hw_at)
    return error, gain, rate

