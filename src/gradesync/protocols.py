"""The synchronization protocols' update rule.

Two rate-correcting flooding protocols share one update rule.  On an accepted
message with sync error e a node first jumps its logical value onto the
received clock (offset correction), then moves its rate multiplier by
``-step * signal`` with ``signal = error_scale(protocol) * e``:

* ``grades`` — treats the squared sync error as a loss and descends its
  gradient: the signal is the per-round gradient 2 * beacon_period *
  nominal_freq * e.
* ``pisync`` — a proportional-integral controller: the offset jump is the
  proportional part and the signal is e itself.

The two therefore differ only in the unit of the step size.  Flood freshness
is not decided here: the simulator keeps one sequence number per node and
drops a flood that is not strictly newer before it reaches the update rule.

The rule exists once, as ``update``: plain floats in, ``(error, step, rate)``
out, which is what the simulator calls for every accepted flood on the flat
per-node lists it keeps.  ``on_beacon_tick`` gives a beacon's
``(seq, readings)`` from the sender's ``LogicalClock``s; the simulator builds
its beacons inline and does not call it.
"""

from __future__ import annotations

import math

from .clocks import read_before_update
from .errors import ContractViolation

GRADES = "grades"
PISYNC = "pisync"
PROTOCOLS = (GRADES, PISYNC)


def step_size_limit(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Largest stable step size: 2 / (beacon_period * nominal_freq * error_scale).

    grades: 1 / (beacon_period * nominal_freq)**2
    pisync: 2 / (beacon_period * nominal_freq)

    A limit that is not finite and positive (the product over- or underflows)
    raises ValueError.
    """
    scaled = beacon_period * nominal_freq * error_scale(protocol, beacon_period, nominal_freq)
    limit = 2.0 / scaled if scaled else math.inf
    if not 0 < limit < math.inf:
        raise ValueError(
            f"beacon_period={beacon_period:g} and nominal_freq={nominal_freq:g} put the "
            f"{protocol} step size limit at {limit}, not finite and positive"
        )
    return limit


def error_scale(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Factor turning a sync error into the protocol's update signal.

    grades: 2 * beacon_period * nominal_freq (the squared-error gradient)
    pisync: 1
    """
    if protocol == GRADES:
        return 2.0 * beacon_period * nominal_freq
    if protocol == PISYNC:
        return 1.0
    raise ValueError(f"unknown protocol: {protocol!r}")


def adapt_step(step: float, signal_now: float, signal_prev: float, step_max: float) -> float:
    """Sign-agreement step adaptation.

    Consecutive update signals with the same sign mean we are still far from
    the optimum: double the step.  A sign flip (or a zero, including the very
    first update) means overshoot: divide by three.  The result is clamped to
    ``step_max``; if the shrink underflows to exactly zero the previous step
    is kept.
    """
    grown = 2.0 * step if signal_now * signal_prev > 0 else step / 3.0
    if grown > step_max:
        grown = step_max
    if grown == 0.0:
        grown = step
    return grown


def update(value, rate, hw_at, step, prev_error, received, hw_now, scale, step_max, adapt=True):
    """The update rule on one node's clock ``value + rate * (hw - hw_at)``, step and last error.

    The sync error is the local logical reading minus ``received`` (which
    already carries the channel noise).  ``scale`` and ``step_max`` are the
    protocol's ``error_scale`` and ``step_size_limit``.  Returns the error,
    the new step size and the new rate multiplier; the new clock is
    ``(received, rate, hw_now)``.
    """
    if hw_now < hw_at:  # LogicalClock.read, on the clock's fields
        raise read_before_update(hw_now, hw_at)
    error = value + rate * (hw_now - hw_at) - received
    signal = scale * error
    if adapt:
        step = adapt_step(step, signal, scale * prev_error, step_max)
    rate -= step * signal
    if rate <= 0:
        raise ContractViolation(
            f"rate multiplier driven to {rate} (step size {step} is mis-scaled; limit "
            f"{step_max}); sync error {error} ticks, {hw_now - hw_at} hardware ticks "
            "after the node's last update"
        )
    return error, step, rate


# Unused by ``sim.run``; kept because bench/tracer.py wraps ``sim.on_beacon_tick``.
def on_beacon_tick(clocks, seq: int, is_reference: bool, hw_now: float):
    """``(seq, readings)`` of a node whose hardware clock crosses a round boundary.

    ``clocks`` are the sender's ``LogicalClock``s, one per protocol, and ``seq``
    the newest flood sequence number it holds.  The reference node emits
    ``seq + 1`` and always advertises its raw hardware reading (its logical
    clock is its hardware clock; it never corrects itself).  Everyone else
    re-broadcasts its current logical readings under ``seq``.
    """
    if is_reference:
        return seq + 1, (hw_now,) * len(clocks)
    return seq, tuple([clock.read(hw_now) for clock in clocks])
