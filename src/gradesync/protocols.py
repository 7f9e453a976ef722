"""Synchronization protocol state machines.

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
out, which is what the simulator calls for every accepted flood.  The named
tuples ``SyncState``, ``LogicalClock`` and ``SyncMessage`` and the pure
transitions ``on_message`` and ``on_beacon_tick`` over them are the public
and reference API; ``on_message`` is a thin wrapper around ``update``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .clocks import LogicalClock, read_before_update
from .errors import ContractViolation

GRADES = "grades"
PISYNC = "pisync"
PROTOCOLS = (GRADES, PISYNC)
_tuple_new = tuple.__new__  # a named tuple without its __new__ (LogicalClock's checks the rate)


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


class SyncState(NamedTuple):
    """One protocol's view at one node: step size, last sync error, clock."""

    step_size: float
    error: float = 0.0
    clock: LogicalClock = LogicalClock()


class SyncMessage(NamedTuple):
    """One broadcast: flood sequence number and one clock reading per protocol.

    ``readings`` follows the order of the protocol states the beacon was
    emitted from, so a single physical message serves every enabled protocol.
    """

    seq: int
    readings: tuple[float, ...]


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


def on_message(state: SyncState, received_clock: float, hw_now: float, scale: float,
               step_max: float, adapt: bool = True) -> SyncState:
    """``update`` on a ``SyncState``; the caller drops stale floods beforehand."""
    error, step, rate = update(*state.clock, state.step_size, state.error, received_clock,
                               hw_now, scale, step_max, adapt)
    clock = _tuple_new(LogicalClock, (received_clock, rate, hw_now))
    return _tuple_new(SyncState, (step, error, clock))


def on_beacon_tick(
    states: tuple[SyncState, ...], seq: int, is_reference: bool, hw_now: float
) -> SyncMessage:
    """The broadcast of a node whose hardware clock crosses a round boundary.

    ``seq`` is the newest flood sequence number the node holds.  The reference
    node emits ``seq + 1`` and always advertises its raw hardware reading (its
    logical clock is its hardware clock; it never corrects itself).  Everyone
    else re-broadcasts its current logical readings under ``seq``.
    """
    if is_reference:
        return _tuple_new(SyncMessage, (seq + 1, (hw_now,) * len(states)))
    readings = []
    for value, rate, hw_at in [s.clock for s in states]:  # LogicalClock.read, inline
        if hw_now < hw_at:
            raise read_before_update(hw_now, hw_at)
        readings.append(value + rate * (hw_now - hw_at))
    return _tuple_new(SyncMessage, (seq, tuple(readings)))
