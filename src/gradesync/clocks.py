"""Clock primitives.

Every drift model is a piecewise-constant frequency deviation given by one
piece list: ``devs[i]`` holds from ``starts[i]`` until ``starts[i + 1]``, so
``starts`` has one entry more than ``devs``, the end of the last piece.  That
end is inf, except in :class:`WhiteDrift`, which draws its pieces a chunk at a
time (``extend``) as far as they are asked for.  A model's bound
``max_abs_deviation()`` stays below ``nominal_freq`` so readings increase.

A hardware clock's reading is a pure function of real time.  On piece i it is
``knots[i] + (f0 + devs[i]) * (t - starts[i])``, where ``knots[0]`` is the
start reading and each later knot is the previous piece's formula at its end,
so readings never decrease, not even from one float to the next.
A :class:`ClockTable` holds many clocks' pieces up to a horizon as arrays and
reads or inverts them all at once; the simulator schedules its beacons with
one.  A :class:`HardwareClock` is a one-row table that grows as it is read:
``advance_to``, ``sample`` and ``time_of_tick`` read and invert its pieces.  A
logical clock maps hardware ticks to an estimate of global time through an
offset and a rate multiplier, and is only ever updated at discrete sync events.

All randomness flows through numpy ``Generator`` objects injected at
construction, so a (seed, config) pair fully determines every trajectory.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation

_SEGMENT_CHUNK = 256
_WINDOW = 32  # targets per row in each window of ClockTable.crossings


class DriftModel:
    """A piecewise-constant deviation: ``devs[i]`` from ``starts[i]`` to ``starts[i + 1]``."""

    def deviation_integral(self, t0: float, t1: float) -> float:
        """Sum of deviation * overlap over the pieces from ``t0`` to ``t1``."""
        if t0 < 0:
            raise ValueError("drift is defined for t >= 0")
        while self.starts[-1] < t1:
            self.extend()
        starts, devs = self.starts, self.devs
        total, start, i = 0.0, t0, bisect_right(starts, t0) - 1
        while start < t1:
            end = starts[i + 1]
            total += devs[i] * (min(end, t1) - start)
            start, i = end, i + 1
        return total


@dataclass(frozen=True)
class ConstantDrift(DriftModel):
    """Fixed frequency deviation: f(t) = nominal + deviation forever."""

    deviation: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.deviation):
            raise ValueError("drift deviation must be finite")

    @property
    def starts(self) -> tuple[float, ...]:
        return (0.0, math.inf)

    @property
    def devs(self) -> tuple[float, ...]:
        return (self.deviation,)

    def max_abs_deviation(self) -> float:
        return abs(self.deviation)


@dataclass(frozen=True)
class PiecewiseDrift(DriftModel):
    """Step-function deviation given as ((start_time, deviation), ...).

    The first start time must be 0 so the whole axis is covered; start times
    must be strictly increasing.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.steps or self.steps[0][0] != 0.0:
            raise ValueError("drift schedule must start at time 0")
        if not all(math.isfinite(x) for step in self.steps for x in step):
            raise ValueError("drift schedule must be finite")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ValueError("drift schedule start times must be increasing")

    @property
    def starts(self) -> tuple[float, ...]:
        return tuple([s for s, _ in self.steps]) + (math.inf,)

    @property
    def devs(self) -> tuple[float, ...]:
        return tuple([d for _, d in self.steps])

    def max_abs_deviation(self) -> float:
        return max(abs(d) for _, d in self.steps)


class WhiteDrift(DriftModel):
    """Per-unit-time white frequency deviation, uniform in [-max_dev, +max_dev].

    An explicit realization: one uniform draw per unit-time segment [j, j+1),
    drawn lazily in segment order so the realization does not depend on the
    query pattern.  Integrals are exact sums and the trajectory can be
    inverted for tick-crossing times.
    """

    def __init__(self, max_deviation: float, rng: np.random.Generator):
        if max_deviation < 0:
            raise ValueError("max_deviation must be non-negative")
        self.max_deviation = float(max_deviation)
        self._rng = rng
        self.starts: list[float] = [0.0]
        self.devs: list[float] = []

    def extend(self) -> None:
        """Draw the next ``_SEGMENT_CHUNK`` unit segments."""
        j = len(self.devs)
        draws = self._rng.uniform(-self.max_deviation, self.max_deviation, _SEGMENT_CHUNK)
        self.devs.extend(draws.tolist())
        self.starts.extend(map(float, range(j + 1, j + 1 + _SEGMENT_CHUNK)))

    def max_abs_deviation(self) -> float:
        return self.max_deviation


def _reading(start, rate, knot, t):
    """The unfloored reading at ``t`` on a piece (floats or arrays)."""
    return knot + rate * (t - start)


def _keyed(rows, values):
    """(row, value) pairs as complex numbers, which numpy orders by row, then by value."""
    keys = np.empty(np.broadcast(rows, values).shape, complex)
    keys.real, keys.imag = rows, values
    return keys


class ClockTable:
    """The hardware clocks of a network up to ``horizon``, one row per clock.

    Row i holds clock i's piece starts, rates ``f0 + devs`` and knots up to the
    end of the piece that holds ``horizon``, then a piece of rate ``f0`` from
    there (so a reading past the table inverts to a time past the horizon),
    then inf padding.  Array lookups are one ``np.searchsorted`` each, on
    (row, value) keys; ``read`` bisects one row's starts, a list that shares
    the drift model's floats.
    """

    def __init__(self, nominal_freq, drifts, start_ticks, horizon: float, quantize: bool = False):
        if nominal_freq <= 0:
            raise ValueError("nominal_freq must be positive")
        drawn = []
        for drift in drifts:
            if not drift.max_abs_deviation() < nominal_freq:  # written so that NaN fails too
                raise ValueError("drift model's max_abs_deviation must stay below nominal_freq")
            while drift.starts[-1] <= horizon:
                drift.extend()
            count = bisect_right(drift.starts, horizon)
            drawn.append((list(drift.starts[:count + 1]), list(drift.devs[:count])))
        n, width = len(drawn), max(len(starts) for starts, _ in drawn)
        self._start_rows = [s + [math.inf] * (width - len(s)) for s, _ in drawn]
        starts = np.array(self._start_rows)
        rates = np.add(nominal_freq, [d + [0.0] * (width - len(d)) for _, d in drawn])
        # Each knot is the one before plus its piece's ticks; a piece from inf spans inf.
        gaps = np.subtract(starts[:, 1:], starts[:, :-1], out=np.full((n, width - 1), np.inf),
                           where=starts[:, :-1] < np.inf)
        knots = np.add.accumulate(np.c_[start_ticks, rates[:, :-1] * gaps], axis=1)
        self.quantize, self._width = quantize, width
        ids = np.arange(n)[:, None]
        self._start_keys, self._knot_keys = _keyed(ids, starts).ravel(), _keyed(ids, knots).ravel()
        self._starts, self._rates, self._knots = starts.ravel(), rates.ravel(), knots.ravel()
        self._rate_view, self._knot_view = memoryview(self._rates), memoryview(self._knots)

    def read(self, row: int, t: float) -> float:
        """Clock ``row``'s reading at ``t`` (floored to a whole tick in quantize mode)."""
        starts = self._start_rows[row]
        i = bisect_right(starts, t) - 1
        j = row * self._width + i
        ticks = _reading(starts[i], self._rate_view[j], self._knot_view[j], t)
        return float(math.floor(ticks)) if self.quantize else ticks

    def sample(self, rows, times) -> tuple[np.ndarray, np.ndarray]:
        """The readings and rates of clocks ``rows`` at ``times``, broadcast together."""
        i = np.searchsorted(self._start_keys, _keyed(rows, times), side="right") - 1
        rates = self._rates[i]
        ticks = _reading(self._starts[i], rates, self._knots[i], times)
        return np.floor(ticks) if self.quantize else ticks, rates

    def time_of(self, rows, ticks) -> np.ndarray:
        """When the unfloored readings of clocks ``rows`` reach ``ticks``, broadcast together."""
        i = np.searchsorted(self._knot_keys, _keyed(rows, ticks), side="right") - 1
        return self._starts[i] + (ticks - self._knots[i]) / self._rates[i]

    def crossings(self, first, step: float, until: float):
        """(time, row, reading) whenever a clock reaches a target up to ``until``, by time and row.

        Row i's targets are ``first[i]``, then each previous one plus ``step``.
        A window of ``_WINDOW`` targets per row ends when the first row reaches
        its last; each row carries the targets it has not reached into the next.
        """
        rows = np.arange(len(first))
        sums = np.full((len(first), _WINDOW + 1), step)
        sums[:, 0] = first
        while True:
            targets = np.add.accumulate(sums, axis=1)
            when = self.time_of(rows[:, None], targets[:, :-1])
            end = when[:, -1].min()
            due = when <= min(end, until)
            times, node = when[due], np.nonzero(due)[0]
            order = np.lexsort((node, times))
            times, node = times[order], node[order]
            columns = times, node, self.sample(node, times)[0]
            for j in range(0, len(times), 1024):  # as Python values, 1024 at a time
                yield from zip(*[c[j:j + 1024].tolist() for c in columns])
            if end >= until:
                return
            sums[:, 0] = targets[rows, due.sum(axis=1)]


class HardwareClock:
    """Free-running oscillator whose reading is a pure function of real time.

    A one-row :class:`ClockTable`, rebuilt at least twice as far out whenever it
    is read past its pieces.
    """

    def __init__(
        self, nominal_freq: float, drift=None, start_ticks: float = 0.0, quantize: bool = False
    ):
        self.nominal_freq, self.quantize = float(nominal_freq), bool(quantize)
        self.drift = drift if drift is not None else ConstantDrift(0.0)
        self._start = float(start_ticks)
        self._table = ClockTable(self.nominal_freq, [self.drift], [self._start], 0.0, self.quantize)

    def _reach(self, t: float) -> ClockTable:
        """The clock's table, rebuilt at least twice as far out if its pieces end by ``t``."""
        if not 0 <= t < math.inf:
            raise ContractViolation(f"clock read at t={t}; it is defined for 0 <= t < inf")
        end = self._table._starts[-1]
        if t >= end:
            self._table = ClockTable(self.nominal_freq, [self.drift], [self._start],
                                     max(t, 2.0 * end), self.quantize)
        return self._table

    def advance_to(self, t: float) -> float:
        """The reading at real time ``t`` (floored to a whole tick in quantize mode)."""
        return self._reach(t).read(0, t)

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The readings and the frequencies ``f0 + deviation`` at ``times``, in one pass."""
        if times.size:
            self._reach(times.min())
            self._reach(times.max())
        return self._table.sample(0, times)

    def time_of_tick(self, target_ticks: float) -> float:
        """Real time at which the unfloored reading reaches ``target_ticks``."""
        if not self._start <= target_ticks < math.inf:
            raise ContractViolation(
                f"tick target {target_ticks} is outside [start reading {self._start}, inf)"
            )
        while target_ticks >= self._table._knots[-1]:
            self._reach(self._table._starts[-1])
        return float(self._table.time_of(0, target_ticks))


def read_before_update(hw_now, hw_at_update) -> ContractViolation:
    return ContractViolation(f"logical read at hw={hw_now} before last update hw={hw_at_update}")


class _LogicalClockFields(NamedTuple):
    value_at_update: float = 0.0
    rate_multiplier: float = 1.0
    hw_at_update: float = 0.0


class LogicalClock(_LogicalClockFields):
    """Piecewise-linear map from hardware ticks to estimated global time.

    Between updates the logical value advances as
    ``value_at_update + rate_multiplier * (hw_now - hw_at_update)``.
    An immutable named tuple: cheap to build once per accepted message.
    """

    __slots__ = ()

    def __new__(cls, value_at_update=0.0, rate_multiplier=1.0, hw_at_update=0.0):
        if rate_multiplier <= 0:
            raise ValueError("rate_multiplier must stay positive")
        return tuple.__new__(cls, (value_at_update, rate_multiplier, hw_at_update))

    def read(self, hw_now: float) -> float:
        if hw_now < self.hw_at_update:
            raise read_before_update(hw_now, self.hw_at_update)
        return self.value_at_update + self.rate_multiplier * (hw_now - self.hw_at_update)
