"""Clock primitives.

Every drift model is an immutable value whose ``pieces(horizon, rng)`` give a
clock's piecewise-constant frequency deviation up to ``horizon`` as one piece
list: ``devs[i]`` holds from ``starts[i]`` until ``starts[i + 1]``, so
``starts`` has one entry more than ``devs``, the end of the last piece, which
lies past the horizon.  A fixed model (a :class:`PiecewiseDrift`, or a
:class:`ConstantDrift`, its one-piece form) cuts its own pieces and draws
nothing; :class:`WhiteDrift` draws a deviation per unit of time and
:class:`RandomConstantDrift` one for all time, both from ``rng``, the clock's
own generator.  A model's bound ``max_abs_deviation()`` must stay below
``nominal_freq`` so readings increase; ``sim.SimConfig`` checks it.

A hardware clock's reading is a pure function of real time.  On piece i it is
``knots[i] + (f0 + devs[i]) * (t - starts[i])``, where ``knots[0]`` is the
start reading and each later knot is the previous piece's formula at its end,
so readings never decrease, not even from one float to the next, and are never
rounded to whole ticks.  A :class:`ClockTable` holds many clocks' pieces as
arrays and reads, inverts or schedules them all at once (one pass finds every
beacon); the simulator's clocks are one table.  A logical clock ``(value,
rate, hw_at)`` maps hardware ticks to an estimate of global time, ``value +
rate * (hw - hw_at)``, and is only ever updated at discrete sync events; the
simulator keeps its fields as plain floats.  The last lines bind names that
bench/tracer.py wraps to inert placeholders.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import ge
from types import SimpleNamespace

import numpy as np

from .errors import ContractViolation


class DriftModel:
    """A piecewise-constant deviation, whose ``pieces(horizon, rng)`` realize it to ``horizon``."""

    # bench/tracer.py wraps this name; nothing calls it; ROADMAP item 9b deletes it.
    deviation_integral = None


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
        starts, devs = zip(*self.steps)
        if not all(map(math.isfinite, starts + devs)):
            raise ValueError("drift schedule must be finite")
        if any(map(ge, starts, starts[1:])):
            raise ValueError("drift schedule start times must be increasing")
        object.__setattr__(self, "starts", starts + (math.inf,))  # the piece list, built once
        object.__setattr__(self, "devs", devs)

    def max_abs_deviation(self) -> float:
        return max(map(abs, self.devs))

    def pieces(self, horizon: float, rng: np.random.Generator) -> tuple[list, list]:
        """Its own pieces up to the one that holds ``horizon``; ``rng`` is not drawn from."""
        count = bisect_right(self.starts, horizon)
        return list(self.starts[:count + 1]), list(self.devs[:count])


class ConstantDrift(PiecewiseDrift):
    """Fixed frequency deviation: f(t) = nominal + deviation forever, one piece."""

    def __init__(self, deviation: float = 0.0):
        super().__init__(((0.0, deviation),))


@dataclass(frozen=True)
class _UniformDrift(DriftModel):
    """Deviations drawn uniform in [-max_deviation, +max_deviation] from a clock's generator."""

    max_deviation: float

    def __post_init__(self):
        if self.max_deviation < 0:
            raise ValueError("max_deviation must be non-negative")

    def max_abs_deviation(self) -> float:
        return self.max_deviation


class WhiteDrift(_UniformDrift):
    """Per-unit-time white frequency deviation: one draw per unit segment [j, j+1).

    The draws are taken in segment order, so a realization to one horizon is
    a prefix of one to any later horizon from the same generator.
    """

    def pieces(self, horizon: float, rng: np.random.Generator) -> tuple[list, list]:
        """Unit segments up to the one that holds ``horizon``, one draw each."""
        count, m = math.floor(horizon) + 1, self.max_deviation
        return list(map(float, range(count + 1))), rng.uniform(-m, m, count).tolist()


class RandomConstantDrift(_UniformDrift):
    """A fixed deviation for all time, drawn once per clock."""

    def pieces(self, horizon: float, rng: np.random.Generator) -> tuple[list, list]:
        m = self.max_deviation
        return [0.0, math.inf], [float(rng.uniform(-m, m))]


def _reading(start, rate, knot, t):
    """The reading at ``t`` on a piece (floats or arrays)."""
    return knot + rate * (t - start)


def _keyed(rows, values):
    """(row, value) pairs as complex numbers, which numpy orders by row, then by value."""
    keys = np.empty(np.broadcast(rows, values).shape, complex)
    keys.real, keys.imag = rows, values
    return keys


class ClockTable:
    """The hardware clocks of a network, one row per clock.

    Row i holds clock i's ``(starts, devs)`` pieces, as a drift model's
    ``pieces`` give them up to a horizon: its piece starts, rates ``f0 +
    devs`` and knots, then a piece of rate ``f0`` from the end of the last
    one (so a reading past the table inverts to a time past the horizon),
    then inf padding.  Array lookups are one ``np.searchsorted`` each, on
    (row, value) keys; ``read`` bisects one row's starts, a list.
    """

    def __init__(self, nominal_freq, pieces, start_ticks):
        if nominal_freq <= 0:
            raise ValueError("nominal_freq must be positive")
        n, width = len(pieces), max(len(starts) for starts, _ in pieces)
        self._start_rows = [s + [math.inf] * (width - len(s)) for s, _ in pieces]
        starts = np.array(self._start_rows)
        rates = np.add(nominal_freq, [d + [0.0] * (width - len(d)) for _, d in pieces])
        # Each knot is the one before plus its piece's ticks; a piece from inf spans inf.
        gaps = np.subtract(starts[:, 1:], starts[:, :-1], out=np.full((n, width - 1), np.inf),
                           where=starts[:, :-1] < np.inf)
        knots = np.add.accumulate(np.c_[start_ticks, rates[:, :-1] * gaps], axis=1)
        self._width = width
        ids = np.arange(n)[:, None]
        self._start_keys, self._knot_keys = _keyed(ids, starts).ravel(), _keyed(ids, knots).ravel()
        self._starts, self._rates, self._knots = starts.ravel(), rates.ravel(), knots.ravel()
        self._rate_view, self._knot_view = memoryview(self._rates), memoryview(self._knots)

    def read(self, row: int, t: float) -> float:
        """Clock ``row``'s reading at ``t``."""
        starts = self._start_rows[row]
        i = bisect_right(starts, t) - 1
        j = row * self._width + i
        return self._knot_view[j] + self._rate_view[j] * (t - starts[i])

    def sample(self, rows, times) -> tuple[np.ndarray, np.ndarray]:
        """The readings and rates of clocks ``rows`` at ``times``, broadcast together."""
        i = np.searchsorted(self._start_keys, _keyed(rows, times), side="right") - 1
        rates = self._rates[i]
        return _reading(self._starts[i], rates, self._knots[i], times), rates

    def time_of(self, rows, ticks) -> np.ndarray:
        """When the readings of clocks ``rows`` reach ``ticks``, broadcast together."""
        i = np.searchsorted(self._knot_keys, _keyed(rows, ticks), side="right") - 1
        return self._starts[i] + (ticks - self._knots[i]) / self._rates[i]

    def crossings(self, step: float, until: float):
        """The arrays (times, rows, readings) of every instant a clock reaches a whole number
        of steps up to ``until``, ordered by time and row.

        The targets are the running sums of ``step`` up to the highest reading at ``until``:
        every one a row reaches if every row starts below one step, as ``sim.run``'s clocks do.
        """
        rows = np.arange(len(self._start_rows))
        targets = np.full(int(self.sample(rows, until)[0].max() / step) + 1, step)
        when = self.time_of(rows[:, None], np.add.accumulate(targets, out=targets))
        due = when <= until
        times, node = when[due], np.nonzero(due)[0]
        order = np.argsort(times, kind="stable")  # an instant's rows stay ascending
        # Read in (row, time) order, so the lookups walk the table forward.
        return times[order], node[order], self.sample(node, times)[0][order]


def read_before_update(hw_now, hw_at_update) -> ContractViolation:
    return ContractViolation(f"logical read at hw={hw_now} before last update hw={hw_at_update}")


# bench/tracer.py wraps these methods; nothing calls them; ROADMAP item 9b deletes them.
HardwareClock = SimpleNamespace(advance_to=None, time_of_tick=None)
# bench/tracer.py wraps this method; nothing calls it; ROADMAP item 9b deletes it.
LogicalClock = SimpleNamespace(read=None)
