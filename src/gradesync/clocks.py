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
``advance_to(t)`` gives the reading at one time, ``sample(times)`` the readings
at an array of times in one numpy pass with the same arithmetic, and
``time_of_tick`` inverts the same pieces, which is what the event simulator
needs to schedule beacons.  A logical clock maps hardware ticks to an estimate
of global time through an offset and a rate multiplier, and is only ever
updated at discrete sync events.

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


class HardwareClock:
    """Free-running oscillator whose reading is a pure function of real time.

    It holds the knots and rates (``f0 + devs[i]``) of the pieces read so far,
    computed in piece order, a drawn chunk at a time.
    """

    __slots__ = ("nominal_freq", "drift", "quantize", "_starts", "_rates", "_knots")

    def __init__(
        self, nominal_freq: float, drift=None, start_ticks: float = 0.0, quantize: bool = False
    ):
        if nominal_freq <= 0:
            raise ValueError("nominal_freq must be positive")
        drift = drift if drift is not None else ConstantDrift(0.0)
        if not drift.max_abs_deviation() < nominal_freq:  # written so that NaN fails too
            raise ValueError("drift model's max_abs_deviation must stay below nominal_freq")
        self.nominal_freq = float(nominal_freq)
        self.drift = drift
        self.quantize = bool(quantize)
        self._starts = drift.starts
        self._rates: list[float] = []
        self._knots = [float(start_ticks)]
        self._grow()

    def _grow(self) -> None:
        """Give a knot and a rate to every drawn piece, drawing more if all have them."""
        n = len(self._rates)
        if n == len(self.drift.devs):
            self.drift.extend()
        rates = np.add(self.nominal_freq, self.drift.devs[n:])
        spans = rates * np.diff(self._starts[n:])
        self._rates.extend(rates.tolist())
        self._knots.extend(np.cumsum(np.concatenate(([self._knots[-1]], spans)))[1:].tolist())

    def _find(self, t: float) -> int:
        """Index of the piece that holds ``t``."""
        if not 0 <= t < math.inf:
            raise ContractViolation(f"clock read at t={t}; it is defined for 0 <= t < inf")
        while t >= self._starts[len(self._rates)]:
            self._grow()
        return bisect_right(self._starts, t, 0, len(self._rates)) - 1

    def advance_to(self, t: float) -> float:
        """The reading at real time ``t`` (floored to a whole tick in quantize mode)."""
        i = self._find(t)
        ticks = self._knots[i] + self._rates[i] * (t - self._starts[i])
        return math.floor(ticks) if self.quantize else ticks

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The readings and the frequencies ``f0 + deviation`` at ``times``, in one pass."""
        self._find(times.min())
        self._find(times.max())
        n = len(self._rates)
        i = np.searchsorted(self._starts[:n], times, side="right") - 1
        starts, knots, rates = (np.array(a[:n]) for a in (self._starts, self._knots, self._rates))
        ticks = knots[i] + rates[i] * (times - starts[i])
        return np.floor(ticks) if self.quantize else ticks, rates[i]

    def time_of_tick(self, target_ticks: float) -> float:
        """Real time at which the unfloored reading reaches ``target_ticks``."""
        knots = self._knots
        if not knots[0] <= target_ticks < math.inf:
            raise ContractViolation(
                f"tick target {target_ticks} is outside [start reading {knots[0]}, inf)"
            )
        while target_ticks >= knots[-1]:
            self._grow()
        i = bisect_right(knots, target_ticks) - 1
        return self._starts[i] + (target_ticks - knots[i]) / self._rates[i]


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
