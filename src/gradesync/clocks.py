"""Clock primitives.

A hardware clock accumulates ticks at an instantaneous frequency
``nominal_freq + deviation(t)`` where the deviation is produced by a drift
model whose bound ``max_abs_deviation()`` stays below ``nominal_freq`` (so
trajectories are strictly increasing).  Its state is its real time, its tick
count and the drift piece that time lies in; ``advance_to`` moves it forward
and returns the reading there.  A logical clock maps hardware ticks to
an estimate of global time through an offset and a rate multiplier, and is
only ever updated at discrete sync events.

Drift models (:class:`ConstantDrift`, :class:`PiecewiseDrift`,
:class:`WhiteDrift`) define an instantaneous rate at every instant.  They
integrate exactly over any interval, and ``piece(t)`` gives the constant
stretch that contains ``t``, so the trajectory can be inverted to find the
real time at which a tick target is crossed, which is what the event
simulator needs to schedule beacons.

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
_NEGATIVE_TIME = "white drift is defined for t >= 0"


@dataclass(frozen=True)
class ConstantDrift:
    """Fixed frequency deviation: f(t) = nominal + deviation forever."""

    deviation: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.deviation):
            raise ValueError("drift deviation must be finite")

    def deviation_rate(self, t: float) -> float:
        return self.deviation

    def deviation_integral(self, t0: float, t1: float) -> float:
        return self.deviation * (t1 - t0)

    def piece(self, t: float) -> tuple[float, float]:
        return math.inf, self.deviation

    def max_abs_deviation(self) -> float:
        return abs(self.deviation)


@dataclass(frozen=True)
class PiecewiseDrift:
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
        starts = [s for s, _ in self.steps]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("drift schedule start times must be increasing")

    def _index(self, t: float) -> int:
        starts = [s for s, _ in self.steps]
        return max(bisect_right(starts, t) - 1, 0)

    def deviation_rate(self, t: float) -> float:
        return self.steps[self._index(t)][1]

    def deviation_integral(self, t0: float, t1: float) -> float:
        total, start = 0.0, t0
        while start < t1:
            end, dev = self.piece(start)
            total += dev * (min(end, t1) - start)
            start = end
        return total

    def piece(self, t: float) -> tuple[float, float]:
        i = self._index(t)
        end = self.steps[i + 1][0] if i + 1 < len(self.steps) else math.inf
        return end, self.steps[i][1]

    def max_abs_deviation(self) -> float:
        return max(abs(d) for _, d in self.steps)


class WhiteDrift:
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
        self._segments: list[float] = []

    def _segment(self, j: int) -> float:
        if j < 0:
            raise ValueError(_NEGATIVE_TIME)
        while len(self._segments) <= j:
            draws = self._rng.uniform(-self.max_deviation, self.max_deviation, _SEGMENT_CHUNK)
            self._segments.extend(draws.tolist())
        return self._segments[j]

    def deviation_rate(self, t: float) -> float:
        return self._segment(math.floor(t))

    def deviation_integral(self, t0: float, t1: float) -> float:
        """Sum of deviation * overlap over the unit segments from ``t0`` to ``t1``."""
        if t0 < 0:
            raise ValueError(_NEGATIVE_TIME)
        segments = self._segments
        j, start, total = math.floor(t0), t0, 0.0
        while start < t1:
            end = float(j + 1)
            dev = segments[j] if j < len(segments) else self._segment(j)
            total += dev * ((end if end < t1 else t1) - start)
            start, j = end, j + 1
        return total

    def piece(self, t: float) -> tuple[float, float]:
        j = math.floor(t)
        segments = self._segments
        return float(j + 1), segments[j] if 0 <= j < len(segments) else self._segment(j)

    def max_abs_deviation(self) -> float:
        return self.max_deviation


class HardwareClock:
    """Free-running oscillator counting ticks of a drifting frequency.

    The clock keeps its real time, its accumulated ticks and the drift piece
    its time lies in, ``(end, deviation)``, and is advanced monotonically.  An
    advance that stays inside that piece integrates it directly; only one that
    crosses ``end`` asks the drift model for the integral and the next piece.
    ``time_of_tick`` projects forward along the drift trajectory without
    committing state, which is safe because trajectory realizations are fixed
    once drawn.
    """

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
        self._time = 0.0
        self._ticks = float(start_ticks)
        self._piece_end, self._piece_dev = drift.piece(0.0)

    @property
    def time(self) -> float:
        return self._time

    def read(self) -> float:
        """Current tick count (floored to a whole tick in quantize mode)."""
        return math.floor(self._ticks) if self.quantize else self._ticks

    def advance_to(self, t: float) -> float:
        """Advance monotonically to real time ``t`` and return ``read()`` there.

        An earlier ``t`` is a contract violation.
        """
        now = self._time
        if t > now:
            # Integrate to now + (t - now), not t: recorded traces use this rounding.
            real_dt = t - now
            t1 = now + real_dt
            end = self._piece_end
            if t1 <= end:  # what every drift model's integral over one piece returns
                self._ticks += self.nominal_freq * real_dt + self._piece_dev * (t1 - now)
            else:
                self._ticks += self.nominal_freq * real_dt + self.drift.deviation_integral(now, t1)
            self._time = t1
            if t1 >= end:
                self._piece_end, self._piece_dev = self.drift.piece(t1)
        elif t < now:
            raise ContractViolation(f"clock already at t={now}, cannot go back to {t}")
        return math.floor(self._ticks) if self.quantize else self._ticks

    def deviation_rate(self, t: float) -> float:
        """The drift model's deviation at ``t``, from the current piece when ``t`` is now."""
        return self._piece_dev if t == self._time else self.drift.deviation_rate(t)

    def time_of_tick(self, target_ticks: float) -> float:
        """Real time at which the accumulated tick count reaches ``target_ticks``.

        Requires a trajectory drift model.  Does not advance the clock.
        """
        if target_ticks < self._ticks:
            raise ContractViolation("tick target is already in the past")
        remaining = target_ticks - self._ticks
        f0, piece, start = self.nominal_freq, self.drift.piece, self._time
        end, dev = self._piece_end, self._piece_dev
        while True:
            rate = f0 + dev
            span = (end - start) * rate
            if span >= remaining or end == math.inf:  # the last piece always suffices
                return start + remaining / rate
            remaining -= span
            start = end
            end, dev = piece(start)


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
            raise ContractViolation(
                f"logical read at hw={hw_now} before last update hw={self.hw_at_update}"
            )
        return self.value_at_update + self.rate_multiplier * (hw_now - self.hw_at_update)
