"""Source waveforms: DC, pulse and piecewise-linear stimuli.

These mirror the SPICE ``DC``, ``PULSE`` and ``PWL`` source specifications
that the paper's transient test bench (Fig. 11) needs to drive the lattice
inputs through all combinations of the XOR3 inputs.

A fixed-step transient knows its whole time grid, so it evaluates every
source on it once (:func:`_sample`) instead of calling :meth:`Waveform.value`
per step.  :class:`DC`, :class:`Pulse` and :class:`PiecewiseLinear` do that
with NumPy twins of their ``value`` formulas, operation for operation, so
the samples are ``value``'s bits; any other waveform is sampled through
``value`` itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


class Waveform:
    """Base class of source waveforms: ``value(t)`` returns volts (or amps)."""

    def value(self, time_s: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def breakpoints(self, until_s: float) -> Tuple[float, ...]:
        """Corner times of the waveform within ``[0, until_s]``.

        The adaptive transient controller clips its steps so it never
        integrates across a corner, whatever step size it has grown to.
        Smooth/constant waveforms (the default) have none.
        """
        return ()

    def __call__(self, time_s: float) -> float:
        return self.value(time_s)


@dataclass(frozen=True)
class DC(Waveform):
    """A constant source value."""

    level: float

    def value(self, time_s: float) -> float:
        return self.level

    def _values(self, times: np.ndarray) -> np.ndarray:
        """:meth:`value` at every time."""
        return np.full(times.shape, self.level, dtype=float)


@dataclass(frozen=True)
class Pulse(Waveform):
    """A SPICE-style periodic pulse.

    Attributes
    ----------
    initial / pulsed:
        The two levels.
    delay_s:
        Time before the first transition.
    rise_s / fall_s:
        Edge durations (must be positive to keep the waveform continuous).
    width_s:
        Time spent at the pulsed level.
    period_s:
        Repetition period; 0 or ``None`` makes the pulse one-shot.
    """

    initial: float
    pulsed: float
    delay_s: float = 0.0
    rise_s: float = 1e-12
    fall_s: float = 1e-12
    width_s: float = 1e-9
    period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rise_s <= 0.0 or self.fall_s <= 0.0:
            raise ValueError("rise and fall times must be positive")
        if self.width_s < 0.0:
            raise ValueError("pulse width cannot be negative")

    def value(self, time_s: float) -> float:
        t = time_s - self.delay_s
        if t < 0.0:
            return self.initial
        if self.period_s and self.period_s > 0.0:
            t = t % self.period_s
        if t < self.rise_s:
            return self.initial + (self.pulsed - self.initial) * t / self.rise_s
        t -= self.rise_s
        if t < self.width_s:
            return self.pulsed
        t -= self.width_s
        if t < self.fall_s:
            return self.pulsed + (self.initial - self.pulsed) * t / self.fall_s
        return self.initial

    def _values(self, times: np.ndarray) -> np.ndarray:
        """:meth:`value` at every time, by the same operations on arrays."""
        t = times - self.delay_s
        before = t < 0.0
        if self.period_s and self.period_s > 0.0:
            t = t % self.period_s  # NumPy's % is Python's float modulo
        rising = self.initial + (self.pulsed - self.initial) * t / self.rise_s
        held = t - self.rise_s
        falling_t = held - self.width_s
        falling = self.pulsed + (self.initial - self.pulsed) * falling_t / self.fall_s
        return np.select(
            [before, t < self.rise_s, held < self.width_s, falling_t < self.fall_s],
            [self.initial, rising, self.pulsed, falling],
            self.initial,
        )

    def breakpoints(self, until_s: float) -> Tuple[float, ...]:
        """The pulse corners (edge starts/ends), repeated for periodic pulses.

        The corner count of a periodic pulse grows as ``until_s / period_s``;
        a consumer landing on every corner (the adaptive transient
        controller) does at least that much work anyway, so all corners in
        the window are generated.  A pathological span/period ratio fails
        loudly rather than silently dropping corners — stepping over
        stimulus edges would corrupt the waveform without any warning.
        """
        corners = (
            0.0,
            self.rise_s,
            self.rise_s + self.width_s,
            self.rise_s + self.width_s + self.fall_s,
        )
        period = self.period_s if self.period_s and self.period_s > 0.0 else None
        if period is not None and (until_s - self.delay_s) / period > 1_000_000:
            raise ValueError(
                f"a pulse with period {period:g} s has over 4 million corners "
                f"within {until_s:g} s; an analysis resolving them is "
                "infeasible — shorten the span, lengthen the period, or use "
                "fixed-step integration"
            )
        times: List[float] = []
        cycle = 0
        while True:
            offset = self.delay_s + (cycle * period if period else 0.0)
            if offset > until_s:
                break
            times.extend(offset + corner for corner in corners)
            cycle += 1
            if period is None:
                break
        return tuple(t for t in times if 0.0 <= t <= until_s)


@dataclass(frozen=True)
class PiecewiseLinear(Waveform):
    """A PWL waveform defined by (time, value) breakpoints.

    Before the first breakpoint the first value holds; after the last
    breakpoint the last value holds; in between the waveform interpolates
    linearly.  Breakpoint times must be strictly increasing.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("a PWL waveform needs at least one breakpoint")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL breakpoint times must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[float, float]]) -> "PiecewiseLinear":
        return cls(tuple((float(t), float(v)) for t, v in pairs))

    @classmethod
    def steps(
        cls,
        levels: Sequence[float],
        step_duration_s: float,
        transition_s: float = 1e-10,
        start_time_s: float = 0.0,
    ) -> "PiecewiseLinear":
        """A staircase waveform holding each level for ``step_duration_s``.

        Used to drive lattice inputs through a sequence of logic values; the
        short ``transition_s`` ramp keeps the waveform continuous for the
        transient integrator.
        """
        if step_duration_s <= 0.0:
            raise ValueError("step duration must be positive")
        if transition_s <= 0.0 or transition_s >= step_duration_s:
            raise ValueError("transition time must be positive and shorter than the step")
        if not levels:
            raise ValueError("at least one level is required")
        points: List[Tuple[float, float]] = []
        time = start_time_s
        points.append((time, levels[0]))
        for index, level in enumerate(levels):
            hold_end = start_time_s + (index + 1) * step_duration_s
            points.append((hold_end - transition_s, level))
            if index + 1 < len(levels):
                points.append((hold_end, levels[index + 1]))
        deduped = [points[0]]
        for t, v in points[1:]:
            if t > deduped[-1][0]:
                deduped.append((t, v))
        return cls(tuple(deduped))

    @property
    def _times(self) -> Tuple[float, ...]:
        # Cached breakpoint times for O(log n) lookups; the dataclass is
        # frozen, so the cache is written through object.__setattr__.
        times = self.__dict__.get("_times_cache")
        if times is None:
            times = tuple(t for t, _ in self.points)
            object.__setattr__(self, "_times_cache", times)
        return times

    def breakpoints(self, until_s: float) -> Tuple[float, ...]:
        """The PWL breakpoint times themselves."""
        return tuple(t for t in self._times if 0.0 <= t <= until_s)

    def value(self, time_s: float) -> float:
        points = self.points
        if time_s <= points[0][0]:
            return points[0][1]
        if time_s >= points[-1][0]:
            return points[-1][1]
        # Binary search for the enclosing segment (breakpoint times are
        # strictly increasing); transient analyses call this once per source
        # per Newton solve, so the lookup is on a warm path.
        i = bisect_right(self._times, time_s)
        t0, v0 = points[i - 1]
        t1, v1 = points[i]
        return v0 + (v1 - v0) * (time_s - t0) / (t1 - t0)

    def _values(self, times: np.ndarray) -> np.ndarray:
        """:meth:`value` at every time, by the same operations on arrays."""
        knots, levels = np.array(self.points, dtype=float).T
        if knots.size == 1:
            return np.full(times.shape, levels[0])
        # searchsorted(side="right") is bisect_right; the ends are held below.
        i = np.clip(np.searchsorted(knots, times, side="right"), 1, knots.size - 1)
        t0, v0 = knots[i - 1], levels[i - 1]
        t1, v1 = knots[i], levels[i]
        inner = v0 + (v1 - v0) * (times - t0) / (t1 - t0)
        return np.select([times <= knots[0], times >= knots[-1]], [levels[0], levels[-1]], inner)


def _sample(waveform: Waveform, times: np.ndarray) -> np.ndarray:
    """``waveform.value`` at every time of the float array ``times``, as floats.

    :class:`DC`, :class:`Pulse` and :class:`PiecewiseLinear` evaluate their
    formulas on the whole array; only the exact types do, since a subclass
    may redefine ``value``.  Any other waveform is called once per time.
    Either way every sample is the bits ``value`` returns.
    """
    if type(waveform) in (DC, Pulse, PiecewiseLinear):
        return waveform._values(times)
    return np.array([waveform.value(t) for t in times.tolist()], dtype=float)
