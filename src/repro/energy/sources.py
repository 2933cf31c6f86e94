"""Charging sources: solar panel, wind turbine, café mains.

The base station carries a 10 W solar panel and a 50 W wind turbine; the
reference station has a solar panel and a mains charger input that is live
only while the café has power (the April-September tourist season).
Winter is what stresses the system: short days, panel burial under snow and
iced-up turbines reduce generation to near zero, driving the power-state
descents the paper's power management is built around.

Sources expose two queries:

- ``power_w(time)`` — the instantaneous output, and
- ``energy_j(t0, t1)`` — the integral of ``power_w`` over an interval,
  which is what the adaptive :class:`~repro.energy.bus.PowerBus` uses so
  it never has to step through quiet stretches.

Interval energy is served from *memoised per-day cumulative tables*: the
first query touching a UTC day builds that day's running integral on the
weather layer's ``day_samples`` grid — analytically for ``SolarPanel``
(the diurnal sine-elevation curve times piecewise-linear cloud
transmission integrates in closed form), by the trapezoid rule over the
day's wind samples for ``WindTurbine`` — after which any sub-interval of
that day is O(1) interpolation.  ``MainsCharger`` and ``ConstantSource``
integrate in closed form directly and cache nothing, so tests that mutate
their output mid-run stay exact.

The weather-driven sources read a :class:`WeatherProvider` (in practice
:class:`repro.environment.weather.IcelandWeather`): the instantaneous
signals for ``power_w`` and the per-day cache hooks for the tables.

Time-purity assumption: ``power_w`` must be a pure function of ``time``.
A source whose output changes for non-weather reasons (a rewired
availability callable, a test flipping :attr:`ConstantSource.watts`) must
notify the bus via ``PowerBus.invalidate()`` so pending crossing
predictions are recomputed — and must not be served from a stale day
table, which is why only the weather-driven sources memoise.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, Protocol, Tuple

from repro.sim.simtime import DAY


class WeatherProvider(Protocol):
    """The slice of the environment the charging sources observe."""

    def solar_factor(self, time: float) -> float:
        """Irradiance as a fraction of panel rating, in [0, 1]."""

    def wind_speed(self, time: float) -> float:
        """Wind speed in m/s."""

    def snow_depth(self, time: float) -> float:
        """Snow depth at the station in metres (daily resolution)."""

    def day_samples(self, channel: str, day_index: int) -> tuple:
        """Memoised samples of a channel on a uniform grid over one UTC
        day, inclusive of both midnights."""

    def day_memo(self, key: str, day_index: int, build: Callable[[], tuple]) -> tuple:
        """Memoise ``build()`` per ``(key, day_index)``, shared by every
        consumer of this provider."""

    def solar_terms(self, day_index: int) -> Tuple[float, float]:
        """``(A, B)``: clear-sky sin-elevation is ``A + B*cos(ω(t - noon))``
        within the day."""

    def cloud_pieces(self, t0: float, t1: float) -> Iterator[Tuple[float, float, float, float]]:
        """``(a, b, c0, c1)`` pieces covering ``[t0, t1]`` on which cloud
        transmission is ``c0 + c1*t``."""


def _iter_day_spans(t0: float, t1: float) -> Iterator[Tuple[int, float, float]]:
    """Split ``[t0, t1]`` at UTC-day boundaries: yields ``(day_index, a, b)``."""
    day = math.floor(t0 / DAY)
    a = t0
    while a < t1:
        b = min(t1, (day + 1) * DAY)
        # Data iterator, not a simulation process.
        yield int(day), a, b  # repro-lint: disable=yield-discipline
        a = b
        day += 1


class PowerSource:
    """Base class: a named generator with instantaneous and interval queries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.delivered_j = 0.0  # cumulative energy booked by the owning bus
        #: ``day_index -> (node powers, cumulative joules, step)``.
        self._day_tables: Dict[int, Tuple[tuple, tuple, float]] = {}

    def power_w(self, time: float) -> float:
        """Instantaneous output in watts at simulated ``time``."""
        raise NotImplementedError

    def energy_j(self, t0: float, t1: float) -> float:
        """Energy produced over ``[t0, t1]`` in joules.

        Served from the per-day cumulative tables — O(1) per touched day
        after the day's first query.  Partial grid cells interpolate the
        cell's energy along the linear-power profile between its node
        powers, so the result is continuous and monotone in both bounds.
        """
        if t1 <= t0:
            return 0.0
        day = int(t0 // DAY)
        base = day * DAY
        if t1 <= base + DAY:  # fast path: interval within one UTC day
            powers, cumulative, step = self._day_table(day)
            return max(0.0,
                       self._cumulative_at(powers, cumulative, step, t1 - base)
                       - self._cumulative_at(powers, cumulative, step, t0 - base))
        total = 0.0
        for day, a, b in _iter_day_spans(t0, t1):
            powers, cumulative, step = self._day_table(day)
            base = day * DAY
            total += self._cumulative_at(powers, cumulative, step, b - base)
            total -= self._cumulative_at(powers, cumulative, step, a - base)
        return max(0.0, total)

    # -- table machinery ------------------------------------------------
    def _day_table(self, day_index: int) -> Tuple[tuple, tuple, float]:
        cached = self._day_tables.get(day_index)
        if cached is None:
            cached = self._build_day_table(day_index)
            self._day_tables[day_index] = cached
        return cached

    def _build_day_table(self, day_index: int) -> Tuple[tuple, tuple, float]:
        """``(node powers, cumulative joules, step)`` for one UTC day."""
        raise NotImplementedError

    @staticmethod
    def _cumulative_at(powers: tuple, cumulative: tuple, step: float, offset: float) -> float:
        """Integral from the day start to ``offset`` seconds into the day."""
        if offset <= 0.0:
            return 0.0
        position = offset / step
        k = int(position)
        last = len(cumulative) - 1
        if k >= last:
            return cumulative[last]
        frac = position - k
        cell_j = cumulative[k + 1] - cumulative[k]
        p0 = powers[k]
        p1 = powers[k + 1]
        # Share of the cell's energy along the linear-power profile,
        # normalised so frac=1 lands exactly on the next node.
        denominator = 0.5 * (p0 + p1)
        if denominator > 0.0:
            share = frac * (p0 + 0.5 * (p1 - p0) * frac) / denominator
        else:
            share = frac
        return cumulative[k] + cell_j * share


class SolarPanel(PowerSource):
    """Photovoltaic panel, derated by irradiance and buried by snow.

    Parameters
    ----------
    rated_w:
        Peak output (10 W on the base station).
    weather:
        Environment provider.
    burial_depth_m:
        Snow depth at which output reaches zero.  Output falls linearly
        from full at zero depth.
    """

    def __init__(
        self,
        weather: WeatherProvider,
        rated_w: float = 10.0,
        name: str = "solar",
        burial_depth_m: float = 0.5,
    ) -> None:
        super().__init__(name)
        self.rated_w = rated_w
        self.weather = weather
        self.burial_depth_m = burial_depth_m

    def power_w(self, time: float) -> float:
        burial = max(0.0, 1.0 - self.weather.snow_depth(time) / self.burial_depth_m)
        return self.rated_w * self.weather.solar_factor(time) * burial

    def _build_day_table(self, day_index: int) -> Tuple[tuple, tuple, float]:
        """Whole-day table with the day constants hoisted out of the cells.

        The panel-independent parts — the instantaneous solar-factor nodes
        and the unit insolation integral ``∫ max(0, sin_elev)·cloud dt``
        per cell — live in the weather's day cache, shared between every
        panel on the same provider; this panel only scales them by
        ``rated_w`` and the (day-constant) snow-burial factor.
        """
        weather = self.weather
        factors = weather.day_samples("solar_factor", day_index)
        cells = len(factors) - 1
        step = DAY / cells
        burial = max(0.0, 1.0 - weather.snow_depth(day_index * DAY) / self.burial_depth_m)
        scale = self.rated_w * burial
        if scale <= 0.0:
            zeros = (0.0,) * (cells + 1)
            return zeros, zeros, step
        unit = weather.day_memo("solar_unit_cum", day_index,
                                lambda: self._unit_day_cumulative(day_index, cells))
        powers = tuple(scale * f for f in factors)
        cumulative = tuple(scale * c for c in unit)
        return powers, cumulative, step

    def _unit_day_cumulative(self, day_index: int, cells: int) -> tuple:
        """Cumulative ``∫ max(0, sin_elev)·cloud dt`` at each cell edge.

        Panel-free (no rating, no burial): a pure function of the weather,
        cached per day via :meth:`WeatherProvider.day_memo`.  Within one
        UTC day the clear-sky sine-elevation is ``A + B*cos(ω(t - noon))``
        (declination constant per day) and cloud transmission is piecewise
        linear between 3-hour noise breakpoints, so the product integrates
        in closed form piece by piece over the daylight arc.
        """
        weather = self.weather
        step = DAY / cells
        base = day_index * DAY
        sin_term, cos_term = weather.solar_terms(day_index)
        omega = 2.0 * math.pi / DAY
        noon = base + 0.5 * DAY
        # Daylight arc: sine-elevation positive iff cos(ω(t-noon)) > -A/B.
        if sin_term >= cos_term:  # midnight sun: never sets
            rise, sets = base, base + DAY
        elif sin_term <= -cos_term:  # polar night: never rises
            return (0.0,) * (cells + 1)
        else:
            half = math.acos(-sin_term / cos_term) / omega
            rise, sets = noon - half, noon + half
        piece = self._piece_integral
        cumulative = [0.0]
        acc = 0.0
        for k in range(cells):
            lo = base + k * step
            hi = lo + step
            if lo < rise:
                lo = rise
            if hi > sets:
                hi = sets
            if hi > lo:
                for p, q, c0, c1 in weather.cloud_pieces(lo, hi):
                    acc += piece(sin_term, cos_term, omega, noon, p, q, c0, c1)
            cumulative.append(acc)
        return tuple(cumulative)

    @staticmethod
    def _piece_integral(
        sin_term: float,
        cos_term: float,
        omega: float,
        noon: float,
        p: float,
        q: float,
        c0: float,
        c1: float,
    ) -> float:
        """``∫ (A + B cos(ωτ)) (d0 + d1 τ) dτ`` over ``τ ∈ [p-noon, q-noon]``."""
        d0 = c0 + c1 * noon
        d1 = c1

        def antiderivative(tau: float) -> float:
            s = math.sin(omega * tau)
            c = math.cos(omega * tau)
            return (
                sin_term * (d0 * tau + 0.5 * d1 * tau * tau)
                + cos_term * (d0 * s / omega + d1 * (c / (omega * omega) + tau * s / omega))
            )

        return antiderivative(q - noon) - antiderivative(p - noon)


class WindTurbine(PowerSource):
    """Small wind turbine with cut-in/rated/cut-out behaviour.

    Output follows the standard cubic law between cut-in and rated wind
    speed, is flat at rated output up to cut-out, and zero beyond (storm
    protection).  Deep snow disables the turbine entirely — the paper notes
    that in Iceland "the expected snow would even stop that source from
    being useful".

    The power curve has no useful closed form, so interval energy comes
    from a per-day trapezoid table over the weather layer's memoised
    ``day_samples`` speeds, so the hash/trig work per day happens once.
    """

    def __init__(
        self,
        weather: WeatherProvider,
        rated_w: float = 50.0,
        name: str = "wind",
        cut_in_ms: float = 3.0,
        rated_ms: float = 12.0,
        cut_out_ms: float = 25.0,
        disabled_snow_depth_m: float = 1.2,
    ) -> None:
        super().__init__(name)
        self.rated_w = rated_w
        self.weather = weather
        self.cut_in_ms = cut_in_ms
        self.rated_ms = rated_ms
        self.cut_out_ms = cut_out_ms
        self.disabled_snow_depth_m = disabled_snow_depth_m

    def _power_from_speed(self, speed: float) -> float:
        if speed < self.cut_in_ms or speed >= self.cut_out_ms:
            return 0.0
        if speed >= self.rated_ms:
            return self.rated_w
        span = (speed - self.cut_in_ms) / (self.rated_ms - self.cut_in_ms)
        return self.rated_w * span**3

    def power_w(self, time: float) -> float:
        if self.weather.snow_depth(time) >= self.disabled_snow_depth_m:
            return 0.0
        return self._power_from_speed(self.weather.wind_speed(time))

    def _build_day_table(self, day_index: int) -> Tuple[tuple, tuple, float]:
        speeds = self.weather.day_samples("wind_speed", day_index)
        step = DAY / (len(speeds) - 1)
        if self.weather.snow_depth(day_index * DAY) >= self.disabled_snow_depth_m:
            powers = (0.0,) * len(speeds)  # snow gate: daily resolution
        else:
            powers = tuple(self._power_from_speed(s) for s in speeds)
        cumulative = [0.0]
        acc = 0.0
        for k in range(len(powers) - 1):
            acc += 0.5 * (powers[k] + powers[k + 1]) * step
            cumulative.append(acc)
        return powers, tuple(cumulative), step


class MainsCharger(PowerSource):
    """Café mains charger: full output whenever mains power is available.

    ``availability`` is a callable mapping simulated time to a bool; the
    reference station uses the café's tourist season
    (:func:`repro.environment.seasons.cafe_has_power`).
    """

    def __init__(
        self,
        availability: Callable[[float], bool],
        rated_w: float = 30.0,
        name: str = "mains",
    ) -> None:
        super().__init__(name)
        self.rated_w = rated_w
        self.availability = availability

    def power_w(self, time: float) -> float:
        return self.rated_w if self.availability(time) else 0.0

    def energy_j(self, t0: float, t1: float) -> float:
        """Interval energy assuming day-resolution availability.

        The café season flips at month boundaries (UTC midnights), so
        availability is constant within a day: sample each day-span at its
        midpoint.  Nothing is cached — a rewired availability callable
        takes effect at the next query.  Availability that flips mid-day
        should subclass and integrate accordingly.
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        for _day, a, b in _iter_day_spans(t0, t1):
            if self.availability(0.5 * (a + b)):
                total += self.rated_w * (b - a)
        return total


class ConstantSource(PowerSource):
    """Fixed-output source, useful in tests and calibration benches.

    Interval energy is closed-form and uncached, so tests that mutate
    :attr:`watts` mid-run see the new value from the query instant on.
    """

    def __init__(self, watts: float, name: str = "constant") -> None:
        super().__init__(name)
        self.watts = watts

    def power_w(self, time: float) -> float:
        return self.watts

    def energy_j(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.watts * (t1 - t0)
