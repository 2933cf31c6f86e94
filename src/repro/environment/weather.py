"""Synthetic Iceland weather, deterministic in simulated time.

Every quantity is a *pure function of time* for a given seed, so charging
sources can sample the weather at arbitrary instants and repeated queries
agree.  Stochastic texture (clouds, gusts, precipitation) comes from
hash-derived noise interpolated between fixed 3-hour blocks — no hidden
mutable RNG state.

The site is Vatnajökull at ~64.3° N:

- **solar**: clear-sky elevation from the standard declination formula —
  near-midnight-sun day lengths in June, a few dim hours in December —
  scaled by a cloud-transmission factor;
- **wind**: seasonal mean (stronger in winter) with gust noise and
  occasional storm blocks;
- **temperature**: seasonal sinusoid (≈ +4 °C July, −10 °C January) with a
  small diurnal cycle and noise;
- **snow depth**: daily accumulation when cold and precipitating, degree-day
  melt when warm, integrated deterministically and cached.  Deep snow is
  what buries the solar panel and stops the wind turbine in winter.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.sim.simtime import DAY, day_of_year, fraction_of_day

#: Length of one noise block: 3 hours.
NOISE_BLOCK_S = 10800.0


@functools.lru_cache(maxsize=1_000_000)
def _block_noise(seed: int, stream: str, index: int) -> float:
    """Deterministic uniform [0,1) noise for one stream/block pair.

    Cached: simulations re-query the same blocks constantly (every power
    bus step samples the same weather blocks), and the value is a pure
    function of its arguments.
    """
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _smooth_noise(seed: int, stream: str, time: float) -> float:
    """Noise linearly interpolated between 3-hour block midpoints."""
    return _smooth_noise_many(seed, stream, (time,))[0]


def _smooth_noise_many(seed: int, stream: str, times: Sequence[float]) -> List[float]:
    """:func:`_smooth_noise` over a column of instants.

    The two block values are fetched once per run of instants sharing a
    3-hour block rather than once per instant.
    """
    values = []
    block = None
    a = b = 0.0
    for time in times:
        position = time / NOISE_BLOCK_S - 0.5
        lower = math.floor(position)
        frac = position - lower
        if lower != block:
            block = lower
            a = _block_noise(seed, stream, lower)
            b = _block_noise(seed, stream, lower + 1)
        values.append(a * (1.0 - frac) + b * frac)
    return values


@dataclass
class WeatherConfig:
    """Tunable parameters of the synthetic climate."""

    #: Site latitude in degrees north.
    latitude_deg: float = 64.3
    #: Minimum cloud transmission (fully overcast).
    cloud_min_transmission: float = 0.2
    #: Mean wind speed in summer, m/s.
    wind_mean_summer_ms: float = 5.0
    #: Mean wind speed in winter, m/s.
    wind_mean_winter_ms: float = 9.0
    #: Fraction of 3-hour blocks that are storms.
    storm_probability: float = 0.06
    #: Wind multiplier during storm blocks.
    storm_multiplier: float = 2.5
    #: Mean air temperature of the warmest day, °C.
    temp_summer_c: float = 4.0
    #: Mean air temperature of the coldest day, °C.
    temp_winter_c: float = -10.0
    #: Day of year of peak warmth.
    temp_peak_doy: int = 200
    #: Peak-to-mean diurnal temperature amplitude, °C.
    temp_diurnal_c: float = 2.0
    #: Random temperature excursion amplitude, °C.
    temp_noise_c: float = 3.0
    #: Fraction of days with precipitation.
    precip_probability: float = 0.45
    #: Snow accumulated by one full-precipitation cold day, metres.
    snowfall_m_per_day: float = 0.06
    #: Snow melted per positive degree-day, metres.
    melt_m_per_degree_day: float = 0.01
    #: Initial snow depth at the epoch, metres.
    initial_snow_m: float = 0.0


#: Grid step of the memoised per-day sample tables (resolves the diurnal
#: solar curve and the 3-hour noise blocks comfortably; the charging
#: sources' energy tables take their step from the sample count).
DAY_CACHE_STEP_S = 900.0
_DAY_CACHE_POINTS = int(DAY / DAY_CACHE_STEP_S) + 1  # inclusive of both ends


class IcelandWeather:
    """Deterministic weather provider for one site."""

    def __init__(self, config: WeatherConfig | None = None, seed: int = 0) -> None:
        self.config = config or WeatherConfig()
        self.seed = int(seed)
        self._snow_cache: List[float] = [self.config.initial_snow_m]
        #: ``(channel, day_index) -> tuple of samples`` — see :meth:`day_samples`.
        self._day_cache: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Per-day evaluation cache
    # ------------------------------------------------------------------
    def day_samples(self, channel: str, day_index: int) -> tuple:
        """Memoised samples of ``channel`` across one UTC day.

        ``channel`` is a method name (``"wind_speed"``, ``"solar_factor"``,
        ``"temperature_c"``); the result is a tuple of values on a uniform
        :data:`DAY_CACHE_STEP_S` grid covering ``[day_index*DAY,
        (day_index+1)*DAY]`` inclusive of both endpoints.  Quadrature over
        any sub-interval of a previously touched day is O(1) per step with
        no hash/trig work — the adaptive power bus leans on this.
        """
        key = (channel, day_index)
        cached = self._day_cache.get(key)
        if cached is None:
            fn = getattr(self, channel)
            base = day_index * DAY
            cached = tuple(
                fn(base + k * DAY_CACHE_STEP_S) for k in range(_DAY_CACHE_POINTS)
            )
            self._day_cache[key] = cached
        return cached

    def day_memo(self, key: str, day_index: int, build) -> tuple:
        """Memoise ``build()`` under ``(key, day_index)`` in the day cache.

        For derived per-day tables that are pure functions of the weather
        (e.g. the unit insolation integral) and therefore shareable between
        every consumer of this provider — both stations' solar panels hit
        the same entry.
        """
        cache_key = (key, day_index)
        cached = self._day_cache.get(cache_key)
        if cached is None:
            cached = build()
            self._day_cache[cache_key] = cached
        return cached

    def solar_terms(self, day_index: int) -> tuple:
        """``(A, B)`` such that clear-sky sin-elevation at time ``t`` inside
        the day is ``A + B * cos(2π/DAY * (t_of_day - DAY/2))``.

        Declination (and hence ``A``/``B``) is constant across a UTC day in
        this model, which is what makes :class:`~repro.energy.sources.
        SolarPanel`'s diurnal energy integral analytic.
        """
        key = ("_solar_terms", day_index)
        cached = self._day_cache.get(key)
        if cached is None:
            doy = day_of_year(day_index * DAY)
            declination = -23.44 * math.cos(math.radians(360.0 / 365.0 * (doy + 10)))
            lat = math.radians(self.config.latitude_deg)
            dec = math.radians(declination)
            cached = (math.sin(lat) * math.sin(dec), math.cos(lat) * math.cos(dec))
            self._day_cache[key] = cached
        return cached

    def _seasonal_terms(self, day_index: int) -> tuple:
        """``(wind_mean_ms, temp_seasonal_c)`` — the day-constant seasonal
        parts of :meth:`wind_speed` and :meth:`temperature_c`, memoised.

        Both depend on time only through ``day_of_year``, so hoisting them
        to a per-day cache changes nothing numerically while removing two
        trig calls from every instantaneous weather query.
        """
        key = ("_seasonal", day_index)
        cached = self._day_cache.get(key)
        if cached is None:
            cfg = self.config
            doy = day_of_year(day_index * DAY)
            winterness = 0.5 * (1.0 + math.cos(2.0 * math.pi * (doy - 15) / 365.0))
            wind_mean = cfg.wind_mean_summer_ms + winterness * (
                cfg.wind_mean_winter_ms - cfg.wind_mean_summer_ms
            )
            seasonal_phase = math.cos(
                2.0 * math.pi * (doy - cfg.temp_peak_doy) / 365.0
            )
            mean = 0.5 * (cfg.temp_summer_c + cfg.temp_winter_c)
            amplitude = 0.5 * (cfg.temp_summer_c - cfg.temp_winter_c)
            cached = (wind_mean, mean + amplitude * seasonal_phase)
            self._day_cache[key] = cached
        return cached

    def cloud_pieces(self, t0: float, t1: float):
        """Yield ``(a, b, c0, c1)`` with ``cloud_transmission(t) == c0 + c1*t``
        exactly on each ``[a, b]`` covering ``[t0, t1]``.

        Cloud transmission is noise linearly interpolated between 3-hour
        block midpoints, i.e. piecewise linear with breakpoints at
        ``(k + 0.5) * NOISE_BLOCK_S`` — so an integrand built on it stays
        analytically integrable piece by piece.
        """
        if t1 <= t0:
            return
        low = self.config.cloud_min_transmission
        span = 1.0 - low
        k = math.floor(t0 / NOISE_BLOCK_S - 0.5)
        a = t0
        while a < t1:
            mid_lo = (k + 0.5) * NOISE_BLOCK_S
            mid_hi = (k + 1.5) * NOISE_BLOCK_S
            b = min(t1, mid_hi)
            n0 = _block_noise(self.seed, "cloud", k)
            n1 = _block_noise(self.seed, "cloud", k + 1)
            slope = span * (n1 - n0) / NOISE_BLOCK_S
            # Data iterator, not a simulation process.
            yield a, b, (low + span * n0) - slope * mid_lo, slope  # repro-lint: disable=yield-discipline
            a = b
            k += 1

    # ------------------------------------------------------------------
    # Solar
    # ------------------------------------------------------------------
    def solar_elevation_deg(self, time: float) -> float:
        """Sun elevation above the horizon in degrees (clear sky geometry)."""
        a, b = self.solar_terms(int(time // DAY))
        hour_angle = (fraction_of_day(time) - 0.5) * 360.0
        sin_elev = a + b * math.cos(math.radians(hour_angle))
        return math.degrees(math.asin(max(-1.0, min(1.0, sin_elev))))

    def cloud_transmission(self, time: float) -> float:
        """Fraction of clear-sky irradiance passing the cloud deck, in [min, 1]."""
        noise = _smooth_noise(self.seed, "cloud", time)
        low = self.config.cloud_min_transmission
        return low + (1.0 - low) * noise

    def solar_factor(self, time: float) -> float:
        """Panel output as a fraction of rating, in [0, 1]."""
        a, b = self.solar_terms(int(time // DAY))
        sin_elev = a + b * math.cos(
            math.radians((fraction_of_day(time) - 0.5) * 360.0)
        )
        if sin_elev <= 0.0:
            return 0.0
        if sin_elev > 1.0:
            sin_elev = 1.0
        return sin_elev * self.cloud_transmission(time)

    # ------------------------------------------------------------------
    # Wind
    # ------------------------------------------------------------------
    def wind_speed(self, time: float) -> float:
        """Wind speed in m/s, seasonal with gusts and storm blocks."""
        cfg = self.config
        mean = self._seasonal_terms(int(time // DAY))[0]
        gust = 0.4 + 1.2 * _smooth_noise(self.seed, "wind", time)
        block = math.floor(time / NOISE_BLOCK_S)
        storm = (
            cfg.storm_multiplier
            if _block_noise(self.seed, "storm", block) < cfg.storm_probability
            else 1.0
        )
        return max(0.0, mean * gust * storm)

    # ------------------------------------------------------------------
    # Temperature
    # ------------------------------------------------------------------
    def temperature_c(self, time: float) -> float:
        """Air temperature at the station in °C."""
        cfg = self.config
        seasonal = self._seasonal_terms(int(time // DAY))[1]
        diurnal = cfg.temp_diurnal_c * math.sin(2.0 * math.pi * (fraction_of_day(time) - 0.25))
        noise = cfg.temp_noise_c * (2.0 * _smooth_noise(self.seed, "temp", time) - 1.0)
        return seasonal + diurnal + noise

    # ------------------------------------------------------------------
    # Snow
    # ------------------------------------------------------------------
    def _day_index(self, time: float) -> int:
        return max(0, int(time // DAY))

    def _extend_snow_cache(self, day_index: int) -> None:
        cfg = self.config
        while len(self._snow_cache) <= day_index:
            day = len(self._snow_cache) - 1
            midday = (day + 0.5) * DAY
            depth = self._snow_cache[-1]
            temp = self.temperature_c(midday)
            precipitating = _block_noise(self.seed, "precip", day) < cfg.precip_probability
            if precipitating and temp < 0.5:
                intensity = _block_noise(self.seed, "precip_amount", day)
                depth += cfg.snowfall_m_per_day * (0.3 + 0.7 * intensity)
            if temp > 0:
                depth -= cfg.melt_m_per_degree_day * temp
            self._snow_cache.append(max(0.0, depth))

    def snow_depth(self, time: float) -> float:
        """Snow depth at the station in metres (daily resolution)."""
        index = self._day_index(time)
        self._extend_snow_cache(index)
        return self._snow_cache[index]
