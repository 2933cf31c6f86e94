"""Glacier physics: melt-water, basal conductivity, pressure, stick-slip motion.

This module synthesises the glaciological signals the deployment measures:

- **basal electrical conductivity** per probe — flat and low through winter,
  rising steeply when spring melt-water reaches the bed (the paper's Fig 6,
  probes 21/24/25 reaching ~6-15 µS by late April);
- **subglacial water pressure** — melt-driven with a summer diurnal cycle;
- **ice surface motion** — a slow background slide plus discrete stick-slip
  events correlated with water-pressure peaks (the dGPS exists to capture
  exactly this, refs [4,5] of the paper);
- **probe radio attenuation** — "summer water" absorbs the probe radio
  signal, so packet loss is low in winter ("drier ice") and high in the wet
  summer; this drives the Section V bulk-transfer behaviour (≈400 of 3000
  readings missed across the weakest summer link).

All quantities are deterministic functions of time for a given seed, using
the same hash-noise scheme as :mod:`repro.environment.weather`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.environment.seasons import melt_season_factor_many
from repro.environment.weather import _block_noise, _smooth_noise_many
from repro.sim.simtime import DAY, fraction_of_day


@dataclass
class GlacierConfig:
    """Tunable parameters of the glacier model."""

    #: Winter baseline conductivity, µS.
    conductivity_base_us: float = 0.8
    #: Conductivity added at full melt for an average probe, µS.
    conductivity_melt_us: float = 11.0
    #: Relative probe-to-probe spread of the melt response.
    conductivity_probe_spread: float = 0.40
    #: Conductivity measurement/process noise, µS.
    conductivity_noise_us: float = 0.5
    #: Winter baseline water pressure, metres of head.
    pressure_base_m: float = 30.0
    #: Extra pressure head at full melt, metres.
    pressure_melt_m: float = 35.0
    #: Diurnal pressure amplitude at full melt, metres.
    pressure_diurnal_m: float = 8.0
    #: Background sliding rate, metres per day.
    base_slide_m_per_day: float = 0.08
    #: Extra sliding at full melt, metres per day.
    melt_slide_m_per_day: float = 0.10
    #: Probability per day of a stick-slip event at full melt.
    slip_probability_at_melt: float = 0.25
    #: Displacement of one stick-slip event, metres.
    slip_size_m: float = 0.04
    #: Probe packet-loss floor in dry winter ice.
    radio_loss_winter: float = 0.02
    #: Additional packet loss at full summer melt.
    radio_loss_melt: float = 0.115


class GlacierModel:
    """Deterministic glacier signals for one deployment site."""

    def __init__(self, config: GlacierConfig | None = None, seed: int = 0) -> None:
        self.config = config or GlacierConfig()
        self.seed = int(seed)
        self._displacement_cache: List[float] = [0.0]
        #: ``probe_id -> (gain, noise_stream)`` — both stable per id.
        self._probe_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Melt and conductivity
    # ------------------------------------------------------------------
    def melt_fraction(self, time: float) -> float:
        """Melt-water availability in [0, 1] (seasonal with weather texture)."""
        return self.melt_fraction_many((time,))[0]

    def melt_fraction_many(self, times: Sequence[float]) -> List[float]:
        """:meth:`melt_fraction` over a column of instants."""
        fractions = []
        for seasonal, noise in zip(melt_season_factor_many(times),
                                   _smooth_noise_many(self.seed, "melt", times)):
            fractions.append(0.0 if seasonal <= 0.0
                             else min(1.0, seasonal * (0.75 + 0.25 * noise)))
        return fractions

    def _probe_terms(self, probe_id: int) -> tuple:
        """Cached ``(gain, noise_stream)`` for one probe id."""
        cached = self._probe_cache.get(probe_id)
        if cached is None:
            spread = self.config.conductivity_probe_spread
            offset = 2.0 * _block_noise(self.seed, f"probe_gain:{probe_id}", 0) - 1.0
            cached = (1.0 + spread * offset, f"cond:{probe_id}")
            self._probe_cache[probe_id] = cached
        return cached

    def conductivity_us(self, time: float, probe_id: int = 0) -> float:
        """Basal electrical conductivity at one probe, in µS (Fig 6 signal)."""
        return self.conductivity_many((time,), probe_id)[0]

    def conductivity_many(self, times: Sequence[float], probe_id: int = 0) -> List[float]:
        """:meth:`conductivity_us` over a column of instants."""
        cfg = self.config
        gain, stream = self._probe_terms(probe_id)
        base_us = cfg.conductivity_base_us
        melt_us = cfg.conductivity_melt_us
        noise_us = cfg.conductivity_noise_us
        return [
            max(0.0, base_us + melt_us * melt * gain
                + noise_us * (2.0 * noise - 1.0) * (0.3 + 0.7 * melt))
            for melt, noise in zip(self.melt_fraction_many(times),
                                   _smooth_noise_many(self.seed, stream, times))
        ]

    # ------------------------------------------------------------------
    # Water pressure
    # ------------------------------------------------------------------
    def water_pressure_m(self, time: float) -> float:
        """Subglacial water pressure in metres of head."""
        return self.water_pressure_many((time,))[0]

    def water_pressure_many(self, times: Sequence[float]) -> List[float]:
        """:meth:`water_pressure_m` over a column of instants."""
        cfg = self.config
        base_m = cfg.pressure_base_m
        melt_m = cfg.pressure_melt_m
        diurnal_m = cfg.pressure_diurnal_m
        two_pi = 2.0 * math.pi
        return [
            base_m + melt_m * melt
            + diurnal_m * melt * math.sin(two_pi * (fraction_of_day(time) - 0.33))
            + 3.0 * (2.0 * noise - 1.0)
            for time, melt, noise in zip(times, self.melt_fraction_many(times),
                                         _smooth_noise_many(self.seed, "pressure", times))
        ]

    # ------------------------------------------------------------------
    # Ice motion (what the dGPS measures)
    # ------------------------------------------------------------------
    def _daily_displacement(self, day: int) -> float:
        cfg = self.config
        midday = (day + 0.5) * DAY
        melt = self.melt_fraction(midday)
        slide = cfg.base_slide_m_per_day + cfg.melt_slide_m_per_day * melt
        slip_p = cfg.slip_probability_at_melt * melt
        if _block_noise(self.seed, "slip", day) < slip_p:
            slide += cfg.slip_size_m
        return slide

    def _extend_displacement_cache(self, day_index: int) -> None:
        while len(self._displacement_cache) <= day_index:
            day = len(self._displacement_cache) - 1
            total = self._displacement_cache[-1] + self._daily_displacement(day)
            self._displacement_cache.append(total)

    def slip_occurred(self, day_index: int) -> bool:
        """Whether a stick-slip event happened on the given simulation day.

        Slip probability rises steeply with the day's water pressure —
        the refs [4, 5] physics ("the relationship of any 'stick-slip'
        motion to changes in water pressure") that the dGPS campaign
        exists to observe.  No melt, no slips.
        """
        midday = (day_index + 0.5) * DAY
        melt = self.melt_fraction(midday)
        base_p = self.config.slip_probability_at_melt * melt
        if base_p <= 0.0:
            return False
        cfg = self.config
        expected = cfg.pressure_base_m + cfg.pressure_melt_m * melt
        ratio = self.water_pressure_m(midday) / max(expected, 1e-9)
        pressure_factor = max(0.1, min(6.0, ratio**8))
        return _block_noise(self.seed, "slip", day_index) < base_p * pressure_factor

    #: Relative amplitude of the diurnal velocity modulation at full melt.
    DIURNAL_VELOCITY_AMPLITUDE = 0.3
    #: Fraction of day at which the diurnal speed-up peaks (~15:30).
    DIURNAL_PEAK_PHASE = 0.4

    def _within_day_progress(self, day: int, within: float) -> float:
        """Fraction of the day's displacement accumulated by ``within``.

        The integral of the diurnal velocity profile, so that
        :meth:`velocity_m_per_day` is exactly the derivative of
        :meth:`surface_position_m` — the dGPS must be able to *observe*
        the diurnal cycle in position differences.
        """
        melt = self.melt_fraction((day + 0.5) * DAY)
        amplitude = self.DIURNAL_VELOCITY_AMPLITUDE * melt
        phase = self.DIURNAL_PEAK_PHASE
        two_pi = 2.0 * math.pi
        return within + amplitude / two_pi * (
            math.cos(two_pi * (0.0 - phase)) - math.cos(two_pi * (within - phase))
        )

    def surface_position_m(self, time: float) -> float:
        """Down-flow surface displacement since the epoch, in metres."""
        day = max(0, int(time // DAY))
        self._extend_displacement_cache(day + 1)
        start = self._displacement_cache[day]
        within = (time - day * DAY) / DAY
        return start + self._within_day_progress(day, within) * self._daily_displacement(day)

    def velocity_m_per_day(self, time: float) -> float:
        """Instantaneous surface velocity in m/day, diurnal under melt."""
        day = max(0, int(time // DAY))
        base = self._daily_displacement(day)
        melt = self.melt_fraction((day + 0.5) * DAY)
        diurnal = 1.0 + self.DIURNAL_VELOCITY_AMPLITUDE * melt * math.sin(
            2.0 * math.pi * (fraction_of_day(time) - self.DIURNAL_PEAK_PHASE)
        )
        return base * diurnal

    # ------------------------------------------------------------------
    # Probe radio
    # ------------------------------------------------------------------
    def probe_radio_loss(self, times: Sequence[float]) -> List[float]:
        """Probe packet-loss probability per instant: low in dry winter ice, high in summer."""
        winter = self.config.radio_loss_winter
        melt_loss = self.config.radio_loss_melt
        losses = []
        for melt in self.melt_fraction_many(times):
            losses.append(winter + melt_loss * melt)
        return losses
