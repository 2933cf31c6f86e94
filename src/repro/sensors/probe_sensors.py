"""Sensors carried by the subglacial probes: conductivity, tilt, pressure."""

from __future__ import annotations

from typing import List, Sequence

from repro.environment.glacier import GlacierModel
from repro.environment.weather import _smooth_noise
from repro.sensors.base import Sensor
from repro.sim.simtime import DAY


class ConductivitySensor(Sensor):
    """Electrical conductivity of the basal till/water, in µS.

    This is the Fig 6 channel: a flat winter baseline followed by a steep
    rise when spring melt-water reaches the glacier bed.
    """

    def __init__(self, glacier: GlacierModel, probe_id: int, seed: int = 0) -> None:
        super().__init__(
            name="conductivity_us",
            noise_std=0.05,
            resolution=0.01,
            clip=(0.0, 100.0),
            seed=seed + probe_id,
        )
        self.glacier = glacier
        self.probe_id = probe_id

    def signal_many(self, times: Sequence[float]) -> List[float]:
        return self.glacier.conductivity_many(times, self.probe_id)


class TiltSensor(Sensor):
    """Probe orientation in degrees from vertical.

    Probes tilt slowly as the till deforms, with small jumps at stick-slip
    events (ref [3]: clast behaviour from wireless probe experiments).
    The tilt trajectory is a deterministic random walk derived from the
    glacier's slip history.
    """

    def __init__(self, glacier: GlacierModel, probe_id: int, seed: int = 0) -> None:
        self.glacier = glacier
        self.probe_id = probe_id
        # Cumulative slip-jump count per day, extended lazily.
        self._jump_cache = [0]
        super().__init__(
            name="tilt_deg",
            noise_std=0.1,
            resolution=0.1,
            clip=(0.0, 90.0),
            seed=seed + probe_id,
        )

    def _cumulative_jumps(self, day: int) -> int:
        while len(self._jump_cache) <= day:
            previous_day = len(self._jump_cache) - 1
            self._jump_cache.append(
                self._jump_cache[-1] + (1 if self.glacier.slip_occurred(previous_day) else 0)
            )
        return self._jump_cache[day]

    def signal_many(self, times: Sequence[float]) -> List[float]:
        # Base creep: slow monotone increase, probe-specific rate.
        rate = 0.01 + 0.02 * _smooth_noise(self.seed, f"tiltrate:{self.probe_id}", 0.0)
        tilts = []
        last_day = None
        jumps = 0
        for time in times:
            day = max(0, int(time // DAY))
            if day != last_day:
                last_day = day
                # Stick-slip events each contribute a small jump.
                jumps = self._cumulative_jumps(day)
            tilts.append(5.0 + rate * day + 0.4 * jumps)
        return tilts


class PressureSensor(Sensor):
    """Subglacial water pressure in metres of head (diurnal under melt)."""

    def __init__(self, glacier: GlacierModel, probe_id: int, seed: int = 0) -> None:
        super().__init__(
            name="pressure_m",
            noise_std=0.3,
            resolution=0.1,
            clip=(0.0, 200.0),
            seed=seed + probe_id,
        )
        self.glacier = glacier
        self.probe_id = probe_id

    def signal_many(self, times: Sequence[float]) -> List[float]:
        return self.glacier.water_pressure_many(times)


def make_probe_sensor_suite(glacier: GlacierModel, probe_id: int, seed: int = 0) -> List[Sensor]:
    """The paper's probe sensor array: conductivity, orientation, pressure."""
    return [
        ConductivitySensor(glacier, probe_id, seed=seed),
        TiltSensor(glacier, probe_id, seed=seed),
        PressureSensor(glacier, probe_id, seed=seed),
    ]
