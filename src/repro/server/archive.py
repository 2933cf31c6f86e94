"""Southampton-side processing of the daily uploads.

The deployment exists to produce two products, both reconstructed here
from the raw uploads exactly as the stations deliver them:

- **science**: differential GPS solutions from paired base/reference
  readings (ice position, velocity, stick-slip days) and the sub-glacial
  probe series (Fig 6);
- **system health**: the paper notes "data collated from the base station
  can provide useful insights into the condition of the system" — battery
  voltage trends, enclosure humidity, snow level against the station frame.

Queries run over each shard's ingest-time :class:`~repro.server.index.
ArchiveIndex` rather than scanning the raw ``uploads`` list; multi-shard
buckets are merged by global ingest sequence, so results are byte-identical
to a single-server full scan of the same uploads.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.gps.dgps import DgpsSolution, solve_all, velocity_series
from repro.gps.files import GpsReading
from repro.server.fleet import ServerFleet
from repro.server.index import ArchiveIndex
from repro.sim.simtime import DAY


def _merged(buckets: Iterable[List[Tuple[int, Any]]]) -> List[Tuple[int, Any]]:
    """Concatenate per-shard (seq, item) buckets in global arrival order."""
    buckets = list(buckets)
    if len(buckets) == 1:
        return buckets[0]
    merged = [pair for bucket in buckets for pair in bucket]
    merged.sort(key=lambda pair: pair[0])
    return merged


class ScienceArchive:
    """Query layer over a server fleet's received uploads."""

    def __init__(self, server: ServerFleet) -> None:
        self.server = server

    def _indexes(self) -> Tuple[ArchiveIndex, ...]:
        return tuple(shard.index for shard in self.server.shards)

    # ------------------------------------------------------------------
    # Raw extraction
    # ------------------------------------------------------------------
    def gps_readings(self, station: str) -> List[GpsReading]:
        """All dGPS readings uploaded by ``station``, time ordered."""
        pairs = _merged(index.gps.get(station, []) for index in self._indexes())
        readings = [reading for _seq, reading in pairs]
        return sorted(readings, key=lambda r: r.start_time)

    def probe_series(self, channel: str) -> Dict[int, List[Tuple[float, float]]]:
        """(time, value) series per probe for one sensor channel."""
        series: Dict[int, List[Tuple[float, float]]] = {}
        for _seq, payload in _merged(index.probes for index in self._indexes()):
            readings = payload.get("readings")
            if not readings or channel not in readings.channels:
                continue
            series.setdefault(payload["probe_id"], []).extend(
                zip(readings.times, readings.channels[channel])
            )
        for values in series.values():
            values.sort()
        return series

    def sensor_series(self, station: str, sensor: str) -> List[Tuple[float, float]]:
        """(rtc_hours, value) series for one station sensor channel."""
        out: List[Tuple[float, float]] = []
        for _seq, payload in _merged(
            index.sensors.get(station, []) for index in self._indexes()
        ):
            for rtc_hours, name, value in payload.get("sensors", []):
                if name == sensor:
                    out.append((rtc_hours, value))
        return sorted(out)

    def voltage_series(self, station: str) -> List[Tuple[float, float]]:
        """(rtc_hours, volts) battery samples as uploaded daily."""
        out: List[Tuple[float, float]] = []
        for _seq, payload in _merged(
            index.sensors.get(station, []) for index in self._indexes()
        ):
            out.extend(payload.get("voltages", []))
        return sorted(out)

    # ------------------------------------------------------------------
    # dGPS science
    # ------------------------------------------------------------------
    def solutions(
        self,
        base_station: str = "base",
        reference_station: str = "reference",
        reference_known_position_m: float = 0.0,
    ) -> List[DgpsSolution]:
        """Best-available position solutions for the moving station."""
        return solve_all(
            self.gps_readings(base_station),
            self.gps_readings(reference_station),
            reference_known_position_m=reference_known_position_m,
        )

    def differential_fraction(self) -> float:
        """Fraction of solutions that had a simultaneous reference reading.

        This is the synchronisation health metric: the whole Section II/III
        machinery exists to keep this near 1.0.
        """
        solutions = self.solutions()
        if not solutions:
            return 0.0
        return sum(1 for s in solutions if s.differential) / len(solutions)

    def daily_velocity(self) -> List[Tuple[int, float]]:
        """(day_index, mean m/day) from consecutive differential solutions.

        Sub-daily velocity samples (state 3 yields ~11 per day) are
        averaged per day; days without solutions are absent.
        """
        solutions = [s for s in self.solutions() if s.differential]
        by_day: Dict[int, List[float]] = {}
        for time, velocity in velocity_series(solutions):
            by_day.setdefault(int(time // DAY), []).append(velocity)
        return [(day, sum(vs) / len(vs)) for day, vs in sorted(by_day.items())]

    def stick_slip_days(self, sigma: float = 2.0) -> List[int]:
        """Days whose velocity exceeds mean + ``sigma`` standard deviations."""
        velocities = self.daily_velocity()
        if len(velocities) < 3:
            return []
        values = [v for _d, v in velocities]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        threshold = mean + sigma * variance**0.5
        return [day for day, v in velocities if v > threshold]

    # ------------------------------------------------------------------
    # System health
    # ------------------------------------------------------------------
    def battery_daily_minima(self, station: str) -> List[Tuple[int, float]]:
        """(day_index, min volts) — the trend the operators watch."""
        samples = self.voltage_series(station)
        days: Dict[int, float] = {}
        for rtc_hours, volts in samples:
            day = int(rtc_hours // 24)
            days[day] = min(days.get(day, volts), volts)
        first = min(days) if days else 0
        return [(day - first, volts) for day, volts in sorted(days.items())]

    def battery_declining(self, station: str, window_days: int = 7,
                          min_slope_v_per_day: float = 0.001) -> bool:
        """Whether the recent daily-minimum trend is downward.

        Fits a least-squares line through the last ``window_days`` daily
        minima and flags a decline steeper than ``min_slope_v_per_day``.
        Comparing only the window's endpoints (the old behaviour) let a
        single noisy sample at either end flip the verdict.
        """
        minima = self.battery_daily_minima(station)
        if len(minima) < 2:
            return False
        recent = minima[-window_days:]
        n = len(recent)
        mean_day = sum(day for day, _v in recent) / n
        mean_volts = sum(volts for _d, volts in recent) / n
        sxx = sum((day - mean_day) ** 2 for day, _v in recent)
        if sxx == 0:
            return False
        slope = sum(
            (day - mean_day) * (volts - mean_volts) for day, volts in recent
        ) / sxx
        return slope < -min_slope_v_per_day

    def snow_burial_risk(self, station: str, frame_height_m: float = 2.0) -> bool:
        """Whether the snow sensor shows the frame close to burial —
        the failure mode that damaged the base station (Section V)."""
        series = self.sensor_series(station, "snow_depth_m")
        if not series:
            return False
        recent = [value for _t, value in series[-48:]]
        return max(recent) > 0.8 * frame_height_m

    def enclosure_humidity_alert(self, station: str, threshold_pct: float = 85.0) -> bool:
        """Condensation risk inside the enclosure."""
        series = self.sensor_series(station, "internal_humidity_pct")
        if not series:
            return False
        recent = [value for _t, value in series[-48:]]
        return sum(recent) / len(recent) > threshold_pct
