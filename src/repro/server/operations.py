"""The Southampton operations console: automated station management.

Section VI's closing lesson — "the importance of a reliable robust remote
configuration system" — as an operator bot that runs on the server side
every day and uses only the channels the deployed system had:

- **health review** (from :class:`~repro.server.archive.ScienceArchive`):
  declining batteries, snow burial, humidity, stations gone silent;
- **automatic overrides**: hold both stations down when one battery is
  declining (the operators did this by hand in Fig 5);
- **release management**: publish code, watch the immediately-reported
  checksums, and re-stage failed downloads as special commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.server.archive import ScienceArchive
from repro.server.deployment import CodeRelease
from repro.server.fleet import ServerFleet
from repro.sim.kernel import Simulation
from repro.sim.simtime import DAY


@dataclass(frozen=True)
class Alert:
    """One operator-facing finding from the daily review."""

    time: float
    station: str
    kind: str
    detail: str


class OperationsConsole:
    """Daily automated review + remedial actions on the server side.

    Parameters
    ----------
    sim, server:
        Kernel and the server fleet whose uploads are reviewed.
    auto_override:
        When True, a station with a declining battery trend causes a
        server-side manual override one state below the healthy minimum —
        pre-empting the stations' own (slower) min-rule coupling.
    review_hour:
        Time of day the review runs (after the stations' midday uploads).
    """

    #: A station is "silent" after this many days without an upload.
    SILENCE_DAYS = 2.0

    def __init__(
        self,
        sim: Simulation,
        server: ServerFleet,
        stations: Optional[List[str]] = None,
        auto_override: bool = False,
        review_hour: float = 16.0,
        monthly_data_budget_mb: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.archive = ScienceArchive(server)
        self.stations = stations or ["base", "reference"]
        self.auto_override = auto_override
        self.review_hour = review_hour
        #: GPRS data is "paid for per megabyte" (Section II): alert when a
        #: station's calendar-month volume crosses this budget.
        self.monthly_data_budget_mb = monthly_data_budget_mb
        self.alerts: List[Alert] = []
        self.override_actions: List[tuple] = []
        self._budget_flagged: set = set()
        sim.process(self._daily_review(), name="operations.review")

    # ------------------------------------------------------------------
    # Review
    # ------------------------------------------------------------------
    def _alert(self, station: str, kind: str, detail: str) -> None:
        alert = Alert(time=self.sim.now, station=station, kind=kind, detail=detail)
        self.alerts.append(alert)
        self.sim.trace.emit("operations", "alert", station=station, alert=kind)

    def _last_contact(self, station: str) -> Optional[float]:
        times = [u.time for u in self.server.uploads if u.station == station]
        return max(times) if times else None

    def review_once(self) -> List[Alert]:
        """Run one review pass; returns the alerts it raised."""
        before = len(self.alerts)
        for station in self.stations:
            last = self._last_contact(station)
            if last is not None and self.sim.now - last > self.SILENCE_DAYS * DAY:
                self._alert(station, "silent",
                            f"no upload for {(self.sim.now - last) / DAY:.1f} days")
            if self.archive.battery_declining(station):
                self._alert(station, "battery_declining",
                            "daily-minimum voltage trending down")
            if self.archive.snow_burial_risk(station):
                self._alert(station, "burial_risk", "snow approaching the frame")
            if self.archive.enclosure_humidity_alert(station):
                self._alert(station, "humidity", "condensation risk in enclosure")
            self._check_data_budget(station)
        new_alerts = self.alerts[before:]
        if self.auto_override:
            self._apply_override_policy(new_alerts)
        return new_alerts

    def _apply_override_policy(self, new_alerts: List[Alert]) -> None:
        declining = {a.station for a in new_alerts if a.kind == "battery_declining"}
        if declining:
            # Hold the whole system one notch down (never to 0: the
            # station-side floor would ignore it anyway).
            states = [
                report.state
                for station in self.stations
                if (report := self.server.power_states.report_for(station)) is not None
            ]
            if states:
                target = max(1, min(states) - 1)
                self.server.power_states.set_manual_override(target)
                self.override_actions.append((self.sim.now, target))
                self.sim.trace.emit("operations", "auto_override", state=target)
        elif self.server.power_states.manual_override is not None:
            # All clear: release the hold.
            self.server.power_states.set_manual_override(None)
            self.override_actions.append((self.sim.now, None))

    def _check_data_budget(self, station: str) -> None:
        """Per-MB billing watch: alert once per (station, month) over budget."""
        if self.monthly_data_budget_mb is None:
            return
        month_key = (station, self.sim.utcnow().strftime("%Y-%m"))
        if month_key in self._budget_flagged:
            return
        month_start_day = self.sim.utcnow().replace(day=1)
        from repro.sim.simtime import from_datetime

        start_s = from_datetime(month_start_day)
        month_bytes = sum(
            u.nbytes for u in self.server.uploads
            if u.station == station and u.time >= start_s
        )
        if month_bytes / 1e6 > self.monthly_data_budget_mb:
            self._budget_flagged.add(month_key)
            self._alert(station, "data_budget",
                        f"{month_bytes / 1e6:.1f} MB this month exceeds "
                        f"{self.monthly_data_budget_mb:.0f} MB budget")

    def _daily_review(self):
        from repro.sim.simtime import next_time_of_day

        while True:
            yield self.sim.timeout(
                next_time_of_day(self.sim.now, self.review_hour) - self.sim.now
            )
            self.review_once()

    # ------------------------------------------------------------------
    # Release management
    # ------------------------------------------------------------------
    def push_release(self, release: CodeRelease) -> None:
        """Publish a release for the stations to pull."""
        self.server.publish_release(release)

    def release_status(self, release_name: str) -> str:
        """"installed" / "corrupt" / "pending" from the checksum channel."""
        release = self.server.get_release(release_name)
        if release is None:
            return "unknown"
        report = self.server.last_checksum_report(release_name)
        if report is None:
            return "pending"
        return "installed" if report[3] == release.md5 else "corrupt"

    def alerts_by_kind(self) -> Dict[str, int]:
        """Alert counts, for the daily operator summary."""
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
        return counts
