"""Server-side power-state records and the min-override rule.

"When a station requests the override state from the server the server
looks up both the existing states from the stations and returns the lowest
one to the client" (Section III).  A manual override entered by the
operators participates in the same minimum; station-side safety clamps
(battery floor, no forced state 0) live in :mod:`repro.core.sync`, not
here — the server is deliberately simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass
class StateReport:
    """One station's most recent uploaded power state."""

    state: int
    reported_at: float


class Sequencer:
    """A shared monotonically-increasing id source.

    Fleet shards share one sequencer per id space (special-command ids,
    archive ingest order) so ids stay unique and totally ordered no matter
    which shard a station happens to talk to.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def next(self) -> int:
        """The next id (monotonically increasing from ``start``)."""
        value = self._next
        self._next += 1
        return value


class PowerStateStore:
    """Uploaded states per station plus an optional manual override.

    The paper's server applies the Section III minimum across *every*
    station.  ``tenant_of`` maps a station name to a tenant key and
    confines the min rule to the station's tenant, so one tenant's dying
    station cannot throttle another tenant's healthy one; without it every
    station is in one tenant.  A manual override still reaches everyone
    (operators act fleet-wide).
    """

    def __init__(self, tenant_of: Optional[Callable[[str], str]] = None) -> None:
        self._tenant_of = tenant_of
        self._tenants: Dict[Optional[str], Dict[str, StateReport]] = {}
        self.manual_override: Optional[int] = None

    def _reports(self, station: str) -> Dict[str, StateReport]:
        """The reports of ``station``'s tenant."""
        tenant = self._tenant_of(station) if self._tenant_of is not None else None
        reports = self._tenants.get(tenant)
        if reports is None:
            reports = self._tenants[tenant] = {}
        return reports

    def upload(self, station: str, state: int, time: float) -> None:
        """Record a station's locally-computed power state."""
        if not 0 <= state <= 3:
            raise ValueError(f"power state must be 0-3, got {state}")
        self._reports(station)[station] = StateReport(state=state, reported_at=time)

    def report_for(self, station: str) -> Optional[StateReport]:
        """The last report from ``station``, if any."""
        return self._reports(station).get(station)

    def set_manual_override(self, state: Optional[int]) -> None:
        """Operator override (``None`` clears it)."""
        if state is not None and not 0 <= state <= 3:
            raise ValueError(f"power state must be 0-3, got {state}")
        self.manual_override = state

    def override_for(self, station: str) -> Optional[int]:
        """The override the server returns to ``station``: the minimum of
        every known state in its tenant and the manual override.

        Returns ``None`` when the server knows nothing at all (a fresh
        deployment) — the station then runs on its local state.
        """
        candidates = [report.state for report in self._reports(station).values()]
        if self.manual_override is not None:
            candidates.append(self.manual_override)
        if not candidates:
            return None
        return min(candidates)

    def known_stations(self) -> Tuple[str, ...]:
        """Stations that have ever reported, across every tenant."""
        return tuple(sorted(
            station for reports in self._tenants.values() for station in reports
        ))
