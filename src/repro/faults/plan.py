"""Declarative fault plans: *what* breaks, *where*, and *when*.

A :class:`FaultPlan` is a list of typed :class:`FaultSpec` entries, each
naming a fault kind, a target station and a schedule.  Schedules come in
two shapes:

- **fixed**: ``at_s`` (plus ``duration_s`` for window faults) pins the
  fault to an exact simulated time;
- **stochastic**: ``count`` occurrences drawn uniformly from ``window``
  (a ``[start_s, end_s]`` range) using a dedicated named RNG stream, so
  the draws are a pure function of the master seed and the plan — the
  same seed and plan always produce the same fault times, and drawing
  them never perturbs any other subsystem's stream.

Plans load from plain dicts or JSON files (:meth:`FaultPlan.from_dict`,
:meth:`FaultPlan.from_json_file`) and round-trip back out
(:meth:`FaultPlan.to_dict`), so a plan can live in
``DeploymentConfig.fault_plan``, a ``--faults plan.json`` CLI flag, or a
fleet sweep grid interchangeably.

The *application* of a plan to a live deployment lives one module up in
:mod:`repro.faults.harness`; this module is pure data + resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Every fault kind the harness knows how to inject.
FAULT_KINDS = (
    "gprs-outage",
    "probe-loss-spike",
    "storage-corruption",
    "rtc-reset",
    "battery-drain",
    "server-outage",
)

#: Kinds that occupy a time *window* (everything else is an instant event).
WINDOW_KINDS = frozenset({"gprs-outage", "probe-loss-spike", "server-outage"})

#: Kinds that target one station (``server-outage`` hits everyone at once).
STATION_KINDS = frozenset(FAULT_KINDS) - {"server-outage"}


@dataclass
class FaultSpec:
    """One fault entry in a plan.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    station:
        Target station name (``"base"`` or ``"reference"``); ignored for
        ``server-outage``.
    at_s:
        Fixed start time in simulated seconds.  Mutually exclusive with
        ``window``.
    duration_s:
        Window length for :data:`WINDOW_KINDS`; ignored for event kinds.
    count:
        Number of stochastic occurrences drawn from ``window``.
    window:
        ``(start_s, end_s)`` sampling range for stochastic scheduling.
    loss:
        ``probe-loss-spike``: additive packet-loss probability during the
        window (clamped so the effective loss never exceeds 1).
    files:
        ``storage-corruption``: named files destroyed outright.  Empty
        means the whole card's corruption flag is raised instead.
    recover_after_s:
        ``storage-corruption`` (whole-card only): schedule the off-line
        recovery procedure this long after corruption.
    skew_s:
        ``rtc-reset``: if set, skew the clock by this many seconds instead
        of resetting it to 1970.
    energy_j:
        ``battery-drain``: joules withdrawn through the power bus.
    server:
        ``server-outage`` only: the index of the fleet shard to take down
        (``"server<N>"``).  ``None`` keeps the classic behaviour — the
        whole server side (every shard) goes dark at once.
    """

    kind: str
    station: str = "base"
    at_s: Optional[float] = None
    duration_s: float = 0.0
    count: int = 1
    window: Optional[Tuple[float, float]] = None
    loss: float = 0.5
    files: Tuple[str, ...] = ()
    recover_after_s: Optional[float] = None
    skew_s: Optional[float] = None
    energy_j: float = 0.0
    server: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if (self.at_s is None) == (self.window is None):
            raise ValueError(
                f"{self.kind}: exactly one of at_s / window must be given"
            )
        if self.at_s is not None and self.at_s < 0:
            raise ValueError(f"{self.kind}: at_s must be >= 0, got {self.at_s}")
        if self.window is not None:
            self.window = (float(self.window[0]), float(self.window[1]))
            if not 0 <= self.window[0] < self.window[1]:
                raise ValueError(f"{self.kind}: window must satisfy 0 <= start < end")
            if self.count < 1:
                raise ValueError(f"{self.kind}: count must be >= 1")
        if self.kind in WINDOW_KINDS and self.duration_s <= 0:
            raise ValueError(f"{self.kind}: duration_s must be > 0")
        if self.kind == "probe-loss-spike" and not 0.0 < self.loss <= 1.0:
            raise ValueError(f"probe-loss-spike: loss must be in (0, 1], got {self.loss}")
        if self.kind == "battery-drain" and self.energy_j <= 0:
            raise ValueError("battery-drain: energy_j must be > 0")
        if self.server is not None:
            if self.kind != "server-outage":
                raise ValueError(f"{self.kind}: server targets only apply to server-outage")
            if self.server < 0:
                raise ValueError(f"server-outage: server must be >= 0, got {self.server}")
        self.files = tuple(self.files)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSON wire format)."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind in STATION_KINDS:
            out["station"] = self.station
        if self.at_s is not None:
            out["at_s"] = self.at_s
        else:
            out["window"] = list(self.window)  # type: ignore[arg-type]
            out["count"] = self.count
        if self.kind in WINDOW_KINDS:
            out["duration_s"] = self.duration_s
        if self.kind == "probe-loss-spike":
            out["loss"] = self.loss
        if self.kind == "storage-corruption":
            if self.files:
                out["files"] = list(self.files)
            if self.recover_after_s is not None:
                out["recover_after_s"] = self.recover_after_s
        if self.kind == "rtc-reset" and self.skew_s is not None:
            out["skew_s"] = self.skew_s
        if self.kind == "battery-drain":
            out["energy_j"] = self.energy_j
        if self.kind == "server-outage" and self.server is not None:
            out["server"] = self.server
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSpec":
        """Build a spec from its dict form, rejecting unknown keys."""
        known = {
            "kind", "station", "at_s", "duration_s", "count", "window",
            "loss", "files", "recover_after_s", "skew_s", "energy_j", "server",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec key(s): {sorted(unknown)}")
        kwargs = dict(raw)
        if "window" in kwargs and kwargs["window"] is not None:
            kwargs["window"] = tuple(kwargs["window"])
        if "files" in kwargs:
            kwargs["files"] = tuple(kwargs["files"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ResolvedFault:
    """One concrete occurrence of a spec: fixed times, ready to inject."""

    kind: str
    station: str
    start_s: float
    end_s: float  # == start_s for event faults
    spec: FaultSpec


@dataclass
class FaultPlan:
    """An ordered collection of fault specs plus a stream name for draws."""

    specs: List[FaultSpec] = field(default_factory=list)
    name: str = "plan"

    def to_dict(self) -> Dict[str, Any]:
        """The canonical dict form (JSON-serialisable, round-trips)."""
        return {"name": self.name, "faults": [spec.to_dict() for spec in self.specs]}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — the digestable wire form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        """Parse the dict form; accepts the output of :meth:`to_dict`."""
        unknown = set(raw) - {"name", "faults"}
        if unknown:
            raise ValueError(f"unknown FaultPlan key(s): {sorted(unknown)}")
        specs = [FaultSpec.from_dict(entry) for entry in raw.get("faults", [])]
        return cls(specs=specs, name=str(raw.get("name", "plan")))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--faults plan.json`` format)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, rng_registry) -> List[ResolvedFault]:
        """Expand every spec into concrete occurrences, sorted by start time.

        Stochastic entries draw from the registry stream
        ``faults.<plan name>`` — one stream for the whole plan, consumed
        in spec order, so resolution is deterministic in (seed, plan) and
        independent of every other subsystem stream.
        """
        stream = rng_registry.stream(f"faults.{self.name}")
        resolved: List[ResolvedFault] = []
        for spec in self.specs:
            if spec.at_s is not None:
                starts: Sequence[float] = (spec.at_s,)
            else:
                lo, hi = spec.window  # type: ignore[misc]
                starts = sorted(
                    float(lo + stream.random() * (hi - lo)) for _ in range(spec.count)
                )
            duration = spec.duration_s if spec.kind in WINDOW_KINDS else 0.0
            for start in starts:
                resolved.append(
                    ResolvedFault(
                        kind=spec.kind,
                        station=(
                            spec.station if spec.kind in STATION_KINDS
                            else f"server{spec.server}" if spec.server is not None
                            else "*"
                        ),
                        start_s=start,
                        end_s=start + duration,
                        spec=spec,
                    )
                )
        resolved.sort(key=lambda f: (f.start_s, f.kind, f.station))
        return resolved


def canonical_chaos_plan() -> FaultPlan:
    """The CI chaos-smoke scenario: every fault kind over a 45-day mission.

    Times are fixed (the seed still drives the weather/link stochastics),
    so the scenario exercises each recovery path at a known point: a GPRS
    outage burst across two comms windows, a summer-grade probe loss
    spike, loss of the persisted last-run marker, a full RTC reset, an RTC
    skew on the reference station, a battery shock deep enough to matter
    and a day-long server outage.
    """
    day = 86400.0
    return FaultPlan(
        name="canonical-chaos",
        specs=[
            FaultSpec(kind="gprs-outage", station="base", at_s=2.0 * day,
                      duration_s=2.2 * day),
            FaultSpec(kind="probe-loss-spike", station="base", at_s=6.0 * day,
                      duration_s=3.0 * day, loss=0.75),
            FaultSpec(kind="storage-corruption", station="base", at_s=10.3 * day,
                      files=("state/last_run",)),
            FaultSpec(kind="rtc-reset", station="base", at_s=14.2 * day),
            FaultSpec(kind="rtc-reset", station="reference", at_s=18.6 * day,
                      skew_s=180.0),
            FaultSpec(kind="battery-drain", station="base", at_s=22.4 * day,
                      energy_j=6.0e6),
            FaultSpec(kind="server-outage", at_s=26.0 * day, duration_s=1.5 * day),
            FaultSpec(kind="gprs-outage", station="reference", count=2,
                      window=(30.0 * day, 40.0 * day), duration_s=0.8 * day),
        ],
    )
