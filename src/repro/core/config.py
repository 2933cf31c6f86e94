"""Deployment configuration: every tunable, with the paper's defaults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.energy.battery import BatteryConfig
from repro.environment.glacier import GlacierConfig
from repro.environment.weather import WeatherConfig


@dataclass
class StationConfig:
    """One station's hardware and software settings.

    The defaults describe the base station; :func:`reference_defaults`
    builds the reference-station variant (no wind turbine or probes, café
    mains instead).
    """

    name: str = "base"
    #: Daily communication window start, hours UTC ("daily, at midday UTC").
    comms_hour: float = 12.0
    #: MSP430 wakes the Gumstix slightly before the window for boot + probe work.
    wake_hour: float = 11.75
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    #: Solar panel rating (10 W on the base station).
    solar_w: float = 10.0
    #: Wind turbine rating (50 W on the base station; 0 = not fitted).
    wind_w: float = 50.0
    #: Mains charger rating (reference station only; 0 = not fitted).
    mains_w: float = 0.0
    #: Gumstix boot time, seconds.
    boot_s: float = 60.0
    #: MSP430 battery/sensor sampling period (paper: 30 minutes).
    sample_interval_s: float = 1800.0
    #: The emergency maximum runtime (paper: 2 hours).
    max_runtime_s: float = 7200.0
    #: RTC drift, ppm (clock skew between the stations comes from here).
    rtc_drift_ppm: float = 0.0
    #: Initial battery state of charge.
    initial_soc: float = 0.9
    #: GPRS whole-day outage probability (winter baseline).
    gprs_outage_probability: float = 0.08
    #: GPRS whole-day outage probability at full melt.
    gprs_summer_outage_probability: float = 0.18
    #: Execute the special command before the data upload (the paper's
    #: proposed fix for the oversized-backlog livelock); the deployed system
    #: ran it after.
    special_before_data: bool = False
    #: Enable the NTP-over-GPRS clock fallback (paper future work).
    ntp_fallback: bool = False
    #: Re-discipline the RTC from a GPS time fix during the daily run.
    #: "Maintaining good time accuracy on the two units is still needed"
    #: (Section II) — without this, drifting RTCs slide the two stations'
    #: MSP-driven dGPS windows apart until differencing becomes impossible.
    daily_rtc_sync: bool = True
    #: Enable data-priority communication (paper future work, §VII):
    #: urgent findings in the probe data can force a minimal upload even
    #: in power state 0.
    data_priority_comms: bool = False
    #: Fixed position of the station's GPS antenna, or None to ride the ice.
    fixed_position_m: Optional[float] = None
    #: CF-card corruption probability per unclean power removal.
    cf_corruption_probability: float = 0.01
    #: Automatically pull newer code releases during the daily session
    #: (the §VI update scripts: download, checksum, install, report MD5).
    auto_update: bool = True
    #: Probability a code download is corrupted in transit.
    code_corruption_probability: float = 0.0
    #: Log bytes emitted per probe reading handled in a session.  The
    #: deployed binaries were chatty: "when a probe is communicated with
    #: for the first time in a few months then over 1 megabyte of log data
    #: can be produced" — 3000 readings x ~400 B of per-packet logging.
    #: Section VI's lesson is to trim this before deployment.
    log_bytes_per_reading: float = 400.0
    #: Fixed daily log overhead, bytes.
    log_base_bytes: int = 4096
    #: Fold state upload + override fetch + special drain into one
    #: ``sync_session`` request per contact (the fleet's batched state-sync
    #: endpoint); ``False`` keeps the paper's three separate round-trips.
    batched_sync: bool = False


def reference_defaults(name: str = "reference") -> StationConfig:
    """The reference station: solar + café mains, no wind, fixed position."""
    return StationConfig(
        name=name,
        wind_w=0.0,
        mains_w=30.0,
        fixed_position_m=0.0,
    )


@dataclass
class DeploymentConfig:
    """The full two-station Iceland deployment."""

    seed: int = 0
    base: StationConfig = field(default_factory=StationConfig)
    reference: StationConfig = field(default_factory=lambda: reference_defaults())
    weather: WeatherConfig = field(default_factory=WeatherConfig)
    glacier: GlacierConfig = field(default_factory=GlacierConfig)
    #: Probe ids deployed in summer 2008 (seven; Fig 6 shows 21, 24, 25).
    probe_ids: Tuple[int, ...] = (20, 21, 22, 23, 24, 25, 26)
    #: Probe measurement period.
    probe_sampling_interval_s: float = 1800.0
    #: Fixed probe lifetimes in days (None entries draw from the Weibull).
    probe_lifetimes_days: Optional[List[Optional[float]]] = None
    #: Wired-probe lifetime (None = never fails).
    wired_probe_lifetime_days: Optional[float] = None
    #: Probability a probe packet arrives broken (CRC failure) — Section V
    #: counts "missing or broken" packets together; the link keeps them
    #: apart in its statistics.
    probe_corruption_probability: float = 0.015
    #: Probe oscillator drift, ppm (their cheap crystals wander; the base
    #: re-syncs them at each contact).
    probe_clock_drift_ppm: float = 25.0
    #: Whether the base time-syncs each probe after a successful contact.
    probe_time_sync: bool = True
    #: Fit the §VII enclosure pitch/roll sensors on both stations.
    station_tilt_sensors: bool = False
    #: Fault plan to arm against this deployment, as the plain-dict form of
    #: :class:`repro.faults.FaultPlan`.  Data only: the core layer never
    #: interprets it — ``repro.faults.apply_fault_plan`` arms it before
    #: running, preserving the §7 downward-imports rule.
    fault_plan: Optional[dict] = None
    #: Kernel tie-break policy for same-timestamp events: ``"fifo"``
    #: (default), ``"lifo"``, or ``"shuffle:<seed>"``.  The perturbed
    #: policies are replay *controls* for the tie replay in ``repro-sim
    #: verify`` (``repro.lint.tie_replay``); production runs keep fifo.
    tie_break: str = "fifo"
    #: Additional solar-only stations beyond the paper's base + reference
    #: pair (``station00``, ``station01``, ...), each with its wake/comms
    #: window staggered so contacts spread across the day.
    extra_stations: int = 0
    #: Southampton server shards in the deployment's
    #: :class:`repro.server.fleet.ServerFleet`.  1 (default) is the paper's
    #: single server (one shard named ``"server"``); every station reaches
    #: the fleet through a policy-driven
    #: :class:`repro.core.targets.FleetClient`.
    servers: int = 1
    #: Station-side upload-target policy against a fleet: ``"static"``
    #: (stay on the home shard), ``"round-robin"``, or ``"hop"``
    #: (commons-style least-loaded/cheapest choice from piggybacked load
    #: hints).  Ignored when ``servers == 1``.
    server_policy: str = "static"
    #: Relative energy/egress cost per shard for the ``hop`` policy
    #: (len == ``servers``); ``None`` means all shards cost 1.0.
    server_costs: Optional[List[float]] = None
    #: Stations per tenant for the fleet's per-tenant override state
    #: (grouped in deployment order).  0 keeps the paper's single global
    #: min rule across all stations.
    tenant_size: int = 0
