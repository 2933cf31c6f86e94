"""The top-level facade: a full two-station Iceland deployment.

``Deployment`` wires up everything the paper describes: shared weather and
glacier, the Southampton server, the on-ice base station with its seven
probes and wired probe, and the café reference station.  This is the
library's primary entry point::

    from repro.core import Deployment, DeploymentConfig

    deployment = Deployment(DeploymentConfig(seed=42))
    deployment.run_days(30)
    print(deployment.base.effective_state)

The server side is always a :class:`~repro.server.fleet.ServerFleet` —
the paper's single Southampton box is a fleet of one — and every station
talks to it through its own policy-driven
:class:`~repro.core.targets.FleetClient`.  Beyond the paper's pair,
``extra_stations`` adds solar-only satellite stations, ``servers > 1``
shards the fleet and ``tenant_size`` confines the min rule to tenants.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.config import DeploymentConfig, StationConfig
from repro.core.station import BaseStation, ReferenceStation
from repro.core.targets import FleetClient
from repro.environment.glacier import GlacierModel
from repro.environment.weather import IcelandWeather
from repro.probes.probe import Probe, WiredProbe
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sensors.station_sensors import make_station_sensor_suite
from repro.server.fleet import ServerFleet, tenant_map
from repro.sim.kernel import Simulation

#: Stagger applied to each extra station's wake/comms hours, seconds.  A
#: prime-ish offset keeps hundreds of stations from dialling the fleet at
#: the same simulated instant (which would also create same-timestamp
#: ordering hazards on shared server state).
EXTRA_STATION_STAGGER_S = 97.0


def _extra_station_config(base: StationConfig, index: int) -> StationConfig:
    """A solar-only satellite station derived from the base config."""
    stagger_h = (index + 1) * EXTRA_STATION_STAGGER_S / 3600.0
    return dataclasses.replace(
        base,
        name=f"station{index:02d}",
        wind_w=0.0,
        mains_w=0.0,
        fixed_position_m=None,
        wake_hour=base.wake_hour + stagger_h,
        comms_hour=base.comms_hour + stagger_h,
    )


class Deployment:
    """A complete simulated deployment on Vatnajökull."""

    def __init__(self, config: Optional[DeploymentConfig] = None) -> None:
        self.config = config if config is not None else DeploymentConfig()
        cfg = self.config
        self.sim = Simulation(seed=cfg.seed, tie_break=cfg.tie_break)
        self.weather = IcelandWeather(cfg.weather, seed=cfg.seed)
        self.glacier = GlacierModel(cfg.glacier, seed=cfg.seed)

        # --- server side: one fleet, reached through per-station clients ---
        extra_configs = [
            _extra_station_config(cfg.base, index) for index in range(cfg.extra_stations)
        ]
        station_names = [cfg.base.name, cfg.reference.name] + [
            extra.name for extra in extra_configs
        ]
        tenant_of = (
            tenant_map(station_names, cfg.tenant_size) if cfg.tenant_size > 0 else None
        )
        self.server = ServerFleet(self.sim, cfg.servers, tenant_of=tenant_of)

        # --- probes ---
        lifetimes = cfg.probe_lifetimes_days or [None] * len(cfg.probe_ids)
        if len(lifetimes) != len(cfg.probe_ids):
            raise ValueError("probe_lifetimes_days must match probe_ids in length")
        self.probes: List[Probe] = [
            Probe(
                self.sim,
                probe_id=probe_id,
                sensors=make_probe_sensor_suite(self.glacier, probe_id, seed=cfg.seed),
                sampling_interval_s=cfg.probe_sampling_interval_s,
                lifetime_days=lifetime,
                clock_drift_ppm=cfg.probe_clock_drift_ppm,
            )
            for probe_id, lifetime in zip(cfg.probe_ids, lifetimes)
        ]
        self.wired_probe = WiredProbe(self.sim, lifetime_days=cfg.wired_probe_lifetime_days)

        # --- stations ---
        self.base = BaseStation(
            self.sim,
            cfg.base,
            self.weather,
            self._station_server(cfg.base.name, 0),
            glacier=self.glacier,
            probes=self.probes,
            wired_probe=self.wired_probe,
            sensors=make_station_sensor_suite(self.weather, seed=cfg.seed,
                                              with_tilt=cfg.station_tilt_sensors),
            probe_corruption_probability=cfg.probe_corruption_probability,
            probe_time_sync=cfg.probe_time_sync,
        )
        self.reference = ReferenceStation(
            self.sim,
            cfg.reference,
            self.weather,
            self._station_server(cfg.reference.name, 1),
            glacier=self.glacier,
            sensors=make_station_sensor_suite(self.weather, seed=cfg.seed + 1,
                                              with_tilt=cfg.station_tilt_sensors),
        )
        self.extras: List[ReferenceStation] = [
            ReferenceStation(
                self.sim,
                extra,
                self.weather,
                self._station_server(extra.name, 2 + index),
                glacier=self.glacier,
                sensors=make_station_sensor_suite(self.weather,
                                                  seed=cfg.seed + 2 + index,
                                                  with_tilt=cfg.station_tilt_sensors),
            )
            for index, extra in enumerate(extra_configs)
        ]
        #: The armed fault engine, set by the faults layer when a scenario
        #: carries a plan; None when no faults are armed.
        self.fault_engine = None

    def _station_server(self, station_name: str, station_index: int) -> FleetClient:
        """The station's own client onto the server fleet."""
        cfg = self.config
        # "static" and "hop" both start where the paper's stations did —
        # everyone dials *the* Southampton server (shard 0); hop then
        # steers away by load hints while static stays put.  Round-robin
        # spreads obliviously from a per-station offset.
        home = station_index if cfg.server_policy == "round-robin" else 0
        return FleetClient(
            self.sim,
            station_name,
            self.server,
            policy=cfg.server_policy,
            home=home,
            costs=cfg.server_costs,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_days(self, days: float) -> None:
        """Advance the simulation by ``days`` days."""
        self.sim.run_days(days)

    @property
    def stations(self):
        """Every station, base first, then reference, then the extras."""
        return (self.base, self.reference, *self.extras)

    # ------------------------------------------------------------------
    # Convenience queries used by examples and benches
    # ------------------------------------------------------------------
    def set_manual_override(self, state: Optional[int]) -> None:
        """Operator override on the Southampton server (None clears)."""
        self.server.set_manual_override(state)

    def voltage_series(self, station: str = "base"):
        """(time, volts) samples the station's MSP430 recorded (from trace)."""
        return self.sim.trace.series(
            "voltage_sample", "volts", source=f"{station}.msp430"
        )

    def state_series(self, station: str = "base"):
        """(time, effective_state) transitions a station applied."""
        return self.sim.trace.series("state_applied", "state", source=station)

    def surviving_probes(self) -> int:
        """How many probes still respond right now."""
        return sum(1 for probe in self.probes if probe.is_alive)
