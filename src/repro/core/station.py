"""The stations' daily run sequence — the paper's Fig 4 flowchart.

One daily cycle, driven by the MSP430 waking the Gumstix before the midday
communication window::

    Start
      └─ RTC untrusted?  -> recover clock (GPS / NTP), state 0, stop
      └─ Basestation?    -> get sub-glacial probe data
      └─ Get readings from MSP (voltage + sensor logs over I2C)
      └─ Calculate local power state (daily average vs Table II)
      └─ Power state = 0 -> stop (no comms at all)
      └─ Power state > 1 -> get GPS files (serial fetch from the dGPS)
      └─ Package data to be sent
      └─ Upload power state
      └─ Upload data (file by file, inside the watchdog window)
      └─ Get override power state (min rule + local safety clamps)
      └─ Get special -> execute (the deployed order; the
         ``special_before_data`` flag moves it before the upload, the
         paper's proposed fix)
      └─ Rewrite the MSP430 schedule for the effective state; record the
         successful run; stop.

The 2-hour safety maximum is enforced *outside* this code by the MSP430
cutting the rail — exactly why the ordering of upload vs special matters.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.comms.gprs import GprsModem
from repro.comms.link import LinkDown
from repro.comms.probe_radio import ProbeRadioLink
from repro.comms.transfer import upload_files
from repro.core.config import StationConfig
from repro.core.controller import decide_local_state
from repro.core.power_policy import PowerPolicy, PowerState
from repro.core.priority import DataPrioritizer
from repro.core.recovery import ScheduleRecovery
from repro.core.sync import StateSynchronizer
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.sources import MainsCharger, SolarPanel, WindTurbine
from repro.environment.glacier import GlacierModel
from repro.environment.seasons import cafe_has_power
from repro.environment.weather import IcelandWeather
from repro.gps.receiver import GpsReceiver
from repro.hardware.gumstix import Gumstix
from repro.hardware.i2c import I2CBus
from repro.hardware.msp430 import Msp430, ScheduleEntry
from repro.hardware.storage import CompactFlashCard, StorageCorruption
from repro.probes.commands import ProbeCommander
from repro.probes.probe import Probe, WiredProbe
from repro.protocol.bulk import BulkFetcher
from repro.protocol.framing import READING_BYTES, ReadingColumns
from repro.sim.kernel import Simulation

#: Wire size of one MSP sensor/voltage sample in the staged data files.
SAMPLE_BYTES = 10


class Station:
    """Common machinery of both stations (power, hardware, daily run)."""

    def __init__(
        self,
        sim: Simulation,
        config: StationConfig,
        weather: IcelandWeather,
        server,
        glacier: Optional[GlacierModel] = None,
        sensors: Optional[list] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.weather = weather
        self.server = server
        self.glacier = glacier
        name = config.name
        self.name = name

        # --- power ---
        self.bus = PowerBus(sim, Battery(config.battery, soc=config.initial_soc),
                            name=f"{name}.power")
        if config.solar_w > 0:
            self.bus.add_source(SolarPanel(weather, rated_w=config.solar_w,
                                           name=f"{name}.solar"))
        if config.wind_w > 0:
            self.bus.add_source(WindTurbine(weather, rated_w=config.wind_w,
                                            name=f"{name}.wind"))
        if config.mains_w > 0:
            self.bus.add_source(MainsCharger(cafe_has_power, rated_w=config.mains_w,
                                             name=f"{name}.mains"))

        # --- hardware ---
        self.msp = Msp430(
            sim, self.bus, name=f"{name}.msp430",
            sample_interval_s=config.sample_interval_s,
            max_gumstix_runtime_s=config.max_runtime_s,
            rtc_drift_ppm=config.rtc_drift_ppm,
            flash_default_schedule=[ScheduleEntry(config.wake_hour, "wake_gumstix")],
        )
        self.card = CompactFlashCard(
            capacity_bytes=4_000_000_000, name=f"{name}.cf",
            corruption_probability=config.cf_corruption_probability,
        )
        self.gumstix = Gumstix(sim, self.bus, name=f"{name}.gumstix",
                               boot_s=config.boot_s, cf_card=self.card)
        self.i2c = I2CBus(sim, self.msp, name=f"{name}.i2c")
        for sensor in (sensors or []):
            self.msp.attach_sensor(sensor)

        # --- dGPS ---
        if config.fixed_position_m is not None:
            fixed = config.fixed_position_m
            position_fn = lambda t: fixed  # noqa: E731 - tiny closure
        elif glacier is not None:
            position_fn = glacier.surface_position_m
        else:
            position_fn = lambda t: 0.0  # noqa: E731
        self.gps = GpsReceiver(sim, self.bus, name=f"{name}.gps",
                               position_fn=position_fn,
                               seed=zlib.crc32(name.encode()))

        # --- comms ---
        self.modem = GprsModem(
            sim, self.bus, name=f"{name}.gprs",
            outage_probability=config.gprs_outage_probability,
            summer_outage_probability=config.gprs_summer_outage_probability,
            melt_fraction_fn=glacier.melt_fraction if glacier is not None else None,
            seed=zlib.crc32(name.encode()),
        )
        self.sync = StateSynchronizer(sim, name, server, self.modem)
        self.recovery = ScheduleRecovery(
            sim, name, self.card, self.gps, self.i2c,
            ntp_fallback=config.ntp_fallback, gprs_modem=self.modem,
        )
        self.policy = PowerPolicy()
        # Table II threshold subscription: the bus predicts and flags the
        # power-state voltage edges (event-driven) instead of the thresholds
        # only ever being compared against polled samples.  Daily power-state
        # *decisions* still use the daily-average voltage, as deployed.
        for state, spec in sorted(self.policy.table.items()):
            if spec.min_threshold_v is not None:
                self.bus.watch_voltage(spec.min_threshold_v, f"state{int(state)}")

        # --- control state ---
        self.local_state = PowerState.S3
        self.effective_state = PowerState.S3
        self.installed_versions: Dict[str, int] = {}
        self.daily_runs = 0
        self.skipped_comms_days = 0
        self._outbox_counter = 0
        self._staged_special_outputs: List[dict] = []
        self._last_log_time = 0.0
        self._readings_this_session = 0

        # --- wiring ---
        self.msp.register_action("wake_gumstix",
                                 lambda: self.msp.supervise_gumstix(self.gumstix))
        self.msp.register_action("gps_reading", self._start_gps_reading)
        self.gumstix.on_boot = self.daily_run
        self.gumstix.on_power_off.append(self._on_gumstix_off)

    # ------------------------------------------------------------------
    # Rail hygiene
    # ------------------------------------------------------------------
    def _on_gumstix_off(self, clean: bool) -> None:
        # Peripherals driven by the Gumstix lose their session with it.  A
        # dGPS reading started by the MSP430 is *not* affected (that is the
        # whole point of MSP-driven dGPS), so only the modem rail is forced.
        self.modem.disconnect()

    # ------------------------------------------------------------------
    # MSP-driven dGPS (Section II: no Gumstix in the loop)
    # ------------------------------------------------------------------
    def _start_gps_reading(self) -> None:
        self.sim.process(
            self.gps.take_reading(self.policy.gps_reading_duration_s),
            name=f"{self.name}.gps_reading",
        )

    # ------------------------------------------------------------------
    # Schedule management
    # ------------------------------------------------------------------
    def apply_state(self, state: PowerState) -> None:
        """Rewrite the MSP430 schedule for ``state`` (wake + dGPS slots)."""
        if state != self.effective_state:
            self.sim.obs.metrics.inc("power_state_transitions_total",
                                     station=self.name, state=int(state))
        self.sim.obs.metrics.set_gauge("power_effective_state", float(int(state)),
                                       station=self.name)
        self.effective_state = state
        entries = [ScheduleEntry(self.config.wake_hour, "wake_gumstix")]
        entries.extend(
            ScheduleEntry(hour, "gps_reading") for hour in self.policy.gps_hours(state)
        )
        self.i2c.set_schedule(entries)
        self.sim.trace.emit(self.name, "state_applied", state=int(state))

    # ------------------------------------------------------------------
    # Data staging
    # ------------------------------------------------------------------
    def _stage_file(self, kind: str, size_bytes: int, payload=None,
                    artifact=None, probe=None, task=None, seqs=None) -> str:
        self._outbox_counter += 1
        name = f"outbox/{kind}/{self._outbox_counter:06d}"
        self.card.write(name, size_bytes, created=self.sim.now, payload=payload)
        # Provenance: the outbox file is born queued; ``artifact`` (a gps
        # observation) or ``probe``/``task``/``seqs`` (readings) name the
        # science data it carries.  The dedicated "prov" source keeps these
        # records out of the station's log-volume accounting, so staging
        # telemetry cannot change simulated log sizes.
        detail = {"station": self.name, "file": name, "file_kind": kind,
                  "bytes": size_bytes}
        if artifact is not None:
            detail["artifact"] = artifact
        if probe is not None:
            detail["probe"] = probe
            detail["task"] = task
            # The fetch's own list, shared with its ``fetch_done`` record.
            detail["seqs"] = seqs if seqs is not None else ()
        self.sim.trace.emit("prov", "queued", **detail)
        return name

    def _stage_msp_data(self, voltage_log, sensor_log) -> None:
        if voltage_log:
            self._stage_file("sensors", SAMPLE_BYTES * len(voltage_log),
                             payload={"voltages": voltage_log})
        if sensor_log:
            self._stage_file("sensors", SAMPLE_BYTES * len(sensor_log),
                             payload={"sensors": sensor_log})

    def _stage_log_file(self) -> None:
        # The daily logfile: all messages/errors since the last staged log,
        # plus any special-command output (which is how special results
        # reach Southampton — a day late, Section VI).  Per-packet logging
        # around probe communications dominates: a big backlog day produces
        # a huge log (the Section VI >1 MB lesson).
        trace_bytes = self.sim.trace.byte_size(
            source=self.name, start=self._last_log_time, end=self.sim.now
        )
        verbose_bytes = int(
            self.config.log_bytes_per_reading * self._readings_this_session
        )
        self._readings_this_session = 0
        self._last_log_time = self.sim.now
        size = self.config.log_base_bytes + trace_bytes + verbose_bytes
        payload = {"special_outputs": list(self._staged_special_outputs)}
        self._staged_special_outputs.clear()
        self._stage_file("logs", size, payload=payload)

    # ------------------------------------------------------------------
    # The daily run (Fig 4)
    # ------------------------------------------------------------------
    def daily_run(self):
        """Process body for one Gumstix power cycle.

        The whole cycle is one top-level observability span on the
        station's track, so a dGPS-read -> upload day renders as a single
        tree in the Chrome trace (probe jobs, GPS collection and the
        comms session are its children).
        """
        with self.sim.obs.span("daily_run", track=self.name):
            yield from self._daily_run_body()

    def _daily_run_body(self):
        # Bound-method caching (docs/performance.md): the daily run is the
        # busiest process in the system, so the trace/metrics dispatch is
        # resolved once per cycle instead of per call.
        sim = self.sim
        emit = sim.trace.emit
        inc = sim.obs.metrics.inc
        emit(self.name, "run_start")

        # --- Section IV: automatic schedule resetting ---
        if not self.recovery.rtc_trusted():
            emit(self.name, "rtc_untrusted")
            ok = yield sim.process(self.recovery.recover_clock())
            if ok:
                self.apply_state(PowerState.S0)
                self.recovery.record_successful_run()
            return

        # --- probe jobs (base station only; every power state) ---
        yield from self._probe_jobs()

        # --- readings from the MSP ---
        voltage_log = self.i2c.read_voltage_log()
        sensor_log = self.i2c.read_sensor_log()
        self._stage_msp_data(voltage_log, sensor_log)

        # --- local power state ---
        local_state, voltage_used = decide_local_state(
            self.policy, voltage_log, self.i2c.read_battery_voltage()
        )
        self.local_state = local_state
        emit(self.name, "local_state", state=int(local_state),
             voltage=round(voltage_used, 3))

        # --- state 0: sensing only, no comms (unless urgent data forces
        # a minimal priority upload — the Section VII extension) ---
        if local_state == PowerState.S0:
            self.skipped_comms_days += 1
            yield from self._maybe_priority_comms()
            self.apply_state(PowerState.S0)
            self.recovery.record_successful_run()
            self.daily_runs += 1
            inc("daily_runs_total", station=self.name)
            return

        # --- GPS files (states 2 and 3) ---
        if local_state > PowerState.S1:
            yield from self._collect_gps_files()
            if self.config.daily_rtc_sync:
                yield from self._discipline_rtc()

        # --- package data ---
        self._stage_log_file()
        effective = yield from self._comms_session(local_state)

        # --- schedule + bookkeeping ---
        self.apply_state(effective)
        self.recovery.record_successful_run()
        self.daily_runs += 1
        inc("daily_runs_total", station=self.name)

    # ------------------------------------------------------------------
    # Fig 4 steps
    # ------------------------------------------------------------------
    def _probe_jobs(self):
        """Base-station hook; the reference station has no probes."""
        return
        yield  # pragma: no cover - makes this a generator

    def _maybe_priority_comms(self):
        """Base-station hook for Section VII data-priority comms."""
        return
        yield  # pragma: no cover - makes this a generator

    def _discipline_rtc(self):
        """Routine RTC correction from a GPS time fix (Section II).

        Runs only when the dGPS is in use anyway (states 2-3); a failed
        fix is harmless — tomorrow's run tries again.
        """
        from repro.gps.receiver import TimeFixFailed

        try:
            fix = yield self.sim.process(self.gps.time_fix())
        except TimeFixFailed:
            return
        self.i2c.set_rtc(fix)

    def _collect_gps_files(self):
        """Serial-fetch every pending dGPS file onto the station CF card.

        An RS-232 fault aborts the rest of the day's fetches (the cable is
        flaky; unfetched files stay on the receiver for tomorrow).
        """
        with self.sim.obs.span("gps_collect", track=self.name):
            for stored in self.gps.pending_files():
                try:
                    fetched = yield self.sim.process(self.gps.fetch_file(stored.name))
                except IOError:
                    self.sim.trace.emit(self.name, "gps_fetch_aborted")
                    return
                self._stage_file("gps", fetched.size_bytes, payload=fetched.payload,
                                 artifact=f"gps:{stored.name}")

    def _comms_session(self, local_state: PowerState):
        """Connect, upload state + data, fetch override and special."""
        with self.sim.obs.span("comms_session", track=self.name):
            effective = yield from self._comms_session_body(local_state)
        return effective

    def _comms_session_body(self, local_state: PowerState):
        inc = self.sim.obs.metrics.inc
        # Re-run the upload-target policy before dialling: the whole
        # session sticks to the shard chosen here.
        self.server.begin_session()
        try:
            yield self.sim.process(self.modem.connect())
        except LinkDown:
            self.modem.disconnect()
            inc("comms_sessions_total", station=self.name, result="connect_failed")
            self.sim.trace.emit(self.name, "comms_failed")
            return local_state

        outcome = "ok"
        effective = local_state
        try:
            batched = self.config.batched_sync
            if batched:
                # One request: state up, override down, special drained.
                effective, _override, special, _loads = (
                    yield from self.sync.batched_sync(local_state)
                )
                if special is not None and self.config.special_before_data:
                    self._execute_special(special)
            else:
                # Upload power state (before data, per Fig 4).
                yield from self.sync.upload_state(local_state)
                special = None

            if not batched and self.config.special_before_data:
                yield from self._special_step()

            # Upload data, file by file.  Ingestion happens per completed
            # file (scp semantics): data that made it across has arrived in
            # Southampton even if the watchdog cuts the session afterwards.
            try:
                outbox = self.card.list_files("outbox/")
            except StorageCorruption:
                outbox = []
                self.sim.trace.emit(self.name, "cf_corrupted_skipping_upload")

            def ingest(stored) -> None:
                kind = stored.name.split("/")[1]
                self.server.upload_data(self.name, stored.size_bytes, kind=kind,
                                        payload=stored.payload, name=stored.name)
                self.card.delete(stored.name)

            result = yield self.sim.process(
                upload_files(self.sim, self.modem, outbox,
                             window_s=self.config.max_runtime_s,
                             on_file_sent=ingest)
            )
            if result.link_lost:
                outcome = "link_lost"
                # A special drained by the batched sync is already on the
                # station — losing the link afterwards doesn't lose it.
                if batched and special is not None and not self.config.special_before_data:
                    self._execute_special(special)
                return effective

            if not batched:
                # Override state (after data, per Fig 4's split placement).
                effective, _override = yield from self.sync.fetch_override(local_state)
                if not self.config.special_before_data:
                    yield from self._special_step()
            elif special is not None and not self.config.special_before_data:
                self._execute_special(special)

            # §VI auto-update: pull any newer published code, verify its
            # checksum, install on match, report the MD5 immediately.
            if self.config.auto_update:
                yield from self._auto_update_step()
        except LinkDown:
            outcome = "dropped"
            self.sim.trace.emit(self.name, "comms_dropped")
        finally:
            inc("comms_sessions_total", station=self.name, result=outcome)
            self.modem.disconnect()
        return effective

    def _auto_update_step(self):
        from repro.server.deployment import verify_and_install

        for name in sorted(self.server.releases):
            release = self.server.releases[name]
            if release.version <= self.installed_versions.get(name, 0):
                continue
            yield self.sim.process(
                verify_and_install(
                    self.sim, self.modem, self.server, self.name, name,
                    self.installed_versions,
                    corruption_probability=self.config.code_corruption_probability,
                )
            )

    def _special_step(self):
        """Download and execute the one-shot special command, if any."""
        yield self.sim.process(self.modem.send(2048, label="special"))
        special = self.server.get_special(self.name)
        if special is None:
            return
        self._execute_special(special)

    def _execute_special(self, special) -> None:
        """Run an already-downloaded special and stage its output."""
        output = special.script()
        self.sim.trace.emit(self.name, "special_executed", command=special.command_id)
        self._staged_special_outputs.append(
            {
                "command_id": special.command_id,
                "staged_at": special.staged_at,
                "executed_at": self.sim.now,
                "output": output,
            }
        )


class ReferenceStation(Station):
    """The fixed dGPS reference point at the café (Section II)."""


class BaseStation(Station):
    """The on-ice station: probes, wired probe, and the sub-glacial fetch."""

    def __init__(
        self,
        sim: Simulation,
        config: StationConfig,
        weather: IcelandWeather,
        server,
        glacier: GlacierModel,
        probes: List[Probe],
        wired_probe: Optional[WiredProbe] = None,
        sensors: Optional[list] = None,
        probe_corruption_probability: float = 0.0,
        probe_time_sync: bool = True,
    ) -> None:
        super().__init__(sim, config, weather, server, glacier=glacier, sensors=sensors)
        self.probes = probes
        self.wired_probe = wired_probe if wired_probe is not None else WiredProbe(sim)
        self.fetcher = BulkFetcher(sim)
        self.commander = ProbeCommander(sim)
        self.probe_time_sync = probe_time_sync
        self.prioritizer = DataPrioritizer() if config.data_priority_comms else None
        self.priority_uploads = 0
        self._todays_analysis: List[dict] = []
        self._todays_probe_ids: List[int] = []
        self.probe_links: Dict[int, ProbeRadioLink] = {
            probe.probe_id: ProbeRadioLink(
                sim, loss_fn=glacier.probe_radio_loss,
                name=f"{self.name}.probe_link.{probe.probe_id}",
                corruption_probability=probe_corruption_probability,
            )
            for probe in probes
        }
        self.readings_collected = 0

    def _probe_jobs(self):
        """Fetch buffered data from every live probe (all power states)."""
        with self.sim.obs.span("probe_jobs", track=self.name):
            yield from self._probe_jobs_body()

    def _probe_jobs_body(self):
        self._todays_analysis = []
        self._todays_probe_ids = []
        if not self.wired_probe.is_alive:
            self.sim.trace.emit(self.name, "probe_comms_impossible", reason="wired_probe")
            return
        alive = [probe for probe in self.probes if probe.is_alive]
        if not alive:
            return
        # Keep probe work inside ~40% of the watchdog window so uploads fit.
        budget_each = 0.4 * self.config.max_runtime_s / len(alive)
        for probe in alive:
            link = self.probe_links[probe.probe_id]
            with self.sim.obs.span("probe_fetch", track=self.name,
                                   probe_id=probe.probe_id):
                result = yield self.sim.process(
                    self.fetcher.fetch(probe, link, budget_s=budget_each)
                )
            if result.received_new or result.complete:
                self._todays_probe_ids.append(probe.probe_id)
                # Keep the probe's clock anchored while we can talk to it
                # (its timestamps are meaningless otherwise).
                if self.probe_time_sync:
                    yield self.sim.process(self.commander.time_sync(probe, link))
            if result.received_new:
                self.readings_collected += result.received_new
                self._readings_this_session += result.received_new
                if self.prioritizer is not None and result.task_id is not None:
                    holdings = self.fetcher.holdings(probe.probe_id, result.task_id)
                    self._todays_analysis.extend(
                        {"probe_id": probe.probe_id, "channels": reading.channels}
                        for reading in holdings.values()
                    )
            # Each file carries exactly the readings it counts: every one the
            # fetcher holds that no file carries yet, so readings a killed
            # session received ride the next file too.
            for task_id, readings in self.fetcher.take_unstaged(probe.probe_id):
                seqs = (result.new_seqs
                        if task_id == result.task_id
                        and len(readings) == len(result.new_seqs)
                        else [reading.seq for reading in readings])
                self._stage_file(
                    "probes",
                    READING_BYTES * len(readings),
                    probe=probe.probe_id,
                    task=task_id,
                    seqs=seqs,
                    payload={
                        "probe_id": probe.probe_id,
                        "task_id": task_id,
                        "count": len(readings),
                        "readings": ReadingColumns.of(readings),
                    },
                )

    def _maybe_priority_comms(self):
        """Section VII extension: urgent findings force a minimal upload.

        Runs only in power state 0 (the normal states upload everything
        anyway).  The upload is deliberately tiny — the event summary and
        the triggering probe's latest readings — and is rationed by the
        prioritizer's monthly budget, because this is power the Table II
        policy says the station cannot really afford.
        """
        if self.prioritizer is None:
            return
        events = self.prioritizer.analyse(self._todays_analysis, self._todays_probe_ids)
        month = self.sim.utcnow().month
        if not self.prioritizer.should_force_comms(events, month):
            return
        self.sim.trace.emit(
            self.name, "priority_comms",
            events=[(e.kind, e.probe_id) for e in events],
        )
        try:
            yield self.sim.process(self.modem.connect())
            summary_bytes = 2048 + 64 * len(events)
            yield self.sim.process(self.modem.send(summary_bytes, label="priority"))
            self.server.upload_data(
                self.name, summary_bytes, kind="priority",
                payload={
                    "events": [
                        {"kind": e.kind, "probe_id": e.probe_id, "detail": e.detail}
                        for e in events
                    ]
                },
            )
            self.priority_uploads += 1
        except LinkDown:
            self.sim.trace.emit(self.name, "priority_comms_failed")
        finally:
            self.modem.disconnect()
