"""Deployment-level tests: determinism, failure injection, lessons-learnt."""

import dataclasses

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults
from repro.core.targets import POLICIES
from repro.lint.determinism import lines_digest, trace_lines
from repro.sim.simtime import DAY, HOUR


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = Deployment(DeploymentConfig(seed=33))
        b = Deployment(DeploymentConfig(seed=33))
        a.run_days(4)
        b.run_days(4)
        assert a.server.received_bytes() == b.server.received_bytes()
        assert a.base.readings_collected == b.base.readings_collected
        assert a.voltage_series("base") == b.voltage_series("base")

    def test_different_seed_differs(self):
        a = Deployment(DeploymentConfig(seed=33))
        b = Deployment(DeploymentConfig(seed=34))
        a.run_days(4)
        b.run_days(4)
        assert a.server.received_bytes() != b.server.received_bytes()

    def test_probe_lifetime_override_validated(self):
        with pytest.raises(ValueError, match="probe_lifetimes_days"):
            Deployment(DeploymentConfig(probe_lifetimes_days=[1.0, 2.0]))


class TestLogVolumeLesson:
    """Section VI: a probe reconnecting after months produces >1 MB of log."""

    def config(self, wired_lifetime):
        return DeploymentConfig(
            seed=44,
            probe_lifetimes_days=[10_000.0] * 7,
            wired_probe_lifetime_days=wired_lifetime,
        )

    def log_sizes_by_day(self, deployment):
        return {
            int(u.time // DAY): u.nbytes
            for u in deployment.server.uploads
            if u.station == "base" and u.kind == "logs"
        }

    OUTAGE_RUN_DAYS = 12  # wired probe dead from day 2: ~10 days of backlog

    def test_backlog_day_log_exceeds_a_megabyte(self):
        deployment = Deployment(self.config(wired_lifetime=2.0))
        deployment.run_days(self.OUTAGE_RUN_DAYS)
        quiet_logs = self.log_sizes_by_day(deployment)
        deployment.wired_probe.schedule_repair(deployment.sim.now)
        deployment.run_days(2)
        all_logs = self.log_sizes_by_day(deployment)
        # Days with no probe comms have small logs; the reconnect day's
        # per-packet logging blows past a megabyte.
        assert max(all_logs.values()) > 1_000_000
        assert max(quiet_logs.values()) < 200_000

    def test_trimmed_logging_fix(self):
        """The lesson applied: reduce per-reading verbosity before
        deployment and the reconnect log stays modest."""
        config = self.config(wired_lifetime=2.0)
        config.base.log_bytes_per_reading = 10.0
        deployment = Deployment(config)
        deployment.run_days(self.OUTAGE_RUN_DAYS)
        deployment.wired_probe.schedule_repair(deployment.sim.now)
        deployment.run_days(2)
        sizes = self.log_sizes_by_day(deployment)
        assert max(sizes.values()) < 300_000

    def test_log_transfer_costs_money(self):
        """The verbose log is paid for per megabyte over GPRS."""
        deployment = Deployment(self.config(wired_lifetime=2.0))
        deployment.run_days(self.OUTAGE_RUN_DAYS)
        cost_before = deployment.base.modem.cost_total
        deployment.wired_probe.schedule_repair(deployment.sim.now)
        deployment.run_days(2)
        cost_after = deployment.base.modem.cost_total
        assert cost_after - cost_before > deployment.base.modem.cost_per_mb  # >1 MB paid


class TestCfCorruptionResilience:
    def test_corrupted_card_does_not_crash_daily_cycle(self):
        deployment = Deployment(DeploymentConfig(seed=45))
        deployment.run_days(2)
        deployment.base.card.corrupted = True
        deployment.run_days(2)
        # The station keeps running and flags the condition...
        assert deployment.base.daily_runs == 4
        skips = deployment.sim.trace.select(source="base", kind="cf_corrupted_skipping_upload")
        assert len(skips) >= 1

    def test_recovery_resumes_uploads(self):
        deployment = Deployment(DeploymentConfig(seed=45))
        deployment.run_days(2)
        deployment.base.card.corrupted = True
        deployment.run_days(2)
        bytes_during = deployment.server.received_bytes(station="base")
        deployment.base.card.recover()
        deployment.run_days(2)
        assert deployment.server.received_bytes(station="base") > bytes_during


class TestGprsAccounting:
    def test_costs_accumulate_with_data(self):
        deployment = Deployment(DeploymentConfig(seed=46))
        deployment.run_days(5)
        base_mb = deployment.server.received_bytes(station="base") / 1e6
        # Billed at cost_per_mb for delivered payload (plus small control).
        assert deployment.base.modem.cost_total >= base_mb * deployment.base.modem.cost_per_mb * 0.95

    def test_state3_station_sends_about_2mb_per_day(self):
        deployment = Deployment(DeploymentConfig(seed=46))
        deployment.run_days(6)
        gps_bytes = deployment.server.received_bytes(station="base", kind="gps")
        per_day = gps_bytes / 5.0  # schedule active from day 1
        assert 1.2e6 < per_day < 3.0e6  # ~12 x 165 KB


class TestSeasonalEffects:
    def test_winter_reference_runs_on_battery_alone(self):
        """After 30 September the café loses power; with a mostly-buried
        panel the reference drains through October."""
        reference = reference_defaults()
        reference.solar_w = 1.0  # mostly-buried panel
        deployment = Deployment(DeploymentConfig(seed=47, reference=reference))
        deployment.run_days(30)  # 1 October: mains just ended
        soc_mains_end = deployment.reference.bus.battery.soc
        deployment.run_days(20)
        soc_late_october = deployment.reference.bus.battery.soc
        assert soc_late_october < soc_mains_end

    def test_probe_loss_rate_follows_melt_season(self):
        deployment = Deployment(DeploymentConfig(seed=48))
        september, january = deployment.glacier.probe_radio_loss(
            [deployment.sim.now + 10 * DAY, deployment.sim.now + 130 * DAY])
        assert september > january


class TestWatchdogUncleanShutdowns:
    def test_hung_comms_session_is_cut_and_next_day_continues(self):
        deployment = Deployment(DeploymentConfig(seed=49))

        # Sabotage day 2: make the modem hang forever mid-transfer by
        # dropping its rate to nearly zero for a day.
        def sabotage():
            deployment.base.modem.spec = type(deployment.base.modem.spec)(
                "GPRS Modem", power_w=2.64, transfer_rate_bps=0.5
            )

        def repair():
            from repro.energy.components import GPRS_MODEM

            deployment.base.modem.spec = GPRS_MODEM

        deployment.sim.call_at(1 * DAY + 6 * HOUR, sabotage)
        deployment.sim.call_at(2 * DAY + 6 * HOUR, repair)
        deployment.run_days(4)
        # The watchdog fired exactly once (the sabotaged day)...
        assert deployment.base.msp.watchdog_cuts == 1
        assert deployment.base.gumstix.unclean_shutdowns == 1
        # ...and later days completed normally.
        assert deployment.base.daily_runs >= 3
        completes = deployment.sim.trace.select(source="base.gumstix", kind="job_complete")
        assert any(r.time > 3 * DAY for r in completes)

    def test_unsent_files_carry_over_after_watchdog_cut(self):
        deployment = Deployment(DeploymentConfig(seed=49))

        def sabotage():
            deployment.base.modem.spec = type(deployment.base.modem.spec)(
                "GPRS Modem", power_w=2.64, transfer_rate_bps=0.5
            )

        def repair():
            from repro.energy.components import GPRS_MODEM

            deployment.base.modem.spec = GPRS_MODEM

        deployment.sim.call_at(1 * DAY + 6 * HOUR, sabotage)
        deployment.sim.call_at(2 * DAY + 6 * HOUR, repair)
        deployment.run_days(4)
        # Day 2's data was not lost: day 3+ upload volume includes it.
        day3_bytes = sum(
            u.nbytes for u in deployment.server.uploads
            if u.station == "base" and 2 * DAY < u.time
        )
        day1_bytes = sum(
            u.nbytes for u in deployment.server.uploads
            if u.station == "base" and u.time < 2 * DAY
        )
        assert day3_bytes > day1_bytes  # backlog + normal production


class TestTiltSensorsOption:
    def test_tilt_channels_reach_southampton(self):
        config = DeploymentConfig(seed=50, station_tilt_sensors=True)
        deployment = Deployment(config)
        deployment.run_days(3)
        from repro.server.archive import ScienceArchive

        archive = ScienceArchive(deployment.server)
        pitch = archive.sensor_series("base", "enclosure_pitch_deg")
        roll = archive.sensor_series("base", "enclosure_roll_deg")
        assert len(pitch) > 50 and len(roll) > 50

    def test_disabled_by_default(self):
        deployment = Deployment(DeploymentConfig(seed=50))
        deployment.run_days(2)
        from repro.server.archive import ScienceArchive

        archive = ScienceArchive(deployment.server)
        assert archive.sensor_series("base", "enclosure_pitch_deg") == []


class TestOneServer:
    """``servers=1`` is a fleet of one shard named "server", which every
    station reaches through its own client."""

    def test_policies_agree_on_a_fleet_of_one(self):
        digests = set()
        for policy in POLICIES:
            deployment = Deployment(DeploymentConfig(seed=5, extra_stations=2,
                                                     server_policy=policy))
            deployment.run_days(3)
            lines = trace_lines(deployment)
            assert not any("|fleet_hop|" in line or "server0" in line
                           for line in lines)
            digests.add(lines_digest(lines))
        assert len(digests) == 1


class TestTenancy:
    """``tenant_size`` confines the min rule to each station's tenant."""

    def mission(self, tenant_size):
        # A reference with no charging sinks to a low state within days.
        reference = dataclasses.replace(reference_defaults(), solar_w=0.0,
                                        mains_w=0.0, initial_soc=0.5)
        deployment = Deployment(DeploymentConfig(
            seed=7, reference=reference, tenant_size=tenant_size))
        deployment.run_days(4)
        return deployment

    @staticmethod
    def served(deployment):
        """(station, its own last uploaded state, override served) per
        override the server answered, read from the trace."""
        own, rows = {}, []
        for record in deployment.sim.trace.records:
            station = record.detail.get("station")
            if record.kind == "power_state_upload":
                own[station] = record.detail["state"]
            elif record.kind == "override_served":
                rows.append((station, own.get(station), record.detail["override"]))
        return rows

    def test_each_station_overridden_only_by_its_own_state(self):
        deployment = self.mission(tenant_size=1)
        served = self.served(deployment)
        assert {station for station, _own, _override in served} == {"base", "reference"}
        assert all(override == own for _station, own, override in served)
        reports = deployment.server.power_states
        assert reports.report_for("reference").state < reports.report_for("base").state
        assert int(deployment.base.effective_state) == reports.report_for("base").state
        assert {record.source for record in deployment.sim.trace.select(
            kind="override_served")} == {"server"}

    def test_without_tenancy_the_starved_station_pulls_the_base_down(self):
        served = self.served(self.mission(tenant_size=0))
        assert any(station == "base" and override < own
                   for station, own, override in served)
