"""Tests for the Southampton science/health archive."""

import hashlib

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.server.archive import ScienceArchive
from repro.sim.simtime import DAY


@pytest.fixture(scope="module")
def week():
    """A week of deployment plus its archive (built once: read-only tests)."""
    deployment = Deployment(DeploymentConfig(seed=77, probe_lifetimes_days=[10_000.0] * 7))
    deployment.run_days(8)
    return deployment, ScienceArchive(deployment.server)


class TestRawExtraction:
    def test_gps_readings_recovered(self, week):
        deployment, archive = week
        base_readings = archive.gps_readings("base")
        ref_readings = archive.gps_readings("reference")
        # State 3 from day 1: ~12/day uploaded daily from day 2.
        assert len(base_readings) > 50
        assert len(ref_readings) > 50
        times = [r.start_time for r in base_readings]
        assert times == sorted(times)

    def test_probe_series_carries_conductivity(self, week):
        _deployment, archive = week
        series = archive.probe_series("conductivity_us")
        assert len(series) >= 5  # most probes completed at least one task
        for probe_id, values in series.items():
            assert all(v >= 0 for _t, v in values)

    def test_probe_series_pinned(self):
        """Every probe channel, in arrival order, byte for byte: 2-min
        sampling for 3 days puts several hundred readings per probe into
        the archive through the staged probe payloads."""
        deployment = Deployment(DeploymentConfig(seed=3, probe_sampling_interval_s=120.0))
        deployment.run_days(3)
        archive = ScienceArchive(deployment.server)
        digests = {}
        for channel in ("conductivity_us", "tilt_deg", "pressure_m"):
            series = archive.probe_series(channel)
            assert sum(map(len, series.values())) > 2000
            digests[channel] = hashlib.sha256(
                repr(list(series.items())).encode()).hexdigest()[:16]
        assert digests == {
            "conductivity_us": "33ad70a6d7796e4d",
            "tilt_deg": "c48acd876496c799",
            "pressure_m": "b49168489147e722",
        }

    def test_every_archived_reading_reaches_the_series(self):
        """Each staged probes file carries the readings it counts, so on a
        mission without faults every reading the provenance ledger calls
        archived has its values in the archive, once per channel."""
        deployment = Deployment(DeploymentConfig(seed=0, probe_sampling_interval_s=120.0))
        deployment.run_days(2)
        report = deployment.sim.obs.finalise(deployment.sim)
        assert report.ok and report.lost == 0
        archived = report.by_class["reading"]["archived"]
        assert archived > 2000
        archive = ScienceArchive(deployment.server)
        for channel in ("conductivity_us", "tilt_deg", "pressure_m"):
            values = sum(map(len, archive.probe_series(channel).values()))
            assert values == archived, channel

    def test_readings_of_a_killed_fetch_reach_the_series(self):
        """A watchdog cut in the middle of a stream kills the fetch before
        the station stages what it received.  The next file staged for the
        probe carries those readings, so the archive ends up with every
        reading of the task exactly once, and the ledger archives them."""
        deployment = Deployment(DeploymentConfig(seed=0, probe_sampling_interval_s=120.0))
        base = deployment.base
        probe = next(probe for probe in base.probes if probe.probe_id == 20)
        cut = {}

        def cut_mid_fetch():
            task = cut["task"] = probe.task()
            key = (probe.probe_id, task.task_id)
            cut["held"] = len(base.fetcher.store.get(key, ()))
            cut["fetched"] = [record for record in deployment.sim.trace.select(
                kind="fetch_done") if (record.detail["probe"],
                                       record.detail["task"]) == key]
            base.gumstix.power_off(clean=False)

        # Seed 0 streams probe 20's first task over about 42,362-42,389 s;
        # its first burst of readings lands at about 42,381 s.
        deployment.sim.call_at(42_385.0, cut_mid_fetch)
        deployment.run_days(4)
        # The cut landed inside the fetch, after some readings arrived.
        assert cut["held"] > 0 and not cut["fetched"]
        assert probe.tasks_completed >= 1
        times = [time for time, _value in
                 ScienceArchive(deployment.server).probe_series("conductivity_us")[20]]
        assert len(times) == len(set(times))
        assert {reading.time for reading in cut["task"].readings} <= set(times)
        report = deployment.sim.obs.finalise(deployment.sim)
        values = sum(map(len, ScienceArchive(deployment.server)
                         .probe_series("conductivity_us").values()))
        assert values == report.by_class["reading"]["archived"]

    def test_sensor_series(self, week):
        _deployment, archive = week
        snow = archive.sensor_series("base", "snow_depth_m")
        assert len(snow) > 100  # 48/day
        assert all(0 <= v <= 2.5 for _t, v in snow)

    def test_voltage_series(self, week):
        _deployment, archive = week
        volts = archive.voltage_series("base")
        assert len(volts) > 200
        assert all(10.0 < v < 15.0 for _t, v in volts)


class TestDgpsScience:
    def test_solutions_mostly_differential(self, week):
        """Both stations run the same MSP-driven schedule, so nearly every
        base reading should pair with a simultaneous reference reading."""
        _deployment, archive = week
        assert archive.differential_fraction() > 0.9

    def test_daily_velocity_recovers_truth(self, week):
        deployment, archive = week
        velocities = archive.daily_velocity()
        assert len(velocities) >= 3
        mean_v = sum(v for _d, v in velocities) / len(velocities)
        truth = deployment.glacier.surface_position_m(7 * DAY) / 7.0
        assert mean_v == pytest.approx(truth, rel=0.4)

    def test_stick_slip_detection_returns_days(self, week):
        _deployment, archive = week
        days = archive.stick_slip_days(sigma=1.5)
        assert isinstance(days, list)  # may be empty in a quiet week

    def test_empty_server_graceful(self):
        from repro.server.fleet import ServerFleet
        from repro.sim import Simulation

        archive = ScienceArchive(ServerFleet(Simulation(), 1))
        assert archive.solutions() == []
        assert archive.differential_fraction() == 0.0
        assert archive.daily_velocity() == []
        assert archive.stick_slip_days() == []


class TestHealthMonitoring:
    def test_battery_minima_trend(self, week):
        _deployment, archive = week
        minima = archive.battery_daily_minima("base")
        assert len(minima) >= 5
        assert all(10.0 < v < 15.0 for _d, v in minima)

    def test_battery_declining_detects_starvation(self):
        from repro.core.config import StationConfig

        base = StationConfig(solar_w=0.0, wind_w=0.0, initial_soc=0.8)
        deployment = Deployment(DeploymentConfig(seed=78, base=base))
        deployment.run_days(10)
        archive = ScienceArchive(deployment.server)
        assert archive.battery_declining("base")

    def _minima_archive(self, daily_minima):
        """An archive whose daily voltage minima are exactly the given list."""
        from repro.server.fleet import ServerFleet
        from repro.sim import Simulation

        fleet = ServerFleet(Simulation(seed=0), 1)
        voltages = [(day * 24.0 + 6.0, volts)
                    for day, volts in enumerate(daily_minima)]
        fleet.shard(0).upload_data("base", 1000, kind="sensors",
                                   payload={"voltages": voltages})
        return ScienceArchive(fleet)

    def test_noisy_but_flat_trend_not_flagged(self):
        """Symmetric noise with a slightly-low last sample: the endpoint
        comparison the old code used would flag this; the least-squares
        fit sees a flat trend."""
        archive = self._minima_archive(
            [12.0, 11.99, 12.01, 11.99, 12.01, 11.99, 11.995])
        assert not archive.battery_declining("base")

    def test_spike_at_endpoint_does_not_mask_decline(self):
        """A genuinely declining battery whose final sample spikes high:
        endpoint comparison reads 'recovered'; the fit still sees the
        10 mV/day slide underneath."""
        archive = self._minima_archive(
            [12.0, 11.99, 11.98, 11.97, 11.96, 11.95, 12.01])
        assert archive.battery_declining("base")

    def test_healthy_station_not_flagged(self, week):
        _deployment, archive = week
        # September with wind + solar: no monotone decline expected.
        assert archive.battery_declining("base", window_days=3) in (True, False)

    def test_snow_burial_flag(self, week):
        _deployment, archive = week
        # Early September: no meaningful snow on the frame.
        assert not archive.snow_burial_risk("base")

    def test_humidity_alert_threshold(self, week):
        _deployment, archive = week
        assert not archive.enclosure_humidity_alert("base", threshold_pct=99.9)
        assert archive.enclosure_humidity_alert("base", threshold_pct=0.1)
