"""Tests for the server-mediated state synchronisation (Section III / E10)."""

import pytest

from repro.comms.gprs import GprsModem
from repro.core.power_policy import PowerState
from repro.core.sync import StateSynchronizer
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.server.fleet import ServerFleet
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR


def make_rig(outage=0.0):
    sim = Simulation(seed=41)
    server = ServerFleet(sim, 1).shard(0)
    bus = PowerBus(sim, Battery(soc=0.95), name="y.power")
    modem = GprsModem(sim, bus, name="y.gprs", outage_probability=outage)
    sync = StateSynchronizer(sim, "base", server, modem)
    return sim, server, modem, sync


def connected(sim, modem):
    proc = sim.process(modem.connect())
    sim.run(until=sim.now + HOUR)
    assert modem.connected


class TestUploadAndFetch:
    def test_upload_reaches_server(self):
        sim, server, modem, sync = make_rig()
        connected(sim, modem)

        def session(sim):
            yield from sync.upload_state(PowerState.S2)

        sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        assert server.power_states.report_for("base").state == 2

    def test_fetch_applies_min_rule_and_clamps(self):
        sim, server, modem, sync = make_rig()
        connected(sim, modem)
        server.upload_power_state("reference", 1)

        def session(sim):
            result = yield from sync.fetch_override(PowerState.S3)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override = proc.value
        assert override == 1
        assert effective is PowerState.S1

    def test_fetch_failure_falls_back_to_local(self):
        """'If the fetching of the over-ride state from the server fails
        for any reason then the system will just rely on its local state.'"""
        sim, server, modem, sync = make_rig()
        # never connected: send raises LinkDown
        def session(sim):
            result = yield from sync.fetch_override(PowerState.S2)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override = proc.value
        assert effective is PowerState.S2
        assert override is None
        assert sync.override_fetch_failures == 1

    def test_fetch_failure_on_non_linkdown_exception(self):
        """The "never raises" contract covers *any* server-side failure,
        not just LinkDown — a malformed response or a server bug must
        degrade to local state exactly like a dead link."""
        sim, server, modem, sync = make_rig()
        connected(sim, modem)

        def broken(station):
            raise KeyError("malformed override table")

        server.get_override_state = broken

        def session(sim):
            result = yield from sync.fetch_override(PowerState.S2)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override = proc.value
        assert effective is PowerState.S2
        assert override is None
        assert sync.override_fetch_failures == 1
        failures = sim.trace.select(kind="override_fetch_failed")
        assert failures and failures[-1].detail["error"] == "KeyError"

    def test_batched_sync_failure_falls_back_to_local(self):
        """The batched endpoint honours the same never-raises contract."""
        sim, server, modem, sync = make_rig()
        connected(sim, modem)

        def broken(station, state):
            raise RuntimeError("shard crashed mid-request")

        server.sync_session = broken

        def session(sim):
            result = yield from sync.batched_sync(PowerState.S2)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override, special, loads = proc.value
        assert effective is PowerState.S2
        assert override is None and special is None and loads is None
        assert sync.override_fetch_failures == 1

    def test_batched_sync_applies_min_rule(self):
        sim, server, modem, sync = make_rig()
        connected(sim, modem)
        server.upload_power_state("reference", 1)

        def session(sim):
            result = yield from sync.batched_sync(PowerState.S3)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override, special, loads = proc.value
        assert override == 1
        assert effective is PowerState.S1
        assert special is None
        # The server recorded this station's state from the same request.
        assert server.power_states.report_for("base").state == 3

    def test_manual_override_respected_but_floored(self):
        sim, server, modem, sync = make_rig()
        connected(sim, modem)
        server.power_states.set_manual_override(0)  # operator mistake

        def session(sim):
            result = yield from sync.fetch_override(PowerState.S3)
            return result

        proc = sim.process(session(sim))
        sim.run(until=sim.now + HOUR)
        effective, override = proc.value
        assert override == 0
        assert effective is PowerState.S1  # never forced to 0


class TestTwoStationConvergence:
    """The E10 scenario: both stations converge through the server."""

    def run_daily_cycles(self, skew_s, days=3):
        """Simulate the upload/download ordering of two stations whose
        clocks differ by ``skew_s``; upload takes ``upload_s``."""
        sim = Simulation(seed=42)
        server = ServerFleet(sim, 1).shard(0)
        upload_s = 300.0  # "the upload of data is known to take a few minutes"
        states = {"base": 3, "reference": 2}
        history = []

        def station_cycle(sim, name, offset_s):
            yield sim.timeout(DAY / 2 + offset_s)  # first noon + clock error
            while True:
                server.upload_power_state(name, states[name])
                yield sim.timeout(upload_s)  # data upload happens here
                override = server.get_override_state(name)
                effective = min(states[name], max(override, 1))
                history.append((sim.now, name, effective))
                yield sim.timeout(DAY - upload_s)

        sim.process(station_cycle(sim, "base", 0.0))
        sim.process(station_cycle(sim, "reference", skew_s))
        sim.run(until=(days + 1) * DAY)
        return history

    def test_small_skew_converges_same_day(self):
        """Skew below the upload duration: the later station's download sees
        the earlier station's fresh state the same day."""
        history = self.run_daily_cycles(skew_s=60.0)
        day1 = [h for h in history if h[0] < 1.6 * DAY]
        base_day1 = [h for h in day1 if h[1] == "base"]
        # Base (state 3) sees reference's 2 on day one.
        assert base_day1[0][2] == 2

    def test_large_skew_one_day_lag(self):
        """Skew beyond the upload window: 'there will be a one day lag in
        the states being updated' — for the station that runs *first*."""
        history = self.run_daily_cycles(skew_s=900.0)  # ref runs 15 min later
        base_entries = [h for h in history if h[1] == "base"]
        # Base runs before reference has uploaded; day 1 sees no reference
        # state (override = base's own 3), day 2 sees the 2.
        assert base_entries[0][2] == 3
        assert base_entries[1][2] == 2
