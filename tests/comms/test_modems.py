"""Tests for the modem base class, GPRS and radio modems, and PPP sessions."""

import pytest

from repro.comms.gprs import GprsModem
from repro.comms.link import LinkDown, Modem
from repro.comms.radio import DisconnectReason, PppLink, RadioModem
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM, GUMSTIX
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR


@pytest.fixture
def sim():
    return Simulation(seed=21)


@pytest.fixture
def bus(sim):
    return PowerBus(sim, Battery(soc=0.95), name="c.power")


class TestModemBase:
    def test_modem_requires_transfer_rate(self, sim, bus):
        with pytest.raises(ValueError):
            Modem(sim, bus, "bad", GUMSTIX)

    @pytest.mark.parametrize("chunk_s", [0.0, -30.0])
    def test_non_positive_chunk_rejected_at_construction(self, sim, bus, chunk_s):
        # Regression: a zero/negative chunk used to be accepted and then
        # stall (or reverse) the chunked transfer loop at send time.
        with pytest.raises(ValueError, match="chunk_s must be positive"):
            Modem(sim, bus, "bad", GPRS_MODEM, chunk_s=chunk_s)

    def test_unknown_mode_rejected_at_construction(self, sim, bus):
        # Modems have one transfer engine; a stale ``mode=`` fails loudly.
        with pytest.raises(TypeError, match="mode"):
            Modem(sim, bus, "bad", GPRS_MODEM, mode="chunked")

    def test_transfer_time_validated_without_assert(self, sim, bus):
        # transfer_time_s used to guard the missing rate with a bare
        # assert, which vanishes under ``python -O``; construction now
        # rejects rate-less specs so the method needs no guard at all.
        modem = Modem(sim, bus, "m", GPRS_MODEM)
        assert modem.transfer_time_s(5000 // 8) == pytest.approx(1.0)

    def test_connect_powers_and_sets_state(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)
        sim.process(modem.connect())
        sim.run(until=HOUR)
        assert modem.connected
        assert bus.loads.get("m").on

    def test_disconnect_powers_off(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)

        def session(sim):
            yield sim.process(modem.connect())
            modem.disconnect()

        sim.process(session(sim))
        sim.run(until=HOUR)
        assert not modem.connected
        assert not bus.loads.get("m").on

    def test_send_requires_connection(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)

        def attempt(sim):
            try:
                yield sim.process(modem.send(1000))
            except LinkDown:
                return "down"

        proc = sim.process(attempt(sim))
        sim.run(until=HOUR)
        assert proc.value == "down"

    def test_send_takes_table1_time(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)
        finished = []

        def session(sim):
            yield sim.process(modem.connect())
            start = sim.now
            yield sim.process(modem.send(625_000))  # 1000 s at 5000 bps
            finished.append(sim.now - start)

        sim.process(session(sim))
        sim.run(until=HOUR)
        assert finished[0] == pytest.approx(1000.0)
        assert modem.bytes_sent_total == 625_000

    def test_unavailable_network_raises(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)
        modem.available = lambda t: False

        def attempt(sim):
            try:
                yield sim.process(modem.connect())
            except LinkDown:
                return "down"

        proc = sim.process(attempt(sim))
        sim.run(until=HOUR)
        assert proc.value == "down"
        assert modem.connect_failures == 1

    def test_drop_mid_transfer(self, sim, bus):
        modem = Modem(sim, bus, "m", GPRS_MODEM)
        modem.drop_hazard_per_s = lambda t: 0.05  # near-certain drop per chunk

        def session(sim):
            yield sim.process(modem.connect())
            try:
                yield sim.process(modem.send(10_000_000, label="big"))
            except LinkDown:
                return "dropped"
            return "sent"

        proc = sim.process(session(sim))
        sim.run(until=2 * DAY)
        assert proc.value == "dropped"
        assert modem.drops == 1
        assert not modem.connected


class TestGprsModem:
    def test_availability_is_daily_and_deterministic(self, sim, bus):
        modem = GprsModem(sim, bus, "g1", outage_probability=0.3, seed=4)
        days = [modem.available(day * DAY + 100.0) for day in range(200)]
        outage_fraction = 1.0 - sum(days) / len(days)
        assert 0.2 < outage_fraction < 0.4
        # Same day, any hour: same answer.
        assert modem.available(5 * DAY + 1) == modem.available(5 * DAY + 80_000)

    def test_melt_increases_outages(self, sim, bus):
        modem = GprsModem(
            sim, bus, "g2", outage_probability=0.05, summer_outage_probability=0.5,
            melt_fraction_fn=lambda t: 1.0, seed=4,
        )
        outages = sum(1 for day in range(300) if not modem.available(day * DAY))
        assert outages > 0.3 * 300

    def test_billing_per_mb(self, sim, bus):
        modem = GprsModem(sim, bus, "g3", cost_per_mb=4.0, outage_probability=0.0)

        def session(sim):
            yield sim.process(modem.connect())
            yield sim.process(modem.send(2_000_000))

        sim.process(session(sim))
        sim.run(until=DAY)
        assert modem.cost_total == pytest.approx(8.0)

    def test_billing_not_charged_for_dropped_transfer(self, sim, bus):
        modem = GprsModem(sim, bus, "g4", outage_probability=0.0)
        modem.drop_hazard_per_s = lambda t: 0.05

        def session(sim):
            yield sim.process(modem.connect())
            try:
                yield sim.process(modem.send(50_000_000))
            except LinkDown:
                pass

        sim.process(session(sim))
        sim.run(until=2 * DAY)
        assert modem.cost_total == 0.0


class TestRadioModem:
    def test_lab_worse_than_glacier(self, sim, bus):
        lab = RadioModem(sim, bus, "r_lab", environment="lab")
        glacier = RadioModem(sim, bus, "r_gl", environment="glacier")
        t = 12 * HOUR
        assert lab.drop_hazard_per_s(t) > glacier.drop_hazard_per_s(t)

    def test_interference_is_diurnal(self, sim, bus):
        modem = RadioModem(sim, bus, "r1", environment="lab")
        # Mean over several days: midday worse than 3am.
        midday = sum(modem.interference_factor(d * DAY + 12 * HOUR) for d in range(10))
        night = sum(modem.interference_factor(d * DAY + 3 * HOUR) for d in range(10))
        assert midday > night

    def test_invalid_environment(self, sim, bus):
        with pytest.raises(ValueError):
            RadioModem(sim, bus, "r2", environment="moon")


class TestPppLink:
    def test_clean_finish(self, sim, bus):
        modem = RadioModem(sim, bus, "r3", environment="glacier")
        modem.drop_hazard_per_s = lambda t: 0.0
        modem.available = lambda t: True
        ppp = PppLink(sim, modem)
        proc = sim.process(ppp.run_session(10_000))
        sim.run(until=DAY)
        assert proc.value is DisconnectReason.FINISHED
        assert ppp.recommended_hold_s(proc.value) == 0.0
        assert not modem.connected

    def test_interference_drop_holds_power(self, sim, bus):
        modem = RadioModem(sim, bus, "r4", environment="lab")
        modem.drop_hazard_per_s = lambda t: 0.2
        modem.available = lambda t: True
        ppp = PppLink(sim, modem)
        proc = sim.process(ppp.run_session(10_000_000))
        sim.run(until=DAY)
        assert proc.value is DisconnectReason.INTERFERENCE
        assert ppp.recommended_hold_s(proc.value) == PppLink.RECONNECT_HOLD_S

    def test_never_connected(self, sim, bus):
        modem = RadioModem(sim, bus, "r5", environment="lab")
        modem.available = lambda t: False
        ppp = PppLink(sim, modem)
        proc = sim.process(ppp.run_session(1000))
        sim.run(until=DAY)
        assert proc.value is DisconnectReason.NEVER_CONNECTED
        assert ppp.failed_sessions == 1
