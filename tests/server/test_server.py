"""Tests for the Southampton server: min-rule, ingest, specials, releases."""

import pytest

from repro.comms.link import Modem
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM
from repro.server.deployment import CodeRelease, InstallOutcome, md5_of, verify_and_install
from repro.server.fleet import ServerFleet
from repro.server.state_store import PowerStateStore
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR


@pytest.fixture
def sim():
    return Simulation(seed=23)


@pytest.fixture
def server(sim):
    return ServerFleet(sim, 1).shard(0)


class TestPowerStateStore:
    def test_empty_store_returns_none(self):
        store = PowerStateStore()
        assert store.override_for("base") is None

    def test_min_rule_over_stations(self):
        store = PowerStateStore()
        store.upload("base", 3, time=0.0)
        store.upload("reference", 1, time=0.0)
        assert store.override_for("base") == 1
        assert store.override_for("reference") == 1

    def test_manual_override_participates_in_min(self):
        store = PowerStateStore()
        store.upload("base", 3, time=0.0)
        store.upload("reference", 3, time=0.0)
        store.set_manual_override(2)
        assert store.override_for("base") == 2

    def test_manual_override_cannot_raise_above_station_min(self):
        """The server returns the lowest state: a manual 3 cannot lift a
        station that reported 1."""
        store = PowerStateStore()
        store.upload("base", 1, time=0.0)
        store.set_manual_override(3)
        assert store.override_for("base") == 1

    def test_clearing_manual_override(self):
        store = PowerStateStore()
        store.upload("base", 2, time=0.0)
        store.set_manual_override(0)
        store.set_manual_override(None)
        assert store.override_for("base") == 2

    def test_invalid_state_rejected(self):
        store = PowerStateStore()
        with pytest.raises(ValueError):
            store.upload("base", 4, time=0.0)
        with pytest.raises(ValueError):
            store.set_manual_override(-1)

    def test_latest_report_wins(self):
        store = PowerStateStore()
        store.upload("base", 3, time=0.0)
        store.upload("base", 1, time=10.0)
        assert store.report_for("base").state == 1
        assert store.known_stations() == ("base",)


class TestServerEndpoints:
    def test_state_upload_and_override(self, sim, server):
        server.upload_power_state("base", 2)
        server.upload_power_state("reference", 3)
        assert server.get_override_state("base") == 2

    def test_data_ingest_accounting(self, sim, server):
        server.upload_data("base", 100_000, kind="gps")
        server.upload_data("base", 5_000, kind="probe")
        server.upload_data("reference", 90_000, kind="gps")
        assert server.received_bytes() == 195_000
        assert server.received_bytes(station="base") == 105_000
        assert server.received_bytes(kind="gps") == 190_000

    def test_upload_persists_file_name(self, sim, server):
        server.upload_data("base", 1000, kind="gps", name="gps/0600.txt")
        assert server.uploads[-1].name == "gps/0600.txt"

    def test_retransfer_excluded_from_unique_bytes(self, sim, server):
        """A delete-failure re-upload is archived again, but the artifact's
        bytes count once in the unique accounting (the old code double-
        counted them, inflating delivered-data stats)."""
        server.upload_data("base", 4000, kind="gps", name="gps/0600.txt")
        server.upload_data("base", 4000, kind="gps", name="gps/0600.txt")
        server.upload_data("base", 2500, kind="gps", name="gps/1200.txt")
        assert server.retransfers == 1
        assert server.received_bytes(station="base") == 10_500
        assert server.received_bytes(station="base", unique=True) == 6_500

    def test_retransfer_is_not_a_second_archival(self, sim, server):
        """The provenance ledger treats a second 'archived' edge for one
        artifact as an anomaly; a retransfer must emit 'retransferred'."""
        server.upload_data("base", 4000, kind="gps", name="gps/0600.txt")
        server.upload_data("base", 4000, kind="gps", name="gps/0600.txt")
        archived = sim.trace.select(source="prov", kind="archived")
        retrans = sim.trace.select(source="prov", kind="retransferred")
        assert len(archived) == 1
        assert len(retrans) == 1
        assert retrans[0].detail["file"] == "gps/0600.txt"

    def test_sync_session_batches_the_three_calls(self, sim, server):
        server.upload_power_state("reference", 1)
        marker = server.stage_special("base", lambda: "ok")
        response = server.sync_session("base", 3)
        assert response["override"] == 1
        assert response["special"].command_id == marker
        assert response["loads"] == {"server": 0}  # the one shard's hint
        assert server.power_states.report_for("base").state == 3

    def test_special_commands_fifo_and_one_shot(self, sim, server):
        first = server.stage_special("base", lambda: "one")
        second = server.stage_special("base", lambda: "two")
        assert first < second
        assert server.get_special("base").script() == "one"
        assert server.get_special("base").script() == "two"
        assert server.get_special("base") is None

    def test_specials_are_per_station(self, sim, server):
        server.stage_special("base", lambda: "x")
        assert server.get_special("reference") is None
        assert server.get_special("base") is not None


class TestCodeDeployment:
    @pytest.fixture
    def modem(self, sim):
        bus = PowerBus(sim, Battery(soc=0.95), name="d.power")
        modem = Modem(sim, bus, "d.modem", GPRS_MODEM)
        sim.process(modem.connect())
        sim.run(until=HOUR)
        return modem

    def test_clean_install(self, sim, server, modem):
        release = CodeRelease("basestation.py", version=2, content="print('v2')",
                              size_bytes=40_000)
        server.publish_release(release)
        installed = {"basestation.py": 1}
        proc = sim.process(
            verify_and_install(sim, modem, server, "base", "basestation.py", installed)
        )
        sim.run(until=sim.now + HOUR)
        assert proc.value is InstallOutcome.INSTALLED
        assert installed["basestation.py"] == 2
        # The checksum was reported immediately, and it matches.
        report = server.fleet.last_checksum_report("basestation.py")
        assert report is not None
        assert report[3] == release.md5

    def test_corrupt_download_keeps_old_version(self, sim, server, modem):
        release = CodeRelease("basestation.py", version=2, content="print('v2')",
                              size_bytes=40_000)
        server.publish_release(release)
        installed = {"basestation.py": 1}
        proc = sim.process(
            verify_and_install(
                sim, modem, server, "base", "basestation.py", installed,
                corruption_probability=1.0,
            )
        )
        sim.run(until=sim.now + HOUR)
        assert proc.value is InstallOutcome.CHECKSUM_MISMATCH
        assert installed["basestation.py"] == 1
        # The mismatching checksum is still visible in Southampton at once.
        report = server.fleet.last_checksum_report("basestation.py")
        assert report[3] != release.md5

    def test_unknown_release(self, sim, server, modem):
        proc = sim.process(
            verify_and_install(sim, modem, server, "base", "nothere", {})
        )
        sim.run(until=sim.now + HOUR)
        assert proc.value is InstallOutcome.DOWNLOAD_FAILED

    def test_md5_is_stable(self):
        assert md5_of("abc") == md5_of("abc")
        assert md5_of("abc") != md5_of("abd")
