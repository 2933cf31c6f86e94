"""Tests for the server fleet: shared control plane, sharded data plane,
tenant stores, upload-target policies, and archive equivalence."""

import pytest

from repro.core.targets import FleetClient
from repro.gps.files import GpsReading
from repro.server.archive import ScienceArchive
from repro.server.fleet import ServerFleet, tenant_map
from repro.server.state_store import PowerStateStore
from repro.sim import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=11)


@pytest.fixture
def fleet(sim):
    return ServerFleet(sim, 3)


def reading(station, start, position=0.0):
    return GpsReading(station=station, start_time=start, duration_s=3600.0,
                      satellites=7, size_bytes=120_000,
                      observed_position_m=position, common_error_m=0.0,
                      private_error_m=0.0)


class TestFleetControlPlane:
    def test_needs_at_least_one_shard(self, sim):
        with pytest.raises(ValueError):
            ServerFleet(sim, 0)

    def test_state_visible_through_every_shard(self, fleet):
        fleet.shard(0).upload_power_state("base", 1)
        assert fleet.shard(2).get_override_state("reference") == 1

    def test_manual_override_reaches_every_shard(self, fleet):
        fleet.shard(1).upload_power_state("base", 3)
        fleet.set_manual_override(2)
        assert fleet.shard(0).get_override_state("base") == 2

    def test_special_drains_from_any_shard(self, fleet):
        marker = fleet.stage_special("base", lambda: "hello")
        special = fleet.shard(2).get_special("base")
        assert special.command_id == marker
        # One-shot: drained everywhere once drained anywhere.
        assert fleet.shard(0).get_special("base") is None

    def test_command_ids_unique_across_shards(self, fleet):
        first = fleet.shard(0).stage_special("base", lambda: "a")
        second = fleet.shard(2).stage_special("reference", lambda: "b")
        assert first != second

    def test_degenerate_single_shard_fleet(self, sim):
        fleet = ServerFleet(sim, 1)
        assert len(fleet) == 1
        # A fleet of one keeps the paper's single-server name.
        assert fleet.shards[0].name == "server"


class TestTenantStore:
    def test_tenant_map_groups_by_position(self):
        tenant_of = tenant_map(["a", "b", "c", "d", "e"], 2)
        assert tenant_of("a") == tenant_of("b") == "tenant0"
        assert tenant_of("c") == tenant_of("d") == "tenant1"
        assert tenant_of("e") == "tenant2"
        # Unknown stations become their own tenant.
        assert tenant_of("ghost") == "ghost"

    def test_min_rule_confined_to_tenant(self):
        store = PowerStateStore(tenant_map(["a", "b", "c", "d"], 2))
        store.upload("a", 1, time=0.0)
        store.upload("c", 3, time=0.0)
        assert store.override_for("b") == 1  # a's tenant
        assert store.override_for("d") == 3  # unaffected by a's dying battery

    def test_manual_override_is_fleet_wide(self):
        store = PowerStateStore(tenant_map(["a", "b", "c", "d"], 2))
        store.upload("a", 3, time=0.0)
        store.upload("c", 3, time=0.0)
        store.set_manual_override(1)
        assert store.override_for("a") == 1
        assert store.override_for("c") == 1

    def test_fleet_with_tenancy(self, sim):
        fleet = ServerFleet(sim, 2, tenant_of=tenant_map(["a", "b", "c"], 1))
        fleet.shard(0).upload_power_state("a", 0)
        assert fleet.shard(1).get_override_state("c") is None


class TestDataPlane:
    def test_bytes_land_on_one_shard_only(self, fleet):
        fleet.shard(1).upload_data("base", 9000, kind="gps")
        assert fleet.shard(1).received_bytes() == 9000
        assert fleet.shard(0).received_bytes() == 0
        assert fleet.received_bytes() == 9000

    def test_cross_shard_retransfer_detected(self, fleet):
        """The seen-file set is control plane: re-uploading a file to a
        *different* shard is still a retransfer, not a second archival."""
        fleet.shard(0).upload_data("base", 4000, kind="gps", name="gps/a")
        fleet.shard(2).upload_data("base", 4000, kind="gps", name="gps/a")
        assert fleet.retransfers == 1
        assert fleet.received_bytes(station="base") == 8000
        assert fleet.received_bytes(station="base", unique=True) == 4000

    def test_load_hints_window(self, sim, fleet):
        fleet.shard(0).upload_data("base", 5000, kind="gps")
        hints = fleet.load_hints()
        assert hints == {"server0": 5000, "server1": 0, "server2": 0}
        sim.run(until=sim.now + 2 * 86400.0)
        assert fleet.load_hints()["server0"] == 0  # aged out of the window


class TestArchiveEquivalence:
    def test_sharded_archive_matches_single_server_scan(self, sim):
        """Queries over a fleet's merged shard indexes must reproduce a
        single server fed the same uploads in the same global order."""
        fleet = ServerFleet(sim, 2)
        single = ServerFleet(sim, 1)
        uploads = [
            ("base", reading("base", 600.0, 1.0), 0),
            ("reference", reading("reference", 650.0, 0.0), 1),
            ("base", reading("base", 87000.0, 1.2), 0),
            ("base", reading("base", 4000.0, 1.1), 1),
        ]
        for station, payload, shard in uploads:
            fleet.shard(shard).upload_data(station, payload.size_bytes,
                                           kind="gps", payload=payload)
            single.shard(0).upload_data(station, payload.size_bytes,
                               kind="gps", payload=payload)
        sharded = ScienceArchive(fleet)
        scan = ScienceArchive(single)
        assert sharded.gps_readings("base") == scan.gps_readings("base")
        assert sharded.gps_readings("reference") == scan.gps_readings("reference")
        assert sharded.solutions() == scan.solutions()

    def test_sensor_series_merges_by_arrival(self, sim):
        fleet = ServerFleet(sim, 2)
        fleet.shard(1).upload_data("base", 100, kind="sensors",
                                   payload={"voltages": [(6.0, 12.4)]})
        fleet.shard(0).upload_data("base", 100, kind="sensors",
                                   payload={"voltages": [(30.0, 12.1)]})
        archive = ScienceArchive(fleet)
        assert archive.voltage_series("base") == [(6.0, 12.4), (30.0, 12.1)]
        minima = archive.battery_daily_minima("base")
        assert minima == [(0, 12.4), (1, 12.1)]


class TestPolicies:
    def test_static_never_leaves_home(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="static", home=1)
        for _ in range(5):
            client.begin_session()
            assert client.shard.name == "server1"
        assert client.hops == 0

    def test_round_robin_rotates_per_session(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="round-robin", home=0)
        visited = []
        for _ in range(4):
            client.begin_session()
            visited.append(client.shard.name)
        assert visited == ["server0", "server1", "server2", "server0"]

    def test_hop_moves_to_lightest_shard(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="hop", home=0)
        fleet.shard(0).upload_data("other", 100_000, kind="gps")
        client.begin_session()          # no hints yet: stays home
        assert client.shard.name == "server0"
        client.sync_session("base", 2)  # response piggybacks hints
        client.begin_session()
        assert client.shard.name != "server0"
        assert client.hops == 1

    def test_hop_hysteresis_prevents_flapping(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="hop", home=0)
        # Marginally lighter alternative: inside the hysteresis margin.
        client.load_hints = {"server0": 100, "server1": 95, "server2": 100}
        client.begin_session()
        assert client.shard.name == "server0"
        # A clear win: beyond the margin.
        client.load_hints = {"server0": 100, "server1": 50, "server2": 100}
        client.begin_session()
        assert client.shard.name == "server1"

    def test_costs_weight_the_choice(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="hop", home=0,
                             costs=[1.0, 10.0, 1.0])
        client.load_hints = {"server0": 100, "server1": 20, "server2": 30}
        client.begin_session()
        # server1 is lightest but 10x as costly; server2 wins.
        assert client.shard.name == "server2"

    def test_unknown_policy_rejected(self, sim, fleet):
        with pytest.raises(ValueError):
            FleetClient(sim, "base", fleet, policy="sticky")

    def test_costs_length_validated(self, sim, fleet):
        with pytest.raises(ValueError):
            FleetClient(sim, "base", fleet, costs=[1.0])

    def test_hop_emits_metric_and_trace(self, sim, fleet):
        client = FleetClient(sim, "base", fleet, policy="hop", home=0)
        client.load_hints = {"server0": 100, "server1": 10, "server2": 100}
        client.begin_session()
        hops = sim.trace.select(kind="fleet_hop")
        assert hops and hops[0].detail == {
            "src": "server0", "dst": "server1", "policy": "hop"}
        counter = sim.obs.metrics.counter(
            "fleet_hops_total",
            **{"station": "base", "from": "server0", "to": "server1"})
        assert counter.value == 1
