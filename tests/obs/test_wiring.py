"""End-to-end wiring: a short mission populates every metric family the
ISSUE promises (energy, power state, comms, kernel) and a sensible span
tree, all through ``sim.obs`` without any test-side instrumentation."""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.obs.observability import owner_process_name
from repro.sim.kernel import Simulation


@pytest.fixture(scope="module")
def obs():
    deployment = Deployment(DeploymentConfig(seed=3))
    deployment.run_days(3.0)
    deployment.sim.obs.collect_kernel(deployment.sim)
    return deployment.sim.obs


class TestMetricFamilies:
    def test_energy_family(self, obs):
        assert obs.metrics.gauge("battery_soc", station="base").value > 0
        assert obs.metrics.gauge("battery_voltage_v", station="base").value > 10
        assert obs.metrics.histogram("battery_net_power_w", station="base").count > 0

    def test_power_state_family(self, obs):
        assert obs.metrics.kind_of("power_effective_state") == "gauge"
        assert obs.metrics.counter("daily_runs_total", station="base").value >= 2

    def test_comms_family(self, obs):
        sent = obs.metrics.counter("modem_sent_bytes_total", modem="base.gprs")
        uploaded = obs.metrics.counter("gprs_upload_bytes_total", station="base")
        assert sent.value > 0
        assert uploaded.value == sent.value
        assert obs.metrics.kind_of("comms_sessions_total") == "counter"
        assert obs.metrics.kind_of("probe_frames_total") == "counter"

    def test_kernel_family(self, obs):
        processed = obs.metrics.gauge("kernel_events_processed").value
        scheduled = obs.metrics.gauge("kernel_events_scheduled").value
        assert 0 < processed <= scheduled
        assert obs.metrics.gauge("kernel_sim_time_seconds").value > 0

    def test_trace_bridge_counts_every_record(self, obs):
        totals = [
            m.value for m in obs.metrics.metrics()
            if m.name == "trace_records_total"
        ]
        assert sum(totals) > 0

    def test_server_family(self, obs):
        by_kind = {
            m.label_dict().get("kind"): m.value
            for m in obs.metrics.metrics()
            if m.name == "server_uploads_total"
        }
        assert "gps" in by_kind


class TestSpanTree:
    def test_daily_run_parents_comms_session(self, obs):
        by_name = {}
        for record in obs.spans.records:
            by_name.setdefault(record.name, []).append(record)
        assert all(r.depth == 0 for r in by_name["daily_run"])
        assert all(r.depth == 1 for r in by_name["comms_session"])
        assert all(r.track in ("base", "reference") for r in by_name["daily_run"])

    def test_probe_fetch_under_probe_jobs(self, obs):
        fetches = [r for r in obs.spans.records if r.name == "probe_fetch"]
        assert fetches
        assert all(r.depth == 2 and r.track == "base" for r in fetches)
        assert all(any(k == "probe_id" for k, _v in r.attrs) for r in fetches)


class TestKernelHook:
    def test_kernel_spans_off_by_default(self):
        sim = Simulation(seed=0)
        assert sim.obs.kernel_active is False

    def test_kernel_spans_record_instants(self):
        sim = Simulation(seed=0)
        sim.obs.enable_kernel_spans()

        def proc():
            yield sim.timeout(5.0)

        sim.process(proc(), name="demo")
        sim.run(until=10.0)
        instants = [r for r in sim.obs.spans.records if r.start == r.end]
        assert instants
        assert sim.obs.metrics.counter("kernel_events_total", type="Timeout").value > 0

    def test_owner_process_name_unowned(self):
        sim = Simulation(seed=0)
        event = sim.timeout(1.0)
        assert owner_process_name(event) == ""
