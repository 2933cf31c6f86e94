"""Pinned telemetry of a probe mission: counters, histograms, conservation.

The trace digests pin what a mission *did*; nothing else pins what its
provenance ledger *counted*.  This test hashes the canonical metrics export
together with the conservation report of one short probe-heavy mission, so
any change to edge counts, latency histograms (bucket counts and float
sums alike) or the conservation close-out shows up as a digest change.
"""

import hashlib
import json

from repro.core import Deployment, DeploymentConfig
from repro.obs.export import metrics_to_json

#: Seven probes (the default suite) sampling every 2 min for 3 days behind a
#: wired probe that never fails.
PROBE_MISSION_DIGEST = (
    "ff3cb4e780ec35df2c8d796411b5c3dcb92227bda21fd5b28dffa76b0bcb747c")


def probe_mission_digest() -> str:
    deployment = Deployment(
        DeploymentConfig(seed=0, probe_sampling_interval_s=120.0))
    deployment.run_days(3)
    report = deployment.sim.obs.finalise(deployment.sim)
    digest = hashlib.sha256(metrics_to_json(deployment.sim.obs.metrics).encode())
    digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_probe_mission_metrics_and_conservation_are_pinned():
    assert probe_mission_digest() == PROBE_MISSION_DIGEST
