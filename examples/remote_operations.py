#!/usr/bin/env python3
"""Remote operations: overrides, special commands, and code updates.

Everything the Southampton end can do to a deployed station it will not
physically see for months (Sections III and VI):

1. hold both stations in a lower power state with a manual override;
2. run a one-shot "special" command and wait the famous 24 hours for its
   output to ride home in the daily log upload;
3. push a checksum-verified code update — and watch a corrupted transfer
   get rejected while the computed MD5 appears in Southampton immediately.

Run with::

    python examples/remote_operations.py
"""

from repro.analysis.report import format_table
from repro.core import Deployment, DeploymentConfig
from repro.server.deployment import CodeRelease, verify_and_install
from repro.sim.simtime import DAY, HOUR


def main() -> None:
    deployment = Deployment(DeploymentConfig(seed=14))
    server = deployment.server
    sim = deployment.sim

    # --- 1. manual override -------------------------------------------------
    print("Day 0: operator sets a manual override of state 2.")
    deployment.set_manual_override(2)
    deployment.run_days(2)
    states = deployment.state_series("base")
    print(format_table(
        ["Day", "Base applied state", "Base local (battery) state"],
        [(int(t // DAY), s, int(deployment.base.local_state)) for t, s in states],
    ))
    print("Releasing the override.\n")
    deployment.set_manual_override(None)

    # --- 2. special command -------------------------------------------------
    print("Day 2: staging a special command for the base station...")
    staged_at = sim.now
    server.stage_special("base", lambda: "uptime: 14 days / disk 61% used")
    deployment.run_days(3)
    executed = deployment.sim.trace.select(source="base", kind="special_executed")[0]
    output = next(
        u for u in server.uploads
        if u.station == "base" and u.kind == "logs" and u.payload["special_outputs"]
    )
    print(f"  executed after  {(executed.time - staged_at) / HOUR:5.1f} h")
    print(f"  output arrived  {(output.time - staged_at) / HOUR:5.1f} h after staging")
    print(f"  output text:    {output.payload['special_outputs'][0]['output']!r}")
    print("  (the Section VI lesson: results take ~a day; acting on them ~two)\n")

    # --- 3. code update -----------------------------------------------------
    print("Publishing basestation.py v2 and driving an update session...")
    release = CodeRelease("basestation.py", version=2,
                          content="#!/usr/bin/env python\n# v2\n", size_bytes=80_000)
    server.publish_release(release)
    deployment.base.installed_versions["basestation.py"] = 1

    def update(sim, corruption):
        modem = deployment.base.modem
        yield sim.process(modem.connect())
        outcome = yield sim.process(
            verify_and_install(sim, modem, deployment.base.server, "base",
                               "basestation.py",
                               deployment.base.installed_versions,
                               corruption_probability=corruption)
        )
        modem.disconnect()
        return outcome

    proc = sim.process(update(sim, corruption=1.0))  # first try: corrupted
    deployment.run_days(0.1)
    print(f"  attempt 1 (corrupted in transit): {proc.value.value}; "
          f"installed version stays {deployment.base.installed_versions['basestation.py']}")
    report = server.last_checksum_report("basestation.py")
    print(f"  Southampton saw the bad MD5 immediately: {report[3][:12]}... "
          f"(expected {release.md5[:12]}...)")

    proc = sim.process(update(sim, corruption=0.0))  # retry: clean
    deployment.run_days(0.1)
    print(f"  attempt 2 (clean): {proc.value.value}; "
          f"installed version now {deployment.base.installed_versions['basestation.py']}")
    report = server.last_checksum_report("basestation.py")
    print(f"  reported MD5 matches: {report[3] == release.md5}")


if __name__ == "__main__":
    main()
