"""The Southampton server: state sync, data ingest, remote configuration.

The final architecture has no inter-station link; "the communications are
managed by a server in Southampton" (Section III).  The server:

- stores each station's uploaded power state and serves the override rule
  (the *lowest* of the known states and any manual override);
- ingests the daily data uploads;
- hosts one-shot "special" command scripts per station and the published
  code releases with their checksums (Section VI's remote-update
  machinery).
"""

from repro.server.archive import ScienceArchive
from repro.server.deployment import CodeRelease, InstallOutcome, verify_and_install
from repro.server.fleet import ServerFleet, tenant_map
from repro.server.index import ArchiveIndex
from repro.server.operations import Alert, OperationsConsole
from repro.server.server import SouthamptonServer, SpecialCommand
from repro.server.state_store import PowerStateStore, Sequencer

__all__ = [
    "Alert",
    "ArchiveIndex",
    "CodeRelease",
    "InstallOutcome",
    "OperationsConsole",
    "PowerStateStore",
    "ScienceArchive",
    "Sequencer",
    "ServerFleet",
    "SouthamptonServer",
    "SpecialCommand",
    "tenant_map",
    "verify_and_install",
]
