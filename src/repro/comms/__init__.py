"""Communication links: GPRS, long-range radio + PPP, probe radio, transfers.

Section II of the paper is an architecture study of exactly these links:
the Norway-era design relayed base-station data over a 466 MHz radio-modem
PPP link through the reference station, while the final Iceland design
gives each station its own GPRS modem.  This package models:

- :mod:`repro.comms.link` — the common modem machinery: power-switched
  loads, connection state, transfers with drop hazards;
- :mod:`repro.comms.gprs` — the GPRS modem (5000 bps, 2640 mW, per-MB
  billing, day-scale outages);
- :mod:`repro.comms.radio` — the long-range radio modem (2000 bps,
  3960 mW) and the PPP session with its disconnect-reason ambiguity;
- :mod:`repro.comms.probe_radio` — the lossy subglacial packet link whose
  loss rate follows the melt season;
- :mod:`repro.comms.transfer` — the windowed, file-by-file upload engine
  whose interaction with the 2-hour watchdog produces the Section VI
  backlog behaviour;
- :mod:`repro.comms.architectures` — the dual-GPRS vs radio-relay energy
  comparison.
"""

from repro.comms.gprs import GprsModem
from repro.comms.link import LinkDown, Modem
from repro.comms.probe_radio import PacketOutcome, ProbeRadioLink
from repro.comms.radio import DisconnectReason, PppLink, RadioModem
from repro.comms.transfer import TransferResult, estimate_window_bytes, is_oversized, upload_files

__all__ = [
    "DisconnectReason",
    "GprsModem",
    "LinkDown",
    "Modem",
    "PacketOutcome",
    "PppLink",
    "ProbeRadioLink",
    "RadioModem",
    "TransferResult",
    "estimate_window_bytes",
    "is_oversized",
    "upload_files",
]
