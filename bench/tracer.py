"""Per-layer host-time tracer: timing wrappers patched over layer entry points.

:data:`ENTRY_POINTS` lists, per span key, the functions through which
control enters a layer of ``repro``: the public methods other layers call,
plus the process bodies and callbacks the kernel dispatches into.  A span
key is a layer name from the ``LAYERS`` map in ``repro/lint/rules.py``,
optionally with a sub-key (``sim.trace_select``, ``fleet.cache_load``)
that is reported on its own and also counts towards its layer; time in
``idle`` spans counts towards no layer.

:meth:`Tracer.install` replaces each entry with a wrapper that keeps a
span stack, so a layer's *self* time is a span's duration minus the spans
opened beneath it.  A generator entry point gets a generator wrapper that
times each resume, which is how process bodies are attributed.  Kernel
time no wrapped span covers stays with the ``sim`` span around
``Simulation.run``.  The wrappers cost time of their own:
:meth:`Tracer.calibrate` measures that cost per span on real code, and
each span's cost is then taken from the span enclosing it.

Install the tracer *before* building a deployment: stations and buses
bind some entry points (process bodies, trace subscribers) when they are
constructed.  The wrappers only observe, so a traced mission must
produce the same trace digest as an untraced one; the benchmark checks
that on every traced run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers whose self time is reported (the ``LAYERS`` map, minus the ones
#: no workload enters: analysis, lint and cli).
LAYERS = ("sim", "energy", "environment", "sensors", "hardware", "comms",
          "gps", "protocol", "probes", "server", "core", "faults", "obs",
          "fleet")

#: ``(span key, module, attributes)``: each attribute is ``Class.method``
#: or a module-level function name.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.trace", ("Trace.emit",)),
    ("sim.trace_select", "repro.sim.trace", ("Trace.iter_select",)),
    ("energy", "repro.energy.bus", (
        "PowerBus.__init__", "PowerBus.sync", "PowerBus.terminal_voltage",
        "PowerBus.source_power", "PowerBus.load_power", "PowerBus.net_power",
        "PowerBus.drain_j", "PowerBus._run_adaptive",
        "PowerBus._on_load_switch")),
    ("energy", "repro.energy.loads", ("LoadSet.set_on",)),
    ("environment", "repro.environment.weather", (
        "IcelandWeather.__init__", "IcelandWeather.day_samples",
        "IcelandWeather.solar_terms", "IcelandWeather.cloud_pieces",
        "IcelandWeather.solar_elevation_deg",
        "IcelandWeather.cloud_transmission", "IcelandWeather.solar_factor",
        "IcelandWeather.wind_speed", "IcelandWeather.temperature_c",
        "IcelandWeather.snow_depth")),
    ("environment", "repro.environment.glacier", (
        "GlacierModel.__init__", "GlacierModel.melt_fraction",
        "GlacierModel.conductivity_us", "GlacierModel.water_pressure_m",
        "GlacierModel.slip_occurred", "GlacierModel.surface_position_m",
        "GlacierModel.velocity_m_per_day", "GlacierModel.probe_radio_loss")),
    ("sensors", "repro.sensors.base", ("Sensor.sample",)),
    ("hardware", "repro.hardware.msp430", (
        "Msp430.__init__", "Msp430._sampler", "Msp430._scheduler",
        "Msp430._watchdog", "Msp430.supervise_gumstix", "Msp430.set_schedule",
        "Msp430.read_voltage_log", "Msp430.read_sensor_log")),
    ("hardware", "repro.hardware.gumstix", (
        "Gumstix.__init__", "Gumstix.power_on", "Gumstix.power_off",
        "Gumstix._boot_and_run")),
    ("hardware", "repro.hardware.storage", (
        "CompactFlashCard.write", "CompactFlashCard.read",
        "CompactFlashCard.delete", "CompactFlashCard.list_files")),
    ("gps", "repro.gps.receiver", (
        "GpsReceiver.__init__", "GpsReceiver.take_reading",
        "GpsReceiver.time_fix", "GpsReceiver.fetch_file",
        "GpsReceiver.pending_files")),
    ("comms", "repro.comms.link", (
        "Modem.__init__", "Modem.connect", "Modem.send", "Modem.disconnect")),
    ("comms", "repro.comms.gprs", ("GprsModem.send",)),
    ("comms", "repro.comms.probe_radio", (
        "ProbeRadioLink.__init__", "ProbeRadioLink.transmit",
        "ProbeRadioLink.transmit_detailed", "ProbeRadioLink.transmit_sequence")),
    # Stations run their uploads through the name they imported.
    ("comms", "repro.core.station", ("upload_files",)),
    ("protocol", "repro.protocol.bulk", ("BulkFetcher.fetch",)),
    ("protocol", "repro.protocol.stopwait", ("StopWaitFetcher.fetch",)),
    ("probes", "repro.probes.probe", (
        "Probe.__init__", "Probe.task", "Probe.sync_clock",
        "Probe.mark_complete")),
    ("probes", "repro.probes.commands", (
        "ProbeCommander.time_sync", "ProbeCommander.ping",
        "ProbeCommander.set_sampling_interval")),
    ("server", "repro.server.server", (
        "SouthamptonServer.__init__", "SouthamptonServer.upload_power_state",
        "SouthamptonServer.get_override_state", "SouthamptonServer.sync_session",
        "SouthamptonServer.upload_data", "SouthamptonServer.get_special",
        "SouthamptonServer.get_release", "SouthamptonServer.report_checksum")),
    ("server", "repro.server.fleet", ("ServerFleet.__init__",
                                      "ServerFleet.load_hints")),
    ("core", "repro.core.station", ("Station.daily_run",)),
    ("core", "repro.core.targets", (
        "FleetClient.begin_session", "FleetClient.sync_session",
        "FleetClient.upload_data")),
    ("core", "repro.core.deployment", ("Deployment.__init__",
                                       "Deployment.run_days")),
    ("faults", "repro.faults.harness", ("FaultEngine.__init__",
                                        "FaultEngine.finish")),
    ("faults", "repro.faults.invariants", ("InvariantChecker._on_record",
                                           "InvariantChecker.finish")),
    ("obs", "repro.obs.observability", ("Observability._on_trace_record",
                                        "Observability.finalise")),
    ("obs", "repro.obs.provenance", ("ProvenanceLedger.observe",)),
    ("obs", "repro.obs.metrics", ("MetricsRegistry.inc",
                                  "MetricsRegistry.set_gauge",
                                  "MetricsRegistry.observe")),
    ("obs", "repro.obs.rollup", ("RollupAggregate.fold",
                                 "RollupAggregate.absorb_partial",
                                 "RollupAggregate.to_partial_doc")),
    ("fleet.cache_load", "repro.fleet.cache", ("SweepCache.load",)),
    ("fleet", "repro.fleet.cache", ("SweepCache.store",)),
    # A sweep's parent blocked on its workers: no layer is busy.
    ("idle", "repro.fleet.executor", ("wait",)),
)

#: The kernel's run loop: a ``sim`` span that also counts the events and
#: dispatch batches it processed.
KERNEL_RUN = ("repro.sim.kernel", "Simulation.run")

#: The tracer whose wrappers are installed in this process.  Patching
#: classes is process-wide, so at most one tracer may be installed; sweep
#: workers reach it through here (see :func:`traced_call`).
_ACTIVE: Optional["Tracer"] = None


def installed() -> bool:
    """Whether a tracer's wrappers are patched in, in this process."""
    return _ACTIVE is not None


class Tracer:
    """Span stack plus per-key totals: self time, calls and spans.

    ``calls`` counts entries into a key's functions; ``spans`` counts timed
    intervals, which for a generator entry point is one per resume.
    ``clock`` is injectable so tests can drive the arithmetic by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[List[float]] = []
        self.raw_self: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: Dict[str, int] = {}
        self.counts: Dict[str, int] = {"sim.events": 0, "sim.dispatch_batches": 0}
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Table entries the last :meth:`install` found no plain function for.
        self.missing: List[str] = []
        #: Wrapper cost per span, in seconds; set by :meth:`calibrate` and
        #: taken from the enclosing span as each span closes.
        self.span_cost_s = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _key(self, key: str) -> None:
        for table, zero in ((self.raw_self, 0.0), (self.calls, 0), (self.spans, 0)):
            table.setdefault(key, zero)

    def _closer(self, key: str) -> Callable[[float, List[float]], None]:
        """The span-exit bookkeeping for ``key`` (self = duration - children)."""
        self._key(key)
        stack, raw, spans = self._stack, self.raw_self, self.spans

        def close(elapsed: float, frame: List[float]) -> None:
            stack.pop()
            raw[key] += elapsed - frame[0]
            spans[key] += 1
            if stack:
                # Most of a wrapper's cost falls outside the span's own clock
                # readings, in the enclosing span's time: take it from there.
                stack[-1][0] += elapsed + self.span_cost_s

        return close

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        """Time a block as one span of ``key`` (the root of a traced op)."""
        close = self._closer(key)
        self.calls[key] += 1
        frame = [0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            close(self._clock() - start, frame)

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` timed as spans of ``key``; generators per resume."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)
        close = self._closer(key)
        stack, clock, calls = self._stack, self._clock, self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(clock() - start, frame)

        return traced

    def _wrap_generator(self, key: str, fn: Callable) -> Callable:
        close = self._closer(key)
        stack, clock, calls = self._stack, self._clock, self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            inner = fn(*args, **kwargs)
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    if error is None:
                        out = inner.send(value)
                    else:
                        out = inner.throw(error)
                except StopIteration as stop:
                    close(clock() - start, frame)
                    return stop.value
                except BaseException:
                    close(clock() - start, frame)
                    raise
                close(clock() - start, frame)
                error = None
                try:
                    value = yield out
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # thrown in: forward it
                    error, value = exc, None

        return traced

    def _wrap_kernel(self, fn: Callable) -> Callable:
        timed = self.wrap("sim", fn)
        counts = self.counts

        @functools.wraps(fn)
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            events, batches = sim.events_processed, sim.dispatch_batches
            try:
                return timed(sim, *args, **kwargs)
            finally:
                counts["sim.events"] += sim.events_processed - events
                counts["sim.dispatch_batches"] += sim.dispatch_batches - batches

        return run

    def calibrate(self, probe: Callable[[], Any], rounds: int = 9) -> None:
        """Measure the wrapper cost per span on real code.

        ``probe`` must build what it runs (entry points bind at build
        time).  It runs ``rounds`` times bare and traced, alternately so
        that host drift cancels; the median difference over the probe's
        span count is the cost per span.  Real code, not an empty wrapped
        function: on a mission a span costs about twice what it costs
        around an empty function (``bench/README.md``, Calibration).
        """
        clock = self._clock

        def timed(fn: Callable[[], Any]) -> float:
            gc.collect()
            start = clock()
            fn()
            return clock() - start

        extra = []
        for _ in range(rounds):
            bare = timed(probe)
            self.install()
            try:
                extra.append(timed(probe) - bare)
            finally:
                self.uninstall()
        spans = sum(self.spans.values()) / rounds
        self.reset()
        self.span_cost_s = max(0.0, statistics.median(extra)) / spans if spans else 0.0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every entry point in this process; undo with :meth:`uninstall`."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed in this process")
        self.missing = []
        module_name, attr = KERNEL_RUN
        self._patch(importlib.import_module(module_name), attr, self._wrap_kernel)
        for key, module_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._patch(module, attr,
                            lambda fn, key=key: self.wrap(key, fn))
        for layer in LAYERS:
            self._key(layer)
        _ACTIVE = self
        return self

    def _patch(self, module: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(name) if owner is not None else None
        if not inspect.isfunction(original):
            # Renamed or removed since the table was written: its time now
            # counts towards whichever layer calls it.
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(owner, name, make(original))
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        global _ACTIVE
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every total and drop open spans (in place: wrappers hold them)."""
        self._stack.clear()
        for table in (self.raw_self, self.calls, self.spans, self.counts):
            for key in table:
                table[key] = type(table[key])()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """The raw totals as plain dicts (JSON- and pickle-safe)."""
        return {"raw_self": dict(self.raw_self), "calls": dict(self.calls),
                "spans": dict(self.spans), "counts": dict(self.counts)}

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Add another tracer's :meth:`snapshot` (a sweep worker's) to this one."""
        for name, totals in snapshot.items():
            table = getattr(self, name)
            for key, value in totals.items():
                table[key] = table.get(key, type(value)()) + value

    def self_s(self) -> Dict[str, float]:
        """Self seconds per span key, net of the wrapper cost of its children."""
        return {key: max(0.0, raw) for key, raw in self.raw_self.items()}

    def report(self) -> Dict[str, float]:
        """Per-layer metrics: ``<layer>.self_s`` and ``calls``, sub-keys, kernel counts."""
        self_s = self.self_s()
        out: Dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self_s if k == layer or k.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum(self_s[k] for k in keys)
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
        for key in self_s:
            if "." in key:
                out[f"{key}_s"] = self_s[key]
                out[f"{key}_calls"] = self.calls[key]
        out.update(self.counts)
        return out


# ----------------------------------------------------------------------
# Sweep workers: a pool started while a tracer is installed traces its
# chunks and ships the totals back with each result.
# ----------------------------------------------------------------------
def traced_worker_init(initializer: Optional[Callable[[], None]] = None) -> None:
    """Pool initializer: run the pool's own, then start from zero totals.

    A forked worker inherits the parent's installed tracer (its totals and
    its calibrated cost); a spawned one starts without any, so it installs
    its own, whose spans go uncorrected for the wrapper cost.
    """
    if initializer is not None:
        initializer()
    if _ACTIVE is None:
        Tracer().install()
    else:
        _ACTIVE.reset()


def traced_call(fn: Callable[..., Dict[str, Any]], *args: Any,
                **kwargs: Any) -> Dict[str, Any]:
    """Run one chunk as a ``fleet`` span; attach the worker's totals to it."""
    tracer = _ACTIVE
    if tracer is None:
        raise RuntimeError("traced_call needs traced_worker_init as the pool initializer")
    with tracer.span("fleet"):
        out = fn(*args, **kwargs)
    out["bench_trace"] = tracer.snapshot()
    tracer.reset()
    return out
