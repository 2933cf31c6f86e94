"""The power bus: battery + sources + loads, integrated over time.

The bus owns the station's battery, its charging sources and its
:class:`~repro.energy.loads.LoadSet`, and raises the two life-cycle edges
the rest of the system hooks:

- **brown-out** — the battery reached exhaustion; the MSP430 loses its RAM
  schedule and the RTC resets (Section IV of the paper);
- **recovery** — external charging has restored enough charge to restart.

Integration is event-driven: between syncs nothing is sampled.  The
planner predicts the next *interesting* instant — the earliest of a
predicted battery crossing (registered voltage watch, brown-out or
recovery SoC), or :attr:`PowerBus.MAX_STEP_S` — and sleeps until then.
Per-load energy is booked segment by segment as loads toggle (exact for
piecewise-constant loads); a toggle wakes the planner only when the new
load level could reach a brown-out or recovery edge before the pending
sync.  Interval source energy comes from
:meth:`~repro.energy.sources.PowerSource.energy_j` (analytic for solar,
cached quadrature for wind), so skipping a quiet six-hour stretch costs
one evaluation, not 72 ticks.

Crossing prediction scans the horizon on a coarse grid of interval
energies, brackets the first side-change of any target observable, and
bisects to ~1 s.  Predictions are checked when they fire:
``energy_crossings_predicted_total`` counts planned crossing syncs and
``energy_prediction_misses_total`` the ones where the observable was not
actually at the threshold (weather gusts move the IR term between plan
and fire).  ``energy_syncs_total{station,reason}`` counts integrations —
the counter the endurance benchmark pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.energy.battery import Battery
from repro.energy.loads import Load, LoadSet
from repro.energy.sources import PowerSource
from repro.sim.kernel import Simulation

#: Histogram bucket bounds for the net-power distribution, watts.
_NET_POWER_BUCKETS = (-50.0, -20.0, -10.0, -5.0, -2.0, -1.0, 0.0,
                      1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


@dataclass
class VoltageWatch:
    """A terminal-voltage threshold the bus predicts and flags.

    The bus emits a ``power_edge`` trace record (and calls ``callback``
    with ``"rising"`` or ``"falling"``) whenever a sync observes the
    voltage on the other side of ``volts`` from the previous sync.  The
    watch is also a planning target: the bus schedules a sync at the
    predicted crossing instant.
    """

    volts: float
    label: str
    callback: Optional[Callable[[str], None]] = None


class PowerBus:
    """Integrates battery charge and exposes the observable terminal voltage.

    Parameters
    ----------
    sim:
        The simulation kernel.
    battery:
        The station's battery bank.
    name:
        Prefix for trace records (e.g. ``"base.power"``).
    """

    #: Planner never reschedules tighter than this (livelock guard).
    MIN_REPLAN_S = 1.0
    #: The longest the bus sleeps without a sync, even with no crossing
    #: predicted.  Bounds prediction staleness.
    MAX_STEP_S = 21600.0
    #: Planning scan grid.  The weather's stochastic texture is linearly
    #: interpolated between 3-hour noise blocks, so nothing in the source
    #: curve wiggles faster than ~30 minutes; brackets found on this grid
    #: are bisected afterwards.
    PLAN_STEP_S = 1800.0
    #: Bisection width at which a predicted crossing is considered located.
    CROSSING_TOLERANCE_S = 1.0
    #: A fired crossing counts as a hit if the observable is within these.
    PREDICT_TOLERANCE_V = 0.05
    PREDICT_TOLERANCE_SOC = 0.005

    def __init__(
        self,
        sim: Simulation,
        battery: Battery,
        name: str = "power",
    ) -> None:
        self.sim = sim
        self.battery = battery
        self.name = name
        #: Station label for metrics (``"base.power"`` -> ``"base"``).
        self._station = name.split(".")[0]
        self.loads = LoadSet()
        self.sources: List[PowerSource] = []
        self._last_sync = sim.now
        self._was_exhausted = battery.is_exhausted
        self.on_brownout: List[Callable[[], None]] = []
        self.on_recovery: List[Callable[[], None]] = []
        self._watches: List[VoltageWatch] = []
        self._prev_voltage: Optional[float] = None
        self._fired_edges: List[str] = []
        self._wake = None
        self._deadline: Optional[float] = None
        #: Cached :meth:`_peak_source_w` result (sources are fixed after
        #: wiring; :meth:`add_source` invalidates).
        self._peak_w: Optional[float] = None
        self._peak_w_known = False
        #: Deferred load accounting: per-load energy is booked segment by
        #: segment as loads toggle, so a toggle does not force a full
        #: integration.  ``_load_j`` is the battery drain accumulated since
        #: the last sync; ``_acct_time`` the instant the books are balanced
        #: to.
        self._acct_time = sim.now
        self._load_j = 0.0
        #: Settled-read support: the instant of the most recent load toggle
        #: and the total load power *just before* that instant's first
        #: toggle.  A ``terminal_voltage(settled=True)`` read at the same
        #: instant answers with this pre-toggle level, so a timer-driven
        #: ADC sample is independent of whether a coincident load switch
        #: happened to dispatch first.
        self._tick_t = -1.0
        self._tick_load_w = 0.0
        self._plan_cells = int(round(self.MAX_STEP_S / self.PLAN_STEP_S))
        metrics = sim.obs.metrics
        self._m_soc = metrics.gauge("battery_soc", station=self._station)
        self._m_volts = metrics.gauge("battery_voltage_v", station=self._station)
        self._m_net = metrics.histogram("battery_net_power_w",
                                        buckets=_NET_POWER_BUCKETS,
                                        station=self._station)
        self._m_syncs = {}  # reason -> Counter handle, filled on first use
        self.loads.subscribe(self._on_load_switch)
        self._process = sim.process(self._run_adaptive(), name=f"{name}.integrator")

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_source(self, source: PowerSource) -> PowerSource:
        """Attach a charging source."""
        self.sources.append(source)
        self._peak_w_known = False
        return source

    def add_load(self, name: str, power_w: float) -> Load:
        """Register a switchable load."""
        return self.loads.add(name, power_w)

    def watch_voltage(self, volts: float, label: str,
                      callback: Optional[Callable[[str], None]] = None) -> VoltageWatch:
        """Subscribe to terminal-voltage crossings of ``volts``.

        Replaces threshold *polling*: the bus plans a sync at the
        predicted crossing, so the edge is observed within
        :attr:`CROSSING_TOLERANCE_S` of the model's true crossing instead
        of at the next poll.
        """
        watch = VoltageWatch(volts=volts, label=label, callback=callback)
        self._watches.append(watch)
        self.invalidate()
        return watch

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def source_power(self, time: Optional[float] = None) -> float:
        """Combined source output in watts at ``time`` (default: now)."""
        when = self.sim.now if time is None else time
        total = 0.0
        for source in self.sources:
            total += source.power_w(when)
        return total

    def load_power(self) -> float:
        """Combined draw of switched-on loads in watts."""
        return self.loads.total_power()

    def settled_load_w(self) -> float:
        """Load power over the open interval ending at this instant.

        Equal to :meth:`load_power` except at an instant where a load has
        already toggled, where it answers with the pre-toggle level — the
        steady state that actually held while a coincident ADC conversion
        was integrating charge.
        """
        if self._tick_t == self.sim.now:
            return self._tick_load_w
        return self.loads.total_power()

    def net_power(self) -> float:
        """Sources minus loads, in watts (positive = charging)."""
        return self.source_power() - self.load_power()

    def terminal_voltage(self, settled: bool = False) -> float:
        """Battery terminal voltage right now — what the MSP430's ADC sees.

        Answers *predictively* — state of charge projected from the last
        sync through the interval source energies — so an ADC read does
        not force an integration event.

        ``settled=True`` evaluates the IR term at :meth:`settled_load_w`
        instead of the instantaneous load set: the reading a timer-driven
        ADC conversion reports at an instant where a load also switches.
        That value is the same whichever of the two coincident events
        dispatched first, so periodic samplers stay tie-order robust;
        leave it ``False`` when the caller just toggled a load and wants
        to observe its own effect.
        """
        load_w = self.settled_load_w() if settled else self.load_power()
        net_w = self.source_power() - load_w
        now = self.sim.now
        dt = now - self._last_sync
        if dt <= 0:
            return self.battery.terminal_voltage(net_w)
        energy = 0.0
        for source in self.sources:
            energy += max(0.0, source.energy_j(self._last_sync, now))
        drained_j = self._load_j
        if not self.battery.is_exhausted:
            drained_j += self.loads.total_power() * (now - self._acct_time)
        soc = self.battery.predicted_soc(dt, drained_j / dt, energy)
        return self.battery.terminal_voltage_at(soc, net_w)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def sync(self, reason: str = "read") -> None:
        """Integrate battery and per-load energy up to the current instant.

        Idempotent at a single timestamp: a second call at the same
        ``sim.now`` integrates nothing (no double-booked sub-step when a
        load toggles exactly on a sample boundary) but still re-checks the
        brown-out/recovery edges, so state changes made *between* two
        same-instant calls (e.g. a lump :meth:`drain_j`) are observed.
        """
        now = self.sim.now
        self._account_loads(now)
        dt = now - self._last_sync
        if dt <= 0:
            self._check_edges()
            return
        self._last_sync = now
        load_w = self.loads.total_power()
        source_energy = 0.0
        for source in self.sources:
            delivered = max(0.0, source.energy_j(now - dt, now))
            source.delivered_j += delivered
            source_energy += delivered
        load_j = self._load_j
        self._load_j = 0.0
        self.battery.apply(dt, load_w=load_j / dt, source_w=source_energy / dt)
        inst_net_w = self.source_power(now) - load_w
        voltage = self.battery.terminal_voltage(inst_net_w)
        self._m_soc.set(self.battery.soc)
        self._m_volts.set(voltage)
        self._m_net.observe(inst_net_w)
        counter = self._m_syncs.get(reason)
        if counter is None:
            counter = self.sim.obs.metrics.counter(
                "energy_syncs_total", station=self._station, reason=reason)
            self._m_syncs[reason] = counter
        counter.inc()
        self._fired_edges.clear()
        self._update_watches(voltage)
        self._check_edges()

    def drain_j(self, energy_j: float) -> None:
        """Withdraw a lump of energy through the bus, sync-bracketed.

        The energy-conservation lint rule points here: draining the battery
        directly between syncs would charge the loss against the wrong
        interval and skip the brown-out edge check.  This integrates up to
        now, books the withdrawal, re-checks edges and invalidates the
        crossing prediction.
        """
        self.sync(reason="read")
        self.battery.drain_j(energy_j)
        self._check_edges()
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the planner's prediction and re-plan immediately.

        Needed whenever the future source/load trajectory changes in a way
        the bus cannot see — a test mutating ``ConstantSource.watts``, a
        rewired availability callable.  Load switches through
        :class:`~repro.energy.loads.LoadSet` invalidate automatically.
        """
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def _update_watches(self, voltage: float) -> None:
        previous = self._prev_voltage
        self._prev_voltage = voltage
        if previous is None:
            return
        for watch in self._watches:
            if previous < watch.volts <= voltage:
                direction = "rising"
            elif voltage < watch.volts <= previous:
                direction = "falling"
            else:
                continue
            self._fired_edges.append(watch.label)
            self.sim.obs.metrics.inc("power_threshold_crossings_total",
                                     station=self._station, label=watch.label,
                                     direction=direction)
            self.sim.trace.emit(self.name, "power_edge", label=watch.label,
                                direction=direction, volts=voltage)
            if watch.callback is not None:
                watch.callback(direction)

    def _check_edges(self) -> None:
        exhausted = self.battery.is_exhausted
        if exhausted and not self._was_exhausted:
            self._was_exhausted = True
            self._fired_edges.append("brownout")
            self.sim.obs.metrics.inc("power_brownouts_total", station=self._station)
            self.sim.trace.emit(self.name, "brownout", soc=self.battery.soc)
            self.loads.all_off()
            for callback in list(self.on_brownout):
                callback()
        elif self._was_exhausted and self.battery.can_restart:
            self._was_exhausted = False
            self._fired_edges.append("recovery")
            self.sim.obs.metrics.inc("power_recoveries_total", station=self._station)
            self.sim.trace.emit(self.name, "recovery", soc=self.battery.soc)
            for callback in list(self.on_recovery):
                callback()

    def _on_load_switch(self, _load: Load) -> None:
        # Subscribers fire *before* the switch flips, so on the first
        # toggle of an instant this captures the level the whole previous
        # interval ran at — what a coincident settled read must report.
        now = self.sim.now
        if now != self._tick_t:
            self._tick_t = now
            self._tick_load_w = self.loads.total_power()
        # Balance the per-load books at the toggle (the subscriber
        # fires *before* the switch flips, so the closing segment is booked
        # at the old power) but defer the battery integration.  Only when
        # the new load level could drive a target across its threshold
        # before the already-scheduled deadline does the planner wake — and
        # its wake path syncs at this same instant, exactly like the old
        # sync-per-toggle scheme, so nothing behavioural is lost.
        self._account_loads(now)
        if not self._deadline_safe():
            self.invalidate()

    def _account_loads(self, now: float) -> None:
        """Book per-load energy for the segment since the last booking.

        Loads are piecewise constant, so booking each inter-toggle segment
        at its (constant) power is exact; ``_load_j`` carries the summed
        battery drain into the next :meth:`sync`.  Booking is skipped while
        the battery is exhausted (exhaustion only changes state inside a
        sync, so the flag is constant across the segment).
        """
        dt = now - self._acct_time
        if dt <= 0:
            return
        self._acct_time = now
        if self.battery.is_exhausted:
            return
        total_w = 0.0
        for load in self.loads:
            power = load.current_power()
            if power:
                load.energy_j += power * dt
                total_w += power
        self._load_j += total_w * dt

    def _peak_source_w(self) -> Optional[float]:
        """Upper bound on combined source output, or ``None`` if unknown.

        Every stock source is capped by its ``rated_w`` (``watts`` for
        :class:`~repro.energy.sources.ConstantSource`); an exotic source
        without either attribute — or a negative constant — defeats the
        bound and the bus falls back to always re-planning.
        """
        if self._peak_w_known:
            return self._peak_w
        total = 0.0
        for source in self.sources:
            cap = getattr(source, "rated_w", None)
            if cap is None:
                cap = getattr(source, "watts", None)
            if cap is None or cap < 0.0:
                total = None
                break
            total += cap
        self._peak_w = total
        self._peak_w_known = True
        return total

    def _deadline_safe(self) -> bool:
        """Can the current plan survive this load switch un-replanned?

        Source power lies in ``[0, peak]``, so the trajectories under the
        two constant extremes bracket every reachable SoC/voltage pointwise:
        ``source_w = 0`` is the soonest any falling target (brown-out, a
        voltage sag) can be reached, ``source_w = peak`` the soonest any
        rising one (recovery, a voltage rise) can.  If even those bounds
        land beyond the already-scheduled deadline, the pending sync fires
        first anyway and the (expensive) re-plan is skipped.
        """
        deadline = self._deadline
        if deadline is None or self._wake is None:
            return False
        now = self.sim.now
        remaining = deadline - now
        if remaining <= self.MIN_REPLAN_S:
            return True  # the pending sync fires now-ish regardless
        peak_w = self._peak_source_w()
        if peak_w is None:
            return False
        battery = self.battery
        cfg = battery.config
        capacity_j = cfg.capacity_j
        # The battery's stored state is stale (last integrated at
        # ``_last_sync``); bound the *current* SoC instead of trusting it.
        # ``_load_j`` holds the full drain since then (the books were just
        # balanced to ``now``), sources only ever add charge, so:
        exhausted = battery.is_exhausted
        soc_lo = max(0.0, battery.soc - self._load_j / capacity_j)
        charge_w = peak_w * cfg.charge_efficiency
        elapsed = now - self._last_sync
        soc_hi = min(1.0, battery.soc + charge_w * elapsed / capacity_j)
        load_w = 0.0 if exhausted else self.loads.total_power()
        fall_w = load_w                       # fastest possible SoC drain
        rise_w = max(0.0, charge_w - load_w)  # fastest possible SoC rise
        # Only the *behavioural* edges are guarded: brown-out and recovery
        # change system state the instant they are observed, so the bus
        # must provably be unable to reach them before the pending sync.
        # Voltage watches are observational (trace + metrics, no state);
        # their planned crossings are best-effort under the trajectory at
        # plan time, and a watch crossing provoked by an unplanned load
        # change is simply observed at the next sync.  Guarding them here
        # would defeat the skip entirely — the IR term alone moves the
        # terminal voltage by ±peak·R/V_nom, which straddles every watch
        # threshold whenever the source can swing from calm to storm.
        for kind, _label, value in self._plan_targets():
            if kind == "brownout":
                if soc_lo <= value:
                    return False
                if fall_w > 0.0 and (soc_lo - value) * capacity_j < remaining * fall_w:
                    return False
            elif kind == "recovery":
                if soc_hi >= value:
                    return False
                if rise_w > 0.0 and (value - soc_hi) * capacity_j < remaining * rise_w:
                    return False
        return True

    # ------------------------------------------------------------------
    # Background processes
    # ------------------------------------------------------------------
    def _run_adaptive(self):
        sim = self.sim
        while True:
            delay, reason, target = self._plan()
            timer = sim.timeout(delay, name=f"{self.name}.deadline")
            wake = sim.event(f"{self.name}.replan")
            self._wake = wake
            self._deadline = sim.now + delay
            yield sim.any_of([timer, wake])
            self._wake = None
            self._deadline = None
            if not timer.processed:
                # Invalidated — integrate up to the triggering instant (the
                # planner projects from the battery's stored state, so it
                # must be fresh) and re-plan.  Wake-ups ride on the event
                # that caused them, so this sync lands exactly at the
                # unsafe load toggle / drain that fired it.
                self.sync(reason="load_switch")
                continue
            self.sync(reason=reason)
            if target is not None:
                self._score_prediction(target)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self) -> Tuple[float, str, Optional[Tuple[str, str, float]]]:
        """Pick the next sync: ``(delay, reason, target-or-None)``.

        Scans the :attr:`MAX_STEP_S` horizon on a ``_plan_cells`` grid,
        accumulating interval source energy cell by cell (O(1) per cell
        once the weather day caches are warm), projecting SoC and terminal
        voltage, and bracketing the first instant any target observable
        changes side.  The bracket is bisected to
        :attr:`CROSSING_TOLERANCE_S`.  Assumes the current load set; any
        load switch re-plans.
        """
        targets = self._plan_targets()
        horizon = self.MAX_STEP_S
        if not targets:
            return horizon, "max_step", None
        peak_w = self._peak_source_w()
        if peak_w is not None and self._targets_unreachable(targets, peak_w, horizon):
            return horizon, "max_step", None
        now = self.sim.now
        battery = self.battery
        load_w = self.loads.total_power()
        sources = self.sources
        # The battery model is inlined here (same arithmetic as
        # Battery.predicted_soc / terminal_voltage_at): the scan runs on
        # every re-plan and the call overhead dominates otherwise.
        cfg = battery.config
        capacity_j = cfg.capacity_j
        efficiency = cfg.charge_efficiency
        exhausted = battery.is_exhausted
        soc0 = battery.soc
        ocv_empty = cfg.ocv_empty
        ocv_span = cfg.ocv_full - cfg.ocv_empty
        ir_over_v = cfg.internal_resistance / cfg.nominal_voltage
        clamp_v = cfg.max_terminal_voltage
        step = horizon / self._plan_cells
        energy_cum = 0.0
        prev_t = now
        prev_sides: Optional[List[bool]] = None
        for _cell in range(self._plan_cells):
            t = prev_t + step
            cell_j = 0.0
            for source in sources:
                cell_j += source.energy_j(prev_t, t)
            new_cum = energy_cum + cell_j
            energy = soc0 * capacity_j + new_cum * efficiency
            if not exhausted:
                energy -= load_w * (t - now)
            soc = energy / capacity_j
            if soc > 1.0:
                soc = 1.0
            elif soc < 0.0:
                soc = 0.0
            mean_net_w = cell_j / step - load_w
            ir_term = mean_net_w * ir_over_v
            volts = ocv_empty + ocv_span * soc + ir_term
            if volts > clamp_v:
                volts = clamp_v
            if prev_sides is None:
                volts0 = min(clamp_v, ocv_empty + ocv_span * soc0 + ir_term)
                prev_sides = [self._target_side(tg, soc0, volts0)
                              for tg in targets]
            for index, target in enumerate(targets):
                side = self._target_side(target, soc, volts)
                if side != prev_sides[index]:
                    crossing = self._bisect_crossing(
                        target, prev_sides[index], prev_t, t, energy_cum, load_w)
                    delay = max(crossing - now, self.MIN_REPLAN_S)
                    return delay, "crossing", target
            energy_cum = new_cum
            prev_t = t
        return horizon, "max_step", None

    def _targets_unreachable(
        self,
        targets: List[Tuple[str, str, float]],
        peak_w: float,
        horizon: float,
    ) -> bool:
        """Whether no target can change side anywhere in the horizon.

        Same bracketing argument as :meth:`_deadline_safe` — source power
        lies in ``[0, peak]``, so constant-extreme trajectories bound every
        reachable SoC and terminal voltage pointwise.  When all targets
        provably stay on their current side the expensive cell scan is
        skipped; in practice this is the common case (a battery pegged near
        full under light load cannot reach any threshold in six hours).
        Unlike :meth:`_deadline_safe`, voltage watches *are* guarded here:
        this only gates the scan of the very trajectory the plan would use,
        so a skip can never lose a crossing the scan would have found.
        """
        battery = self.battery
        cfg = battery.config
        capacity_j = cfg.capacity_j
        load_w = 0.0 if battery.is_exhausted else self.loads.total_power()
        soc0 = battery.soc
        soc_lo = max(0.0, soc0 - load_w * horizon / capacity_j)
        soc_hi = min(1.0, soc0 + peak_w * cfg.charge_efficiency * horizon / capacity_j)
        ocv_empty = cfg.ocv_empty
        ocv_span = cfg.ocv_full - cfg.ocv_empty
        ir_over_v = cfg.internal_resistance / cfg.nominal_voltage
        clamp_v = cfg.max_terminal_voltage
        volts_lo = min(clamp_v, ocv_empty + ocv_span * soc_lo - load_w * ir_over_v)
        volts_hi = min(clamp_v, ocv_empty + ocv_span * soc_hi + peak_w * ir_over_v)
        for kind, _label, value in targets:
            if kind == "brownout":
                if soc_lo <= value:
                    return False
            elif kind == "recovery":
                if soc_hi >= value:
                    return False
            elif not (volts_lo >= value or volts_hi < value):
                return False
        return True

    def _plan_targets(self) -> List[Tuple[str, str, float]]:
        battery = self.battery
        if battery.is_exhausted:
            return [("recovery", "recovery", battery.config.recovery_soc)]
        targets = [("brownout", "brownout", battery.config.brownout_soc)]
        for watch in self._watches:
            targets.append(("volts", watch.label, watch.volts))
        return targets

    @staticmethod
    def _target_side(target: Tuple[str, str, float], soc: float, volts: float) -> bool:
        """Which side of its threshold the target observable is on.

        The side predicates mirror the edge detectors exactly:
        brown-out fires at ``soc <= threshold`` (:attr:`Battery.is_exhausted`),
        recovery at ``soc >= threshold`` (:attr:`Battery.can_restart`), and a
        voltage watch changes side at ``volts >= threshold``
        (:meth:`_update_watches`).
        """
        kind, _label, value = target
        if kind == "brownout":
            return soc > value
        if kind == "recovery":
            return soc >= value
        return volts >= value

    def _bisect_crossing(
        self,
        target: Tuple[str, str, float],
        start_side: bool,
        lo: float,
        hi: float,
        energy_at_lo: float,
        load_w: float,
    ) -> float:
        """First instant in ``(lo, hi]`` where ``target`` sits on the new side."""
        now = self.sim.now
        battery = self.battery
        sources = self.sources
        while hi - lo > self.CROSSING_TOLERANCE_S:
            mid = 0.5 * (lo + hi)
            slice_j = 0.0
            for source in sources:
                slice_j += source.energy_j(lo, mid)
            energy_mid = energy_at_lo + slice_j
            soc = battery.predicted_soc(mid - now, load_w, energy_mid)
            width = mid - lo
            mean_net_w = (slice_j / width if width > 0 else 0.0) - load_w
            volts = battery.terminal_voltage_at(soc, mean_net_w)
            if self._target_side(target, soc, volts) == start_side:
                lo = mid
                energy_at_lo = energy_mid
            else:
                hi = mid
        return hi

    def _score_prediction(self, target: Tuple[str, str, float]) -> None:
        """Account a fired crossing prediction as hit or miss."""
        metrics = self.sim.obs.metrics
        metrics.inc("energy_crossings_predicted_total", station=self._station)
        kind, label, value = target
        if label in self._fired_edges:
            return  # the predicted edge actually fired at this sync
        if kind == "volts":
            observed = self._prev_voltage if self._prev_voltage is not None else 0.0
            hit = abs(observed - value) <= self.PREDICT_TOLERANCE_V
        else:
            hit = abs(self.battery.soc - value) <= self.PREDICT_TOLERANCE_SOC
        if not hit:
            metrics.inc("energy_prediction_misses_total", station=self._station)
