"""Fixed-step reference integrator for the power-bus equivalence tests.

:class:`FixedStepBus` replaces the event-driven planner with the
original scheme: a background process samples the sources every
``step_s`` seconds (right-rectangle integration), a load switch syncs
first so per-load energy is exact for piecewise-constant loads, and a
voltage read is a sample point.  With a fine step it is the reference
the event-driven :class:`~repro.energy.bus.PowerBus` is checked against
in ``test_adaptive_equivalence.py``.
"""

from repro.energy.bus import PowerBus


class FixedStepBus(PowerBus):
    """A :class:`PowerBus` integrated on a fixed ``step_s`` tick."""

    def __init__(self, sim, battery, name="power", step_s=60.0):
        self.step_s = step_s
        super().__init__(sim, battery, name=name)

    def terminal_voltage(self, settled=False):
        self.sync(reason="read")
        load_w = self.settled_load_w() if settled else self.load_power()
        return self.battery.terminal_voltage(self.source_power() - load_w)

    def sync(self, reason="read"):
        now = self.sim.now
        dt = now - self._last_sync
        if dt <= 0:
            self._check_edges()
            return
        self._last_sync = now
        exhausted_before = self.battery.is_exhausted
        load_w = self.loads.total_power()
        source_w = self.source_power(now)
        self.battery.apply(dt, load_w=load_w, source_w=source_w)
        for source in self.sources:
            source.delivered_j += source.power_w(now) * dt
        if not exhausted_before:
            for load in self.loads:
                load.energy_j += load.current_power() * dt
        self._fired_edges.clear()
        self._update_watches(self.battery.terminal_voltage(source_w - load_w))
        self._check_edges()

    def _on_load_switch(self, _load):
        now = self.sim.now
        if now != self._tick_t:
            self._tick_t = now
            self._tick_load_w = self.loads.total_power()
        self.sync(reason="load_switch")

    def _run_adaptive(self):
        while True:
            yield self.sim.timeout(self.step_s)
            self.sync(reason="tick")
