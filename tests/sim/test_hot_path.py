"""Regression pins for the kernel hot path: boundary semantics, delay
validation, batch scheduling and cached observability dispatch.

These behaviours are easy to lose in a performance-motivated rewrite of
the run loop, so each is pinned explicitly."""

import math

import pytest

from repro.sim import Simulation, StopSimulation


@pytest.fixture
def sim():
    return Simulation(seed=1)


class TestRunUntilBoundary:
    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.call_at(10.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [10.0]

    def test_clock_lands_exactly_on_until(self, sim):
        sim.timeout(3.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_clock_lands_on_until_with_empty_queue(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_event_after_until_does_not_fire(self, sim):
        fired = []
        sim.call_at(10.0 + 1e-9, lambda: fired.append(True))
        sim.run(until=10.0)
        assert fired == []
        assert sim.now == 10.0

    def test_later_event_still_queued_for_next_run(self, sim):
        fired = []
        sim.call_at(20.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        sim.run(until=30.0)
        assert fired == [20.0]
        assert sim.now == 30.0


class TestStopSemantics:
    def test_stop_prevents_clock_jump_to_until(self, sim):
        def stopper(sim):
            yield sim.timeout(4.0)
            sim.stop()

        sim.process(stopper(sim))
        sim.run(until=100.0)
        assert sim.now == 4.0

    def test_stop_simulation_exception_ends_run(self, sim):
        fired = []

        def crasher(sim):
            yield sim.timeout(2.0)
            raise StopSimulation()

        sim.process(crasher(sim))
        sim.call_at(5.0, lambda: fired.append(True))
        sim.run(until=10.0)
        assert fired == []
        assert sim.now == 2.0

    def test_run_resumes_after_stop(self, sim):
        fired = []

        def stopper(sim):
            yield sim.timeout(1.0)
            sim.stop()

        sim.process(stopper(sim))
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == []
        sim.run(until=10.0)
        assert fired == [3.0]

    def test_events_processed_counted_across_stop(self, sim):
        def stopper(sim):
            yield sim.timeout(1.0)
            sim.stop()

        sim.process(stopper(sim))
        sim.run(until=10.0)
        assert sim.events_processed > 0


class TestNonFiniteDelays:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0])
    def test_schedule_rejects(self, sim, bad):
        with pytest.raises(ValueError, match="finite"):
            sim.schedule(sim.event("e"), delay=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.5])
    def test_timeout_rejects(self, sim, bad):
        with pytest.raises(ValueError):
            sim.timeout(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_call_at_rejects(self, sim, bad):
        with pytest.raises(ValueError, match="finite"):
            sim.call_at(bad, lambda: None)

    def test_call_at_rejects_past(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(sim.now - 1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
    def test_schedule_many_rejects_whole_batch(self, sim, bad):
        before = len(sim._queue)
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_many([1.0, bad, 2.0])
        # Atomic: the valid prefix must not have been enqueued.
        assert len(sim._queue) == before

    def test_zero_delay_is_fine(self, sim):
        sim.schedule(sim.event("e0"), delay=0.0)
        timeouts = sim.schedule_many([0.0])
        assert len(timeouts) == 1


class TestScheduleMany:
    def test_returns_timeouts_in_input_order(self, sim):
        timeouts = sim.schedule_many([5.0, 1.0, 3.0])
        assert [t.delay for t in timeouts] == [5.0, 1.0, 3.0]

    def test_fires_in_time_order(self, sim):
        fired = []
        timeouts = sim.schedule_many([5.0, 1.0, 3.0])
        for timeout in timeouts:
            timeout.callbacks.append(lambda evt: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_equal_delays_fifo(self, sim):
        order = []
        first, second = sim.schedule_many([2.0, 2.0])
        first.callbacks.append(lambda evt: order.append("first"))
        second.callbacks.append(lambda evt: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_interleaves_with_single_timeouts(self, sim):
        fired = []
        sim.call_at(2.0, lambda: fired.append("single"))
        batch = sim.schedule_many([1.0, 3.0])
        for timeout in batch:
            timeout.callbacks.append(lambda evt: fired.append("batch"))
        sim.run()
        assert fired == ["batch", "single", "batch"]

    def test_matches_loop_of_timeouts(self):
        delays = [0.5, 4.0, 2.5, 2.5, 7.0]

        def run(batch: bool):
            sim = Simulation(seed=1)
            fired = []
            if batch:
                timeouts = sim.schedule_many(delays)
            else:
                timeouts = [sim.timeout(d) for d in delays]
            for i, timeout in enumerate(timeouts):
                timeout.callbacks.append(
                    lambda evt, i=i: fired.append((sim.now, i))
                )
            sim.run()
            return fired

        assert run(batch=True) == run(batch=False)

    def test_empty_batch(self, sim):
        assert sim.schedule_many([]) == []
        assert sim.peek() == math.inf

    def test_batch_timeout_names_lazy_but_present(self, sim):
        (timeout,) = sim.schedule_many([4.0])
        assert timeout.name == "timeout(4)"


class TestDispatchRefresh:
    def test_enable_kernel_spans_mid_session_takes_effect(self, sim):
        def ticker(sim):
            while True:
                yield sim.timeout(1.0)

        sim.process(ticker(sim))
        sim.run(until=3.0)
        assert len(sim.obs.spans) == 0
        sim.obs.enable_kernel_spans()
        sim.run(until=6.0)
        assert len(sim.obs.spans) > 0

    def test_obs_replacement_refreshes_dispatch(self, sim):
        from repro.obs import Observability

        hub = Observability(clock=sim.clock)
        hub.enable_kernel_spans()
        sim.obs = hub
        sim.timeout(1.0)
        sim.run(until=2.0)
        assert len(hub.spans) > 0

    def test_obs_none_disables_instrumentation(self, sim):
        sim.obs.enable_kernel_spans()
        sim.obs = None
        sim.timeout(1.0)
        sim.run(until=2.0)  # must not crash chasing a missing hub
        assert sim.obs is None

    def test_stale_hub_stops_driving_dispatch(self, sim):
        old = sim.obs
        sim.obs = None
        old.enable_kernel_spans()  # the detached hub no longer drives dispatch
        sim.timeout(1.0)
        sim.run(until=2.0)
        assert sim.events_processed == 1
        assert len(old.spans) == 0


class TestObsTiers:
    """The obs overhead guard's 5,000-timeout workload under each obs tier.

    ``benchmarks/test_obs_overhead.py`` times it with no hub and with the
    default hub; these pin what each tier's run must produce.
    """

    EVENTS = 5000

    def run_workload(self, sim):
        for i in range(self.EVENTS):
            sim.timeout(float(i % 97))
        sim.run()
        return sim

    def test_no_hub_and_default_hub_run_to_the_last_timeout(self, sim):
        bare = Simulation(seed=1)
        bare.obs = None
        assert self.run_workload(bare).now == 96.0
        assert self.run_workload(sim).now == 96.0

    def test_kernel_spans_record_at_least_one_span_per_event(self, sim):
        sim.obs.enable_kernel_spans()
        self.run_workload(sim)
        assert len(sim.obs.spans) >= self.EVENTS
