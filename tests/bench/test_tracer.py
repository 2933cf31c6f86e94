"""The benchmark tracer: span arithmetic, generator wrappers, neutrality."""

import pytest

from bench import tracer as tracing
from bench import workloads
from bench.tracer import Tracer


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def toy_tree(clock, span_cost_s=0.0):
    """root[0,10] -> a[1,4] -> b[2,3]; root -> c[5,9] (a generator, 2 resumes)."""
    t = Tracer(clock=clock)
    t.span_cost_s = span_cost_s

    def b():
        clock.advance(1.0)

    traced_b = t.wrap("b", b)

    def a():
        clock.advance(1.0)
        traced_b()
        clock.advance(1.0)

    traced_a = t.wrap("a", a)

    def c():
        clock.advance(2.0)
        yield "half"
        clock.advance(2.0)

    traced_c = t.wrap("c", c)

    with t.span("root"):
        clock.advance(1.0)
        traced_a()
        clock.advance(1.0)
        for _ in traced_c():
            pass
        clock.advance(1.0)
    return t


class TestSpanArithmetic:
    def test_self_time_is_duration_minus_children(self):
        t = toy_tree(FakeClock())
        assert t.self_s() == pytest.approx(
            {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})
        assert t.calls == {"root": 1, "a": 1, "b": 1, "c": 1}
        # A generator is timed per resume: two resumes, two spans.
        assert t.spans == {"root": 1, "a": 1, "b": 1, "c": 2}

    def test_wrapper_cost_is_taken_from_the_enclosing_span(self):
        t = toy_tree(FakeClock(), span_cost_s=0.1)
        # root encloses a and both resumes of c; a encloses b.
        assert t.self_s() == pytest.approx(
            {"root": 2.7, "a": 1.9, "b": 1.0, "c": 4.0})

    def test_merge_adds_a_worker_snapshot(self):
        t = toy_tree(FakeClock())
        t.merge(toy_tree(FakeClock()).snapshot())
        assert t.self_s()["c"] == pytest.approx(8.0)
        assert t.calls["a"] == 2

    def test_report_rolls_sub_keys_into_their_layer(self):
        t = Tracer(clock=FakeClock())
        t.merge({"raw_self": {"fleet": 1.0, "fleet.cache_load": 0.5, "idle": 9.0},
                 "calls": {"fleet": 1, "fleet.cache_load": 4, "idle": 1},
                 "spans": {"fleet": 1, "fleet.cache_load": 4, "idle": 1},
                 "counts": {"sim.events": 7}})
        report = t.report()
        assert report["fleet.self_s"] == pytest.approx(1.5)
        assert report["fleet.cache_load_s"] == pytest.approx(0.5)
        assert report["fleet.cache_load_calls"] == 4
        assert report["sim.events"] == 7
        assert not any(key.startswith("idle") for key in report)

    def test_calibration_measures_a_cost_per_span(self):
        from repro.sim.trace import Trace

        def probe():
            trace = Trace()
            for _ in range(2000):
                trace.emit("probe", "tick")

        t = Tracer()
        t.calibrate(probe)
        assert 0.0 < t.span_cost_s < 1e-4
        assert not tracing.installed() and t.calls["sim"] == 0


def transcript(gen_fn, *sends, throw=None):
    """Everything a consumer sees driving ``gen_fn()``."""
    seen = []
    gen = gen_fn()
    try:
        seen.append(("yield", next(gen)))
        for value in sends:
            seen.append(("yield", gen.send(value)))
        if throw is not None:
            seen.append(("yield", gen.throw(throw)))
        seen.append(("yield", next(gen)))
    except StopIteration as stop:
        seen.append(("return", stop.value))
    except Exception as exc:  # noqa: BLE001 - the transcript records it
        seen.append(("raise", type(exc).__name__, str(exc)))
    return seen


def echo():
    total = 0
    while True:
        try:
            value = yield total
        except KeyError:
            total = -1
            continue
        if value is None:
            return total
        total += value


def fails_on_send():
    yield 1
    raise ValueError("boom")


class TestGeneratorWrapper:
    @pytest.mark.parametrize("gen_fn,sends,throw", [
        (echo, (1, 2, 3), None),
        (echo, (5,), KeyError("x")),
        (echo, (5,), RuntimeError("not handled")),
        (fails_on_send, (), None),
    ])
    def test_same_values_and_exceptions_as_the_bare_generator(self, gen_fn, sends, throw):
        wrapped = Tracer().wrap("probes", gen_fn)
        assert transcript(wrapped, *sends, throw=throw) == \
            transcript(gen_fn, *sends, throw=throw)

    def test_yield_from_gets_the_return_value(self):
        def delegate(gen_fn):
            def outer():
                result = yield from gen_fn()
                return result * 10
            return outer

        wrapped = Tracer().wrap("probes", echo)
        assert transcript(delegate(wrapped), 4, None) == \
            transcript(delegate(echo), 4, None) == \
            [("yield", 0), ("yield", 4), ("return", 40)]

    def test_close_runs_the_inner_finally(self):
        log = []

        def guarded():
            try:
                yield 1
                yield 2
            finally:
                log.append("closed")

        gen = Tracer().wrap("hardware", guarded)()
        assert next(gen) == 1
        gen.close()
        assert log == ["closed"]

    def test_keeps_the_generator_name(self):
        wrapped = Tracer().wrap("core", echo)
        assert wrapped().__name__ == "echo"


class TestInstall:
    def test_uninstall_restores_every_entry_point(self):
        from repro.sim.kernel import Simulation
        from repro.sim.trace import Trace

        before = (Simulation.__dict__["run"], Trace.__dict__["emit"])
        t = Tracer().install()
        try:
            assert tracing.installed()
            assert Trace.__dict__["emit"] is not before[1]
            with pytest.raises(RuntimeError):
                Tracer().install()
        finally:
            t.uninstall()
        assert not tracing.installed()
        assert (Simulation.__dict__["run"], Trace.__dict__["emit"]) == before

    def test_a_vanished_entry_point_is_reported_not_fatal(self, monkeypatch):
        gone = ("core", "repro.core.deployment", ("Deployment.renamed_away",))
        monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (gone,))
        t = Tracer()
        # Calibration installs the tracer several times; the list is per install.
        t.calibrate(lambda: None, rounds=3)
        t.install()
        t.uninstall()
        assert t.missing == ["repro.core.deployment.Deployment.renamed_away"]


@pytest.mark.parametrize("name", ["endurance_year", "probe_survey",
                                  "fleet_outage_20x2"])
def test_tracing_leaves_the_mission_digest_unchanged(name, tmp_path):
    # Two days: the probes' first complete task reaches the archive on day 2.
    wl = workloads.make(name, 0, str(tmp_path), days=2.0)
    untraced, problems = wl.check(wl.op())
    assert problems == []
    t = Tracer().install()
    try:
        with t.span(wl.root):
            outcome = wl.op()
    finally:
        t.uninstall()
    traced, problems = wl.check(outcome)
    assert problems == []
    assert traced == untraced
    report = t.report()
    assert report["sim.events"] == outcome.deployment.sim.events_processed
    assert report["sim.dispatch_batches"] == outcome.deployment.sim.dispatch_batches
    assert report["energy.self_s"] > 0.0
