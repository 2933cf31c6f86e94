"""Per-rule fixtures: each rule fires on a minimal violating snippet and
stays quiet on the compliant rewrite."""

import textwrap

from repro.lint.engine import lint_source
from repro.lint.findings import Severity
from repro.lint.rules import RULE_REGISTRY, default_rules


def findings_for(snippet, rule=None, path="src/repro/example.py"):
    rules = default_rules(select=[rule] if rule else None)
    return lint_source(textwrap.dedent(snippet), path=path, rules=rules)


def rule_ids(findings):
    return [f.rule for f in findings]


class TestWallClock:
    def test_fires_on_datetime_now(self):
        found = findings_for(
            """
            import datetime
            def stamp():
                return datetime.datetime.now()
            """,
            rule="wall-clock",
        )
        assert rule_ids(found) == ["wall-clock"]
        assert found[0].line == 4

    def test_fires_on_time_time_and_today(self):
        found = findings_for(
            """
            import time
            from datetime import date
            t = time.time()
            d = date.today()
            """,
            rule="wall-clock",
        )
        assert rule_ids(found) == ["wall-clock", "wall-clock"]

    def test_quiet_on_simclock(self):
        found = findings_for(
            """
            def stamp(sim):
                return sim.clock.utcnow()

            def now(sim):
                return sim.now
            """,
            rule="wall-clock",
        )
        assert found == []


class TestRngDiscipline:
    def test_fires_on_default_rng(self):
        found = findings_for(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """,
            rule="rng-discipline",
        )
        assert rule_ids(found) == ["rng-discipline"]

    def test_fires_on_stdlib_random_and_np_seed(self):
        found = findings_for(
            """
            import random
            import numpy as np
            x = random.random()
            random.shuffle([1, 2])
            np.random.seed(0)
            """,
            rule="rng-discipline",
        )
        assert rule_ids(found) == ["rng-discipline"] * 3

    def test_quiet_on_registry_stream(self):
        found = findings_for(
            """
            def draw(sim):
                return sim.rng.stream("weather").normal()
            """,
            rule="rng-discipline",
        )
        assert found == []

    def test_rng_module_itself_exempt(self):
        found = findings_for(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            """,
            rule="rng-discipline",
            path="src/repro/sim/rng.py",
        )
        assert found == []


class TestFloatEquality:
    def test_fires_on_voltage_compare(self):
        found = findings_for(
            """
            def check(battery):
                return battery.voltage == 12.5
            """,
            rule="float-equality",
        )
        assert rule_ids(found) == ["float-equality"]

    def test_fires_on_float_literal_noteq(self):
        found = findings_for("ok = value != 0.0\n", rule="float-equality")
        assert rule_ids(found) == ["float-equality"]

    def test_quiet_on_int_and_string_compares(self):
        found = findings_for(
            """
            def route(args, count):
                if args.what == "snapshot":
                    return 1
                return count == 0
            """,
            rule="float-equality",
        )
        assert found == []

    def test_quiet_on_threshold_compare(self):
        found = findings_for("low = battery.voltage < 11.5\n", rule="float-equality")
        assert found == []


class TestMutableDefault:
    def test_fires_on_list_default(self):
        found = findings_for(
            """
            def collect(readings=[]):
                return readings
            """,
            rule="mutable-default",
        )
        assert rule_ids(found) == ["mutable-default"]

    def test_fires_on_dict_call_and_kwonly(self):
        found = findings_for(
            """
            def a(x=dict()):
                return x

            def b(*, y={}):
                return y
            """,
            rule="mutable-default",
        )
        assert rule_ids(found) == ["mutable-default"] * 2

    def test_quiet_on_none_sentinel(self):
        found = findings_for(
            """
            def collect(readings=None, label="x", n=3):
                if readings is None:
                    readings = []
                return readings
            """,
            rule="mutable-default",
        )
        assert found == []


class TestSilentExcept:
    def test_fires_on_bare_except(self):
        found = findings_for(
            """
            def run(proc):
                try:
                    proc.step()
                except:
                    pass
            """,
            rule="silent-except",
        )
        assert rule_ids(found) == ["silent-except"]

    def test_fires_on_exception_pass(self):
        found = findings_for(
            """
            def run(proc):
                try:
                    proc.step()
                except Exception:
                    pass
            """,
            rule="silent-except",
        )
        assert rule_ids(found) == ["silent-except"]

    def test_quiet_on_narrow_handler(self):
        found = findings_for(
            """
            def run(proc, trace):
                try:
                    proc.step()
                except ValueError as exc:
                    trace.emit("kernel", "error", message=str(exc))
                except Exception as exc:
                    trace.emit("kernel", "error", message=str(exc))
                    raise
            """,
            rule="silent-except",
        )
        assert found == []


class TestYieldDiscipline:
    def test_fires_on_literal_yield(self):
        found = findings_for(
            """
            def worker(sim):
                yield 5
            """,
            rule="yield-discipline",
        )
        assert rule_ids(found) == ["yield-discipline"]

    def test_fires_on_tuple_yield(self):
        found = findings_for(
            """
            def worker(sim):
                yield (1, 2)
            """,
            rule="yield-discipline",
        )
        assert rule_ids(found) == ["yield-discipline"]

    def test_quiet_on_event_yields(self):
        found = findings_for(
            """
            def worker(sim):
                yield sim.timeout(10.0)
                value = yield from sim.process(child(sim))
                yield sim.event("done")
                return value

            def marker():
                yield  # bare yield: the make-this-a-generator idiom
            """,
            rule="yield-discipline",
        )
        assert found == []


class TestNoPrint:
    def test_fires_on_library_print(self):
        found = findings_for(
            """
            def drain(queue):
                print("draining", len(queue))
            """,
            rule="no-print",
            path="src/repro/comms/transfer.py",
        )
        assert rule_ids(found) == ["no-print"]

    def test_quiet_in_cli_modules(self):
        snippet = """
            def main():
                print("summary")
            """
        for path in ("src/repro/cli.py", "src/repro/lint/cli.py"):
            assert findings_for(snippet, rule="no-print", path=path) == []

    def test_quiet_in_analysis_package(self):
        found = findings_for(
            """
            def render(rows):
                print(rows)
            """,
            rule="no-print",
            path="src/repro/analysis/report.py",
        )
        assert found == []

    def test_quiet_on_shadowed_or_method_print(self):
        found = findings_for(
            """
            def render(printer):
                printer.print("fine: not the builtin")
            """,
            rule="no-print",
        )
        assert found == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            def main():
                print("cli in disguise")  # repro-lint: disable=no-print
            """,
            rule="no-print",
        )
        assert found == []


class TestNoHotPathAlloc:
    KERNEL_PATH = "src/repro/sim/kernel.py"

    def test_fires_on_list_literal_in_run(self):
        found = findings_for(
            """
            class Simulation:
                def run(self, until=None):
                    batch = []
                    batch.append(1)
            """,
            rule="no-hot-path-alloc",
            path=self.KERNEL_PATH,
        )
        assert rule_ids(found) == ["no-hot-path-alloc"]

    def test_fires_on_lambda_and_dict_in_step(self):
        found = findings_for(
            """
            class Simulation:
                def step(self):
                    hook = lambda evt: None
                    extra = {"when": 0.0}
            """,
            rule="no-hot-path-alloc",
            path=self.KERNEL_PATH,
        )
        assert sorted(rule_ids(found)) == ["no-hot-path-alloc", "no-hot-path-alloc"]

    def test_fires_on_comprehension_in_schedule(self):
        found = findings_for(
            """
            class Simulation:
                def schedule(self, event, delay=0.0):
                    pending = [e for e in self._queue]
            """,
            rule="no-hot-path-alloc",
            path=self.KERNEL_PATH,
        )
        assert rule_ids(found) == ["no-hot-path-alloc"]

    def test_quiet_outside_hot_functions(self):
        found = findings_for(
            """
            class Simulation:
                def schedule_many(self, delays):
                    batch = list(delays)
                    return [d for d in batch]

                def call_at(self, when, func):
                    return lambda: func()
            """,
            rule="no-hot-path-alloc",
            path=self.KERNEL_PATH,
        )
        assert found == []

    def test_quiet_outside_kernel_module(self):
        found = findings_for(
            """
            def run():
                return [1, 2, 3]
            """,
            rule="no-hot-path-alloc",
            path="src/repro/fleet/runner.py",
        )
        assert found == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            class Simulation:
                def step(self):
                    debug = []  # repro-lint: disable=no-hot-path-alloc
            """,
            rule="no-hot-path-alloc",
            path=self.KERNEL_PATH,
        )
        assert found == []

    def test_shipped_kernel_is_clean(self):
        import pathlib

        source = pathlib.Path("src/repro/sim/kernel.py").read_text(encoding="utf-8")
        found = findings_for(source, rule="no-hot-path-alloc",
                             path="src/repro/sim/kernel.py")
        assert found == []


class TestEnergyConservation:
    def test_fires_on_direct_battery_apply(self):
        found = findings_for(
            """
            def tick(battery, dt):
                battery.apply(dt, load_w=1.0, source_w=0.0)
            """,
            rule="energy-conservation",
        )
        assert rule_ids(found) == ["energy-conservation"]

    def test_fires_on_attribute_battery_drain(self):
        found = findings_for(
            """
            class Heater:
                def pulse(self):
                    self.battery.drain_j(250.0)
            """,
            rule="energy-conservation",
        )
        assert rule_ids(found) == ["energy-conservation"]

    def test_quiet_on_bus_drain(self):
        found = findings_for(
            """
            def fire(bus):
                bus.drain_j(250.0, label="squib")
            """,
            rule="energy-conservation",
        )
        assert found == []

    def test_quiet_on_unrelated_apply(self):
        found = findings_for(
            """
            def patch(frame, delta):
                frame.apply(delta)
            """,
            rule="energy-conservation",
        )
        assert found == []

    def test_bus_and_battery_modules_exempt(self):
        snippet = """
            def sync(self, dt):
                self.battery.apply(dt, load_w=0.0, source_w=0.0)
            """
        for path in ("src/repro/energy/bus.py", "src/repro/energy/battery.py"):
            assert findings_for(snippet, rule="energy-conservation", path=path) == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            def calibrate(battery):
                battery.drain_j(1.0)  # repro-lint: disable=energy-conservation
            """,
            rule="energy-conservation",
        )
        assert found == []


class TestNoPollingLoop:
    def test_fires_on_chunked_bernoulli_loop(self):
        found = findings_for(
            """
            def send(self, total_s):
                remaining = total_s
                while remaining > 0:
                    yield self.sim.timeout(self.chunk_s)
                    remaining -= self.chunk_s
                    if self._drop_rng.random() < 0.01:
                        raise RuntimeError("drop")
            """,
            rule="no-polling-loop",
        )
        assert rule_ids(found) == ["no-polling-loop"]
        assert found[0].line == 4

    def test_fires_on_constant_delay_with_named_rng(self):
        found = findings_for(
            """
            def watch(sim, rng):
                while True:
                    yield sim.timeout(30.0)
                    value = rng.uniform(0.0, 1.0)
            """,
            rule="no-polling-loop",
        )
        assert rule_ids(found) == ["no-polling-loop"]

    def test_quiet_without_rng_draw(self):
        found = findings_for(
            """
            def sampler(self):
                while True:
                    yield self.sim.timeout(self.sample_interval_s)
                    self.log.append(self.bus.terminal_voltage())
            """,
            rule="no-polling-loop",
        )
        assert found == []

    def test_quiet_on_recomputed_delay(self):
        # Variable-delay loops (backoff, adaptive cadence) are not polling.
        found = findings_for(
            """
            def backoff(sim, rng):
                delay = 1.0
                while True:
                    yield sim.timeout(delay * 2.0)
                    delay = rng.uniform(1.0, 4.0)
            """,
            rule="no-polling-loop",
        )
        assert found == []

    def test_quiet_on_rng_draw_outside_loop(self):
        found = findings_for(
            """
            def once(sim, rng):
                delay = rng.exponential(60.0)
                while True:
                    yield sim.timeout(delay)
            """,
            rule="no-polling-loop",
        )
        assert found == []

    def test_oracle_modules_exempt(self):
        snippet = """
            def send(self, total_s):
                while total_s > 0:
                    yield self.sim.timeout(self.chunk_s)
                    total_s -= self.chunk_s
                    if self._drop_rng.random() < 0.01:
                        break
            """
        damage = findings_for(snippet, rule="no-polling-loop",
                              path="src/repro/environment/damage.py")
        assert damage == []
        # The modem has no chunked engine left to exempt.
        link = findings_for(snippet, rule="no-polling-loop",
                            path="src/repro/comms/link.py")
        assert rule_ids(link) == ["no-polling-loop"]

    def test_shipped_tree_is_polling_clean(self):
        """Outside the sanctioned damage check, the real tree has no polling loops."""
        import pathlib

        from repro.lint.engine import lint_paths

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = lint_paths([str(src)],
                              rules=default_rules(select=["no-polling-loop"]))
        assert findings == [], [str(f) for f in findings]


class TestLayering:
    def test_fires_on_upward_import(self):
        found = findings_for(
            """
            from repro.core.station import Station
            """,
            rule="layering",
            path="src/repro/hardware/msp430.py",
        )
        assert rule_ids(found) == ["layering"]

    def test_core_must_not_import_faults(self):
        """The load-bearing case: production code never depends on its own
        chaos harness."""
        found = findings_for(
            """
            from repro.faults import apply_fault_plan
            """,
            rule="layering",
            path="src/repro/core/deployment.py",
        )
        assert rule_ids(found) == ["layering"]

    def test_fires_on_equal_layer_sibling_import(self):
        found = findings_for(
            """
            import repro.environment.weather
            """,
            rule="layering",
            path="src/repro/energy/sources.py",
        )
        assert rule_ids(found) == ["layering"]

    def test_quiet_on_downward_import(self):
        found = findings_for(
            """
            from repro.sim.kernel import Simulation
            from repro.energy.bus import PowerBus
            from repro.core.deployment import Deployment
            """,
            rule="layering",
            path="src/repro/faults/harness.py",
        )
        assert found == []

    def test_quiet_on_same_package_import(self):
        found = findings_for(
            """
            from repro.core.config import DeploymentConfig
            """,
            rule="layering",
            path="src/repro/core/deployment.py",
        )
        assert found == []

    def test_obs_restricted_to_kernel_and_cli(self):
        snippet = """
            from repro.obs.metrics import MetricsRegistry
            """
        assert rule_ids(findings_for(
            snippet, rule="layering",
            path="src/repro/energy/bus.py")) == ["layering"]
        assert findings_for(snippet, rule="layering",
                            path="src/repro/sim/kernel.py") == []
        assert findings_for(snippet, rule="layering",
                            path="src/repro/cli.py") == []

    def test_type_checking_imports_exempt(self):
        found = findings_for(
            """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.core.station import Station

            def poke(station: "Station") -> None:
                station.daily_runs += 1
            """,
            rule="layering",
            path="src/repro/hardware/msp430.py",
        )
        assert found == []

    def test_quiet_outside_repro_tree(self):
        found = findings_for(
            """
            from repro.core.station import Station
            """,
            rule="layering",
            path="tests/hardware/test_msp430.py",
        )
        assert found == []

    def test_shipped_tree_is_layer_clean(self):
        """The real source tree must satisfy its own architecture diagram."""
        import pathlib

        from repro.lint.engine import lint_paths

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = lint_paths([str(src)],
                              rules=default_rules(select=["layering"]))
        assert findings == [], [str(f) for f in findings]


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        expected = {
            "wall-clock", "rng-discipline", "float-equality",
            "mutable-default", "silent-except", "yield-discipline",
            "no-print", "no-hot-path-alloc", "energy-conservation",
            "no-polling-loop", "layering",
        }
        assert expected <= set(RULE_REGISTRY)

    def test_every_rule_has_description_and_severity(self):
        for rule_cls in RULE_REGISTRY.values():
            assert rule_cls.id and rule_cls.description
            assert isinstance(rule_cls.severity, Severity)
