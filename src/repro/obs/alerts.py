"""Declarative alert/SLO engine: JSON rules over the trace stream.

The Glacsweb operators diagnosed the deployment entirely from uploaded
telemetry — the questions they asked ("has any battery sat below 11.5 V
for two days?", "did a probe go silent for a week?") are exactly the
alert rules this module evaluates, deterministically, from the simulated
record stream.

Rule document (``--alerts RULES.json``)::

    {"rules": [
      {"name": "battery-low", "type": "threshold",
       "signal": {"source": "base.battery", "kind": "battery",
                  "field": "voltage_v"},
       "op": "<", "value": 11.5, "for_s": 172800},
      {"name": "probe-silent", "type": "absence",
       "signal": {"source": "probes", "kind": "probe_contact"},
       "window_s": 604800},
      {"name": "recovery-violated", "type": "budget",
       "metric": "fault_recoveries_total",
       "labels": {"result": "violated"}, "op": ">", "value": 0}
    ]}

Three rule types:

- **threshold** — compare a record's ``field`` against ``value`` with
  ``op``.  Without ``for_s`` the rule fires once per *episode* on entry;
  with ``for_s`` it fires at the first matching sample once the
  condition has held for at least ``for_s`` of sim time (and a still-
  open episode is checked again against the end-of-run clock in
  :meth:`AlertEngine.finish`).  A non-matching sample closes the
  episode.
- **absence** — fire when no matching record arrives for ``window_s``
  of sim time, once per gap (including the gap from time 0 to the first
  record, and the tail gap closed out by ``finish``).
- **budget** — evaluated once at ``finish`` over the final metrics
  registry: the sum of every sample of ``metric`` whose labels contain
  the given ``labels`` subset, compared with ``op``/``value``.

Signals match by exact ``source`` or any dotted child (same semantics
as :meth:`~repro.sim.trace.Trace.select`).  The engine ignores records
from the ``"alerts"`` source, so its own firings (emitted back onto the
trace for replay visibility) can never re-trigger a rule.

Everything is driven by simulated time carried on the records; the
engine holds no host state, so firings are byte-stable across replays.
"""

from __future__ import annotations

import json
import operator
from typing import Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Trace source used for the engine's own firing records.
ALERT_SOURCE = "alerts"


class AlertFiring:
    """One rule firing at one simulated instant."""

    __slots__ = ("rule", "time", "message")

    def __init__(self, rule: str, time: float, message: str) -> None:
        self.rule = rule
        self.time = time
        self.message = message

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for run summaries and sweep records."""
        return {"rule": self.rule, "time": self.time, "message": self.message}


class _Signal:
    """Source/kind/field matcher shared by threshold and absence rules."""

    __slots__ = ("source", "kind", "field", "_child_prefix")

    def __init__(self, spec: Mapping[str, object], rule: str,
                 need_field: bool) -> None:
        if not isinstance(spec, Mapping) or "source" not in spec:
            raise ValueError(f"alert rule {rule!r}: signal needs a 'source'")
        self.source = str(spec["source"])
        self.kind = str(spec["kind"]) if "kind" in spec else None
        self.field = str(spec["field"]) if "field" in spec else None
        if need_field and self.field is None:
            raise ValueError(
                f"alert rule {rule!r}: threshold signal needs a 'field'")
        self._child_prefix = self.source + "."

    def matches(self, record) -> bool:
        if record.source != self.source and not record.source.startswith(
                self._child_prefix):
            return False
        if self.kind is not None and record.kind != self.kind:
            return False
        return True


class _ThresholdRule:
    def __init__(self, name: str, spec: Mapping[str, object]) -> None:
        self.name = name
        self.signal = _Signal(spec.get("signal"), name, need_field=True)
        op = spec.get("op")
        if op not in _OPS:
            raise ValueError(f"alert rule {name!r}: unknown op {op!r}")
        self.op_name = op
        self.op = _OPS[op]
        if "value" not in spec:
            raise ValueError(f"alert rule {name!r}: threshold needs a 'value'")
        self.value = float(spec["value"])
        self.for_s = float(spec["for_s"]) if "for_s" in spec else None
        if self.for_s is not None and self.for_s < 0:
            raise ValueError(f"alert rule {name!r}: for_s must be >= 0")
        #: Sim time the current matching episode opened, or None.
        self.active_since: Optional[float] = None
        #: True once the current episode has fired (one firing per episode).
        self.fired = False

    def observe(self, record, engine: "AlertEngine") -> None:
        if not self.signal.matches(record):
            return
        raw = record.detail.get(self.signal.field)
        if raw is None:
            return
        try:
            sample = float(raw)
        except (TypeError, ValueError):
            return
        if self.op(sample, self.value):
            if self.active_since is None:
                self.active_since = record.time
                self.fired = False
                if self.for_s is None:
                    self._fire(record.time, sample, engine)
            elif (not self.fired and self.for_s is not None
                  and record.time - self.active_since >= self.for_s):
                self._fire(record.time, sample, engine)
        else:
            self.active_since = None
            self.fired = False

    def finish(self, now: float, engine: "AlertEngine") -> None:
        # An episode still open at mission close may have crossed for_s
        # without another sample arriving to notice it.
        if (self.active_since is not None and not self.fired
                and self.for_s is not None
                and now - self.active_since >= self.for_s):
            self._fire(now, None, engine)

    def _fire(self, when: float, sample: Optional[float],
              engine: "AlertEngine") -> None:
        self.fired = True
        held = "" if self.for_s is None else (
            f" held {when - self.active_since:.0f}s (>= {self.for_s:.0f}s)")
        shown = "condition" if sample is None else f"{sample!r}"
        engine._fire(self, when,
                     f"{self.signal.field} {shown} {self.op_name} "
                     f"{self.value!r}{held}")


class _AbsenceRule:
    def __init__(self, name: str, spec: Mapping[str, object]) -> None:
        self.name = name
        self.signal = _Signal(spec.get("signal"), name, need_field=False)
        if "window_s" not in spec:
            raise ValueError(f"alert rule {name!r}: absence needs 'window_s'")
        self.window_s = float(spec["window_s"])
        if self.window_s <= 0:
            raise ValueError(f"alert rule {name!r}: window_s must be > 0")
        self.last_seen = 0.0
        self.fired_for_gap = False

    def observe(self, record, engine: "AlertEngine") -> None:
        if self.signal.matches(record):
            self.last_seen = record.time
            self.fired_for_gap = False
            return
        # Any other record advances the clock; a gap fires once.
        self._check(record.time, engine)

    def finish(self, now: float, engine: "AlertEngine") -> None:
        self._check(now, engine)

    def _check(self, now: float, engine: "AlertEngine") -> None:
        if not self.fired_for_gap and now - self.last_seen >= self.window_s:
            self.fired_for_gap = True
            engine._fire(self, now,
                         f"no {self.signal.source} record for "
                         f"{now - self.last_seen:.0f}s "
                         f"(window {self.window_s:.0f}s)")


class _BudgetRule:
    def __init__(self, name: str, spec: Mapping[str, object]) -> None:
        self.name = name
        if "metric" not in spec:
            raise ValueError(f"alert rule {name!r}: budget needs a 'metric'")
        self.metric = str(spec["metric"])
        labels = spec.get("labels", {})
        if not isinstance(labels, Mapping):
            raise ValueError(f"alert rule {name!r}: labels must be an object")
        self.labels = {str(k): str(v) for k, v in labels.items()}
        op = spec.get("op")
        if op not in _OPS:
            raise ValueError(f"alert rule {name!r}: unknown op {op!r}")
        self.op_name = op
        self.op = _OPS[op]
        if "value" not in spec:
            raise ValueError(f"alert rule {name!r}: budget needs a 'value'")
        self.value = float(spec["value"])

    def observe(self, record, engine: "AlertEngine") -> None:
        pass

    def finish(self, now: float, engine: "AlertEngine") -> None:
        registry = engine.metrics
        if registry is None:
            return
        total = 0.0
        for metric in registry.metrics():
            if metric.name != self.metric:
                continue
            labels = metric.label_dict()
            if all(labels.get(k) == v for k, v in self.labels.items()):
                total += getattr(metric, "value", getattr(metric, "sum", 0.0))
        if self.op(total, self.value):
            shown = "".join(f"{{{k}={v}}}" for k, v in sorted(self.labels.items()))
            engine._fire(self, now,
                         f"sum({self.metric}{shown}) = {total!r} "
                         f"{self.op_name} {self.value!r}")


_RULE_TYPES = {
    "threshold": _ThresholdRule,
    "absence": _AbsenceRule,
    "budget": _BudgetRule,
}


class AlertEngine:
    """Evaluates parsed alert rules against the trace stream.

    Subscribe :meth:`observe` to a trace (or let the CLI do it); call
    :meth:`finish` at mission close to settle end-of-run conditions.
    """

    def __init__(self, rules_doc, metrics: Optional[MetricsRegistry] = None,
                 trace=None) -> None:
        if isinstance(rules_doc, Mapping):
            specs = rules_doc.get("rules")
            if not isinstance(specs, list):
                raise ValueError("alert rules document needs a 'rules' list")
        elif isinstance(rules_doc, list):
            specs = rules_doc
        else:
            raise ValueError("alert rules must be a list or {'rules': [...]}")
        self.rules: List[object] = []
        seen: set = set()
        for spec in specs:
            if not isinstance(spec, Mapping) or "name" not in spec:
                raise ValueError("every alert rule needs a 'name'")
            name = str(spec["name"])
            if name in seen:
                raise ValueError(f"duplicate alert rule name {name!r}")
            seen.add(name)
            rule_type = spec.get("type")
            factory = _RULE_TYPES.get(rule_type)
            if factory is None:
                raise ValueError(
                    f"alert rule {name!r}: unknown type {rule_type!r} "
                    f"(expected one of {sorted(_RULE_TYPES)})")
            self.rules.append(factory(name, spec))
        self.metrics = metrics
        self.trace = trace
        self.firings: List[AlertFiring] = []
        self._finished = False

    @classmethod
    def from_file(cls, path: str,
                  metrics: Optional[MetricsRegistry] = None,
                  trace=None) -> "AlertEngine":
        """Parse a rules JSON file (ValueError on malformed rules)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"alert rules {path}: invalid JSON: {exc}")
        return cls(doc, metrics=metrics, trace=trace)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def attach(self, trace) -> None:
        """Subscribe to a trace and echo firings back onto it."""
        self.trace = trace
        trace.subscribe(self.observe)

    def observe(self, record) -> None:
        """Consume one trace record (the subscriber entry point)."""
        if record.source == ALERT_SOURCE:
            return
        for rule in self.rules:
            rule.observe(record, self)

    def finish(self, now: float) -> List[AlertFiring]:
        """Settle end-of-run conditions; idempotent."""
        if self._finished:
            return self.firings
        self._finished = True
        for rule in self.rules:
            rule.finish(now, self)
        return self.firings

    def _fire(self, rule, when: float, message: str) -> None:
        self.firings.append(AlertFiring(rule.name, when, message))
        if self.metrics is not None:
            self.metrics.inc("alerts_fired_total", rule=rule.name)
        if self.trace is not None:
            self.trace.emit(ALERT_SOURCE, "alert_fired", rule=rule.name,
                            message=message)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-safe block for sweep summaries and reports."""
        return {
            "rules": len(self.rules),
            "fired": len(self.firings),
            "firings": [firing.to_dict() for firing in self.firings],
        }

    def format(self) -> str:
        """Human-readable block for mission reports and the CLI."""
        if not self.firings:
            return f"alerts: OK ({len(self.rules)} rules, none fired)"
        lines = [f"alerts: {len(self.firings)} fired "
                 f"({len(self.rules)} rules)"]
        for firing in self.firings:
            days = firing.time / 86400.0
            lines.append(f"  [{firing.rule}] t={firing.time:.0f}s "
                         f"(day {days:.1f}): {firing.message}")
        return "\n".join(lines)
