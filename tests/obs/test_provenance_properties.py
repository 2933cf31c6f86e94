"""Provenance ledger properties over generated record sequences.

Hypothesis draws interleavings of the records the ledger consumes —
reading creation, fetches, gps birth and storage, file queueing (with
re-queues of the same readings into later files), transfers, archives
and destructive faults — including duplicate and out-of-order edges.
Whatever the sequence, mission close must satisfy

    created == archived + in_flight + lost

with ``lost_by_cause`` summing to ``lost``, and the ledger must be a pure
function of its input: two fresh ledgers fed the same records agree on
the report and on every metric.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.provenance import ProvenanceLedger
from repro.sim.simtime import SimClock
from repro.sim.trace import Trace

#: Reading groups ``(probe, task)``, gps artifacts and outbox files drawn from.
GROUPS = ((1, 0), (1, 1), (2, 5))
GPS = ("gps:gps/base/0001.obs", "gps:gps/base/0002.obs")
CAUSES = ("storage-corruption", "card-failure")

seqs = st.lists(st.integers(min_value=0, max_value=7), max_size=6)

operations = st.one_of(
    st.tuples(st.just("create_readings"), st.sampled_from(GROUPS),
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("create_gps"), st.sampled_from(GPS)),
    st.tuples(st.just("store_gps"), st.sampled_from(GPS)),
    st.tuples(st.just("fetch"), st.sampled_from(GROUPS), seqs,
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("queue"), st.integers(min_value=1, max_value=3),
              st.one_of(st.none(), st.sampled_from(GPS)),
              st.one_of(st.none(), st.sampled_from(GROUPS)), seqs),
    st.tuples(st.just("transfer"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("archive"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("fault"),
              st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                       max_size=3),
              st.sampled_from(CAUSES)),
)

#: Each step waits 0-3 minutes first, so equal and unequal latencies mix.
steps = st.lists(st.tuples(st.integers(min_value=0, max_value=3), operations),
                 max_size=40)

ledger_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def file_name(index):
    return f"outbox/probes/{index:06d}"


def emit(trace, operation):
    kind = operation[0]
    if kind == "create_readings":
        _, (probe, task), first_seq, count = operation
        trace.emit("prov", "created", cls="reading", probe=probe, task=task,
                   first_seq=first_seq, count=count)
    elif kind == "create_gps":
        trace.emit("prov", "created", cls="gps", artifact=operation[1])
    elif kind == "store_gps":
        trace.emit("prov", "stored", cls="gps", artifact=operation[1])
    elif kind == "fetch":
        _, (probe, task), new_seqs, rerequested = operation
        trace.emit("protocol.bulk", "fetch_done", task=task, probe=probe,
                   new_seqs=new_seqs, rerequested=rerequested)
    elif kind == "queue":
        _, index, artifact, group, queued_seqs = operation
        detail = {"station": "base", "file": file_name(index),
                  "file_kind": "probes", "bytes": 24 * len(queued_seqs)}
        if artifact is not None:
            detail["artifact"] = artifact
        if group is not None:
            detail.update(probe=group[0], task=group[1], seqs=queued_seqs)
        trace.emit("prov", "queued", **detail)
    elif kind in ("transfer", "archive"):
        stage = "transferred" if kind == "transfer" else "archived"
        trace.emit("prov", stage, station="base", file=file_name(operation[1]))
    else:
        _, indexes, cause = operation
        trace.emit("faults", "fault_injected", station="base", fault=cause,
                   files=[file_name(index) for index in indexes])


def records_of(drawn):
    clock = SimClock()
    trace = Trace(clock)
    for wait, operation in drawn:
        clock.advance_to(clock.now + 60.0 * wait)
        emit(trace, operation)
    return trace.records, clock.now


def closed_ledger(records, now):
    ledger = ProvenanceLedger()
    for record in records:
        ledger.observe(record)
    return ledger, ledger.finish(now)


@ledger_settings
@given(steps)
def test_conservation_holds_for_any_record_sequence(drawn):
    records, now = records_of(drawn)
    _ledger, report = closed_ledger(records, now)
    assert report.created == report.archived + report.in_flight + report.lost
    assert report.conserved
    assert sum(report.lost_by_cause.values()) == report.lost
    assert report.created == sum(
        sum(stages.values()) for stages in report.by_class.values())


@ledger_settings
@given(steps)
def test_ledger_is_a_pure_function_of_its_records(drawn):
    records, now = records_of(drawn)
    first, first_report = closed_ledger(records, now)
    second, second_report = closed_ledger(records, now)
    assert first_report.to_dict() == second_report.to_dict()
    assert first.metrics.snapshot() == second.metrics.snapshot()
