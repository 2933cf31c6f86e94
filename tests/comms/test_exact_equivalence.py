"""The modem's drop sampler against its closed-form law; the probe radio's
burst path against a per-packet loop.

``Modem._sample_drop_delay`` draws a transfer's drop instant with one
inverse-CDF uniform instead of polling the hazard once per chunk.  Chunk
``i`` (length ``step_i``, hazard ``h_i`` at the chunk's end) survives with
``s_i = (1 - h_i)**step_i``, so the drop chunk must follow

    P(drop at chunk i) = prod_{j<i} s_j - prod_{j<=i} s_j

(geometric for a constant hazard) and the transfer survives with
``prod_j s_j``.  The suite checks observed drop-chunk counts against that
law within sampling noise.  The probe radio's burst path draws the same
rolls in the same order as a loop over ``transmit_detailed`` and is pinned
bitwise against one.
"""

import math

import pytest

from repro.comms.link import LinkDown, Modem
from repro.comms.probe_radio import ProbeRadioLink
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM
from repro.faults import Scenario
from repro.lint.determinism import lines_digest, record_canonical, run_mission
from repro.lint.tie_replay import (
    check_tie_robustness,
    normalize_tie_order,
    policy_factory,
)
from repro.sim import Simulation


class ConstantHazardModem(Modem):
    """Closed-form path: a GPRS-like modem with a flat drop hazard."""

    hazard_constant = True
    hazard = 0.002

    def drop_hazard_per_s(self, time):
        return self.hazard


class DiurnalHazardModem(Modem):
    """Chunk-walk path: hazard varies within a single transfer."""

    hazard_constant = False

    def drop_hazard_per_s(self, time):
        return 0.003 + 0.002 * math.sin(time / 600.0)


#: Transfer sized to 10 hazard chunks at the GPRS rate (300 s airtime).
TEN_CHUNK_BYTES = 187_500
TRIALS = 600


def run_send_trials(modem_cls, trials=TRIALS, nbytes=TEN_CHUNK_BYTES, seed=17):
    """``trials`` back-to-back sends.

    Returns ``(starts, drop_delays, modem)``: each send's start instant and
    its drop delay (``None`` when it survived), in send order.
    """
    sim = Simulation(seed=seed)
    bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
    modem = modem_cls(sim, bus, "t.modem", GPRS_MODEM)
    starts = []
    drop_delays = []

    def driver(sim):
        for _ in range(trials):
            modem.connected = True
            started = sim.now
            starts.append(started)
            try:
                yield from modem.send(nbytes)
                drop_delays.append(None)
            except LinkDown:
                drop_delays.append(sim.now - started)

    sim.process(driver(sim))
    # The power bus keeps housekeeping events alive forever; a generous
    # horizon (600 trials x 300 s airtime) bounds the run instead.
    sim.run(until=trials * 400.0 + 10_000.0)
    return starts, drop_delays, modem


def drop_chunk_pmf(modem, start, total_s):
    """Closed-form law of one transfer: ``(pmf, chunk_ends)``.

    ``pmf[i]`` is the probability of dropping at the end of chunk ``i``
    and the final entry the probability of surviving the whole transfer.
    """
    pmf, ends = [], []
    survival = 1.0
    elapsed = 0.0
    while elapsed < total_s:
        step = min(modem.chunk_s, total_s - elapsed)
        elapsed += step
        hazard = modem.drop_hazard_per_s(start + elapsed)
        next_survival = survival * (1.0 - hazard) ** step
        pmf.append(survival - next_survival)
        ends.append(elapsed)
        survival = next_survival
    pmf.append(survival)
    return pmf, ends


def check_against_pmf(starts, drop_delays, modem, total_s=300.0):
    """Observed drop-chunk counts against the summed per-transfer law.

    Every category (each chunk, plus survival) must land within 4 sigma
    of its expectation, and the mean drop delay within one 30 s chunk of
    the analytic conditional mean.
    """
    categories = math.ceil(total_s / modem.chunk_s) + 1
    expected = [0.0] * categories
    variance = [0.0] * categories
    observed = [0] * categories
    expected_delay_sum = 0.0
    for start, delay in zip(starts, drop_delays):
        pmf, ends = drop_chunk_pmf(modem, start, total_s)
        for index, p in enumerate(pmf):
            expected[index] += p
            variance[index] += p * (1.0 - p)
        expected_delay_sum += sum(p * end for p, end in zip(pmf, ends))
        if delay is None:
            observed[-1] += 1
        else:
            observed[min(range(len(ends)), key=lambda i: abs(ends[i] - delay))] += 1
    for index, (obs, exp, var) in enumerate(zip(observed, expected, variance)):
        assert abs(obs - exp) < 4.0 * math.sqrt(var), (index, obs, exp)
    drops = [delay for delay in drop_delays if delay is not None]
    assert drops
    expected_mean = expected_delay_sum / sum(expected[:-1])
    assert abs(sum(drops) / len(drops) - expected_mean) < 30.0
    return expected


class TestConstantHazardClosedForm:
    """The ``hazard_constant`` inversion against the geometric law."""

    def analytic_survival(self, total_s=300.0):
        return (1.0 - ConstantHazardModem.hazard) ** total_s

    def test_survival_fraction_matches_analytic(self):
        _starts, drops, _modem = run_send_trials(ConstantHazardModem)
        survived = drops.count(None)
        p = self.analytic_survival()
        sigma = math.sqrt(p * (1.0 - p) / TRIALS)
        assert abs(survived / TRIALS - p) < 4.0 * sigma

    def test_drop_delay_distributions_agree(self):
        starts, drops, modem = run_send_trials(ConstantHazardModem)
        expected = check_against_pmf(starts, drops, modem)
        # The constant-hazard law is geometric in the chunk index.
        s = (1.0 - ConstantHazardModem.hazard) ** modem.chunk_s
        for index, total in enumerate(expected[:-1]):
            assert total == pytest.approx(TRIALS * s ** index * (1.0 - s), rel=1e-9)

    def test_exact_drops_land_on_chunk_boundaries(self):
        _, drops, modem = run_send_trials(ConstantHazardModem)
        drops = [delay for delay in drops if delay is not None]
        assert drops  # h=0.002 over 300 s drops ~45% of transfers
        chunk = modem.chunk_s
        for delay in drops:
            remainder = delay % chunk
            assert min(remainder, chunk - remainder) < 1e-6

    def test_first_chunk_drop_fraction_matches_analytic(self):
        """The sharpest slice: P(drop in chunk 1) = 1 - (1-h)**30."""
        p_first = 1.0 - (1.0 - ConstantHazardModem.hazard) ** 30.0
        sigma = math.sqrt(p_first * (1.0 - p_first) / TRIALS)
        _, drops, _ = run_send_trials(ConstantHazardModem)
        first = sum(1 for d in drops if d is not None and d <= 30.0 + 1e-6)
        assert abs(first / TRIALS - p_first) < 4.0 * sigma


class TestVariableHazardChunkWalk:
    """The log-survival walk against the law computed from the hazard."""

    def test_drop_fraction_and_delay_agree(self):
        # The survival category is the drop fraction; each trial starts at
        # a different phase of the hazard, so each has its own law.
        starts, drops, modem = run_send_trials(DiurnalHazardModem)
        check_against_pmf(starts, drops, modem)

    def test_exact_walk_evaluates_hazard_at_chunk_ends(self):
        """A hazard spike confined to one chunk must be seen."""

        class SpikeModem(Modem):
            def drop_hazard_per_s(self, time):
                return 1.0 if 60.0 <= time <= 90.0 else 0.0

        sim = Simulation(seed=3)
        bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
        modem = SpikeModem(sim, bus, "t.modem", GPRS_MODEM)
        dropped_at = []

        def driver(sim):
            modem.connected = True
            try:
                yield from modem.send(TEN_CHUNK_BYTES)
            except LinkDown:
                dropped_at.append(sim.now)

        sim.process(driver(sim))
        sim.run(until=10_000.0)
        # Hazard 1.0 first seen at the t=60 chunk end: certain drop there.
        assert dropped_at == [60.0]


class TestEventReduction:
    """The point of the exercise: one timeout instead of one per chunk."""

    def test_exact_send_is_at_least_ten_times_fewer_events(self):
        counts = {}
        for send in (True, False):
            sim = Simulation(seed=11)
            bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
            modem = ConstantHazardModem(sim, bus, "t.modem", GPRS_MODEM)
            modem.hazard = 0.0  # survive: count the full transfer's events

            def driver(sim):
                modem.connected = True
                yield from modem.send(TEN_CHUNK_BYTES * 10)

            if send:
                sim.process(driver(sim))
            sim.run(until=100_000.0)
            counts[send] = sim.events_processed
        # Housekeeping (bus sync, process starts) is the same in both runs;
        # compare the transfer's own event cost with the hazard chunks it
        # spans (a per-chunk poll would cost one timeout each).
        chunks = math.ceil(modem.transfer_time_s(TEN_CHUNK_BYTES * 10) / modem.chunk_s)
        assert chunks == 100
        exact_cost = counts[True] - counts[False]
        assert 1 <= exact_cost <= 3
        assert chunks >= 10 * exact_cost

    def test_exact_draws_counter(self):
        _, _, modem = run_send_trials(ConstantHazardModem, trials=50)
        counter = modem.sim.obs.metrics.counter("comms_exact_draws_total",
                                                modem="t.modem")
        assert counter.value == 50.0


def per_packet_loop(link, payload_bytes, count, deadline):
    """Reference burst: one :meth:`transmit_detailed` (one timeout) per packet."""
    outcomes = []
    for _ in range(count):
        if deadline is not None and link.sim.now >= deadline:
            break
        outcome = yield from link.transmit_detailed(payload_bytes)
        outcomes.append(outcome)
    return outcomes


def run_burst(burst=True, seed=5, count=400, deadline=None, payload=120):
    sim = Simulation(seed=seed)
    link = ProbeRadioLink(
        sim,
        # Loss swings within a few packet times (~0.16 s each), so a roll
        # taken at the wrong instant changes outcomes.
        loss_fn=lambda ts: [0.10 + 0.08 * math.sin(t / 0.5) for t in ts],
        corruption_probability=0.05,
    )
    out = {}

    def driver(sim):
        if burst:
            process = link.transmit_sequence(payload, count, deadline)
        else:
            process = per_packet_loop(link, payload, count, deadline)
        outcomes = yield sim.process(process)
        out["outcomes"] = outcomes
        out["done_at"] = sim.now

    sim.process(driver(sim))
    sim.run()
    out["link"] = link
    out["events"] = sim.events_processed
    return out


class TestProbeRadioBitwise:
    """The burst path draws the identical rolls: bitwise, not statistical."""

    def test_burst_outcomes_identical(self):
        looped = run_burst(burst=False)
        burst = run_burst()
        assert looped["outcomes"] == burst["outcomes"]
        assert len(burst["outcomes"]) == 400
        for field in ("packets_sent", "packets_lost", "packets_broken"):
            assert getattr(looped["link"], field) == getattr(burst["link"], field)
        # One summed timeout vs 400 chained ones: equal to float rounding.
        assert looped["done_at"] == pytest.approx(burst["done_at"], rel=1e-12)
        assert looped["events"] >= 10 * burst["events"]

    def test_deadline_cuts_identically(self):
        # packet_time ~= 0.1567 s; a 20 s deadline admits ~128 of 400.
        looped = run_burst(burst=False, deadline=20.0)
        burst = run_burst(deadline=20.0)
        assert 0 < len(burst["outcomes"]) < 400
        assert looped["outcomes"] == burst["outcomes"]

    def test_empty_burst_costs_nothing(self):
        burst = run_burst(count=0)
        assert burst["outcomes"] == []
        assert burst["link"].packets_sent == 0


class TestDeploymentDigests:
    """The drop sampler at deployment level: replayable and tie-order robust."""

    def test_same_seed_replay_is_byte_identical(self):
        digest_a, _ = run_mission(Scenario.of(seed=0, days=3.0))
        digest_b, _ = run_mission(Scenario.of(seed=0, days=3.0))
        assert digest_a == digest_b

    def test_exact_mode_tie_normalized_digest_robust_across_policies(self):
        report = check_tie_robustness(
            seed=0, days=3.0, policies=("fifo", "shuffle:1", "lifo"),
            mission_factory=policy_factory(Scenario.of(seed=0)))
        assert report.robust, report.format()
        digests = {run.normalized_digest for run in report.runs}
        assert len(digests) == 1

    def test_trace_normalization_helper_stable(self):
        """normalize_tie_order on a real mission trace is idempotent."""
        deployment = Scenario.of(seed=1).build()
        deployment.run_days(1.0)
        lines = [record_canonical(r) for r in deployment.sim.trace.records]
        normalized = normalize_tie_order(lines)
        assert normalize_tie_order(normalized) == normalized
        assert lines_digest(normalized) == lines_digest(
            normalize_tie_order(lines))
