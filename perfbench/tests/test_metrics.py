"""The benchmark's own arithmetic: percentiles, checks, denominators."""

import pytest

import metrics
from workloads import Outcome


def _done(rid, arrival, first, completion, tokens=1):
    return Outcome(rid, arrival, "completed", first, completion, tokens)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert metrics.percentile(values, 50) == 50
        assert metrics.percentile(values, 90) == 90

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(1000)]
        assert metrics.percentile(values[::-1], 99) == 989.0

    def test_p99_needs_ten_samples_beyond(self):
        assert metrics.percentile(list(range(1000)), 99) == 989
        with pytest.raises(ValueError, match="9 beyond"):
            metrics.percentile(list(range(999)), 99)

    def test_p90_needs_a_hundred_samples(self):
        assert metrics.percentile(list(range(100)), 90) == 89
        with pytest.raises(ValueError, match="need at least 10"):
            metrics.percentile(list(range(99)), 90)

    def test_p50_needs_twenty_samples(self):
        assert metrics.percentile(list(range(20)), 50) == 9
        with pytest.raises(ValueError):
            metrics.percentile(list(range(19)), 50)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.percentile(list(range(100)), 100)


def _outcomes(completed=1000, shed=0, timed_out=0, pending=0):
    out = [_done(i, float(i), float(i) + 1.0, float(i) + 2.0 + i % 7)
           for i in range(completed)]
    rid = completed
    for state, n in (("shed", shed), ("timed_out", timed_out),
                     ("pending", pending)):
        for _ in range(n):
            out.append(Outcome(rid, float(rid), state, None, None, 1))
            rid += 1
    return out


class TestDenominators:
    def test_completed_frac_counts_every_attempted_request(self):
        sim = metrics.simulated_metrics(_outcomes(1000, shed=30, timed_out=20))
        assert sim["completed_frac"] == 1000 / 1050

    def test_failed_requests_are_missing_from_latencies(self):
        full = metrics.simulated_metrics(_outcomes(1000))
        with_shed = metrics.simulated_metrics(_outcomes(1000, shed=500))
        assert with_shed["sim_latency_p99_ms"] == full["sim_latency_p99_ms"]
        assert with_shed["sim_latency_p50_ms"] == full["sim_latency_p50_ms"]

    def test_throughput_spans_first_arrival_to_last_completion(self):
        outs = [_done(i, t, t + 500.0, t + 1000.0, tokens=3)
                for i, t in ((i, 1e3 * i) for i in range(1000))]
        sim = metrics.simulated_metrics(outs)
        span_s = (outs[-1].completion - outs[0].arrival) / 1e6
        assert sim["sim_throughput_rps"] == pytest.approx(1000 / span_s)
        assert sim["sim_tokens_per_s"] == pytest.approx(3000 / span_s)
        assert sim["sim_ttft_p50_ms"] == pytest.approx(0.5)

    def test_tpot_uses_tokens_after_the_first(self):
        outs = [_done(i, 0.0, 1000.0, 1000.0 + 300.0 * 3, tokens=4)
                for i in range(20)]
        assert metrics.tpot_p50_ms(outs) == pytest.approx(0.3)
        assert metrics.tpot_p50_ms([_done(0, 0.0, 5.0, 5.0)]) is None


class TestChecks:
    def _held(self, outs):
        return {name: held for name, held, _ in metrics.check_outcomes(outs)}

    def test_clean_run_passes(self):
        assert all(self._held(_outcomes(100, shed=3, timed_out=2)).values())

    def test_pending_request_fails_all_terminal(self):
        assert not self._held(_outcomes(100, pending=1))["all-terminal"]

    def test_completion_before_arrival_fails(self):
        outs = _outcomes(100) + [_done(100, 50.0, 40.0, 45.0)]
        assert not self._held(outs)["arrival<=first_token<=completion"]

    def test_first_token_after_completion_fails(self):
        outs = _outcomes(100) + [_done(100, 50.0, 60.0, 55.0)]
        assert not self._held(outs)["arrival<=first_token<=completion"]

    def test_duplicate_rid_fails(self):
        outs = _outcomes(100)
        assert not self._held(outs + [outs[0]])["unique-rids"]


class TestFingerprint:
    def test_depends_on_outcomes_end_and_events(self):
        outs = _outcomes(50)
        base = metrics.fingerprint(outs, 10.0, 7)
        assert metrics.fingerprint(list(reversed(outs)), 10.0, 7) == base
        assert metrics.fingerprint(outs, 10.5, 7) != base
        assert metrics.fingerprint(outs, 10.0, 8) != base
        moved = outs[:-1] + [_done(outs[-1].rid, outs[-1].arrival,
                                   outs[-1].first_token,
                                   outs[-1].completion + 1e-9)]
        assert metrics.fingerprint(moved, 10.0, 7) != base
