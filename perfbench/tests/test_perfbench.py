"""Tests of the benchmark's own helpers: the tail rule, timed rounds, self
time, and seeded schedules."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench import stats  # noqa: E402
from bench.tracer import Tracer, delta  # noqa: E402


class TestTail:
    def test_highest_ladder_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        tail = stats.tail(values)
        # p99 leaves exactly 10 samples above rank 990; p99.5 would leave 5.
        assert tail == {"value": 990, "pct": 99.0, "n": 1000}

    def test_never_fewer_than_ten_beyond(self):
        for n in (20, 21, 57, 199, 200, 201, 2000, 12345):
            values = list(range(n))
            tail = stats.tail(values)
            beyond = sum(1 for v in values if v > tail["value"])
            assert beyond >= stats.MIN_BEYOND, n
            higher = [p for p in stats.TAIL_LADDER if p > tail["pct"]]
            if higher:  # the next rung up would have fewer than ten beyond
                rank = math.ceil(higher[-1] / 100.0 * n)
                assert n - rank < stats.MIN_BEYOND, n

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0] * 10
        assert stats.tail(values) == stats.tail(sorted(values))

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            stats.tail(list(range(19)))


class TestRounds:
    def test_at_least_min_rounds_even_with_no_seconds(self):
        rounds = stats.timed_rounds(0.0, [lambda r: ("a", r), lambda r: ("b", r)],
                                    probe=lambda: stats.REF_PROBE_S)
        assert len(rounds) == stats.MIN_ROUNDS
        assert rounds.results() == [
            [("a", r), ("b", r)] for r in range(stats.MIN_ROUNDS)
        ]
        assert all(wall >= 0.0 for wall in rounds.walls())
        assert len(rounds.probes) == 2 * stats.MIN_ROUNDS + 1  # one per unit, and one first

    def test_rate_ignores_one_stalled_round(self):
        rows = [[(1.0, None), (1.0, None)],
                [(9.0, None), (1.0, None)],  # the host stalled this round
                [(0.5, None), (1.5, None)],
                [(2.0, None), (2.0, None)]]
        rounds = stats.Rounds(rows, [stats.REF_PROBE_S] * 9)
        # Rates 10, 2, 10 and 10 (twice the work in the last round); the
        # trimmed mean drops the 2 and one 10.
        assert rounds.raw_rate([20, 20, 20, 40]) == 10.0
        assert rounds.rate([20, 20, 20, 40]) == pytest.approx(10.0)

    def test_rate_scales_each_round_by_its_probes(self):
        ref = stats.REF_PROBE_S
        # Round 0 ran with the host at half the reference speed (both probes
        # twice as long), round 2 at the reference speed, and round 1 between
        # the two stretches.  Raw rates 5, 10, 10; scaled 10, 15, 10; the
        # trimmed mean keeps the middle one.
        rounds = stats.Rounds([[(2.0, None)], [(1.0, None)], [(1.0, None)]],
                              [2 * ref, 2 * ref, ref, ref])
        assert [rounds.slowdown(r) for r in range(3)] == pytest.approx([2.0, 1.5, 1.0])
        assert rounds.raw_rate([10, 10, 10]) == 10.0
        assert rounds.rate([10, 10, 10]) == pytest.approx(10.0)
        assert rounds.rate([5, 10, 10]) == pytest.approx(10.0)  # scaled 5, 15, 10
        assert rounds.metrics([10, 10, 10])["host.probe_ms"] == pytest.approx(1.5 * ref * 1e3)
        # Walls 2/2, 1/1.5 and 1/1 at the reference speed.
        assert rounds.median_wall() == pytest.approx(1.0)

    def test_trimmed_mean_drops_both_extremes(self):
        assert stats.trimmed_mean([100.0, 1.0, 4.0, 6.0, 5.0]) == 5.0
        with pytest.raises(ValueError):
            stats.trimmed_mean([1.0, 2.0])

    def test_slowdown_averages_the_probes_around_a_rounds_units(self):
        ref = stats.REF_PROBE_S
        # Two units a round: round 0 is bracketed by probes 0-2, round 1 by 2-4.
        rows = [[(1.0, None), (1.0, None)], [(1.0, None), (1.0, None)]]
        rounds = stats.Rounds(rows, [ref, 2 * ref, 3 * ref, ref, ref])
        assert rounds.slowdown(0) == pytest.approx(2.0)
        assert rounds.slowdown(1) == pytest.approx(5.0 / 3.0)

    def test_probe_takes_measurable_time(self):
        assert stats.host_probe() > 0.0


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CLOCK = _Clock()


class _Layer:
    """Three nested layers whose calls take known (fake-clock) times."""

    def outer(self):
        CLOCK.now += 20.0
        self.inner()
        self.inner()

    def inner(self):
        CLOCK.now += 10.0
        self.leaf()

    def leaf(self):
        CLOCK.now += 5.0


class TestSelfTime:
    def test_self_time_subtracts_wrapped_children(self):
        tracer = Tracer(clock=CLOCK)
        for name in ("outer", "inner", "leaf"):
            tracer.patch_method(name, _Layer, name)
        try:
            _Layer().outer()
        finally:
            tracer.uninstall()
        assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 2}
        assert tracer.self_s == {"outer": 20.0, "inner": 20.0, "leaf": 10.0}
        assert tracer.total_s == {"outer": 50.0, "inner": 30.0, "leaf": 10.0}

    def test_uninstall_restores_the_original(self):
        original = _Layer.__dict__["leaf"]
        tracer = Tracer()
        tracer.patch_method("leaf", _Layer, "leaf")
        assert _Layer.__dict__["leaf"] is not original
        tracer.uninstall()
        assert _Layer.__dict__["leaf"] is original

    def test_inherited_methods_are_not_wrapped(self):
        class Child(_Layer):
            pass

        with pytest.raises(LookupError):
            Tracer().patch_method("leaf", Child, "leaf")

    def test_delta_keeps_only_new_work(self):
        tracer = Tracer()
        tracer.patch_method("leaf", _Layer, "leaf")
        try:
            _Layer().leaf()
            before = tracer.snapshot()
            _Layer().leaf()
            _Layer().leaf()
        finally:
            tracer.uninstall()
        assert delta(tracer.snapshot(), before)["calls"] == {"leaf": 2}


class TestSchedule:
    def test_seeded_schedule_is_deterministic(self):
        from bench.service import poisson_schedule

        a = poisson_schedule(7, "high", 40.0, 5.0, [2, 2, 1] * 4)
        b = poisson_schedule(7, "high", 40.0, 5.0, [2, 2, 1] * 4)
        c = poisson_schedule(8, "high", 40.0, 5.0, [2, 2, 1] * 4)
        assert a == b
        assert a != c

    def test_schedule_is_poisson_at_the_rate(self):
        from bench.service import poisson_schedule

        schedule = poisson_schedule(0, "low", 50.0, 40.0, [1.0])
        dues = [due for due, _index in schedule]
        assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 40.0
        assert len(schedule) == pytest.approx(50.0 * 40.0, rel=0.1)

    def test_burst_is_the_weighted_pool_in_a_seeded_order(self):
        from bench.service import POLICY_WEIGHTS, burst_jobs, job_pool

        pool = job_pool(5)
        a, b, c = burst_jobs(pool, 5), burst_jobs(pool, 5), burst_jobs(pool, 6)
        assert a == b and a != c
        assert len(a) == sum(POLICY_WEIGHTS[job["policy"]] for job in pool)
        assert sorted(map(repr, a)) == sorted(map(repr, c))

    def test_weights_shape_the_job_mix(self):
        from bench.service import poisson_schedule

        schedule = poisson_schedule(3, "over", 100.0, 30.0, [4.0, 1.0])
        share = sum(1 for _due, index in schedule if index == 0) / len(schedule)
        assert share == pytest.approx(0.8, abs=0.05)
