"""Self-tests of the benchmark's own logic (no program code runs here).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import run
from openloop import (
    LATENCY_LIMIT_S,
    RungResult,
    capacity,
    exact_percentile,
    run_closed,
    run_rung,
    rung_sustained,
)
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent


def make_rung(rate: float, latencies, ok=None) -> RungResult:
    latencies = np.asarray(latencies, dtype=float)
    n = latencies.size
    scheduled = np.arange(n) / rate
    ok = np.ones(n, dtype=bool) if ok is None else np.asarray(ok, dtype=bool)
    return RungResult(
        rate=rate,
        scheduled=scheduled,
        sent=scheduled.copy(),
        done=scheduled + latencies,
        ok=ok,
        resolved=np.ones(n, dtype=bool),
    )


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 99.9, 100])
def test_exact_percentile_matches_numpy(n, q):
    values = np.random.default_rng(n).lognormal(size=n)
    assert exact_percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_exact_percentile_counts_failures_as_misses():
    values = np.full(1000, 0.001)
    values[:11] = np.inf  # 1.1% failed: p99 must be a miss
    assert exact_percentile(values, 99) == np.inf
    values[:10] = 0.001
    values[10] = np.inf  # 0.1% failed: p99 still finite
    assert exact_percentile(values, 99) == pytest.approx(0.001)


def test_rung_sustained_on_p99():
    fast = np.full(1000, 0.005)
    assert rung_sustained(make_rung(100, fast))
    slow = fast.copy()
    slow[:11] = 0.5  # 1.1% beyond the limit
    assert not rung_sustained(make_rung(100, slow))
    slow[:10] = 0.005
    assert rung_sustained(make_rung(100, slow))


def test_failed_operations_count_as_misses():
    fast = np.full(1000, 0.005)
    ok = np.ones(1000, dtype=bool)
    ok[::50] = False  # 2% failed, all fast
    rung = make_rung(100, fast, ok)
    assert rung.failed == 20
    assert not rung_sustained(rung)


def test_growing_backlog_fails_a_rung_with_good_p99():
    latencies = np.full(1000, 0.005)
    latencies[-10:] = 0.095  # the last 100 ms of arrivals still in flight
    latencies[-20:-15] = 0.5  # five stuck operations: too few to move p99
    rung = make_rung(100, latencies)
    assert exact_percentile(rung.latencies(), 99) <= LATENCY_LIMIT_S
    assert rung.backlog_at_end() == 15  # more than 100 ms of arrivals at 100/s
    assert not rung_sustained(rung)
    latencies[-20:-15] = 0.005
    rung = make_rung(100, latencies)
    assert rung.backlog_at_end() == 10
    assert rung_sustained(rung)


def test_capacity_interpolates_between_rungs():
    held = make_rung(100, np.full(1000, 0.050))
    missed = make_rung(200, np.full(1000, 0.200))
    # log p99 is linear in rate: 50 ms at 100/s, 200 ms at 200/s → 100 ms at 150/s.
    assert capacity([held, missed]) == pytest.approx(150.0)
    assert capacity([held]) == 100.0
    assert capacity([missed]) == 0.0


def test_capacity_uses_highest_sustained_rung():
    rungs = [
        make_rung(100, np.full(1000, 0.010)),
        make_rung(150, np.full(1000, 0.300)),  # a stall at one rung
        make_rung(200, np.full(1000, 0.020)),
        make_rung(300, np.full(1000, 0.400)),
    ]
    expected = 200 + 100 * np.log(0.1 / 0.02) / np.log(0.4 / 0.02)
    assert capacity(rungs) == pytest.approx(expected)


class StallingClock:
    """A fake clock: ``sleep`` advances it; a stalled submit blocks it."""

    def __init__(self):
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_lateness_is_charged_from_the_scheduled_time():
    fake = StallingClock()

    def submit(i: int) -> Future:
        if i == 10:
            fake.now += 0.2  # the service blocks the generator for 200 ms
        future: Future = Future()
        future.set_result(None)
        return future

    rung = run_rung(submit, 100, 200.0, clock=fake.clock, sleep=fake.sleep)
    late = rung.lateness()
    lat = rung.latencies()
    assert rung.resolved.all() and rung.failed == 0
    assert lat[10] == pytest.approx(0.2)
    # op 11 was due at 55 ms and sent at 250 ms; the backlog drains by op 50
    assert late[11] == pytest.approx(0.195)
    assert lat[11] == pytest.approx(0.195)
    assert np.all(late[11:50] > 0)
    assert np.allclose(late[50:], 0.0)
    assert np.all(lat >= late)
    assert exact_percentile(late, 99) > 0.15


def test_refused_and_unresolved_operations_fail():
    fake = StallingClock()
    pending: list[Future] = []

    def submit(i: int) -> Future:
        if i == 3:
            raise RuntimeError("refused")
        future: Future = Future()
        if i == 5:
            pending.append(future)  # never resolves
        else:
            future.set_result(None)
        return future

    rung = run_rung(submit, 10, 100.0, drain_timeout=0.05, clock=fake.clock, sleep=fake.sleep)
    assert rung.failed == 2
    assert rung.resolved.sum() == 9  # the refused one settled, the pending one did not
    assert np.isinf(rung.latencies()[[3, 5]]).all()


def test_closed_loop_times_each_call_and_stops_at_its_duration():
    fake = StallingClock()

    def call(i: int) -> None:
        fake.now += 0.010 if i % 10 else 0.100  # every tenth call is slow
        if i == 7:
            raise RuntimeError("failed")

    result = run_closed(call, 1000, 1.0, clock=fake.clock)
    lat = result.latencies()
    # 0.19 s per ten calls: call 50 starts at 0.95 s, the last before 1 s
    assert result.attempted == 51
    assert result.failed == 1 and np.isinf(lat[7])
    assert lat[[0, 1, 10, 50]] == pytest.approx([0.1, 0.01, 0.1, 0.1])
    assert exact_percentile(lat, 50) == pytest.approx(0.010)
    assert result.rate == pytest.approx(51 / 1.05)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == PER_LAYER


def test_ladder_gives_every_rung_enough_samples_for_p99():
    rungs = run.ladder(30)
    assert all(n >= 1000 for _, n in rungs)
    rates = [rate for rate, _ in rungs]
    assert rates == sorted(rates)
    assert run.LO_RATE in rates and run.HI_RATE in rates
