"""Open-loop load generator and the exact statistics the serve workloads report.

Independent users arrive on a fixed schedule, so the generator sends operation
``i`` of a rung at ``start + i / rate`` whether or not earlier operations have
finished.  Every latency is measured from that *scheduled* time: a stall in the
service (or in the generator itself) is charged to every operation it delays,
and the generator's own lateness is reported separately.

:func:`run_closed` is the single-client closed loop: each operation starts
when the previous one has finished, so its latency is pure service time.

Nothing here imports the program; ``submit`` is any callable returning a
``concurrent.futures.Future``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: p99 latency limit a rung must meet to count toward capacity.
LATENCY_LIMIT_S = 0.100


def exact_percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Linear-interpolation percentile of the raw samples (numpy's default).

    Infinite samples (failed operations) sort above every finite one, so a
    failure counts as missing any latency limit.
    """
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    pos = (data.size - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, data.size - 1)
    if data[lo] == data[hi]:
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


@dataclass
class RungResult:
    """Raw per-operation timestamps of one open-loop rung (seconds)."""

    rate: float
    scheduled: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    #: the operation settled: its future finished or its submit raised.
    resolved: np.ndarray
    #: for a pool of segments: the largest backlog any segment ended with.
    pooled_backlog: int | None = None

    @classmethod
    def pool(cls, segments: Sequence["RungResult"]) -> "RungResult":
        """One rate's segments as a single sample set."""
        return cls(
            rate=segments[0].rate,
            scheduled=np.concatenate([s.scheduled for s in segments]),
            sent=np.concatenate([s.sent for s in segments]),
            done=np.concatenate([s.done for s in segments]),
            ok=np.concatenate([s.ok for s in segments]),
            resolved=np.concatenate([s.resolved for s in segments]),
            pooled_backlog=max(s.backlog_at_end() for s in segments),
        )

    @property
    def attempted(self) -> int:
        return int(self.scheduled.size)

    @property
    def failed(self) -> int:
        return int(self.attempted - np.count_nonzero(self.ok))

    def latencies(self) -> np.ndarray:
        """Scheduled-to-done latency; ``inf`` for failed or unresolved ops."""
        lat = self.done - self.scheduled
        return np.where(self.ok & np.isfinite(lat), lat, np.inf)

    def lateness(self) -> np.ndarray:
        """How late the generator sent each operation."""
        return np.maximum(self.sent - self.scheduled, 0.0)

    def backlog_at_end(self) -> int:
        """Operations still outstanding when the last one was due."""
        if self.pooled_backlog is not None:
            return self.pooled_backlog
        last = self.scheduled[-1]
        return int(np.count_nonzero(~(self.ok & (self.done <= last))))

    def summary(self, limit: float = LATENCY_LIMIT_S) -> dict:
        lat = self.latencies()
        return {
            "rate": self.rate,
            "n": self.attempted,
            "failed": self.failed,
            "p50_ms": exact_percentile(lat, 50) * 1e3,
            "p99_ms": exact_percentile(lat, 99) * 1e3,
            "late_p99_ms": exact_percentile(self.lateness(), 99) * 1e3,
            "backlog_at_end": self.backlog_at_end(),
            "sustained": rung_sustained(self, limit),
        }


def rung_sustained(rung: RungResult, limit: float = LATENCY_LIMIT_S) -> bool:
    """Whether a rung meets the latency limit without a growing backlog.

    p99 of the scheduled-time latencies (failures count as misses) must be
    within ``limit``, and at the moment the last operation was due no more
    operations may be outstanding than ``limit`` seconds of arrivals.
    """
    if exact_percentile(rung.latencies(), 99) > limit:
        return False
    return rung.backlog_at_end() <= max(1, math.ceil(rung.rate * limit))


def capacity(rungs: Sequence[RungResult], limit: float = LATENCY_LIMIT_S) -> float:
    """The rate at which p99 latency crosses ``limit``, from the ladder.

    Starts at the highest sustained rung (see :func:`rung_sustained`) and, when
    the next rung sent above it misses the limit on p99, interpolates
    ``log p99`` linearly in rate between the two: a service just under the next
    rung scores just under it instead of a whole rung lower.  0.0 when no rung
    is sustained.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    held = [r for r in ordered if rung_sustained(r, limit)]
    if not held:
        return 0.0
    base = held[-1]
    above = [r for r in ordered if r.rate > base.rate]
    if not above:
        return float(base.rate)
    p_base = exact_percentile(base.latencies(), 99)
    p_next = exact_percentile(above[0].latencies(), 99)
    if not (math.isfinite(p_next) and p_next > limit and p_base > 0):
        return float(base.rate)
    frac = math.log(limit / p_base) / math.log(p_next / p_base)
    return base.rate + frac * (above[0].rate - base.rate)


def run_rung(
    submit: Callable[[int], Future],
    n: int,
    rate: float,
    *,
    drain_timeout: float = 60.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> RungResult:
    """Send ``n`` operations at ``rate`` per second; wait for all of them.

    ``submit(i)`` sends operation ``i`` and returns its future.  A submit that
    raises, a future that fails, and a future still pending after
    ``drain_timeout`` all count as failed.
    """
    if rate <= 0 or n <= 0:
        raise ValueError("rate and n must be positive")
    scheduled = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    resolved = np.zeros(n, dtype=bool)
    futures: list[Future | None] = []
    start = clock()
    for i in range(n):
        due = start + i / rate
        now = clock()
        if due > now:
            sleep(due - now)
        scheduled[i] = due
        sent[i] = clock()
        try:
            future = submit(i)
        except Exception:  # a refused operation is a failed attempt
            done[i] = sent[i]
            resolved[i] = True
            futures.append(None)
            continue

        def record(f: Future, i: int = i) -> None:
            done[i] = clock()
            ok[i] = not f.cancelled() and f.exception() is None
            resolved[i] = True

        future.add_done_callback(record)
        futures.append(future)
    deadline = time.monotonic() + drain_timeout
    for future in futures:
        if future is None:
            continue
        try:
            future.exception(timeout=max(deadline - time.monotonic(), 0.0))
        except Exception:
            pass  # timed out or cancelled: stays failed
    # The done-callback can run a moment after the waiter wakes.
    settle = time.monotonic() + 1.0
    while time.monotonic() < settle and any(
        f is not None and f.done() and not resolved[i]
        for i, f in enumerate(futures)
    ):
        time.sleep(0.001)
    return RungResult(
        rate=rate, scheduled=scheduled, sent=sent, done=done, ok=ok, resolved=resolved
    )


def run_closed(
    call: Callable[[int], object],
    n: int,
    duration: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> RungResult:
    """One client calling ``call(i)``, each call after the last returned.

    Runs for ``duration`` seconds or ``n`` calls, whichever ends first.  A
    call that raises counts as failed.  ``rate`` of the result is the
    achieved rate, for reporting only.
    """
    if n <= 0 or duration <= 0:
        raise ValueError("n and duration must be positive")
    start = np.empty(n)
    done = np.empty(n)
    ok = np.ones(n, dtype=bool)
    first = clock()
    count = 0
    while count < n and clock() - first < duration:
        start[count] = clock()
        try:
            call(count)
        except Exception:  # a failed operation still took its time
            ok[count] = False
        done[count] = clock()
        count += 1
    elapsed = done[count - 1] - first
    return RungResult(
        rate=count / elapsed if elapsed > 0 else float("inf"),
        scheduled=start[:count],
        sent=start[:count].copy(),
        done=done[:count],
        ok=ok[:count],
        resolved=np.ones(count, dtype=bool),
    )
