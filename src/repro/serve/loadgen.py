"""Open-loop Zipfian load generation for the serving layer.

Production request streams are heavy-tailed: a hot head of users accounts
for most traffic (their adaptations sit in the LRU) while a long tail of
rare users forces cold fine-tuning.  :func:`zipfian_users` samples such a
stream — P(rank r) ∝ 1/r^α over a bounded user pool — and
:func:`run_open_loop` replays it open-loop: arrivals are scheduled on a
fixed clock (``i / rate``) regardless of completions, so a service that
cannot keep up accumulates queueing delay in its latency percentiles
instead of silently throttling the generator (closed-loop measurement would
hide the overload).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import Histogram


def zipf_probabilities(n: int, alpha: float) -> np.ndarray:
    """Normalized P(rank r) ∝ 1/(r+1)^alpha for ranks 0..n-1."""
    if n <= 0:
        raise ValueError("n must be positive")
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), alpha)
    return weights / weights.sum()


def zipfian_users(
    pool: Sequence[int] | np.ndarray,
    n_requests: int,
    alpha: float = 1.1,
    seed: int = 0,
) -> np.ndarray:
    """Sample a Zipfian(α) request stream over ``pool``.

    Rank follows pool order: ``pool[0]`` is the hottest user.  ``alpha``
    controls skew — larger means a hotter head and a colder tail.
    """
    pool = np.asarray(pool, dtype=int)
    rng = np.random.default_rng(seed)
    probabilities = zipf_probabilities(pool.size, alpha)
    return rng.choice(pool, size=n_requests, p=probabilities)


@dataclass
class LoadReport:
    """Latency and throughput summary of one open-loop run."""

    n_requests: int
    offered_rate: float
    elapsed: float
    latencies: np.ndarray

    @property
    def qps(self) -> float:
        """Sustained completion rate over the whole run."""
        return self.n_requests / self.elapsed if self.elapsed > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile from the raw latency array."""
        return float(np.percentile(self.latencies, q))

    def latency_histogram(self) -> Histogram:
        """The latencies as a shared-layout :class:`~repro.obs.Histogram`.

        Same bucket edges as the service-side span histograms, for merging
        across processes and bucket-for-bucket comparison with
        service-reported percentiles — not for reporting them.
        """
        hist = Histogram()
        hist.observe_many(self.latencies[~np.isnan(self.latencies)])
        return hist

    def to_dict(self) -> dict:
        """Summary for reports; ``p50_ms``/``p99_ms`` are exact percentiles."""
        return {
            "n_requests": self.n_requests,
            "offered_rate": self.offered_rate,
            "elapsed_s": self.elapsed,
            "qps": self.qps,
            "p50_ms": self.percentile(50) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
        }


@dataclass(frozen=True)
class StreamOp:
    """One operation of a mixed read/write stream.

    ``kind`` is ``"read"`` (a recommendation request) or ``"write"`` (an
    observed ``(user, item, rating)`` interaction event).
    """

    kind: str
    user_row: int
    item_row: int = -1
    rating: float = 1.0


def mixed_zipfian_stream(
    user_pool: Sequence[int] | np.ndarray,
    item_pool: Sequence[int] | np.ndarray,
    n_ops: int,
    write_frac: float = 0.15,
    alpha: float = 1.1,
    seed: int = 0,
) -> list[StreamOp]:
    """Interleave Zipfian reads with uniform-random write events.

    Users follow the same Zipf(α) popularity law for reads and writes — a
    hot user both requests often and rates often, which is the worst case
    for the adaptation cache (every write invalidates a hot entry).
    """
    if not 0.0 <= write_frac <= 1.0:
        raise ValueError("write_frac must be in [0, 1]")
    user_pool = np.asarray(user_pool, dtype=int)
    item_pool = np.asarray(item_pool, dtype=int)
    rng = np.random.default_rng(seed)
    users = rng.choice(
        user_pool, size=n_ops, p=zipf_probabilities(user_pool.size, alpha)
    )
    is_write = rng.random(n_ops) < write_frac
    items = rng.choice(item_pool, size=n_ops)
    ratings = rng.random(n_ops)
    return [
        StreamOp("write", int(u), int(i), float(r))
        if w
        else StreamOp("read", int(u))
        for u, w, i, r in zip(users, is_write, items, ratings)
    ]


def _open_loop(
    submit_one: Callable[[int], Future],
    n: int,
    rate: float,
) -> LoadReport:
    """Fixed-clock open loop over ``submit_one(i) -> Future`` for i < n."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    latencies = np.full(n, np.nan)
    done_at = np.full(n, np.nan)
    futures: list[Future] = []
    start = time.perf_counter()
    for i in range(n):
        target = start + i / rate
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        submitted = time.perf_counter()

        def record(future: Future, i: int = i, submitted: float = submitted) -> None:
            finished = time.perf_counter()
            latencies[i] = finished - submitted
            done_at[i] = finished

        future = submit_one(i)
        future.add_done_callback(record)
        futures.append(future)
    for future in futures:
        future.result()
    # result() can return a hair before the done-callback runs; wait it out.
    deadline = time.monotonic() + 5.0
    while np.isnan(done_at).any() and time.monotonic() < deadline:
        time.sleep(0.001)
    elapsed = float(np.nanmax(done_at) - start)
    return LoadReport(
        n_requests=n,
        offered_rate=rate,
        elapsed=elapsed,
        latencies=latencies,
    )


def run_open_loop(
    submit: Callable[[int], Future],
    users: Sequence[int] | np.ndarray,
    rate: float,
) -> LoadReport:
    """Drive ``submit`` with one request per user at ``rate`` arrivals/s.

    ``submit`` must return a future (e.g. ``ShardedService.submit``).  Each
    request's latency is submit-to-completion, so coalescing waits and
    queueing delay under overload are counted against the service.
    """
    users = np.asarray(users, dtype=int)
    return _open_loop(lambda i: submit(int(users[i])), users.size, rate)


def run_mixed_open_loop(
    service,
    ops: Sequence[StreamOp],
    rate: float,
) -> LoadReport:
    """Replay a mixed read/write stream open-loop against a service.

    Reads go through ``service.submit``; writes through
    ``service.observe_async`` when available (the sharded front-end),
    falling back to a completed future around a blocking ``observe``.
    Write latency counts like read latency: an invalidation storm that
    stalls the shard shows up in the percentiles.
    """
    observe_async = getattr(service, "observe_async", None)

    def submit_one(i: int) -> Future:
        op = ops[i]
        if op.kind == "read":
            return service.submit(op.user_row)
        if op.kind != "write":
            raise ValueError(f"unknown stream op kind: {op.kind!r}")
        if observe_async is not None:
            return observe_async(op.user_row, op.item_row, op.rating)
        future: Future = Future()
        try:
            future.set_result(
                service.observe(op.user_row, op.item_row, op.rating)
            )
        except Exception as exc:  # surface through the future like a read
            future.set_exception(exc)
        return future

    return _open_loop(submit_one, len(ops), rate)
