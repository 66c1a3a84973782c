"""One workload process of the benchmark; ``run.py`` starts a fresh one per sample.

Usage (from the root of a checkout)::

    python3 perfbench/child.py '<json spec>'

The spec names a role, the launch time stamped by the parent just before it
started this interpreter, and where to write the JSON result.  Roles:

``train``
    The CLI ``train`` path: generate the benchmark, ``prepare_experiment``,
    then ``fit`` + ``save`` (timed), then untimed output checks and NDCG@10.
``serve``
    ``ShardedService`` over the train artifact: workers ready, every pool
    user's history registered, the cache warmed; then the closed loop, the
    open-loop ladder when one is given, and the output checks.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The train workload's data and method seed: the CLI ``train`` default, so the
#: fitted model (and its NDCG) is the same bits on every run.
DATA_SEED = 0
TARGET = "Books"
N_WORKERS = 2
TOP_K = 10
ZIPF_ALPHA = 1.1
WRITE_FRAC = 0.2
#: shard-local observed events between two reptile meta-refreshes.
REFRESH_EVERY = 100
#: interleaved passes over the rate ladder.
ROUNDS = 4
#: users whose served answers are compared with in-process answers.
N_PROBE_USERS = 16


#: what each role imports before its first step, timed as ``import``
IMPORTS = {
    "train": (
        "repro.core.interface",
        "repro.data.amazon",
        "repro.data.experiment",
        "repro.eval.protocol",
        "repro.registry",
    ),
    "serve": ("repro.core.interface", "repro.data.tasks", "repro.serve"),
}


def _import_program(role: str, tracer):
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    for module in IMPORTS[role]:
        importlib.import_module(module)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.add_interval("import", t0, t0 + elapsed)
        tracer.install()
    return elapsed


# -- train -----------------------------------------------------------------
def run_train(spec: dict, tracer) -> dict:
    import_s = _import_program("train", tracer)
    from repro.core.interface import Recommender
    from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
    from repro.data.experiment import prepare_experiment
    from repro.data.splits import Scenario
    from repro.eval.metrics import MetricSet
    from repro.eval.protocol import align_tasks
    from repro.registry import build_method

    dataset = make_amazon_like_benchmark(scale=BenchmarkScale(), seed=DATA_SEED)
    experiment = prepare_experiment(dataset, TARGET, seed=DATA_SEED)
    method = build_method({"name": "MetaDPA"}, seed=DATA_SEED, profile="fast")
    setup_s = time.time() - spec["launch"]

    artifact = Path(spec["artifact"])
    t0 = time.perf_counter()
    method.fit(experiment.ctx)
    method.save(artifact)
    t1 = time.perf_counter()
    train_s = t1 - t0
    usage = _usage_self()
    wall_s = time.time() - spec["launch"]

    # Untimed output checks: the reloaded artifact must score exactly like the
    # fitted model on the evaluation instances.
    errors = []
    loaded = Recommender.load(artifact)
    ndcg = {}
    for scenario in (Scenario.C_U, Scenario.C_UI):
        instances = experiment.instances[scenario]
        tasks = align_tasks(experiment.task_sets[scenario], instances)
        fitted = method.score_batch(tasks, instances)
        reloaded = loaded.score_batch(tasks, instances)
        if not all(map(_same_array, fitted, reloaded)):
            errors.append(f"{scenario.name}: reloaded artifact scores differ")
        ndcg[scenario.name] = MetricSet.from_score_lists(fitted, k=10).ndcg
    if spec.get("pool"):
        _save_pool(spec["pool"], experiment)
    result = {
        "setup_s": setup_s,
        "train_s": train_s,
        "wall_s": wall_s,
        "import_s": import_s,
        "ndcg10_cu": ndcg["C_U"],
        "ndcg10_cui": ndcg["C_UI"],
        "artifact_bytes": artifact.stat().st_size,
        "procs": {"main": usage},
        "errors": errors,
    }
    if tracer is not None:
        # Window: interpreter start (the parent's launch stamp) to end of save.
        launch_pc = time.perf_counter() - (time.time() - spec["launch"])
        result["trace"] = tracer.report(result, (launch_pc, t1))
    return result


def _same_array(a, b) -> bool:
    import numpy as np

    return np.array_equal(np.asarray(a), np.asarray(b))


def _save_pool(path: str, experiment) -> None:
    """The serve workloads' user pool: WARM, C_U and C_UI support tasks."""
    import numpy as np

    from repro.data.splits import Scenario

    arrays = {}
    for scenario in (Scenario.WARM, Scenario.C_U, Scenario.C_UI):
        for i, task in enumerate(experiment.task_sets[scenario]):
            key = f"{scenario.name}.{i}"
            arrays[f"{key}.user"] = np.array(task.user_row)
            for field in ("support_items", "support_labels", "query_items", "query_labels"):
                arrays[f"{key}.{field}"] = getattr(task, field)
    np.savez(path, **arrays)


def _load_pool(path: str) -> list:
    """Pool tasks in registration order; a later task of a user replaces it."""
    import numpy as np

    from repro.data.tasks import PreferenceTask

    order = {"WARM": 0, "C_U": 1, "C_UI": 2}
    with np.load(path) as data:
        keys = sorted(
            {k.rsplit(".", 1)[0] for k in data.files},
            key=lambda k: (order[k.split(".")[0]], int(k.split(".")[1])),
        )
        tasks = {}
        for key in keys:
            task = PreferenceTask(
                user_row=int(data[f"{key}.user"]),
                support_items=data[f"{key}.support_items"],
                support_labels=data[f"{key}.support_labels"],
                query_items=data[f"{key}.query_items"],
                query_labels=data[f"{key}.query_labels"],
            )
            tasks[task.user_row] = task
    return list(tasks.values())


def _usage_self() -> dict:
    from procinfo import process_usage

    return process_usage()


# -- serve -----------------------------------------------------------------
def make_ops(pool: list[int], n_items: int, n_ops: int, mixed: bool, seed: int) -> dict:
    """The seeded operation stream: Zipfian users over a shuffled pool.

    Rank follows a seed-dependent permutation of the pool, so each seed has
    its own hot head.  In the mixed stream a ``WRITE_FRAC`` share of the
    operations are observed ``(user, item, rating)`` events.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    ranked = rng.permutation(np.asarray(pool))
    weights = 1.0 / np.arange(1, ranked.size + 1, dtype=float) ** ZIPF_ALPHA
    users = rng.choice(ranked, size=n_ops, p=weights / weights.sum())
    is_write = rng.random(n_ops) < (WRITE_FRAC if mixed else 0.0)
    return {
        "users": users,
        "is_write": is_write,
        "items": rng.integers(0, n_items, size=n_ops),
        "ratings": rng.random(n_ops),
    }


def serve_setup(spec: dict, tracer):
    """Imports → workers ready → histories registered → cache warm."""
    import_s = _import_program("serve", tracer)
    from repro.serve import ShardedService

    tasks = _load_pool(spec["pool"])
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with span("serve.worker_ready"):
        service = ShardedService(
            spec["artifact"],
            n_workers=N_WORKERS,
            cache_size=len(tasks),
            refresh_every=REFRESH_EVERY if spec["mixed"] else 0,
        )
        if not service.wait_ready(timeout=120.0):
            service.close()
            raise RuntimeError("workers did not become ready")
    with span("serve.register"):
        for task in tasks:
            service.register_user_history(task)
    with span("serve.warmup"):
        service.recommend_many([t.user_row for t in tasks], k=TOP_K)
    setup_s = time.time() - spec["launch"]
    return service, tasks, {"setup_s": setup_s, "import_s": import_s}


def run_serve(spec: dict, tracer) -> dict:
    from openloop import (
        LATENCY_LIMIT_S,
        RungResult,
        capacity,
        exact_percentile,
        run_closed,
        run_rung,
    )

    service, tasks, out = serve_setup(spec, tracer)
    try:
        import numpy as np

        from repro.core.interface import Recommender
        from repro.serve.sharded import default_start_method

        n_items = Recommender.load(spec["artifact"], mmap_mode="r").serving.n_items
        ladder = spec["ladder"]
        n_closed = spec["closed_max"]
        ops = make_ops(
            [t.user_row for t in tasks], n_items, n_closed + sum(n for _, n in ladder),
            spec["mixed"], spec["seed"],
        )
        users, is_write = ops["users"], ops["is_write"]
        items, ratings = ops["items"], ops["ratings"]

        def call(j: int):
            if is_write[j]:
                return service.observe(int(users[j]), int(items[j]), float(ratings[j]))
            return service.recommend(int(users[j]), k=TOP_K)

        def send(j: int):
            if is_write[j]:
                return service.observe_async(int(users[j]), int(items[j]), float(ratings[j]))
            return service.submit(int(users[j]), k=TOP_K)

        if tracer is not None:
            tracer.start_window()
        closed = run_closed(call, n_closed, spec["closed_s"])
        if tracer is not None:
            tracer.add_rung(closed, is_write[: closed.attempted])
        # The open-loop ladder is sent in ROUNDS interleaved passes, each a
        # drained segment per rate, so every rate samples the whole window.
        segments: dict[int, list] = {rate: [] for rate, _ in ladder}
        offset = n_closed
        for round_ in range(ROUNDS):
            for rate, n_total in ladder:
                n = n_total // ROUNDS + (round_ < n_total % ROUNDS)
                segment = run_rung(lambda i, base=offset: send(base + i), n, rate)
                if tracer is not None:
                    tracer.add_rung(segment, is_write[offset : offset + n])
                segments[rate].append(segment)
                offset += n
        rungs = [RungResult.pool(segs) for segs in segments.values()]
        if tracer is not None:
            tracer.end_window()
        procs = _usage_service(service)
        wall_s = time.time() - spec["launch"]

        errors = []
        unresolved = sum(int(r.attempted - r.resolved.sum()) for r in rungs)
        if unresolved:
            errors.append(f"{unresolved} operations never resolved")
        if not spec["mixed"]:
            errors += _check_probe_answers(service, tasks, spec["artifact"])
        stats = _stats_counts(service.stats())
        service_lat = closed.latencies()
        everything = [closed, *rungs]
        out.update(
            {
                "service_p50_ms": exact_percentile(service_lat, 50) * 1e3,
                "service_p99_ms": exact_percentile(service_lat, 99) * 1e3,
                "closed": closed.summary(),
                "procs": procs,
                "wall_s": wall_s,
                "start_method": default_start_method(),
                "stats": stats,
                "errors": errors,
                "attempted": sum(r.attempted for r in everything),
                "failed": sum(r.failed for r in everything),
            }
        )
        if rungs:
            lo = _rung_at(rungs, spec["lo_rate"]).latencies()
            hi = _rung_at(rungs, spec["hi_rate"]).latencies()
            out.update(
                {
                    "capacity_rps": capacity(rungs, LATENCY_LIMIT_S),
                    "p50_ms.lo": exact_percentile(lo, 50) * 1e3,
                    "p99_ms.lo": exact_percentile(lo, 99) * 1e3,
                    "p50_ms.hi": exact_percentile(hi, 50) * 1e3,
                    "p99_ms.hi": exact_percentile(hi, 99) * 1e3,
                    "late_p99_ms": exact_percentile(
                        np.concatenate([r.lateness() for r in rungs]), 99
                    ) * 1e3,
                    "rungs": [r.summary() for r in rungs],
                }
            )
    finally:
        service.close()
    if tracer is not None:
        tracer.collect_workers()
        out["trace"] = tracer.report(out)
    return out


def _rung_at(rungs, rate: int):
    return next(rung for rung in rungs if rung.rate == rate)


def _usage_service(service) -> dict:
    """Front-end and per-worker peak RSS and CPU, read while they are alive."""
    from procinfo import process_usage

    procs = {"main": process_usage()}
    for shard in service.stats()["shards"]:
        procs[f"worker{shard['shard']}"] = process_usage(shard["worker"]["pid"])
    return procs


def _stats_counts(stats: dict) -> dict:
    """The service's own counters, summed over shards."""
    total = {"requests": 0, "adapted_users": 0, "cache_lookups": 0,
             "cache_hits": 0, "cache_evictions": 0, "refreshes": 0, "events": 0}
    for shard in stats["shards"]:
        worker = shard["worker"]
        total["requests"] += worker["requests"]
        total["adapted_users"] += worker["adaptation"]["users"]
        cache = worker["cache"]
        total["cache_lookups"] += cache["hits"] + cache["misses"]
        total["cache_hits"] += cache["hits"]
        total["cache_evictions"] += cache["evictions"]
        total["refreshes"] += worker["stream"]["refreshes"]
        total["events"] += worker["stream"]["events"]
    total["frontend_requests"] = stats["requests"]
    total["flushes"] = sum(s["batching"]["batches"] for s in stats["shards"])
    return total


def _check_probe_answers(service, tasks, artifact: str) -> list[str]:
    """Served top-k must equal in-process ``RecommenderService`` answers."""
    import numpy as np

    from repro.service import RecommenderService

    probes = sorted(t.user_row for t in tasks)[:N_PROBE_USERS]
    errors = []
    with RecommenderService.from_artifact(artifact, cache_size=len(tasks)) as local:
        for task in tasks:
            local.register_user_history(task)
        for user in probes:
            want = local.recommend(user, k=TOP_K)
            got = service.recommend(user, k=TOP_K)
            if not (
                np.array_equal(want.items, got.items)
                and np.array_equal(want.scores, got.scores)
            ):
                errors.append(f"user {user}: served top-{TOP_K} differs from in-process")
    return errors


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(HERE))
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec)
    run = run_train if spec["role"] == "train" else run_serve
    Path(spec["out"]).write_text(json.dumps(run(spec, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
