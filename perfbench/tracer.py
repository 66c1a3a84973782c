"""Per-layer tracing for the ``--trace 1`` runs, from outside the program.

:meth:`Tracer.install` wraps the public entry points of each ``repro`` module
(functions are rebound in every loaded ``repro`` module that imported them;
methods are replaced on their class).  A wrapper times the call, keeps a
per-thread stack so each layer's self time excludes the layers it called,
and records the counts the per-layer metrics need.  Spans stay in memory.

Shard workers are forked from the traced front-end, so they inherit the
wrappers; a wrapped worker entry point resets the inherited records and, at
worker exit, writes them to a JSON file that the front-end merges.  Calls are
filed under a phase, ``setup`` or ``timed``; the phase flag lives in shared
memory so the workers see the front-end switch it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing as mp
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

#: GEMM shapes timed for the matmul ceiling, heaviest first.
_NN_SHAPES_MAX = 48


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metrics of a traced train job, with units
TRAIN_LAYERS = {
    "import_s": "s",
    "data.generate_s": "s",
    "data.prepare_s": "s",
    "cvae.fit_s": "s",
    "cvae.epochs": "count",
    "cvae.epoch_ms": "ms",
    "cvae.generate_s": "s",
    "meta.corpus.build_s": "s",
    "meta.corpus.views": "count",
    "meta.corpus.pad_efficiency": "ratio",
    "meta.maml.fit_s": "s",
    "meta.maml.steps": "count",
    "meta.maml.views_per_s": "1/s",
    "nn.linear.fwd_s": "s",
    "nn.linear.bwd_s": "s",
    "nn.linear.gflops": "GFLOP/s",
    "nn.matmul_ceiling_gflops": "GFLOP/s",
    "core.save_s": "s",
    "core.artifact_bytes": "bytes",
    "trace.unattributed_share": "ratio",
}

#: per-layer metrics of the traced serve phase (timed window unless set-up)
SERVE_LAYERS = {
    "serve.import_s": "s",
    "core.load_s": "s",
    "serve.worker_ready_s": "s",
    "serve.register_s": "s",
    "serve.warmup_s": "s",
    "service.batching.flushes": "count",
    "service.batching.batch_size": "count",
    "service.batching.queue_wait_ms": "ms",
    "serve.rpc.round_trip_ms": "ms",
    "serve.rpc.overhead_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "meta.serving.adapt_s": "s",
    "meta.serving.adapt_users": "count",
    "meta.serving.adapt_users_per_call": "count",
    "meta.serving.score_s": "s",
    "meta.serving.candidates": "count",
    "meta.serving.score_ns_per_candidate": "ns",
    "meta.serving.frozen_path_share": "ratio",
    "utils.topk_s": "s",
    "service.observe_s": "s",
    "service.events": "count",
    "service.refresh_s": "s",
    "service.refreshes": "count",
    "serve.nn.linear_s": "s",
    "trace.unattributed_share.serve": "ratio",
    "trace.overhead_share.serve": "ratio",
}

#: per-layer metrics ``run.py`` derives from process figures and references
RUN_LAYERS = {
    "proc.cpu_s.train": "s",
    "proc.peak_rss_mb.train": "MB",
    "proc.cpu_util.train": "ratio",
    "proc.cpu_s.frontend": "s",
    "proc.cpu_s.worker0": "s",
    "proc.cpu_s.worker1": "s",
    "proc.peak_rss_mb.frontend": "MB",
    "proc.peak_rss_mb.worker0": "MB",
    "proc.peak_rss_mb.worker1": "MB",
    "proc.cpu_util.serve": "ratio",
    "bench.loadgen.late_p99_ms": "ms",
    "bench.openloop.capacity_rps": "1/s",
    "bench.openloop.p50_ms.lo": "ms",
    "bench.openloop.p99_ms.lo": "ms",
    "bench.openloop.p50_ms.hi": "ms",
    "bench.openloop.p99_ms.hi": "ms",
    "trace.overhead_share": "ratio",
}

PER_LAYER = {**TRAIN_LAYERS, **SERVE_LAYERS, **RUN_LAYERS}


class Tracer:
    def __init__(self, spec: dict):
        self.spec = spec
        self.role = "main"
        self._timed = mp.RawValue("i", 0)
        self._lock = threading.Lock()
        self._submitted: dict[int, float] = {}
        self.reset()

    # -- records ------------------------------------------------------------
    def reset(self) -> None:
        #: (phase, name) -> [calls, total_s, self_s]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        #: (phase, name) -> summed count
        self.counts: Counter = Counter()
        #: main-thread top-level layer intervals (perf_counter seconds)
        self.intervals: list[tuple[float, float]] = []
        #: (x shape, W shape, dtype) -> [forward GEMMs, backward GEMMs]
        self.shapes: dict = defaultdict(lambda: [0, 0])
        self.rung_sums: Counter = Counter()
        self._local = threading.local()
        self.worker_files: list[str] = []
        #: the exited workers' counts over all phases, for reconciliation
        self.worker_counts: Counter = Counter()

    @property
    def phase(self) -> str:
        return "timed" if self._timed.value else "setup"

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_interval(self, name: str, start: float, end: float) -> None:
        with self._lock:
            entry = self.spans[(self.phase, name)]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start
            self.intervals.append((start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block as layer ``name`` (the benchmark's own set-up steps)."""
        self._stack().append([name, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0, time.perf_counter())

    def _close(self, name: str, t0: float, t1: float) -> None:
        stack = self._stack()
        _, child = stack.pop()
        elapsed = t1 - t0
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            entry = self.spans[(self.phase, name)]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child
            if not stack and threading.current_thread() is threading.main_thread():
                self.intervals.append((t0, t1))

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, func, name: str, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(name, t0, time.perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] in ("repro", "__main__") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, after)))
        else:
            setattr(cls, attr, self._wrap(raw, name, after))

    def install(self) -> None:
        """Wrap the layer entry points of every module the workloads run."""
        import repro.core.interface as core
        import repro.cvae.augment as augment
        import repro.cvae.trainer as cvae_trainer
        import repro.data.amazon as amazon
        import repro.data.experiment as experiment
        import repro.meta.corpus as corpus
        import repro.meta.maml as maml
        import repro.meta.model as meta_model
        import repro.meta.serving as serving
        import repro.nn.layers as layers
        import repro.serve.sharded as sharded
        import repro.service.batching as batching
        import repro.service.cache as cache
        import repro.service.service as service
        import repro.utils.topk as topk

        count = self.count

        # data
        self.wrap_function(amazon, "make_amazon_like_benchmark", "data.generate")
        self.wrap_function(experiment, "prepare_experiment", "data.prepare")

        # cvae
        def epochs(args, kwargs, result):
            count("cvae.epochs", args[0].trainer_config.epochs)

        self.wrap_method(cvae_trainer.MultiDomainCVAETrainer, "train", "cvae.fit", epochs)
        self.wrap_method(cvae_trainer.DualCVAETrainer, "train", "cvae.fit", epochs)
        self.wrap_method(augment.DiversePreferenceAugmenter, "generate", "cvae.generate")

        # meta.corpus
        for attr in ("add_task", "add_label_view", "add_rating_view"):
            self.wrap_method(corpus.TaskCorpusBuilder, attr, "meta.corpus.build")

        def built(args, kwargs, result):
            count("meta.corpus.views", result.n_views)

        self.wrap_method(corpus.TaskCorpusBuilder, "build", "meta.corpus.build", built)

        def gathered(args, kwargs, result):
            masks = [result.support_mask]
            if result.query_mask is not None:
                masks.append(result.query_mask)
            count("meta.corpus.real_cells", sum(float(m.sum()) for m in masks))
            count("meta.corpus.padded_cells", sum(m.size for m in masks))

        self.wrap_method(corpus.TaskCorpus, "gather_batch", "meta.corpus.gather", gathered)

        # meta.maml
        self.wrap_method(maml.MAML, "fit", "meta.maml.fit")

        def stepped(args, kwargs, result):
            count("meta.maml.steps")
            view_ids = args[2] if len(args) > 2 else kwargs["view_ids"]
            count("meta.maml.views", len(view_ids))

        self.wrap_method(maml.MAML, "meta_step_corpus", "meta.maml.step", stepped)

        # nn
        shapes = self.shapes

        def gemm_key(params, x):
            w = params["W"]
            return (x.shape, w.shape, str(np.result_type(x, w)))

        def forwarded(args, kwargs, result):
            shapes[gemm_key(args[1], args[2])][0] += 1

        # The weight-gradient and input-gradient GEMMs each cost as much as
        # the forward product; the input gradient is skipped on request.
        def backwarded(args, kwargs, result):
            need_dx = kwargs.get("need_input_grad", True)
            shapes[gemm_key(args[1], args[2])][1] += 2 if need_dx else 1

        self.wrap_method(layers.Linear, "forward", "nn.linear.fwd", forwarded)
        self.wrap_method(layers.Linear, "backward", "nn.linear.bwd", backwarded)

        # core
        def saved(args, kwargs, result):
            count("core.artifact_bytes", Path(result).stat().st_size)

        self.wrap_method(core.Recommender, "save", "core.save", saved)
        self.wrap_method(core.Recommender, "load", "core.load")

        # service.batching: per-request queue wait and per-flush round trip
        self._wrap_batcher(batching.MicroBatcher)

        # service.cache
        def looked_up(args, kwargs, result):
            default = args[2] if len(args) > 2 else kwargs.get("default")
            count("service.cache.lookups")
            count("service.cache.hits", result is not default)

        self.wrap_method(cache.LRUCache, "get", "service.cache", looked_up)
        self._count_attr_delta(cache.LRUCache, "put", "evictions", "service.cache.evictions")

        # service
        def batched(args, kwargs, result):
            count("service.requests", len(args[1]))

        self.wrap_method(service.RecommenderService, "recommend_batch",
                         "service.recommend_batch", batched)
        self.wrap_method(service.RecommenderService, "observe", "service.observe",
                         lambda a, k, r: count("service.events"))

        # meta.serving
        def adapted(args, kwargs, result):
            count("meta.serving.adapt_users", len(args[1]))

        self.wrap_method(serving.MAMLServingMixin, "adapt_users", "meta.serving.adapt",
                         adapted)
        self.wrap_method(serving.MAMLServingMixin, "meta_refresh", "service.refresh",
                         lambda a, k, r: count("service.refreshes"))

        def scored(args, kwargs, result):
            count("meta.serving.score_calls")
            count("meta.serving.candidates", args[2].candidates.size)

        def scored_batch(args, kwargs, result):
            count("meta.serving.score_calls", len(args[2]))
            count("meta.serving.candidates", sum(i.candidates.size for i in args[2]))

        self.wrap_method(serving.MAMLServingMixin, "score_with_state",
                         "meta.serving.score", scored)
        self.wrap_method(serving.MAMLServingMixin, "score_with_state_batch",
                         "meta.serving.score", scored_batch)
        tracer = self

        def frozen(args, kwargs, result):
            if tracer.in_span("meta.serving.score"):
                count("meta.serving.frozen_calls")

        self.wrap_method(meta_model.PreferenceModel, "forward_from_item_embeddings",
                         "meta.serving.forward", frozen)

        # utils
        self.wrap_function(topk, "top_k_order", "utils.topk")

        # serve: the worker entry point resets inherited records and dumps its own
        original_run_worker = sharded.run_worker

        def traced_run_worker(conn, artifact, options, shard_index=0, incarnation=0):
            tracer.reset()
            tracer.role = f"worker{shard_index}"
            try:
                original_run_worker(conn, artifact, options, shard_index, incarnation)
            finally:
                tracer.dump_worker()

        sharded.run_worker = traced_run_worker

    def _count_attr_delta(self, cls, attr: str, field: str, name: str) -> None:
        """Wrap ``cls.attr`` to count how much it advanced ``self.field``."""
        func = cls.__dict__[attr]
        count = self.count

        @functools.wraps(func)
        def wrapper(obj, *args, **kwargs):
            before = getattr(obj, field)
            try:
                return func(obj, *args, **kwargs)
            finally:
                count(name, getattr(obj, field) - before)

        setattr(cls, attr, wrapper)

    def _wrap_batcher(self, cls) -> None:
        tracer = self
        submitted = self._submitted
        submit = cls.__dict__["submit"]
        init = cls.__dict__["__init__"]

        @functools.wraps(submit)
        def traced_submit(batcher, state, *args, **kwargs):
            submitted[id(state)] = time.perf_counter()
            tracer.count("service.batching.submitted")
            return submit(batcher, state, *args, **kwargs)

        @functools.wraps(init)
        def traced_init(batcher, score_fn, *args, **kwargs):
            @functools.wraps(score_fn)
            def flush(states, instances):
                t0 = time.perf_counter()
                waits = [t0 - submitted.pop(id(s), t0) for s in states]
                try:
                    with tracer.span("serve.rpc"):
                        return score_fn(states, instances)
                finally:
                    rt = time.perf_counter() - t0
                    tracer.count("service.batching.flushes")
                    tracer.count("service.batching.requests", len(states))
                    tracer.count("service.batching.queue_wait_s", sum(waits))
                    tracer.count("serve.rpc.request_rt_s", rt * len(states))

            init(batcher, flush, *args, **kwargs)

        cls.submit = traced_submit
        cls.__init__ = traced_init

    # -- phases -------------------------------------------------------------
    def start_window(self) -> None:
        self._timed.value = 1

    def end_window(self) -> None:
        self._timed.value = 0

    def add_rung(self, rung, is_write) -> None:
        """Generator-side sums over the rung's successful reads."""
        reads = rung.ok & ~np.asarray(is_write, dtype=bool)
        self.rung_sums["latency_s"] += float((rung.done - rung.scheduled)[reads].sum())
        self.rung_sums["late_s"] += float(rung.lateness()[reads].sum())
        self.rung_sums["window_s"] += float(np.nanmax(rung.done) - rung.scheduled[0])

    # -- worker files -------------------------------------------------------
    def _worker_path(self, pid: int) -> Path:
        return Path(self.spec["out"]).with_suffix(f".{self.role}.{pid}.json")

    def dump_worker(self) -> None:
        self._worker_path(os.getpid()).write_text(json.dumps(self.records()))

    def collect_workers(self) -> None:
        """Fold the exited workers' records into this process's records."""
        pattern = Path(self.spec["out"]).with_suffix("").name + ".worker*.json"
        for path in sorted(Path(self.spec["out"]).parent.glob(pattern)):
            data = json.loads(path.read_text())
            path.unlink()
            for key, (calls, total, own) in data["spans"]:
                entry = self.spans[tuple(key)]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for key, value in data["counts"]:
                self.counts[tuple(key)] += value
                self.worker_counts[key[1]] += value
            for key, (fwd, bwd) in data["shapes"]:
                entry = self.shapes[(tuple(key[0]), tuple(key[1]), key[2])]
                entry[0] += fwd
                entry[1] += bwd
            self.worker_files.append(path.name)

    def records(self) -> dict:
        return {
            "spans": [[list(k), v] for k, v in self.spans.items()],
            "counts": [[list(k), v] for k, v in self.counts.items()],
            "shapes": [[list(k), v] for k, v in self.shapes.items()],
        }

    # -- report -------------------------------------------------------------
    def _total(self, name: str, phases=("setup", "timed"), field: int = 1) -> float:
        """Summed ``field`` (0 calls, 1 wall s, 2 self s) of span ``name``."""
        return sum(self.spans[(p, name)][field] for p in phases if (p, name) in self.spans)

    def _count(self, name: str, phases=("setup", "timed")) -> float:
        return sum(self.counts.get((p, name), 0.0) for p in phases)

    def matmul_ceiling(self) -> tuple[float, float]:
        """(flops, ceiling GFLOP/s): ``np.matmul`` alone at the traced shapes.

        The shapes carrying most of the traced Linear FLOPs are timed back to
        back in this process; the ceiling is their FLOPs over that time.
        """
        weighted = []
        for (xs, ws, dtype), (fwd, bwd) in self.shapes.items():
            out = np.broadcast_shapes(xs[:-2], ws[:-2]) + (xs[-2], ws[-1])
            per = 2.0 * float(np.prod(out)) * xs[-1]
            weighted.append((per * (fwd + bwd), per, xs, ws, dtype, fwd + bwd))
        total_flops = sum(w[0] for w in weighted)
        weighted.sort(key=lambda w: -w[0])
        rng = np.random.default_rng(0)
        flops = seconds = 0.0
        for flop_total, per, xs, ws, dtype, calls in weighted[:_NN_SHAPES_MAX]:
            x = rng.standard_normal(xs).astype(dtype)
            w = rng.standard_normal(ws).astype(dtype)
            reps = max(3, min(200, int(2e7 / max(per, 1.0))))
            np.matmul(x, w)
            t0 = time.perf_counter()
            for _ in range(reps):
                np.matmul(x, w)
            per_call = (time.perf_counter() - t0) / reps
            flops += per * calls
            seconds += per_call * calls
        return total_flops, (flops / seconds / 1e9 if seconds > 0 else 0.0)

    def report(self, result: dict, window: tuple[float, float] | None = None) -> dict:
        """This process's per-layer metrics (:data:`TRAIN_LAYERS` or
        :data:`SERVE_LAYERS`), its wrapper-vs-``stats()`` reconciliation and
        the worker record files it merged."""
        if self.spec["role"] == "train":
            metrics = self._train_metrics(result, window)
        else:
            metrics = self._serve_metrics(result)
        return {
            "metrics": metrics,
            "reconcile": self._reconcile(result.get("stats")),
            "worker_files": self.worker_files,
        }

    def _train_metrics(self, result: dict, window) -> dict:
        m: dict[str, float] = {}
        m["import_s"] = result["import_s"]
        m["data.generate_s"] = self._total("data.generate")
        m["data.prepare_s"] = self._total("data.prepare")
        m["cvae.fit_s"] = self._total("cvae.fit")
        m["cvae.epochs"] = self._count("cvae.epochs")
        m["cvae.epoch_ms"] = 1e3 * m["cvae.fit_s"] / max(m["cvae.epochs"], 1)
        m["cvae.generate_s"] = self._total("cvae.generate")
        m["meta.corpus.build_s"] = self._total("meta.corpus.build")
        m["meta.corpus.views"] = self._count("meta.corpus.views")
        padded = self._count("meta.corpus.padded_cells")
        m["meta.corpus.pad_efficiency"] = (
            self._count("meta.corpus.real_cells") / padded if padded else 0.0
        )
        m["meta.maml.fit_s"] = self._total("meta.maml.fit")
        m["meta.maml.steps"] = self._count("meta.maml.steps")
        m["meta.maml.views_per_s"] = _ratio(
            self._count("meta.maml.views"), m["meta.maml.fit_s"]
        )
        fwd = self._total("nn.linear.fwd", field=2)
        bwd = self._total("nn.linear.bwd", field=2)
        flops, ceiling = self.matmul_ceiling()
        m["nn.linear.fwd_s"] = fwd
        m["nn.linear.bwd_s"] = bwd
        m["nn.linear.gflops"] = _ratio(flops, fwd + bwd) / 1e9
        m["nn.matmul_ceiling_gflops"] = ceiling
        m["core.save_s"] = self._total("core.save")
        m["core.artifact_bytes"] = self._count("core.artifact_bytes")
        m["trace.unattributed_share"] = self._uncovered_share(window)
        return m

    def _serve_metrics(self, result: dict) -> dict:
        timed = ("timed",)
        m: dict[str, float] = {}
        m["serve.import_s"] = result["import_s"]
        loads = self._total("core.load", ("setup",), field=0)
        m["core.load_s"] = _ratio(self._total("core.load", ("setup",)), loads)
        m["serve.worker_ready_s"] = self._total("serve.worker_ready")
        m["serve.register_s"] = self._total("serve.register")
        m["serve.warmup_s"] = self._total("serve.warmup")

        flushes = self._count("service.batching.flushes", timed)
        requests = self._count("service.batching.requests", timed)
        m["service.batching.flushes"] = flushes
        m["service.batching.batch_size"] = _ratio(requests, flushes)
        m["service.batching.queue_wait_ms"] = 1e3 * _ratio(
            self._count("service.batching.queue_wait_s", timed), requests
        )
        rpc_ms = 1e3 * _ratio(
            self._total("serve.rpc", timed), self._total("serve.rpc", timed, 0)
        )
        worker_ms = 1e3 * _ratio(
            self._total("service.recommend_batch", timed),
            self._total("service.recommend_batch", timed, 0),
        )
        m["serve.rpc.round_trip_ms"] = rpc_ms
        m["serve.rpc.overhead_ms"] = rpc_ms - worker_ms
        m["service.cache.hit_ratio"] = _ratio(
            self._count("service.cache.hits", timed),
            self._count("service.cache.lookups", timed),
        )
        m["service.cache.evictions"] = self._count("service.cache.evictions", timed)

        m["meta.serving.adapt_s"] = self._total("meta.serving.adapt", timed)
        m["meta.serving.adapt_users"] = self._count("meta.serving.adapt_users", timed)
        m["meta.serving.adapt_users_per_call"] = _ratio(
            m["meta.serving.adapt_users"], self._total("meta.serving.adapt", timed, 0)
        )
        score_s = self._total("meta.serving.score", timed)
        candidates = self._count("meta.serving.candidates", timed)
        m["meta.serving.score_s"] = score_s
        m["meta.serving.candidates"] = candidates
        m["meta.serving.score_ns_per_candidate"] = 1e9 * _ratio(score_s, candidates)
        m["meta.serving.frozen_path_share"] = _ratio(
            self._count("meta.serving.frozen_calls", timed),
            self._count("meta.serving.score_calls", timed),
        )
        m["utils.topk_s"] = self._total("utils.topk", timed)
        m["service.observe_s"] = self._total("service.observe", timed, 2)
        m["service.events"] = self._count("service.events", timed)
        m["service.refresh_s"] = self._total("service.refresh", timed)
        m["service.refreshes"] = self._count("service.refreshes", timed)
        m["serve.nn.linear_s"] = self._total("nn.linear.fwd", timed, 2) + self._total(
            "nn.linear.bwd", timed, 2
        )
        m["trace.unattributed_share.serve"] = self._read_uncovered_share()
        calls = sum(v[0] for (phase, _), v in self.spans.items() if phase == "timed")
        busy = self.rung_sums["window_s"] * (1 + len(self.worker_files))
        m["trace.overhead_share.serve"] = _ratio(calls * self.wrapper_cost(), busy)
        return m

    def wrapper_cost(self, n: int = 20000) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op in this process."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibrate")
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        cost = (time.perf_counter() - t0 - bare) / n
        del self.spans[(self.phase, "trace.calibrate")]
        return max(cost, 0.0)

    def _read_uncovered_share(self) -> float:
        """Share of timed read latency outside generator lateness, batcher
        queue wait and the flush round trip (what remains is resolving the
        future and running its callbacks)."""
        latency = self.rung_sums["latency_s"]
        covered = (
            self.rung_sums["late_s"]
            + self._count("service.batching.queue_wait_s", ("timed",))
            + self._count("serve.rpc.request_rt_s", ("timed",))
        )
        return 1.0 - _ratio(covered, latency)

    def _uncovered_share(self, window) -> float:
        """Share of ``window`` covered by no top-level main-thread layer span."""
        start, end = window
        covered = 0.0
        cursor = start
        for lo, hi in sorted(self.intervals):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return 1.0 - covered / (end - start)

    def _reconcile(self, stats: dict | None) -> dict:
        """Wrapper counts against the service's own ``stats()`` counters.

        Worker-side counts come from the workers' records only, so the
        in-process reference service of the answer check does not count.
        """
        if stats is None:
            return {}
        worker = self.worker_counts
        pairs = {
            "requests": (worker["service.requests"], stats["requests"]),
            "frontend_requests": (
                self._count("service.batching.submitted"), stats["frontend_requests"]
            ),
            "adaptation.users": (worker["meta.serving.adapt_users"], stats["adapted_users"]),
            "cache.hits+misses": (worker["service.cache.lookups"], stats["cache_lookups"]),
            "stream.refreshes": (worker["service.refreshes"], stats["refreshes"]),
        }
        return {
            name: {"traced": traced, "stats": own, "match": traced == own}
            for name, (traced, own) in pairs.items()
        }
