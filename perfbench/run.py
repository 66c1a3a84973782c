"""The repository benchmark: the MetaDPA train → serve lifecycle, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 30 --trace 0

Every run starts fresh interpreters (``perfbench/child.py``), so imports,
set-up and peak RSS belong to that run.  The environment is passed through
untouched: no BLAS/OpenMP thread variable is set; what is in effect is
recorded with the result.

A run has two phases.

``train``
    ``TRAIN_JOBS`` times, the CLI ``train`` path for MetaDPA, ``fast`` profile,
    default ``BenchmarkScale`` (240×150), target Books, seed 0: generate →
    ``prepare_experiment`` (set-up) → ``fit`` + ``save`` (timed).  Each job
    checks that the reloaded artifact scores exactly like the fitted model and
    computes NDCG@10 on the user and user&item cold-start instances; every job
    must reproduce the same NDCG.  The train phase opens every workload
    because every end-to-end metric is reported on every workload.
``serve``
    ``ShardedService`` with 2 workers over the first job's artifact; every
    WARM, C_U and C_UI user registered and the cache warmed (set-up), then a
    seeded Zipfian (α=1.1) stream from one client in a closed loop, for
    ``CLOSED_SHARE`` of ``--seconds``: each operation's latency is its service
    time.  ``serve-read`` sends reads only and checks served answers against
    in-process ``RecommenderService`` answers; ``serve-mixed`` makes a fifth of
    the operations ``observe`` writes with periodic meta-refresh.

The last line of standard output is the JSON result.  ``--trace 1`` runs the
same phases with per-layer tracing (``perfbench/tracer.py``), alternating
traced and untraced train jobs for the tracing overhead, and adds the
open-loop rate ladder (``perfbench/openloop.py``) after the closed loop: its
latencies count from each operation's scheduled send time.  Its p50/p99 and
capacity are reported per-layer, not gated: under the default BLAS threading
on a 2-core machine their run-to-run spread is wider than any usable bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("serve-read", "serve-mixed")
TRAIN_JOBS = 5
#: wall-clock budget of one run; a child still running past it is killed.
RUN_BUDGET_S = 170.0

#: share of ``--seconds`` the single-client closed loop runs for
CLOSED_SHARE = 0.9
#: operations generated per closed-loop second, above any rate reached
CLOSED_MAX_RATE = 500
#: open-loop (rate per second, share of ``--seconds``), traced runs only;
#: every rung sends at least ``MIN_RUNG_OPS`` operations, so its p99 has ten
#: samples beyond it.
LADDER = ((100, 1 / 3), (150, 0.0), (200, 1 / 6), (250, 0.0), (300, 0.0))
MIN_RUNG_OPS = 1000
LO_RATE = 100
HI_RATE = 200

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "ndcg10_cu": "ratio",
    "ndcg10_cui": "ratio",
    "train_peak_rss_mb": "MB",
    "peak_rss_mb": "MB",
    "service_p50_ms": "ms",
    "service_p99_ms": "ms",
    "ok_share": "ratio",
}

#: open-loop figures of the traced run (per-layer, see above)
OPEN_LOOP = ("capacity_rps", "p50_ms.lo", "p99_ms.lo", "p50_ms.hi", "p99_ms.hi")


def ladder(seconds: float) -> list[tuple[int, int]]:
    return [
        (rate, max(MIN_RUNG_OPS, round(rate * seconds * share))) for rate, share in LADDER
    ]


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, rundir: Path, name: str, deadline: float) -> dict:
    """Start one fresh interpreter for ``spec`` and return its JSON result."""
    out = rundir / f"{name}.json"
    spec = {**spec, "out": str(out), "launch": time.time()}
    # Its own process group, so a timeout can stop its shard workers with it.
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            output, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{name} did not finish within the run budget") from None
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed(f"{name} exited {proc.returncode}:\n{output[-2000:]}")
    return json.loads(out.read_text())


def _median(values) -> float:
    return float(statistics.median(values))


def train_phase(rundir: Path, trace: bool, deadline: float) -> list[dict]:
    jobs = []
    for j in range(TRAIN_JOBS):
        spec = {
            "role": "train",
            "artifact": str(rundir / f"artifact{j}.npz"),
            "pool": str(rundir / "pool.npz") if j == 0 else None,
            # Traced runs alternate traced and untraced jobs; the untraced ones
            # are the reference for the tracing overhead.
            "trace": trace and j % 2 == 1,
        }
        jobs.append(run_child(spec, rundir, f"train{j}", deadline))
    return jobs


def serve_spec(rundir: Path, args, trace: bool) -> dict:
    return {
        "role": "serve",
        "artifact": str(rundir / "artifact0.npz"),
        "pool": str(rundir / "pool.npz"),
        "mixed": args.workload == "serve-mixed",
        "seed": args.seed,
        "closed_s": CLOSED_SHARE * args.seconds,
        "closed_max": round(CLOSED_MAX_RATE * CLOSED_SHARE * args.seconds),
        "ladder": ladder(args.seconds) if trace else [],
        "lo_rate": LO_RATE,
        "hi_rate": HI_RATE,
        "trace": trace,
    }


def check_train(jobs: list[dict]) -> list[str]:
    errors = [e for job in jobs for e in job["errors"]]
    for key in ("ndcg10_cu", "ndcg10_cui"):
        if len({job[key] for job in jobs}) != 1:
            errors.append(f"{key} differs between identical train jobs")
    return errors


def end_to_end(jobs: list[dict], serve: dict) -> dict:
    procs = serve["procs"]
    return {
        "setup_s": _median(j["setup_s"] for j in jobs) + serve["setup_s"],
        "train_s": _median(j["train_s"] for j in jobs),
        "ndcg10_cu": jobs[0]["ndcg10_cu"],
        "ndcg10_cui": jobs[0]["ndcg10_cui"],
        "train_peak_rss_mb": _median(j["procs"]["main"]["peak_rss_mb"] for j in jobs),
        "peak_rss_mb": sum(p["peak_rss_mb"] for p in procs.values()),
        "service_p50_ms": serve["service_p50_ms"],
        "service_p99_ms": serve["service_p99_ms"],
        "ok_share": 1.0 - serve["failed"] / serve["attempted"],
    }


def process_table(jobs: list[dict], serve: dict) -> dict:
    table = {f"train{j}": job["procs"]["main"] for j, job in enumerate(jobs)}
    for name, usage in serve["procs"].items():
        table[f"serve.{'frontend' if name == 'main' else name}"] = usage
    return table


def per_layer(jobs: list[dict], serve: dict, nproc: int) -> dict:
    """Train layers from the traced train jobs (median), serve layers from
    the traced serve phase, process figures and tracing overhead."""
    from tracer import SERVE_LAYERS, TRAIN_LAYERS

    traced = [j for j in jobs if "trace" in j]
    m = {name: _median(j["trace"]["metrics"][name] for j in traced) for name in TRAIN_LAYERS}
    m.update({name: serve["trace"]["metrics"][name] for name in SERVE_LAYERS})
    m["proc.cpu_s.train"] = _median(j["procs"]["main"]["cpu_s"] for j in traced)
    m["proc.peak_rss_mb.train"] = _median(j["procs"]["main"]["peak_rss_mb"] for j in traced)
    m["proc.cpu_util.train"] = _median(
        j["procs"]["main"]["cpu_s"] / j["wall_s"] / nproc for j in traced
    )
    procs = serve["procs"]
    for name, usage in procs.items():
        label = "frontend" if name == "main" else name
        m[f"proc.cpu_s.{label}"] = usage["cpu_s"]
        m[f"proc.peak_rss_mb.{label}"] = usage["peak_rss_mb"]
    m["proc.cpu_util.serve"] = (
        sum(u["cpu_s"] for u in procs.values()) / serve["wall_s"] / nproc
    )
    m["bench.loadgen.late_p99_ms"] = serve["late_p99_ms"]
    for name in OPEN_LOOP:
        m[f"bench.openloop.{name}"] = serve[name]
    # Traced minus untraced fit + save, as a share of untraced.
    untraced = [j for j in jobs if "trace" not in j]
    m["trace.overhead_share"] = (
        _median(j["train_s"] for j in traced) / _median(j["train_s"] for j in untraced) - 1
    )
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from procinfo import environment
    from tracer import PER_LAYER

    deadline = time.monotonic() + RUN_BUDGET_S
    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        jobs = train_phase(rundir, trace, deadline)
        serve = run_child(serve_spec(rundir, args, trace), rundir, "serve", deadline)
    except ChildFailed as exc:
        print(f"workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    env = environment(ROOT, serve["start_method"])
    errors = check_train(jobs) + serve["errors"]
    if trace:
        metrics = per_layer(jobs, serve, env["nproc"])
        units = PER_LAYER
        reconcile = serve["trace"]["reconcile"]
        errors += [f"trace count {k} does not reconcile: {v}"
                   for k, v in reconcile.items() if not v["match"]]
    else:
        metrics = end_to_end(jobs, serve)
        units = END_TO_END
        reconcile = None

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "train_jobs_s": [job["train_s"] for job in jobs],
        "processes": process_table(jobs, serve),
        "closed_loop": serve["closed"],
        "rungs": serve.get("rungs"),
        "service_stats": serve["stats"],
        "reconcile": reconcile,
        "errors": errors,
    }
    print("detail " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": serve["attempted"] + len(jobs),
        "failed": serve["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
