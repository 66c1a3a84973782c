"""Per-process resource figures and the environment record of a run."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: thread-count variables that BLAS/OpenMP builds read; recorded, never set.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def process_usage(pid: int | None = None) -> dict:
    """Peak RSS (MB) and CPU seconds (user + system) of a live process."""
    pid = os.getpid() if pid is None else pid
    status = Path(f"/proc/{pid}/status").read_text()
    hwm_kb = next(
        int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")
    )
    # Fields after the parenthesised command name; utime and stime are the
    # 14th and 15th fields of the whole line.
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = (int(fields[11]) + int(fields[12])) / ticks
    return {"pid": pid, "peak_rss_mb": hwm_kb / 1024.0, "cpu_s": cpu_s}


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout read from its files; ``unknown`` elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown"}
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "configuration": blas.get("openblas configuration", ""),
    }


def environment(root: Path, start_method: str) -> dict:
    """What the run executed under, as found; the benchmark changes none of it."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "start_method": start_method,
        "platform": sys.platform,
        "git_commit": _git_commit(root),
    }
