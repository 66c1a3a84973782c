"""Every benchmark module imports cleanly (no timing, no benchmark runs).

Benchmarks only run in their own CI job; importing them here makes a bench
that still references a removed API fail the tier-1 suite instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_bench_files_found():
    assert len(BENCH_FILES) >= 10


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_bench_module_imports(path: Path):
    spec = importlib.util.spec_from_file_location(f"_bench_import_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module)), path.name
