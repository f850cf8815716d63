import ast
import concurrent.futures
import os
from pathlib import Path

import pytest

from implab import parallel, ranksets
from implab.auctions import check_weak_dominance, parse_grid
from implab.cli import main

HUGE = 10**9


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool by one that records its size and maps in-process."""
    made: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return made


def test_worker_count_is_clamped_to_jobs_cpus_and_tasks(pools):
    assert parallel.worker_count(HUGE, 100) == 4
    assert parallel.worker_count(HUGE, 3) == 3
    assert parallel.worker_count(2, 100) == 2
    assert parallel.worker_count(HUGE, 0) == 1
    with pytest.raises(ValueError, match="at least 1"):
        parallel.worker_count(0, 5)


def test_pool_map_stays_in_process_for_one_worker(pools, monkeypatch):
    assert parallel.pool_map(abs, [-1, -2], 1) == [1, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.pool_map(abs, [-1, -2], HUGE) == [1, 2]
    assert pools == []


def test_dominance_pool_is_clamped_to_the_grid_size(pools):
    # the sweep splits one coordinate's grid points between the workers: min(jobs, CPUs, k)
    grid = parse_grid("0:2:1")
    assert check_weak_dominance([3, 1, 2], grid, jobs=HUGE) == check_weak_dominance([3, 1, 2], grid)
    assert pools == [3]


def test_discovery_starts_no_pool(pools, capsys):
    assert main(["--jobs", str(HUGE), "ranksets", "discover", "--max-m", "4"]) == 0
    capsys.readouterr()
    assert pools == []


def test_ranksets_does_not_import_parallel():
    tree = ast.parse(Path(ranksets.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.endswith("parallel") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "parallel" and "parallel" not in [a.name for a in node.names]


def test_cli_huge_jobs_uses_the_clamped_pool(pools, capsys):
    argv = ["vickrey", "dominance", "--n", "2", "--grid", "0:3:1", "--values", "2,1"]
    assert main(argv) == 0
    seq = capsys.readouterr().out
    assert main(["--jobs", str(HUGE), *argv]) == 0
    par = capsys.readouterr().out
    assert pools == [4]

    def body(text):
        return [line for line in text.splitlines() if "duration_seconds" not in line and "jobs" not in line]

    assert body(par) == body(seq)
