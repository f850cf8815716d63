import ast
import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import implab
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
    # the tasks are one coordinate's grid points; 4 CPUs in the fixture
    ten, three = parse_grid("0:9:1"), parse_grid("0:2:1")
    assert check_weak_dominance([3, 1], ten, jobs=HUGE) == check_weak_dominance([3, 1], ten)
    check_weak_dominance([3, 1], three, jobs=HUGE)
    check_weak_dominance([3, 1], ten, jobs=2)
    assert pools == [4, 3, 2]
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        check_weak_dominance([3, 1], ten, jobs=0)


def test_one_worker_starts_no_pool(pools, monkeypatch):
    grid = parse_grid("0:4:1")
    seq = check_weak_dominance([3, 1, 2], grid, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert check_weak_dominance([3, 1, 2], grid, jobs=HUGE) == seq
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


def test_importing_the_cli_loads_no_process_pool():
    # nor any layer, nor the modules the layers need: each command imports its own
    code = "import sys, implab.cli; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(implab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(out.stdout)
    assert [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")] == []
    assert [m for m in loaded if m.startswith("implab.")] == ["implab.cli"]
    assert {"fractions", "dataclasses"}.isdisjoint(loaded)


def test_the_cli_imports_only_the_standard_library_at_module_level():
    tree = ast.parse((Path(implab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    modules, relative = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.append((node.module, [alias.name for alias in node.names]))
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert relative == [(None, ["__version__"])]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules)


def test_only_auctions_names_concurrent_futures():
    package = Path(implab.__file__).parent
    naming = {p.name for p in package.glob("*.py") if "concurrent.futures" in p.read_text()}
    assert naming == {"auctions.py"}


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
