"""The process-pool helper behind the `--jobs` sweep of `vickrey dominance`,
which hands each worker a contiguous range of one bid coordinate's grid points."""

from __future__ import annotations

import os
from typing import Callable, Sequence


def worker_count(jobs: int, tasks: int) -> int:
    """Workers worth starting: no more than jobs, CPUs, or tasks."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def pool_map(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """fn over tasks, results in task order; in-process when one worker suffices."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return list(map(fn, tasks))
    # imported here so that importing the package does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
