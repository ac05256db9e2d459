"""The worker threads of the pipeline's two-thread parts: GloVe's column-block
steps (``glove.train_glove``) and the training step's parameter gradients and
half of every Adam step (``training.train``).

``WORKERS`` is the one thread count both read, at call time: the calling
thread and at most one worker, never more than the CPUs this process may run
on. Each part gives the same result, bit for bit, at any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


@contextmanager
def helpers(threads: int):
    """An executor of ``threads - 1`` worker threads for the block, the
    calling thread being the first of ``threads``, or None when ``threads``
    is below 2. No thread starts until a task is submitted, and leaving the
    block joins the workers, whether it returns or raises."""
    if threads < 2:
        yield None
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        yield pool
