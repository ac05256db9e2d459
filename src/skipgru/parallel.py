"""The pipeline's second thread, and the one place its contract is stated.

``WORKERS`` is the thread count: the calling thread and at most one worker,
never more than the CPUs this process may run on. It is read at call time by
the two parts that use a worker, each of which holds one ``worker()`` for one
call:

- ``glove.train_glove``: the calling thread computes each slice's dot
  products, residuals, loss and bias steps, then ``split`` gives the
  slice's column blocks to the two threads.
- ``training.train``: the forward, the loss, the batch gathers, clipping and
  validation stay on the calling thread. In ``autodiff.backward`` so do the
  walk, which takes the nodes newest first, and every pull into an
  intermediate node; a node's pulls into parameters form one task, queued
  after its other pulls so the memos they share are filled first, and the
  worker runs the tasks in queue (walk) order while the walk goes on. When
  the walk ends, the caller runs the tasks the worker has not started, last
  queued first, if no two tasks write the same parameter, and otherwise
  waits. Each ``adam_step`` is cut in two by ``split``.

No thread starts until a task is submitted, and the worker is joined when
the call returns or raises. The two threads never write the same memory, and
every parameter's contributions are added in the order one thread would add
them, so each part gives the same result, bit for bit, whatever ``WORKERS``
is. An error comes out as the object that was raised, and only once both
threads have stopped: the first in walk order in ``backward``, the caller's
before the worker's in ``split``.
"""

from __future__ import annotations

import os
from concurrent import futures
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext

WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


def worker():
    """A context whose block gets one worker thread, or None when ``WORKERS``
    is below 2."""
    return ThreadPoolExecutor(max_workers=1) if WORKERS > 1 else nullcontext()


def split(pool: Executor | None, n: int, run) -> None:
    """Run ``run(k, piece)`` over the slices of ``range(n)``: the caller takes
    ``k = 0``, the first half ``[0, n // 2)``, while ``pool`` takes ``k = 1``,
    the rest. Without a pool, or when ``n < 2``, the caller runs
    ``run(0, slice(0, n))`` alone."""
    if pool is None or n < 2:
        return run(0, slice(0, n))
    job = pool.submit(run, 1, slice(n // 2, n))
    try:
        run(0, slice(0, n // 2))
    finally:
        futures.wait([job])
    job.result()
