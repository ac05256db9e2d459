"""Pin BLAS to one thread before numpy loads so results stay deterministic
across machines and matrix products in timed tests run on one core, and make
every Hypothesis property test deterministic: examples come from a fixed
seed, nothing is stored between runs, and no example has a deadline.

Two parts may still use a second thread, ``parallel.WORKERS``, with the same
bits: GloVe's column-block steps, and in ``training.train`` the parameter
gradients of every backward (a node's pulls into parameters run on the
worker in walk order, its pulls into intermediate nodes on the caller before
them) and the second half of every Adam step."""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
