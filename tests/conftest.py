"""Pin BLAS to one thread before numpy loads so results stay deterministic
across machines and matrix products in timed tests run on one core, and make
every Hypothesis property test deterministic: examples come from a fixed
seed, nothing is stored between runs, and no example has a deadline.

GloVe training and ``training.train`` may still use one worker thread, with
the same bits as without it (see ``skipgru.parallel``)."""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
