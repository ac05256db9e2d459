"""The benchmark's input script and workloads against the library they
measure: ``perfbench/prepare.py`` runs in a child process, as the benchmark
runs it, every file it writes loads back through the library's own readers,
and each workload runs ``setup``, ``main`` and ``check`` once on those files.
A change to the library surface that the benchmark uses fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from skipgru import data, glove, training

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_inputs")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "prepare.py"), "--seed", "5",
                           "--members", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return out


def test_prepare_writes_files_the_library_loads(inputs):
    tracks = data.load_tracks(inputs / "tracks.csv")
    assert len(tracks) == 500
    sessions = data.load_sessions(inputs / "sessions.csv", tracks, mode="train")
    holdout = data.load_sessions(inputs / "holdout.csv", tracks, mode="infer")
    truth = data.load_sessions(inputs / "holdout_truth.csv", tracks, mode="train")
    assert (len(sessions), len(holdout)) == (2000, 1000)
    assert truth.session_ids == holdout.session_ids
    assert sorted(glove.load_embeddings(inputs / "embeddings.txt")) == tracks.ids
    for stem in ("relu", "elu", "relu_bn"):
        training.load_checkpoint(inputs / f"member_{stem}.ckpt").build()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_clean(inputs, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(inputs)
    out = tmp_path / f"{name}.out"
    result = workload.main(state, out)
    assert result.items > 0 and out.exists()
    assert workload.check(state, result, out) == []
