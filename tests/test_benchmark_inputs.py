"""The benchmark's input script against the library it measures: ``perfbench/
prepare.py`` runs in a child process, as the benchmark runs it, and every
file it writes loads back through the library's own readers. A change to the
library surface that the script uses fails here."""

import os
import subprocess
import sys
from pathlib import Path

from skipgru import data, glove, training

ROOT = Path(__file__).resolve().parents[1]


def test_prepare_writes_files_the_library_loads(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "prepare.py"), "--seed", "5",
                           "--members", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    tracks = data.load_tracks(tmp_path / "tracks.csv")
    assert len(tracks) == 500
    sessions = data.load_sessions(tmp_path / "sessions.csv", tracks, mode="train")
    holdout = data.load_sessions(tmp_path / "holdout.csv", tracks, mode="infer")
    truth = data.load_sessions(tmp_path / "holdout_truth.csv", tracks, mode="train")
    assert (len(sessions), len(holdout)) == (2000, 1000)
    assert truth.session_ids == holdout.session_ids
    assert sorted(glove.load_embeddings(tmp_path / "embeddings.txt")) == tracks.ids
    for stem in ("relu", "elu", "relu_bn"):
        training.load_checkpoint(tmp_path / f"member_{stem}.ckpt").build()
