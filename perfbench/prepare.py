"""Generate one seed's benchmark inputs as files.

    python3 perfbench/prepare.py --seed N --out DIR [--members]

needs ``src`` on PYTHONPATH. Writes tracks.csv, sessions.csv (train mode),
holdout.csv (infer mode), holdout_truth.csv, a seeded random embeddings.txt
and, with ``--members``, the three ensemble-member checkpoints that the
``predict`` workload loads. The members are trained here, before any timing,
by the code under test.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from skipgru import data, glove, model, training
from skipgru.features import FeaturePipeline

N_SESSIONS = 2000
N_VALID = 200
N_HOLDOUT = 1000
N_TRACKS = 500
EMBED_DIMS = 150
TRAIN_BATCH = 64
HIDDEN = 64
LR = 0.002
# ensemble members: (file stem, activation, batchnorm); trained briefly on a
# slice of the training split so that set-up stays a few seconds
MEMBERS = (("relu", "relu", False), ("elu", "elu", False), ("relu_bn", "relu", True))
MEMBER_SESSIONS = 600
MEMBER_EPOCHS = 1


def split(sessions):
    """The quickstart split: last N_VALID training sessions validate."""
    return sessions[:-N_VALID], sessions[-N_VALID:]


def write_embeddings(path, track_ids, seed: int) -> None:
    rng = np.random.default_rng([seed, 3])
    table = rng.normal(scale=0.1, size=(len(track_ids), EMBED_DIMS))
    with open(path, "w", encoding="utf-8") as fh:
        for tid, row in zip(track_ids, table):
            fh.write(tid + " " + " ".join(repr(float(v)) for v in row) + "\n")


def prepare(out: Path, seed: int, members: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    tracks, sessions = data.gen_synthetic(N_SESSIONS + N_HOLDOUT, N_TRACKS, seed=seed)
    train_part, holdout = sessions[:N_SESSIONS], sessions[N_SESSIONS:]
    data.write_tracks(out / "tracks.csv", tracks)
    data.write_sessions(out / "sessions.csv", train_part, mode="train")
    data.write_sessions(out / "holdout.csv", holdout, mode="infer")
    data.write_sessions(out / "holdout_truth.csv", holdout, mode="train")
    write_embeddings(out / "embeddings.txt", sorted(tracks), seed)
    if not members:
        return
    train_split, valid_split = split(train_part)
    pipeline = FeaturePipeline(glove.load_embeddings(out / "embeddings.txt")).fit(
        train_split, tracks)
    config = training.TrainConfig(batch_size=TRAIN_BATCH, epochs=MEMBER_EPOCHS, lr=LR, seed=seed)
    for stem, activation, batchnorm in MEMBERS:
        variant = model.VariantConfig(activation=activation, hidden_size=HIDDEN,
                                      use_batchnorm=batchnorm)
        checkpoint = training.train(train_split[:MEMBER_SESSIONS], valid_split, tracks,
                                    pipeline, variant, config)
        training.save_checkpoint(checkpoint, out / f"member_{stem}.ckpt")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--members", action="store_true")
    args = parser.parse_args()
    prepare(Path(args.out), args.seed, args.members)


if __name__ == "__main__":
    main()
