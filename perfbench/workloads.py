"""The three benchmark workloads, each a stage of the quickstart pipeline.

A workload is a closed loop of one caller: ``setup`` loads the stage's
inputs, ``main`` does the stage's work and writes its output file, and
``check`` verifies that output independently. Every library call goes
through a module or class attribute, so the traced run's patches see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from skipgru import autodiff, data, features, glove, metrics, model, training

import prepare

GLOVE_WINDOW = 5
GLOVE_EPOCHS = 2
TRAIN_EPOCHS = 2
# sessions the order-invariance and reload checks recompute; small, because
# checks run after every stage call and count toward the run's time
CHECK_SESSIONS = 64


@dataclass
class StageOutput:
    """What one stage call produced.

    ``items`` is the stage's unit of work, ``quality`` its result quality as
    a loss (lower is better), ``figures`` the workload's own named results
    and ``counts`` exact per-call counts reported by the traced run.
    """

    items: int
    quality: float
    figures: dict[str, float]
    counts: dict[str, float] = field(default_factory=dict)
    keep: object = None


class Embed:
    name = "embed"
    needs_members = False
    items_name = "embed_entries_per_s"
    node_spans = ()
    layer_metrics = (
        "data.load_sessions.s",
        "glove.build_cooccurrence.s", "glove.train_glove.s", "glove.export_embeddings.s",
        "glove.entries",
    )

    def setup(self, inputs: Path):
        return data.load_sessions(inputs / "sessions.csv", None, mode="train")

    def main(self, sessions, out: Path) -> StageOutput:
        table = glove.build_cooccurrence(sessions, window=GLOVE_WINDOW)
        emb = glove.train_glove(table, dims=prepare.EMBED_DIMS, epochs=GLOVE_EPOCHS, seed=0)
        glove.export_embeddings(emb, out)
        entries = 2 * len(table.pairs)
        final = emb.epoch_losses[-1]
        return StageOutput(
            items=entries * GLOVE_EPOCHS,
            quality=final / entries,
            figures={"embed_final_loss": final},
            counts={"glove.entries": entries},
            keep=emb,
        )

    def check(self, sessions, result: StageOutput, out: Path) -> list[str]:
        emb = result.keep
        problems = []
        reloaded = glove.load_embeddings(out)
        expected = emb.as_dict()
        if reloaded.keys() != expected.keys() or not all(
                np.array_equal(reloaded[k], v) for k, v in expected.items()):
            problems.append("exported embeddings do not reload to the trained values")
        if not emb.epoch_losses[-1] < emb.epoch_losses[0]:
            problems.append(f"GloVe loss did not decrease: {emb.epoch_losses}")
        return problems


@dataclass
class TrainState:
    tracks: dict
    train_split: list
    valid_split: list
    pipeline: features.FeaturePipeline


class Train:
    name = "train"
    needs_members = False
    items_name = "train_sessions_per_s"
    # autodiff nodes per training batch: forward pass plus loss
    node_spans = ("model.forward_batch.train", "model.loss")
    layer_metrics = (
        "data.load_tracks.s", "data.load_sessions.s", "glove.load_embeddings.s",
        "features.FeaturePipeline.fit.s",
        "training.train.s", "training.train.self_s",
        "data.pad_batch.s", "data.pad_batch.calls", "features.assemble.calls",
        "autodiff.nodes_per_batch", "autodiff.backward.s",
        "model.forward_batch.train.s", "model.forward_batch.infer.s",
        "model.encode_first_half.s", "model.enrich.s", "model.classify.s", "model.loss.s",
        "training.adam_step.s", "model.predict_probs.s", "metrics.mean_aa.s",
        "training.save_checkpoint.s", "training.checkpoint_bytes",
    )
    variant = dict(activation="relu", hidden_size=prepare.HIDDEN, use_batchnorm=False)

    def setup(self, inputs: Path) -> TrainState:
        tracks = data.load_tracks(inputs / "tracks.csv")
        sessions = data.load_sessions(inputs / "sessions.csv", tracks, mode="train")
        embeddings = glove.load_embeddings(inputs / "embeddings.txt")
        train_split, valid_split = prepare.split(sessions)
        pipeline = features.FeaturePipeline(embeddings).fit(train_split, tracks)
        return TrainState(tracks, train_split, valid_split, pipeline)

    def main(self, state: TrainState, out: Path) -> StageOutput:
        config = training.TrainConfig(batch_size=prepare.TRAIN_BATCH, epochs=TRAIN_EPOCHS,
                                      lr=prepare.LR, seed=0)
        checkpoint = training.train(state.train_split, state.valid_split, state.tracks,
                                    state.pipeline, model.VariantConfig(**self.variant), config)
        training.save_checkpoint(checkpoint, out)
        meta = checkpoint.metadata
        return StageOutput(
            items=len(state.train_split) * TRAIN_EPOCHS,
            quality=meta["final_train_loss"],
            figures={"best_val_aa": meta["best_val_aa"],
                     "final_train_loss": meta["final_train_loss"]},
            counts={"training.checkpoint_bytes": out.stat().st_size},
            keep=checkpoint,
        )

    def check(self, state: TrainState, result: StageOutput, out: Path) -> list[str]:
        reloaded = training.load_checkpoint(out)  # raises on a hash mismatch
        before = _valid_probs(result.keep, state)
        after = _valid_probs(reloaded, state)
        if before.keys() != after.keys() or not all(
                np.array_equal(before[k], after[k]) for k in before):
            return ["reloaded checkpoint does not reproduce the in-memory predictions"]
        return []


def _valid_probs(checkpoint: training.Checkpoint, state: TrainState) -> dict:
    params, pipeline = checkpoint.build()
    return model.predict_probs(state.valid_split[:CHECK_SESSIONS], pipeline, state.tracks, params)


@dataclass
class PredictState:
    members: list
    tracks: dict
    sessions: list
    truth: dict


class Predict:
    name = "predict"
    needs_members = True
    items_name = "predict_sessions_per_s"
    node_spans = ("model.forward_batch.infer",)
    layer_metrics = (
        "training.load_checkpoint.s", "training.Checkpoint.build.s",
        "data.load_tracks.s", "data.load_sessions.s",
        "metrics.ensemble_predict.s", "metrics.ensemble_predict.self_s",
        "data.pad_batch.s", "data.pad_batch.calls", "features.assemble.calls",
        "autodiff.nodes_per_batch",
        "model.forward_batch.infer.s", "model.encode_first_half.s", "model.enrich.s",
        "model.classify.s", "model.predict_probs.s", "metrics.ensemble_probs.s",
        "metrics.write_submission.s", "metrics.score_submission.s",
    )

    def setup(self, inputs: Path) -> PredictState:
        members = [training.load_checkpoint(inputs / f"member_{stem}.ckpt").build()
                   for stem, _, _ in prepare.MEMBERS]
        tracks = data.load_tracks(inputs / "tracks.csv")
        sessions = data.load_sessions(inputs / "holdout.csv", tracks, mode="infer")
        truth = metrics.second_half_truth(
            data.load_sessions(inputs / "holdout_truth.csv", None, mode="train"))
        return PredictState(members, tracks, sessions, truth)

    def main(self, state: PredictState, out: Path) -> StageOutput:
        predictions = metrics.ensemble_predict(state.members, state.sessions, state.tracks)
        metrics.write_submission(out, predictions)
        rows = metrics.read_submission(out)
        aa, _ = metrics.score_submission(state.truth, rows)
        return StageOutput(
            items=len(state.sessions) * len(state.members),
            quality=1.0 - aa,
            figures={"holdout_aa": aa},
            keep=rows,
        )

    def check(self, state: PredictState, result: StageOutput, out: Path) -> list[str]:
        rows = result.keep
        problems = []
        want = [len(s.events) - data.first_half_length(len(s.events)) for s in state.sessions]
        if [len(r) for r in rows] != want:
            problems.append("submission rows do not match the held-out second halves")
        chunk = state.sessions[:CHECK_SESSIONS]
        member_probs = [model.predict_probs(chunk, pipeline, state.tracks, params)
                        for params, pipeline in state.members]
        forward = metrics.ensemble_probs(member_probs)
        reverse = metrics.ensemble_probs(member_probs[::-1])
        if not all(np.array_equal(forward[s.session_id], reverse[s.session_id]) for s in chunk):
            problems.append("ensemble probabilities change under reversed member order")
        return problems


WORKLOADS = {w.name: w for w in (Embed(), Train(), Predict())}


def trace_targets(tracer):
    """(owner, attribute, wrapper factory) for every traced library boundary.

    A function is patched at each attribute its callers look it up through:
    ``training`` and ``model`` bind ``pad_batch``, ``forward_batch``, ``loss``
    and ``predict_probs`` by ``from ... import``.
    """

    def span(name):
        return lambda fn: tracer.wrap(fn, name)

    def forward_name(*args, **kwargs):
        return "model.forward_batch." + kwargs.get("mode", args[2] if len(args) > 2 else "")

    def count(name):
        return lambda fn: tracer.counting(fn, name)

    pipeline = features.FeaturePipeline
    return [
        (data, "load_sessions", span("data.load_sessions")),
        (data, "load_tracks", span("data.load_tracks")),
        (data, "pad_batch", span("data.pad_batch")),
        (model, "pad_batch", span("data.pad_batch")),
        (training, "pad_batch", span("data.pad_batch")),
        (pipeline, "fit", span("features.FeaturePipeline.fit")),
        (pipeline, "assemble_triplet", count("features.assemble")),
        (pipeline, "assemble_doublet", count("features.assemble")),
        (glove, "build_cooccurrence", span("glove.build_cooccurrence")),
        (glove, "train_glove", span("glove.train_glove")),
        (glove, "export_embeddings", span("glove.export_embeddings")),
        (glove, "load_embeddings", span("glove.load_embeddings")),
        (autodiff.Node, "__init__", tracer.node_counter),
        (autodiff, "backward", span("autodiff.backward")),
        (model, "forward_batch", span(forward_name)),
        (training, "forward_batch", span(forward_name)),
        (model, "encode_first_half", span("model.encode_first_half")),
        (model, "enrich", span("model.enrich")),
        (model, "classify", span("model.classify")),
        (model, "loss", span("model.loss")),
        (training, "loss", span("model.loss")),
        (model, "predict_probs", span("model.predict_probs")),
        (training, "predict_probs", span("model.predict_probs")),
        (training, "train", span("training.train")),
        (training, "adam_step", span("training.adam_step")),
        (training, "save_checkpoint", span("training.save_checkpoint")),
        (training, "load_checkpoint", span("training.load_checkpoint")),
        (training.Checkpoint, "build", span("training.Checkpoint.build")),
        (metrics, "mean_aa", span("metrics.mean_aa")),
        (metrics, "ensemble_predict", span("metrics.ensemble_predict")),
        (metrics, "ensemble_probs", span("metrics.ensemble_probs")),
        (metrics, "write_submission", span("metrics.write_submission")),
        (metrics, "score_submission", span("metrics.score_submission")),
    ]
