import json
import re
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (failing_head, fresh_params, one_batch, rewrite_checkpoint,
                     switching_every_microsecond)

from skipgru import autodiff as ad
from skipgru import cli, data, metrics, model, parallel, training
from skipgru.errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    TrainingError,
)
from skipgru.features import FeaturePipeline


def small_params(value=0.0):
    """A small model whose every weight is ``value``, with zero gradients."""
    dims = model.ModelDims(d_trip=3, d_doub=2, ctx_col=0, ctx_vocab=2)
    params = model.ModelParams(model.VariantConfig(hidden_size=1), dims)
    params.values[...] = value
    return params


class TestAdamStep:
    def test_first_step_unit_gradient(self):
        params = small_params(0.0)
        params.grads[...] = 1.0
        training.adam_step(params, training.AdamState())
        expected = -0.0005 / (1.0 + 1e-8)
        assert params.values == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_no_change(self):
        params = small_params(3.0)
        training.adam_step(params, training.AdamState())
        assert np.array_equal(params.values, np.full(params.values.shape, 3.0))

    def test_first_step_magnitude_is_lr(self):
        # |update| = lr * |g| / (|g| + eps), so the eps term contributes a
        # relative deviation of eps / |g|
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = float(rng.choice([-1, 1])) * 10 ** float(rng.uniform(-2, 3))
            params = small_params(1.0)
            params.grads[0] = g
            training.adam_step(params, training.AdamState())
            update = params.values[0] - 1.0
            assert np.sign(update) == -np.sign(g)
            assert abs(update) == pytest.approx(0.0005, rel=1e-8 / abs(g) + 1e-9)

    def test_update_sign_opposes_first_moment(self):
        rng = np.random.default_rng(1)
        params = small_params()
        params.values[...] = rng.normal(size=params.values.shape)
        state = training.AdamState()
        for _ in range(5):
            params.grads[...] = rng.normal(size=params.grads.shape)
            before = params.values.copy()
            training.adam_step(params, state)
            update = params.values - before
            m_hat = state.m / (1.0 - training.ADAM_BETA1 ** state.t)
            nonzero = m_hat != 0.0
            assert (np.sign(update[nonzero]) == -np.sign(m_hat[nonzero])).all()

    def test_moment_buffers_and_counter(self):
        params = small_params()
        state = training.AdamState()
        params.grads[...] = 2.0
        training.adam_step(params, state)
        assert state.t == 1
        assert state.m == pytest.approx(0.2)
        assert state.v == pytest.approx(0.004)
        assert state.m.shape == state.v.shape == params.values.shape
        assert (state.v >= 0.0).all()

    def test_two_steps_match_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(2)
        params = small_params()
        start = rng.normal(size=params.values.shape)
        grads = [rng.normal(size=start.shape) for _ in range(2)]
        params.values[...] = start
        state = training.AdamState()
        w, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        for t, g in enumerate(grads, start=1):
            params.grads[...] = g
            training.adam_step(params, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            w = w - state.lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert np.array_equal(params.values, w)

    def test_nonfinite_gradient_names_parameter(self):
        params = small_params(1.0)
        params.views(params.grads)["gru2.b_r"][...] = np.nan
        with pytest.raises(TrainingError, match="gru2.b_r"):
            training.adam_step(params, training.AdamState())

    def test_nonfinite_gradient_writes_nothing_with_a_worker(self):
        rng = np.random.default_rng(4)
        params, state = small_params(), training.AdamState()
        params.values[...] = rng.normal(size=params.values.shape)
        with ThreadPoolExecutor(max_workers=1) as worker:
            params.grads[...] = rng.normal(size=params.grads.shape)
            training.adam_step(params, state, worker)
            params.views(params.grads)["head.w3"][-1, -1] = np.inf
            before = [a.tobytes() for a in (params.values, state.m, state.v)]
            with pytest.raises(TrainingError, match="'head.w3'"):
                training.adam_step(params, state, worker)
        assert [a.tobytes() for a in (params.values, state.m, state.v)] == before
        assert state.t == 1

    def test_two_halves_on_a_worker_match_one_pass_bitwise(self):
        rng = np.random.default_rng(5)
        start = rng.normal(size=small_params().values.shape)
        grads = [rng.normal(size=start.shape) for _ in range(3)]
        runs = []
        with ThreadPoolExecutor(max_workers=1) as worker:
            for pool in (None, worker):
                params, state = small_params(), training.AdamState()
                params.values[...] = start
                for g in grads:
                    params.grads[...] = g
                    training.adam_step(params, state, pool)
                runs.append([a.tobytes() for a in (params.values, state.m, state.v)])
        assert runs[0] == runs[1]

    def test_clip_gradients(self):
        grads = np.array([3.0, 0.0, 4.0])
        norm = training.clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert float((grads ** 2).sum()) ** 0.5 == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_norm_is_within_1e_12_of_the_per_tensor_sum(self, seed):
        # the flat norm sums in another order than a sum of per-parameter
        # sums, so --clip-norm runs may move in the last bits, within this bound
        tracks, train_s, valid_s, pipeline, _ = tiny_training_setup(seed=seed)
        params = fresh_params(model.VariantConfig(hidden_size=8, use_batchnorm=True),
                              model.ModelDims.from_pipeline(pipeline), seed)
        rng = np.random.default_rng(seed)
        params.grads[...] = rng.normal(size=params.grads.shape) * 10 ** rng.uniform(
            -3, 3, size=params.grads.shape)
        reference = sum(float((g * g).sum()) for g in params.views(params.grads).values()) ** 0.5
        max_norm = 0.1 * reference
        norm = training.clip_gradients(params.grads, max_norm)
        assert abs(norm - reference) <= 1e-12 * reference
        clipped = sum(float((g * g).sum()) for g in params.views(params.grads).values()) ** 0.5
        assert abs(clipped - max_norm) <= 1e-12 * max_norm


def tiny_training_setup(seed=0, n_sessions=24):
    tracks, sessions = data.gen_synthetic(
        n_sessions=n_sessions, n_tracks=50, acoustic_dim=2, seed=seed
    )
    pipeline = FeaturePipeline({}, d_emb=3).fit(sessions, tracks)
    variant = model.VariantConfig(hidden_size=4)
    return tracks, sessions[: n_sessions - 6], sessions[n_sessions - 6:], pipeline, variant


class TestTrainLoop:
    def test_deterministic_checkpoint_hash(self):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup()
        config = training.TrainConfig(batch_size=8, epochs=2, seed=5)
        a = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        b = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        assert a.content_hash() == b.content_hash()
        assert a.metadata["epoch_log"] == b.metadata["epoch_log"]

    def test_zero_epochs_keeps_init(self):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup()
        config = training.TrainConfig(batch_size=8, epochs=0, seed=3)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        init = fresh_params(variant, model.ModelDims.from_pipeline(pipeline), seed=3)
        assert ckpt.params.arrays().keys() == init.arrays().keys()
        for name, arr in init.arrays().items():
            assert np.array_equal(ckpt.params.arrays()[name], arr)
        assert ckpt.metadata["best_val_aa"] is None

    def test_best_checkpoint_is_max_logged(self):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup(seed=2)
        config = training.TrainConfig(batch_size=8, epochs=3, seed=1)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        logged = [entry["val_aa"] for entry in ckpt.metadata["epoch_log"]]
        assert ckpt.metadata["best_val_aa"] == max(logged)

    def test_empty_sets_rejected(self):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup()
        config = training.TrainConfig(epochs=1)
        with pytest.raises(ConfigError):
            training.train(train_s[:0], valid_s, tracks, pipeline, variant, config)
        with pytest.raises(ConfigError):
            training.train(train_s, valid_s[:0], tracks, pipeline, variant, config)

    def test_numeric_failure_aborts_with_diagnostics(self, monkeypatch):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup()

        def poisoned(batch, params, mode):
            raise training.NumericError("synthetic NaN")

        monkeypatch.setattr(training, "forward_batch", poisoned)
        config = training.TrainConfig(batch_size=8, epochs=1)
        with pytest.raises(TrainingError, match="epoch 1"):
            training.train(train_s, valid_s, tracks, pipeline, variant, config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            training.TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            training.TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            training.TrainConfig(lr=0.0)



class TestTrainWorkers:
    SETTINGS = {
        "relu": (model.VariantConfig(hidden_size=8), None),
        "elu-batchnorm": (model.VariantConfig("elu", 8, use_batchnorm=True), None),
        "clipped": (model.VariantConfig(hidden_size=8), 0.05),
    }

    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_worker_count_does_not_matter(self, monkeypatch, setting):
        # four workers asked for, more than the cores, and a thread switch
        # every microsecond: a gradient added out of walk order, or an Adam
        # half crossed with the other, would change the bits
        variant, clip_norm = self.SETTINGS[setting]
        tracks, train_s, valid_s, pipeline, _ = tiny_training_setup(seed=3, n_sessions=40)
        config = training.TrainConfig(batch_size=8, epochs=2, seed=4, clip_norm=clip_norm)
        caller, adam_threads, node_threads = threading.get_ident(), set(), set()
        moves, init = training._adam_moves, ad.Node.__init__

        def recording_moves(*args):
            adam_threads.add(threading.get_ident())
            moves(*args)

        def recording_init(*args, **kwargs):
            node_threads.add(threading.get_ident())
            init(*args, **kwargs)

        monkeypatch.setattr(training, "_adam_moves", recording_moves)
        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        runs, before = [], threading.active_count()
        with switching_every_microsecond():
            for workers in (1, 2, 4):
                monkeypatch.setattr(parallel, "WORKERS", workers)
                adam_threads.clear()
                runs.append(training.train(train_s, valid_s, tracks, pipeline, variant, config))
                assert len(adam_threads) == min(workers, 2)
                assert threading.active_count() == before
        assert node_threads == {caller}
        first = runs[0]
        for run in runs[1:]:
            assert run.content_hash() == first.content_hash()
            assert run.metadata["epoch_log"] == first.metadata["epoch_log"]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(
                run.params.arrays().values(), first.params.arrays().values(), strict=True))

    @pytest.mark.parametrize("where", ["task", "walk"])
    def test_a_pull_error_comes_out_of_train_as_itself(self, monkeypatch, where):
        class PullError(Exception):
            pass

        err, raised = PullError(where), []

        def failing_loss(probs, targets):
            top, threads, _ = failing_head(model.loss(probs, targets), err, where)
            raised.append(threads)
            return top

        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup()
        monkeypatch.setattr(parallel, "WORKERS", 2)
        monkeypatch.setattr(training, "loss", failing_loss)
        before = threading.active_count()
        with pytest.raises(PullError) as info:
            training.train(train_s, valid_s, tracks, pipeline, variant,
                           training.TrainConfig(batch_size=8, epochs=1))
        assert info.value is err
        assert (raised[0][0] == threading.get_ident()) == (where == "walk")
        assert threading.active_count() == before


class TestOverfitSanity:
    def test_fifty_adam_steps_crush_micro_batch_loss(self):
        tracks, train_s, valid_s, pipeline, _ = tiny_training_setup(seed=0)
        variant = model.VariantConfig(hidden_size=24)
        params = fresh_params(variant, model.ModelDims.from_pipeline(pipeline), seed=0)
        batch = one_batch(train_s[:1], pipeline, tracks)
        adam = training.AdamState(lr=0.03)
        losses = []
        for _ in range(51):
            probs = model.forward_batch(batch, params, "train")
            batch_loss = model.loss(probs, batch.targets)
            losses.append(float(batch_loss.value[0, 0]))
            params.grads.fill(0.0)
            ad.backward(batch_loss)
            training.adam_step(params, adam)
        assert losses[50] < 0.1 * losses[0]


class TestCheckpointIO:
    def make_checkpoint(self, seed=0):
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup(seed=seed)
        # an embedding table for some of the tracks, so the table's bytes are in the file
        rng = np.random.default_rng(seed)
        embedded = FeaturePipeline({tid: rng.normal(size=3) for tid in sorted(tracks)[::3]})
        pipeline = embedded.fit(train_s, tracks)
        config = training.TrainConfig(batch_size=8, epochs=1, seed=seed)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        return tracks, valid_s, ckpt

    def assert_same_predictions(self, ckpt, loaded, tracks, sessions):
        params_a, pipeline_a = ckpt.build()
        params_b, pipeline_b = loaded.build()
        probs_a = model.predict_probs(sessions, pipeline_a, tracks, params_a)
        probs_b = model.predict_probs(sessions, pipeline_b, tracks, params_b)
        assert probs_a.keys() == probs_b.keys()
        for sid in probs_a:
            assert np.array_equal(probs_a[sid], probs_b[sid])

    def test_round_trip_predictions_bit_identical(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        loaded = training.load_checkpoint(path)
        self.assert_same_predictions(ckpt, loaded, tracks, sessions)

    def test_version_1_file_is_a_version_error(self, tmp_path, capsys):
        # version 1 (one JSON line, the arrays as float lists) is no longer read
        tracks, sessions, ckpt = self.make_checkpoint(seed=2)
        payload = {**ckpt.payload(), "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in ckpt.params.arrays().items()}}
        path = tmp_path / "v1.ckpt"
        path.write_text(json.dumps({"schema_version": 1, "sha256": "0" * 64, "payload": payload}))
        with pytest.raises(CheckpointVersionError, match="schema version 1 unsupported"):
            training.load_checkpoint(path)
        data.write_tracks(tmp_path / "tracks.csv", tracks)
        data.write_sessions(tmp_path / "sessions.csv", sessions)
        assert cli.main(["predict", "--model", str(path),
                         "--sessions", str(tmp_path / "sessions.csv"),
                         "--tracks", str(tmp_path / "tracks.csv"),
                         "--out", str(tmp_path / "sub.txt")]) == 3
        err = capsys.readouterr().err
        assert "schema version 1" in err and "Traceback" not in err
        assert not (tmp_path / "sub.txt").exists()

    def test_header_line_is_readable_json(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        with open(path, "rb") as fh:
            envelope = json.loads(fh.readline())
        assert envelope["schema_version"] == training.SCHEMA_VERSION == 2
        assert envelope["sha256"] == ckpt.content_hash()
        pipeline = envelope["payload"]["pipeline"]
        # the pipeline's JSON state, then the table's shape, in this key order
        want = {**ckpt.pipeline.to_dict(),
                "embeddings": {"shape": [len(ckpt.pipeline.embedding_ids), 3]}}
        assert list(pipeline.items()) == list(want.items())
        assert pipeline["embedding_ids"] == sorted(pipeline["embedding_ids"])

    def test_file_is_header_plus_raw_floats(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        header = blob[:blob.index(b"\n") + 1]
        floats = sum(arr.size for arr in ckpt.arrays())
        assert len(blob) <= 8 * floats + len(header)
        assert blob[len(header):] == b"".join(
            np.asarray(a, dtype="<f8").tobytes() for a in ckpt.arrays())

    def test_content_hash_deterministic_across_two_saves(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        training.save_checkpoint(ckpt, first)
        hash_before = ckpt.content_hash()
        training.save_checkpoint(ckpt, second)
        assert ckpt.content_hash() == hash_before
        assert first.read_bytes() == second.read_bytes()
        assert training.load_checkpoint(second).content_hash() == hash_before

    @staticmethod
    def flip_lr_digit(blob: bytearray) -> bytearray:
        """Change one digit of the learning rate recorded in the header."""
        k = blob.index(b'"lr": ') + len(b'"lr": ')
        blob[k] = ord("1") if blob[k] != ord("1") else ord("2")
        return blob

    def test_corrupted_byte_is_integrity_error(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        good = path.read_bytes()
        array_bit = bytearray(good)
        array_bit[-5] ^= 0x01  # one bit of the embedding table's last float
        for blob in (array_bit, self.flip_lr_digit(bytearray(good))):
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointIntegrityError, match="hash"):
                training.load_checkpoint(path)

    def test_wrong_version_is_version_error(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        blob = path.read_bytes().replace(b'"schema_version": 2', b'"schema_version": 99', 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointVersionError, match="99"):
            training.load_checkpoint(path)

    def test_truncated_file_is_integrity_error(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        body_start = blob.index(b"\n") + 1
        path.write_bytes(blob[: (body_start + len(blob)) // 2])  # half the arrays are missing
        with pytest.raises(CheckpointIntegrityError, match="hash"):
            training.load_checkpoint(path)

    def test_file_cut_inside_header_is_integrity_error(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: blob.index(b"\n") // 2])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            training.load_checkpoint(path)

    def test_rehashed_array_bytes_of_the_wrong_length(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint()
        path, bad = tmp_path / "model.ckpt", tmp_path / "bad.ckpt"
        training.save_checkpoint(ckpt, path)

        def grow(envelope):
            shape = envelope["payload"]["params"]["head.b3"]["shape"]
            shape[-1] += 1

        rewrite_checkpoint(path, bad, grow)
        with pytest.raises(CheckpointIntegrityError, match="array bytes"):
            training.load_checkpoint(bad)

    def test_metadata_preserved(self, tmp_path):
        tracks, sessions, ckpt = self.make_checkpoint(seed=4)
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        loaded = training.load_checkpoint(path)
        assert loaded.metadata == ckpt.metadata
        assert loaded.params.variant == ckpt.params.variant
        assert loaded.params.dims == ckpt.params.dims

    def test_reloaded_store_equals_the_trained_one_bitwise(self, tmp_path):
        tracks, train_s, valid_s, pipeline, _ = tiny_training_setup(seed=3)
        variant = model.VariantConfig(hidden_size=4, use_batchnorm=True)
        config = training.TrainConfig(batch_size=8, epochs=3, seed=2)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        training.save_checkpoint(ckpt, tmp_path / "m.ckpt")
        trained, loaded = ckpt.params, training.load_checkpoint(tmp_path / "m.ckpt").params
        assert same_bits(loaded.values, trained.values)
        for bn, other in [(loaded.bn1, trained.bn1), (loaded.bn2, trained.bn2)]:
            assert same_bits(bn.running_mean, other.running_mean)
            assert same_bits(bn.running_var, other.running_var)
        assert (trained.bn1.running_var != 1.0).any()

    def test_returned_model_is_the_best_epoch(self):
        # at this seed the best epoch is not the last, so train must write its
        # snapshot back
        tracks, train_s, valid_s, pipeline, variant = tiny_training_setup(seed=0)
        config = training.TrainConfig(batch_size=8, epochs=4, lr=0.01, seed=0)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant, config)
        logged = [entry["val_aa"] for entry in ckpt.metadata["epoch_log"]]
        assert logged[-1] < max(logged)
        params, pipeline = ckpt.build()
        probs = model.predict_probs(valid_s, pipeline, tracks, params)
        aa, _ = metrics.mean_aa(np.concatenate(list(probs.values())) >= metrics.THRESHOLD,
                                metrics.second_half_skips(valid_s),
                                data.second_half_length(valid_s.lengths))
        assert aa == ckpt.metadata["best_val_aa"] == max(logged)

    def test_validation_aa_improves_over_training(self):
        # not a tight bound, just the qualitative sanity that the loop learns
        tracks, sessions = data.gen_synthetic(n_sessions=120, n_tracks=60,
                                              acoustic_dim=2, seed=9)
        pipeline = FeaturePipeline({}, d_emb=3).fit(sessions[:100], tracks)
        variant = model.VariantConfig(hidden_size=8)
        config = training.TrainConfig(batch_size=16, epochs=4, lr=0.01, seed=0)
        ckpt = training.train(sessions[:100], sessions[100:], tracks, pipeline,
                              variant, config)
        log = ckpt.metadata["epoch_log"]
        assert log[-1]["train_loss"] < log[0]["train_loss"]


class TestTamperedCheckpoint:
    """A re-hashed checkpoint that no trained model could have written is a
    bad file: ``load_checkpoint`` names the ``dims`` field, the array or the
    pipeline field, and ``skipgru predict`` exits 3 before it reads any
    session."""

    @staticmethod
    def rejected(tmp_path, capsys, match, tamper=lambda envelope: None, arrays=None):
        tracks, train_s, valid_s, _, _ = tiny_training_setup(seed=1)
        rng = np.random.default_rng(1)
        pipeline = FeaturePipeline({tid: rng.normal(size=3) for tid in sorted(tracks)[::3]})
        pipeline.fit(train_s, tracks)
        variant = model.VariantConfig(hidden_size=4, use_batchnorm=True)
        ckpt = training.train(train_s, valid_s, tracks, pipeline, variant,
                              training.TrainConfig(batch_size=8, epochs=1))
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        training.save_checkpoint(ckpt, good)
        rewrite_checkpoint(good, bad, tamper, arrays)
        with pytest.raises(CheckpointIntegrityError, match=match):
            training.load_checkpoint(bad)
        data.write_tracks(tmp_path / "tracks.csv", tracks)
        data.write_sessions(tmp_path / "sessions.csv", valid_s)
        assert cli.main(["predict", "--model", str(bad),
                         "--sessions", str(tmp_path / "sessions.csv"),
                         "--tracks", str(tmp_path / "tracks.csv"),
                         "--out", str(tmp_path / "sub.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(match, err) and "Traceback" not in err
        assert not (tmp_path / "sub.txt").exists()

    @pytest.mark.parametrize("field,shift", [("ctx_col", -4), ("ctx_vocab", 1)])
    def test_dims_that_disagree_with_the_pipeline(self, tmp_path, capsys, field, shift):
        def move(envelope):
            envelope["payload"]["dims"][field] += shift

        self.rejected(tmp_path, capsys, rf"dims\.{field} is", move)

    @staticmethod
    def recode(shift):
        """A tamper that moves the context codes of ``context_vocab`` in sorted type order."""
        def tamper(envelope):
            vocab = envelope["payload"]["pipeline"]["context_vocab"]
            types = sorted(vocab)
            assert len(types) >= 2
            shift(vocab, types)
        return tamper

    @pytest.mark.parametrize("shift", [
        lambda vocab, types: vocab.update({types[1]: vocab[types[0]]}),
        lambda vocab, types: vocab.update({types[0]: 0}),
        lambda vocab, types: vocab.update({types[-1]: 99}),
        lambda vocab, types: vocab.update({types[0]: 2, types[1]: 1}),
    ], ids=["shared-code", "code-zero", "code-99", "unsorted-codes"])
    def test_context_codes_that_fit_could_not_write(self, tmp_path, capsys, shift):
        self.rejected(tmp_path, capsys, r"pipeline\.context_vocab: codes .* are not 1\.\.\d+ "
                      r"in sorted type order", self.recode(shift))

    @pytest.mark.parametrize("bounds", [
        lambda lo, hi: [float("nan"), hi],
        lambda lo, hi: [lo, float("inf")],
        lambda lo, hi: [hi, lo],
    ], ids=["nan-bound", "inf-bound", "swapped-bounds"])
    def test_duration_bounds_that_fit_could_not_write(self, tmp_path, capsys, bounds):
        def tamper(envelope):
            scalers = envelope["payload"]["pipeline"]["scalers"]
            assert scalers["duration"][0] < scalers["duration"][1]
            scalers["duration"] = bounds(*scalers["duration"])

        self.rejected(tmp_path, capsys, r"pipeline\.scalers: 'duration' bounds \[.*\] are not "
                      r"finite with lo <= hi", tamper)

    @pytest.mark.parametrize("reorder", [
        lambda ids: ids.insert(1, ids.pop(0)),
        lambda ids: ids.__setitem__(1, ids[0]),
    ], ids=["unsorted", "repeated"])
    def test_embedding_ids_that_are_not_sorted_and_distinct(self, tmp_path, capsys, reorder):
        def tamper(envelope):
            reorder(envelope["payload"]["pipeline"]["embedding_ids"])

        self.rejected(tmp_path, capsys, r"pipeline\.embedding_ids: not sorted and distinct",
                      tamper)

    def test_absurd_hidden_size_is_rejected_before_any_allocation(self, tmp_path, capsys):
        # a store of this width would be petabytes: the table check must come first
        def widen(envelope):
            envelope["payload"]["variant"]["hidden_size"] = 10 ** 7

        self.rejected(tmp_path, capsys, r"the shape of 'bn1\.beta' is \(1, 8\) in the header, "
                      r"but \(1, 20000000\)", widen)

    def test_negative_running_variance(self, tmp_path, capsys):
        def negate(arrays):
            arrays["bn1.running_var"][0] = -0.5

        self.rejected(tmp_path, capsys, "'bn1.running_var' holds a negative variance",
                      arrays=negate)

    def test_nan_weight(self, tmp_path, capsys):
        def poison(arrays):
            arrays["head.w3"][1, 2] = np.nan

        self.rejected(tmp_path, capsys, "'head.w3' holds a non-finite value", arrays=poison)

    def test_inf_in_the_embedding_table(self, tmp_path, capsys):
        def poison(arrays):
            arrays["pipeline.embeddings"][0, 1] = np.inf

        self.rejected(tmp_path, capsys, "'pipeline.embeddings' holds a non-finite value",
                      arrays=poison)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCheckpointProperties:
    @settings(max_examples=20)
    @given(activation=st.sampled_from(model.ACTIVATION_VARIANTS), use_batchnorm=st.booleans(),
           hidden=st.integers(1, 6), d_emb=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_save_load_build_reproduces_parameters_and_predictions(
            self, activation, use_batchnorm, hidden, d_emb, seed):
        rng = np.random.default_rng(seed)
        tracks, sessions = data.gen_synthetic(n_sessions=6, n_tracks=50, acoustic_dim=2,
                                              seed=seed)
        embeddings = {tid: rng.normal(size=d_emb) for tid in sorted(tracks)[::2]}
        pipeline = FeaturePipeline(embeddings, d_emb=d_emb).fit(sessions, tracks)
        variant = model.VariantConfig(activation, hidden, use_batchnorm)
        params = model.ModelParams(variant, model.ModelDims.from_pipeline(pipeline))
        for name, arr in params.arrays().items():
            arr[...] = rng.normal(size=arr.shape)
            if name.endswith("running_var"):
                np.abs(arr, out=arr)
        state = {name: arr.copy() for name, arr in params.arrays().items()}
        ckpt = training.Checkpoint(params, pipeline, None, {"seed": seed})
        with tempfile.TemporaryDirectory() as tmp:
            training.save_checkpoint(ckpt, Path(tmp) / "m.ckpt")
            rebuilt, rebuilt_pipeline = training.load_checkpoint(Path(tmp) / "m.ckpt").build()
        reloaded = rebuilt.arrays()
        assert reloaded.keys() == state.keys()
        assert all(same_bits(reloaded[name], state[name]) for name in state)
        expected = model.predict_probs(sessions, pipeline, tracks, params)
        got = model.predict_probs(sessions, rebuilt_pipeline, tracks, rebuilt)
        assert got.keys() == expected.keys()
        assert all(same_bits(got[sid], expected[sid]) for sid in expected)
