"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <criterion>: PASS`` line (``FAIL`` when the
assertions trip) so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import hashlib
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from skipgru import autodiff as ad
from skipgru import cli, data, glove, metrics, model, training
from skipgru.features import FeaturePipeline

from helpers import (central_diff, enrich_reference, fresh_params, max_rel_err, one_batch,
                     projected_gru, session_table)
from test_model import gru_params, hand_gru_step, step, tiny_setup, whole_model_fd


@contextlib.contextmanager
def criterion(name):
    """Print the criterion's ACCEPTANCE line; notes appended to the yielded list join it."""
    notes = []

    def line(verdict):
        return f"\nACCEPTANCE {name}: {verdict}" + (f" ({'; '.join(notes)})" if notes else "")

    try:
        yield notes
    except BaseException:
        print(line("FAIL"))
        raise
    print(line("PASS"))


def brute_force_aa(pred, truth):
    """Independent oracle: the metric as a literal double loop."""
    t = len(pred)
    total = Fraction(0)
    for i in range(1, t + 1):
        correct_prefix = sum(1 for j in range(i) if bool(pred[j]) == bool(truth[j]))
        l_i = 1 if bool(pred[i - 1]) == bool(truth[i - 1]) else 0
        total += Fraction(correct_prefix, i) * l_i
    return float(total / t)


class TestMetricOracle:
    def test_matches_brute_force_on_10k_pairs(self):
        with criterion("metric-oracle"):
            rng = np.random.default_rng(123)
            started = time.monotonic()
            for _ in range(10_000):
                t = int(rng.integers(1, 11))
                pred = rng.integers(0, 2, size=t)
                truth = rng.integers(0, 2, size=t)
                assert metrics.average_accuracy(pred, truth) == brute_force_aa(pred, truth)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"metric oracle took {elapsed:.2f}s"

    def test_hand_checked_values(self):
        with criterion("metric-hand-values"):
            assert metrics.average_accuracy([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]) == 1.0
            assert metrics.average_accuracy([0, 0, 0], [1, 1, 1]) == 0.0
            assert metrics.average_accuracy([1, 0, 1], [1, 1, 1]) == 5 / 9


def _fd_check_op(build, shapes, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    nodes = [ad.parameter(v) for v in values]
    ad.backward(ad.sum_all(build(*nodes)))
    for i, v in enumerate(values):
        def f(x, i=i):
            probe = [ad.constant(values[j]) if j != i else ad.constant(x)
                     for j in range(len(values))]
            return ad.sum_all(build(*probe)).value[0, 0]

        assert max_rel_err(nodes[i].grad, central_diff(f, v)) < tol


def _bn_train(a):
    state = ad.BatchNormState(
        gamma=ad.constant(np.full((1, 3), 1.2)), beta=ad.constant(np.full((1, 3), 0.1)),
        running_mean=np.zeros(3), running_var=np.ones(3),
    )
    out = ad.batchnorm(a, state, "train")
    return ad.hadamard(out, out)


def _bn_infer(a):
    state = ad.BatchNormState(
        gamma=ad.constant(np.full((1, 3), 0.8)), beta=ad.constant(np.full((1, 3), -0.2)),
        running_mean=np.array([0.2, -0.1, 0.4]), running_var=np.array([0.6, 1.4, 1.0]),
    )
    return ad.batchnorm(a, state, "infer")


OP_CASES = [
    ("matmul", lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)]),
    ("add", lambda a, b: ad.add(a, b), [(3, 4), (3, 4)]),
    ("affine", lambda a, w, b: ad.affine(a, w, b), [(3, 4), (4, 2), (1, 2)]),
    ("enrich-affine", lambda x, h, gate, w, b: ad.enrich_affine(x, h, [1, 0, 1, 1], gate, w, b),
     [(4, 3), (3, 2), (4, 2), (7, 2), (1, 2)]),
    ("hadamard", lambda a, b: ad.hadamard(a, b), [(3, 4), (3, 4)]),
    ("bias-broadcast", lambda a, b: ad.add(a, b), [(4, 3), (1, 3)]),
    ("sigmoid", lambda a: ad.sigmoid(a), [(3, 4)]),
    ("relu", lambda a: ad.relu(a), [(3, 4)]),
    ("elu", lambda a: ad.activation(a, "elu"), [(3, 4)]),
    ("concat-cols", lambda a, b: ad.hadamard(ad.concat_cols([a, b]),
                                             ad.concat_cols([b, a])), [(3, 2), (3, 2)]),
    ("scale", lambda a: ad.scale(a, -1.7), [(3, 4)]),
    ("batchnorm-train", _bn_train, [(5, 3)]),
    ("batchnorm-infer", _bn_infer, [(4, 3)]),
    ("take-rows", lambda a: ad.hadamard(ad.take_rows(a, [2, 0, 2]), ad.take_rows(a, [1, 2, 2])),
     [(3, 4)]),
    ("gru", lambda *a: projected_gru(*a, sizes=[2] * 3),
     [(6, 3), (2, 2), (3, 2), (2, 2), (3, 2), (2, 2), (3, 2), (2, 2), (1, 2), (1, 2), (1, 2)]),
    ("gru-packed", lambda *a: projected_gru(*a, sizes=[3, 2, 2, 1]),
     [(8, 3), (3, 2), (3, 2), (2, 2), (3, 2), (2, 2), (3, 2), (2, 2), (1, 2), (1, 2), (1, 2)]),
]


class TestGradientSuite:
    def test_every_op_and_model_loss_100_seeds(self):
        with criterion("gradient-suite") as notes:
            started = time.monotonic()
            for name, build, shapes in OP_CASES:
                for seed in range(100):
                    _fd_check_op(build, shapes, seed)
            # bce against random targets
            for seed in range(100):
                rng = np.random.default_rng(seed)
                y = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
                _fd_check_op(lambda p: ad.bce(ad.sigmoid(p), y), [(3, 4)], seed)

            # full model loss: one sampled coordinate per parameter tensor,
            # 100 random seeds; probes driving a relu through its kink are
            # skipped because central differences are undefined there
            checked = skipped = 0
            for seed in range(100):
                c, s = whole_model_fd(seed, coords_per_param=1)
                checked += c
                skipped += s
            assert checked > 1800
            assert skipped < 0.02 * checked, f"{skipped} kink skips of {checked}"
            elapsed = time.monotonic() - started
            notes.append(f"{elapsed:.1f}s of the 60s gate")
            assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


class TestGruOracle:
    def test_zero_weight_decay_and_hand_computation(self):
        with criterion("gru-oracle"):
            zeros = {k: np.zeros(s) for k, s in [
                ("w_ux", (2, 2)), ("w_us", (2, 2)), ("w_rx", (2, 2)), ("w_rs", (2, 2)),
                ("w_x", (2, 2)), ("w_s", (2, 2)),
                ("b_u", (1, 2)), ("b_r", (1, 2)), ("b_s", (1, 2)),
            ]}
            p = gru_params(**zeros)
            o = ad.constant([[0.9, -1.7]])
            o0 = o.value.copy()
            for t in range(1, 16):
                o = step(ad.constant([[0.2, -0.4]]), o, p)
                assert np.max(np.abs(o.value - 0.5 ** t * o0)) < 1e-12

            w = {
                "w_ux": [[0.5, -0.3], [0.1, 0.2]], "w_us": [[0.2, 0.0], [-0.1, 0.3]],
                "w_rx": [[-0.4, 0.6], [0.3, -0.2]], "w_rs": [[0.1, 0.1], [0.0, -0.3]],
                "w_x": [[0.7, -0.5], [0.2, 0.4]], "w_s": [[-0.2, 0.3], [0.5, 0.1]],
            }
            b = {"b_u": [0.05, -0.1], "b_r": [-0.2, 0.15], "b_s": [0.1, 0.0]}
            xs = [[1.0, -0.5], [0.25, 0.75], [-1.5, 0.4]]
            o_hand = [0.0, 0.0]
            for x in xs:
                o_hand = hand_gru_step(x, o_hand, w["w_ux"], w["w_us"], w["w_rx"],
                                       w["w_rs"], w["w_x"], w["w_s"],
                                       b["b_u"], b["b_r"], b["b_s"])
            p = gru_params(**{k: np.array(v) for k, v in w.items()},
                           **{k: np.array([v]) for k, v in b.items()})
            o = ad.constant([[0.0, 0.0]])
            for x in xs:
                o = step(ad.constant([x]), o, p)
            assert np.max(np.abs(o.value - np.array([o_hand]))) < 1e-9


class TestEnrichmentStructure:
    def test_zero_projection_and_width(self):
        with criterion("enrichment-structure"):
            _, _, pipeline, params = tiny_setup(seed=3, hidden=5)
            params.proj_w.value[...] = 0.0
            params.proj_b.value[...] = 0.0
            d, h = params.dims.d_doub, 5
            rng = np.random.default_rng(0)
            x_i = ad.constant(rng.normal(size=(6, d)))
            x_half = ad.constant(rng.normal(size=(6, 2 * h)))
            out = enrich_reference(x_i, x_half, params)
            assert out.shape == (6, d + 4 * h) == (6, params.head_w1.shape[0])
            third = out.value[:, d + 2 * h:]
            assert np.array_equal(third, np.zeros_like(third))
            # the fused head never forms the enrichment: with the gate at zero,
            # the rows of head.w1 that multiply the third block change nothing
            session = np.arange(6)
            probs = model.head(x_i, x_half, session, params, "infer").value
            params.head_w1.value[d + 2 * h:] = rng.normal(size=(2 * h, 2 * h))
            assert np.array_equal(model.head(x_i, x_half, session, params, "infer").value, probs)


class TestOverfitSanity:
    def test_fifty_adam_steps(self):
        with criterion("overfit-sanity"):
            tracks, sessions, pipeline, _ = tiny_setup(seed=0, n_sessions=24)
            variant = model.VariantConfig(hidden_size=24)
            params = fresh_params(variant, model.ModelDims.from_pipeline(pipeline), seed=0)
            batch = one_batch(sessions[:1], pipeline, tracks)
            adam = training.AdamState(lr=0.03)
            losses = []
            for _ in range(51):
                probs = model.forward_batch(batch, params, "train")
                batch_loss = model.loss(probs, batch.targets)
                losses.append(float(batch_loss.value[0, 0]))
                params.grads.fill(0.0)
                ad.backward(batch_loss)
                training.adam_step(params, adam)
            assert losses[50] < 0.1 * losses[0], f"{losses[0]} -> {losses[50]}"


class TestGloveCriterion:
    def test_toy_corpus_loss_and_cosine_margin(self):
        with criterion("glove-training"):
            rng = np.random.default_rng(42)
            clusters = [[f"c{c}_t{i}" for i in range(4)] for c in range(10)]
            sessions = []
            for k in range(200):
                members = clusters[rng.integers(0, 10)]
                seq = [members[rng.integers(0, 4)] for _ in range(rng.integers(10, 21))]
                sessions.append(data.Session(
                    f"s{k}", [data.Event(t, p + 1, None) for p, t in enumerate(seq)]
                ))
            table = glove.build_cooccurrence(session_table(sessions), window=5)
            emb = glove.train_glove(table, dims=32, epochs=60, seed=0)
            assert emb.epoch_losses[-1] < 0.1 * emb.epoch_losses[0], (
                f"{emb.epoch_losses[0]} -> {emb.epoch_losses[-1]}"
            )
            vecs = emb.as_dict()

            def cosine(a, b):
                va, vb = vecs[a], vecs[b]
                return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

            always = [cosine(c[i], c[j]) for c in clusters
                      for i in range(4) for j in range(i + 1, 4)]
            never = [cosine(clusters[a][i], clusters[b][j])
                     for a in range(10) for b in range(a + 1, 10)
                     for i in range(4) for j in range(4)]
            margin = float(np.mean(always) - np.mean(never))
            assert margin >= 0.2, f"cosine margin {margin:.3f}"


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    """The full desk-scale experiment via the CLI, shared by later criteria."""
    root = tmp_path_factory.mktemp("experiment")
    started = time.monotonic()
    assert cli.main(["gen-data", "--out-dir", str(root), "--sessions", "2000",
                     "--tracks", "500", "--seed", "7", "--holdout", "500"]) == 0
    assert cli.main(["embed", "--sessions", str(root / "sessions.csv"),
                     "--out", str(root / "embeddings.txt"), "--seed", "0"]) == 0
    assert cli.main(["train", "--sessions", str(root / "sessions.csv"),
                     "--tracks", str(root / "tracks.csv"),
                     "--embeddings", str(root / "embeddings.txt"),
                     "--out", str(root / "model.ckpt"),
                     "--epochs", "10", "--batch-size", "64",
                     "--hidden-size", "64", "--lr", "0.002", "--seed", "0"]) == 0
    assert cli.main(["predict", "--model", str(root / "model.ckpt"),
                     "--sessions", str(root / "sessions_holdout.csv"),
                     "--tracks", str(root / "tracks.csv"),
                     "--out", str(root / "submission.txt")]) == 0
    elapsed = time.monotonic() - started
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli.main(["evaluate", "--truth", str(root / "sessions_holdout.csv"),
                         "--submission", str(root / "submission.txt"),
                         "--breakdown", str(root / "positions.csv"),
                         "--per-session", str(root / "per_session.csv")]) == 0
    return root, elapsed, report.getvalue()


# sha256 of every file the quickstart writes, measured with BLAS at one thread
# under NumPy QUICKSTART_NUMPY. Another NumPy release may round a reduction
# differently, so under another version the digest test skips and names both
# versions; under this one any change to a written byte fails it.
QUICKSTART_NUMPY = "2.4.6"
QUICKSTART_DIGESTS = {
    "embeddings.txt": "50d447fe5284d2b2f1f3e62e7ca9be0e471db62ddcd55b04ad3733c9977a8e8f",
    "model.ckpt": "193f05d817878d6ab5a783ab9e51edc6d8a8127e1654a265d684ad21e9375f28",
    "submission.txt": "4b5a75ffae4c8ba2c6b387969f4e3df5f5a65ebb2b7648606332005b1cf27fde",
    "positions.csv": "73b5199a3e07cc106b59bdbfcf89e515a6176ce1cb4d712c6279c5150b17dfbb",
    "per_session.csv": "e40c93f73c94c48234d1bcec5ef9867e1f7b09812961f46cfeabbebc3fb39976",
}


class TestEndToEndExperiment:
    def test_synthetic_experiment_beats_baselines(self, experiment_dir):
        with criterion("end-to-end-experiment"):
            root, elapsed, _ = experiment_dir
            assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
            holdout = data.load_sessions(root / "sessions_holdout.csv", None, mode="train")
            truth = metrics.second_half_truth(holdout)
            submission = metrics.read_submission(root / "submission.txt")
            mean, report = metrics.score_submission(truth, submission)
            print(f"\nmodel mean AA = {mean:.4f} "
                  f"(first position accuracy {report['first_position_accuracy']:.4f})")
            assert mean >= 0.65, f"mean AA {mean:.4f} below 0.65"

            # random-coin predictor, scored by the independent oracle
            rng = np.random.default_rng(99)
            coin_aa = [
                brute_force_aa(rng.integers(0, 2, size=len(t)), [c == "1" for c in t])
                for t in truth
            ]
            coin = float(np.mean(coin_aa))
            print(f"coin-flip mean AA = {coin:.4f}")
            assert 0.28 <= coin <= 0.38

            # majority baseline: constant label from the training marginal
            flags = data.load_sessions(root / "sessions.csv", None, mode="train").flags[:, 0]
            majority = "1" if flags.sum() * 2 >= len(flags) else "0"
            hits = [t.count(majority) / len(t) for t in truth]
            majority_acc = float(np.mean(hits))
            print(f"majority baseline per-position accuracy = {majority_acc:.4f}")
            assert 0.45 <= majority_acc <= 0.55
            assert mean >= coin + 0.2


    def test_outputs_match_their_pinned_digests(self, experiment_dir):
        if np.__version__ != QUICKSTART_NUMPY:
            pytest.skip(f"digests pinned under NumPy {QUICKSTART_NUMPY}, "
                        f"running {np.__version__}")
        with criterion("quickstart-bytes"):
            root, _, report = experiment_dir
            assert "mean_aa=0.690107" in report.splitlines()
            assert {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                    for name in QUICKSTART_DIGESTS} == QUICKSTART_DIGESTS


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("ensemble")
    assert cli.main(["gen-data", "--out-dir", str(root), "--sessions", "300",
                     "--tracks", "60", "--seed", "13", "--holdout", "60"]) == 0
    assert cli.main(["embed", "--sessions", str(root / "sessions.csv"),
                     "--out", str(root / "emb.txt"), "--dims", "16",
                     "--epochs", "8", "--seed", "0"]) == 0
    return root


class TestEnsembleCriterion:
    def train_variant(self, root, activation, hidden, batchnorm, seed):
        ckpt = root / f"{activation}_{hidden}_{'bn' if batchnorm else 'plain'}.ckpt"
        argv = ["train", "--sessions", str(root / "sessions.csv"),
                "--tracks", str(root / "tracks.csv"),
                "--embeddings", str(root / "emb.txt"), "--out", str(ckpt),
                "--epochs", "2", "--batch-size", "32", "--lr", "0.005",
                "--hidden-size", str(hidden), "--activation", activation,
                "--seed", str(seed)]
        if batchnorm:
            argv.append("--batchnorm")
        assert cli.main(argv) == 0
        return ckpt

    def test_copy_and_permutation_identities(self, small_corpus):
        with criterion("ensemble-identities"):
            root = small_corpus
            ckpt = self.train_variant(root, "relu", 32, False, seed=0)
            tracks = data.load_tracks(root / "tracks.csv")
            holdout = data.load_sessions(root / "sessions_holdout.csv", tracks, "infer")
            member = training.load_checkpoint(ckpt).build()
            single_probs = model.predict_probs(holdout, member[1], tracks, member[0])
            single_pred = metrics.ensemble_predict([member], holdout, tracks)
            for n in (2, 3, 4, 5):
                combined = metrics.ensemble_probs([single_probs] * n)
                for sid in single_probs:
                    assert combined[sid].tobytes() == single_probs[sid].tobytes()
                assert metrics.ensemble_predict([member] * n, holdout, tracks) == single_pred

    def test_six_variant_ensemble_reports(self, small_corpus):
        with criterion("ensemble-six-variants"):
            root = small_corpus
            grid = [
                ("relu", 64, False), ("relu", 96, False),
                ("elu", 64, False), ("elu", 96, False),
                ("relu", 96, True), ("elu", 96, True),
            ]
            checkpoints = [self.train_variant(root, a, h, bn, seed=k)
                           for k, (a, h, bn) in enumerate(grid)]
            tracks = data.load_tracks(root / "tracks.csv")
            holdout = data.load_sessions(root / "sessions_holdout.csv", tracks, "train")
            truth = metrics.second_half_skips(holdout)
            lengths = data.second_half_length(holdout.lengths)
            members = [training.load_checkpoint(c).build() for c in checkpoints]

            def flat_aa(probs):
                return metrics.mean_aa(np.concatenate(list(probs.values())) >= 0.5,
                                       truth, lengths)[0]

            print()
            member_probs = []
            for (a, h, bn), (params, pipeline) in zip(grid, members):
                probs = model.predict_probs(holdout, pipeline, tracks, params)
                member_probs.append(probs)
                print(f"member {a}/h{h}/{'bn' if bn else 'plain'}: AA={flat_aa(probs):.4f}")
            combined = metrics.ensemble_probs(member_probs)
            print(f"ensemble of 6: AA={flat_aa(combined):.4f}")

            shuffled = metrics.ensemble_predict(members[::-1], holdout, tracks)
            assert metrics.ensemble_predict(members, holdout, tracks) == shuffled


class TestCheckpointRoundTrip:
    def test_bit_identical_predictions_on_100_sessions(self, tmp_path):
        with criterion("checkpoint-round-trip"):
            tracks, sessions = data.gen_synthetic(n_sessions=120, n_tracks=60, seed=21)
            pipeline = FeaturePipeline({}, d_emb=4).fit(sessions[:20], tracks)
            variant = model.VariantConfig(hidden_size=8, use_batchnorm=True)
            config = training.TrainConfig(batch_size=16, epochs=1, seed=3)
            ckpt = training.train(sessions[:16], sessions[16:20], tracks, pipeline,
                                  variant, config)
            path = tmp_path / "rt.ckpt"
            training.save_checkpoint(ckpt, path)
            loaded = training.load_checkpoint(path)
            params_a, pipe_a = ckpt.build()
            params_b, pipe_b = loaded.build()
            subjects = sessions[20:120]
            assert len(subjects) == 100
            before = model.predict_probs(subjects, pipe_a, tracks, params_a)
            after = model.predict_probs(subjects, pipe_b, tracks, params_b)
            for sid in before:
                assert np.array_equal(before[sid], after[sid])
