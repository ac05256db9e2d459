import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from skipgru import autodiff as ad
from skipgru import data, metrics, model, training
from skipgru.errors import (CheckpointIntegrityError, ConfigError, DegenerateBatchError,
                            ShapeError)
from skipgru.features import FeaturePipeline

from helpers import (central_diff, composed_gru_step, enrich_reference, fresh_params,
                     head_reference, max_rel_err, one_batch, reachable, rewrite_checkpoint,
                     session_table, split_halves, unpack)


def tiny_setup(seed=0, hidden=3, n_sessions=6, use_batchnorm=False, activation="relu"):
    tracks, sessions = data.gen_synthetic(
        n_sessions=n_sessions, n_tracks=50, acoustic_dim=2, seed=seed
    )
    emb = {tid: np.random.default_rng(seed).normal(size=4) for tid in sorted(tracks)}
    pipeline = FeaturePipeline(emb, d_emb=4).fit(sessions, tracks)
    variant = model.VariantConfig(
        activation=activation, hidden_size=hidden, use_batchnorm=use_batchnorm
    )
    params = fresh_params(variant, model.ModelDims.from_pipeline(pipeline), seed)
    return tracks, sessions, pipeline, params


def snapshot(params):
    """Copies of every array a checkpoint stores, by name."""
    return {name: arr.copy() for name, arr in params.arrays().items()}


def restore(params, saved):
    """Write ``snapshot``'s copies back into the live arrays."""
    for name, arr in params.arrays().items():
        arr[...] = saved[name]


def zero_all(params):
    params.values[...] = 0.0
    return params


def hand_gru_step(x, o_prev, w_ux, w_us, w_rx, w_rs, w_x, w_s, b_u, b_r, b_s):
    """Scalar-arithmetic oracle for one GRU step, independent of the graph engine."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    n = len(o_prev)
    u = [sig(sum(x[i] * w_ux[i][j] for i in range(len(x)))
             + sum(o_prev[i] * w_us[i][j] for i in range(n)) + b_u[j]) for j in range(n)]
    r = [sig(sum(x[i] * w_rx[i][j] for i in range(len(x)))
             + sum(o_prev[i] * w_rs[i][j] for i in range(n)) + b_r[j]) for j in range(n)]
    s = [math.tanh(sum(x[i] * w_x[i][j] for i in range(len(x)))
                   + sum(r[i] * o_prev[i] * w_s[i][j] for i in range(n)) + b_s[j])
         for j in range(n)]
    return [(1.0 - u[j]) * o_prev[j] + u[j] * s[j] for j in range(n)]


# one layer's checkpoint names in composed_gru_step's argument order
GRU_ORDER = ("w_ux", "w_us", "w_rx", "w_rs", "w_x", "w_s", "b_u", "b_r", "b_s")


def gru_params(w_ux, w_us, w_rx, w_rs, w_x, w_s, b_u, b_r, b_s):
    """One layer's ``model.GruParams`` from its nine checkpoint arrays: the
    input weights and the biases each as one block, as the model stores them."""
    return model.GruParams((ad.parameter(np.concatenate([w_ux, w_rx, w_x], axis=1)),),
                           ad.parameter(np.concatenate([b_u, b_r, b_s], axis=1)),
                           *(ad.parameter(w) for w in (w_us, w_rs, w_s)))


def step(x, o_prev, p):
    """One GRU step: the input block's affine map of ``x``, then the
    ``ad.gru`` recurrence over a single position."""
    return ad.gru(ad.affine(x, *p.w_in, p.b), o_prev, p.w_us, p.w_rs, p.w_s, [o_prev.shape[0]])


class TestGruStep:
    def make_params(self, arrays):
        return gru_params(**arrays)

    def zero_gru(self, d_in=2, h=2):
        return self.make_params({
            "w_ux": np.zeros((d_in, h)), "w_us": np.zeros((h, h)),
            "w_rx": np.zeros((d_in, h)), "w_rs": np.zeros((h, h)),
            "w_x": np.zeros((d_in, h)), "w_s": np.zeros((h, h)),
            "b_u": np.zeros((1, h)), "b_r": np.zeros((1, h)), "b_s": np.zeros((1, h)),
        })

    def test_zero_weights_halve_state(self):
        p = self.zero_gru()
        o_prev = ad.constant([[0.8, -0.4]])
        out = step(ad.constant([[1.0, 2.0]]), o_prev, p)
        assert np.array_equal(out.value, 0.5 * o_prev.value)

    def test_zero_state_fixed_point(self):
        p = self.zero_gru()
        out = step(ad.constant([[3.0, -1.0]]), ad.constant([[0.0, 0.0]]), p)
        assert np.array_equal(out.value, [[0.0, 0.0]])

    def test_zero_weights_iterated_decay(self):
        p = self.zero_gru()
        o = ad.constant([[1.0, -2.0]])
        o0 = o.value.copy()
        for t in range(1, 13):
            o = step(ad.constant([[0.3, 0.7]]), o, p)
            assert np.max(np.abs(o.value - 0.5 ** t * o0)) < 1e-12

    def test_update_gate_saturation(self):
        rng = np.random.default_rng(5)
        arrays = {
            "w_ux": rng.normal(size=(2, 2)), "w_us": rng.normal(size=(2, 2)),
            "w_rx": rng.normal(size=(2, 2)), "w_rs": rng.normal(size=(2, 2)),
            "w_x": rng.normal(size=(2, 2)), "w_s": np.zeros((2, 2)),
            "b_u": np.full((1, 2), 50.0), "b_r": np.zeros((1, 2)),
            "b_s": rng.normal(size=(1, 2)),
        }
        p = self.make_params(arrays)
        x = np.array([[0.4, -0.9]])
        out = step(ad.constant(x), ad.constant([[0.6, 0.1]]), p)
        expected = np.tanh(x @ arrays["w_x"] + arrays["b_s"])
        assert np.allclose(out.value, expected, atol=1e-9)

    def test_three_step_hand_computation(self):
        w_ux = [[0.5, -0.3], [0.1, 0.2]]
        w_us = [[0.2, 0.0], [-0.1, 0.3]]
        w_rx = [[-0.4, 0.6], [0.3, -0.2]]
        w_rs = [[0.1, 0.1], [0.0, -0.3]]
        w_x = [[0.7, -0.5], [0.2, 0.4]]
        w_s = [[-0.2, 0.3], [0.5, 0.1]]
        b_u = [0.05, -0.1]
        b_r = [-0.2, 0.15]
        b_s = [0.1, 0.0]
        xs = [[1.0, -0.5], [0.25, 0.75], [-1.5, 0.4]]

        o_hand = [0.0, 0.0]
        for x in xs:
            o_hand = hand_gru_step(x, o_hand, w_ux, w_us, w_rx, w_rs, w_x, w_s,
                                   b_u, b_r, b_s)

        p = self.make_params({
            "w_ux": np.array(w_ux), "w_us": np.array(w_us),
            "w_rx": np.array(w_rx), "w_rs": np.array(w_rs),
            "w_x": np.array(w_x), "w_s": np.array(w_s),
            "b_u": np.array([b_u]), "b_r": np.array([b_r]), "b_s": np.array([b_s]),
        })
        o = ad.constant([[0.0, 0.0]])
        for x in xs:
            o = step(ad.constant([x]), o, p)
        assert np.max(np.abs(o.value - np.array([o_hand]))) < 1e-9

    def test_shape_mismatch(self):
        p = self.zero_gru()
        with pytest.raises(ShapeError):
            step(ad.constant(np.ones((2, 2))), ad.constant(np.ones((3, 2))), p)


class TestEncodeFirstHalf:
    def test_zero_weights_give_zero(self):
        tracks, sessions, pipeline, params = tiny_setup()
        zero_all(params)
        out = model.encode_first_half(one_batch(sessions[:2], pipeline, tracks), params)
        assert not out.value.any()

    def test_output_width(self):
        tracks, sessions, pipeline, params = tiny_setup(hidden=5)
        out = model.encode_first_half(one_batch(sessions[:3], pipeline, tracks), params)
        assert out.shape == (3, 10)

    def test_order_sensitivity(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=3)
        batch = one_batch(sessions[:1], pipeline, tracks)
        base = model.encode_first_half(batch, params).value
        # one session's packed rows are its steps in order: reverse them
        other = model.encode_first_half(replace(batch, first=batch.first[::-1]), params).value
        assert not np.allclose(base, other)

    @pytest.mark.parametrize("past_end", [True, False])
    def test_context_index_outside_vocabulary(self, past_end):
        tracks, sessions, pipeline, params = tiny_setup()
        batch = one_batch(sessions[:2], pipeline, tracks)
        bad = params.dims.ctx_vocab if past_end else -1
        batch.first[0, params.dims.ctx_col] = bad
        with pytest.raises(ShapeError):
            model.encode_first_half(batch, params)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_projection_matches_full_input_oracle(self, seed):
        # oracle: each step's whole layer-1 input [numeric | ctx_embedding[idx]]
        # (the gather as a one-hot matmul) through the primitive-composed GRU,
        # over every slot of a [batch, MAX_SESSION_LEN // 2] grid rebuilt from the packed
        # rows (pad slots 0.0 in every feature, 1 in is_pad); a session past
        # its last real step keeps its state
        tracks, sessions, pipeline, params = tiny_setup(seed=seed, hidden=4)
        _, _, _, twin = tiny_setup(seed=seed, hidden=4)
        dims = params.dims
        assert dims.ctx_col != dims.d_trip - 1
        batch = one_batch(sessions[:5], pipeline, tracks)
        b = len(batch.last)
        grid = np.zeros((b, data.MAX_SESSION_LEN // 2, dims.d_trip))
        grid[..., -1] = 1.0
        lengths = np.zeros(b, dtype=np.int64)
        for k, (first, _, _) in enumerate(unpack(batch)):
            grid[k, :len(first)] = first
            lengths[k] = len(first)
        assert len(set(lengths)) > 1
        head = np.random.default_rng(seed).normal(size=(b, 8))

        out = model.encode_first_half(batch, params)
        ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(head))))

        start = twin.views(twin.values)
        g1, g2 = ([ad.parameter(start[f"{layer}.{name}"].copy()) for name in GRU_ORDER]
                  for layer in ("gru1", "gru2"))
        o1 = o2 = ad.constant(np.zeros((b, 4)))
        for t in range(data.MAX_SESSION_LEN // 2):
            step_in = grid[:, t, :]
            onehot = np.eye(dims.ctx_vocab)[step_in[:, dims.ctx_col].astype(np.int64)]
            x = ad.concat_cols([
                ad.constant(np.delete(step_in, dims.ctx_col, axis=1)),
                ad.matmul(ad.constant(onehot), twin.ctx_embedding),
            ])
            assert x.shape == (b, dims.gru_input)
            real = np.repeat((t < lengths)[:, None], 4, axis=1).astype(np.float64)
            o1_t = composed_gru_step(x, o1, *g1)
            o2_t = composed_gru_step(o1_t, o2, *g2)
            o1, o2 = (ad.add(ad.hadamard(new, ad.constant(real)),
                             ad.hadamard(old, ad.constant(1.0 - real)))
                      for new, old in ((o1_t, o1), (o2_t, o2)))
        oracle = ad.concat_cols([o1, o2])
        ad.backward(ad.sum_all(ad.hadamard(oracle, ad.constant(head))))

        assert np.max(np.abs(out.value - oracle.value)) <= 1e-12
        theirs = twin.views(twin.grads)
        for layer, nodes in (("gru1", g1), ("gru2", g2)):
            theirs.update({f"{layer}.{name}": node.grad for name, node in zip(GRU_ORDER, nodes)})
        for name, grad in params.views(params.grads).items():
            assert np.max(np.abs(grad - theirs[name])) <= 1e-12, name

    def test_bad_shapes(self):
        tracks, sessions, pipeline, params = tiny_setup()
        batch = one_batch(sessions[:2], pipeline, tracks)
        rows, d_trip = batch.first.shape
        for first in (np.zeros((rows, d_trip + 1)), np.zeros((rows, 1, d_trip))):
            with pytest.raises(ShapeError, match="d_trip"):
                model.encode_first_half(replace(batch, first=first), params)


class TestGraphSize:
    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_training_batch_graph_is_small_and_batch_independent(self, use_batchnorm):
        """Op nodes one training batch adds to the loss graph (parameters
        excluded): 10 for the GRUs, 8 for the head, 4 for the loss, and one
        batchnorm per head layer in that variant."""
        nodes = 24 if use_batchnorm else 22
        tracks, sessions, pipeline, params = tiny_setup(
            seed=2, n_sessions=16, use_batchnorm=use_batchnorm
        )
        counts = []
        for size in (2, 16):
            batch = one_batch(sessions[:size], pipeline, tracks)
            graph = model.loss(model.forward_batch(batch, params, "train"), batch.targets)
            counts.append(sum(1 for node in reachable(graph) if node.parents))
        assert counts[0] == counts[1] <= nodes

    @pytest.mark.parametrize("mode,nodes", [("train", 26), ("infer", 21)])
    def test_nodes_built_per_batch(self, monkeypatch, mode, nodes):
        """Every ``Node`` one batch constructs, constants included, counted at
        ``Node.__init__``: the forward, plus the loss when training. The
        parameters are built once with the model and are not counted."""
        tracks, sessions, pipeline, params = tiny_setup(seed=2, n_sessions=16)
        batch = one_batch(sessions, pipeline, tracks)
        built = []
        init = ad.Node.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Node, "__init__", counted)
        if mode == "train":
            model.loss(model.forward_batch(batch, params, mode), batch.targets)
        else:
            with ad.no_grad():
                model.forward_batch(batch, params, mode)
        assert len(built) == nodes


class TestPacking:
    def test_only_real_rows_reach_the_recurrence_and_head(self, monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(seed=2, n_sessions=16)
        batch = one_batch(sessions, pipeline, tracks)
        rows = {"gru": [], "head": []}
        gru, head = ad.gru, model.head

        def gru_spy(pre, *args):
            rows["gru"].append(pre.shape[0])
            return gru(pre, *args)

        def head_spy(x_i, *args):
            rows["head"].append(x_i.shape[0])
            return head(x_i, *args)

        monkeypatch.setattr(ad, "gru", gru_spy)
        monkeypatch.setattr(model, "head", head_spy)
        model.loss(model.forward_batch(batch, params, "train"), batch.targets)
        first, second = (sum(len(half) for half in halves)
                         for halves in zip(*map(split_halves, sessions)))
        assert rows["gru"] == [first] * 2
        assert rows["head"] == [second]
        assert first < data.MAX_SESSION_LEN // 2 * len(sessions)
        assert second < data.MAX_SESSION_LEN // 2 * len(sessions)

    def test_row_order_in_batch(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=10, n_sessions=8)
        lengths = [len(split_halves(session)[0]) for session in sessions]
        assert len(set(lengths)) > 1
        base = model.predict_probs(sessions, pipeline, tracks, params)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(sessions))
            shuffled = model.predict_probs(sessions.take(order), pipeline, tracks, params)
            assert shuffled.keys() == base.keys()
            for sid in base:
                assert np.max(np.abs(shuffled[sid] - base[sid])) <= 1e-12


class TestEnrich:
    """The enrichment's structure, on the materialized oracle that
    ``model.head``'s fused first layer stands for; the fused node is checked
    against the oracle bit for bit under identity weights."""

    def test_zero_proj_zeroes_third_block(self):
        tracks, sessions, pipeline, params = tiny_setup()
        params.proj_w.value[...] = 0.0
        params.proj_b.value[...] = 0.0
        d, h = params.dims.d_doub, params.variant.hidden_size
        x_i = ad.constant(np.random.default_rng(0).normal(size=(4, d)))
        x_half = ad.constant(np.random.default_rng(1).normal(size=(4, 2 * h)))
        out = enrich_reference(x_i, x_half, params).value
        assert np.array_equal(out[:, d + 2 * h:], np.zeros((4, 2 * h)))

    def test_zero_x_half(self):
        tracks, sessions, pipeline, params = tiny_setup()
        d, h = params.dims.d_doub, params.variant.hidden_size
        x_i_val = np.random.default_rng(2).normal(size=(3, d))
        out = enrich_reference(ad.constant(x_i_val),
                               ad.constant(np.zeros((3, 2 * h))), params).value
        assert np.array_equal(out[:, :d], x_i_val)
        assert not out[:, d:].any()

    def test_output_width(self):
        _, _, _, params = tiny_setup(hidden=4)
        d, h = params.dims.d_doub, 4
        out = enrich_reference(ad.constant(np.zeros((2, d))),
                               ad.constant(np.zeros((2, 2 * h))), params)
        assert out.shape == (2, d + 4 * h)
        assert params.head_w1.shape[0] == d + 4 * h

    def test_blockwise_linear_in_x_half(self):
        _, _, _, params = tiny_setup(seed=8)
        d, h = params.dims.d_doub, params.variant.hidden_size
        rng = np.random.default_rng(4)
        x_i = rng.normal(size=(2, d))
        a = rng.normal(size=(2, 2 * h))
        b = rng.normal(size=(2, 2 * h))

        def tail(x_half):
            out = enrich_reference(ad.constant(x_i), ad.constant(x_half), params).value
            return out[:, d:]

        residual = tail(a + b) - tail(a) - tail(b) + tail(np.zeros_like(a))
        assert np.max(np.abs(residual)) < 1e-12

    def test_fused_node_under_identity_weights_is_the_enrichment(self):
        _, _, _, params = tiny_setup(seed=5, hidden=4)
        d, h = params.dims.d_doub, params.variant.hidden_size
        rng = np.random.default_rng(6)
        x_i = ad.constant(rng.normal(size=(7, d)))
        x_half = ad.constant(rng.normal(size=(3, 2 * h)))
        session = np.array([0, 0, 2, 2, 2, 0, 1])
        gate = ad.relu(ad.affine(x_i, params.proj_w, params.proj_b))
        width = params.head_w1.shape[0]
        fused = ad.enrich_affine(x_i, x_half, session, gate, ad.constant(np.eye(width)),
                                 ad.constant(np.zeros((1, width))))
        expected = enrich_reference(x_i, ad.take_rows(x_half, session), params)
        assert np.array_equal(fused.value, expected.value)


def head_inputs(params, rows=6, sessions=3, seed=3):
    """Random second-half rows, session summaries and each row's session."""
    rng = np.random.default_rng(seed)
    return (ad.constant(rng.normal(size=(rows, params.dims.d_doub))),
            ad.constant(rng.normal(size=(sessions, 2 * params.variant.hidden_size))),
            np.arange(rows) % sessions)


class TestClassify:
    def test_zero_weights_give_half(self):
        tracks, sessions, pipeline, params = tiny_setup()
        zero_all(params)
        out = model.head(*head_inputs(params), params, "infer").value
        assert np.array_equal(out, np.full((6, 4), 0.5))

    def test_outputs_in_open_unit_interval(self):
        _, _, _, params = tiny_setup(seed=1)
        out = model.head(*head_inputs(params, rows=8, seed=9), params, "infer").value
        assert ((out > 0.0) & (out < 1.0)).all()

    def test_infer_deterministic_bitwise(self):
        _, _, _, params = tiny_setup(seed=2, use_batchnorm=True)
        inputs = head_inputs(params, rows=5, seed=7)
        a = model.head(*inputs, params, "infer").value
        b = model.head(*inputs, params, "infer").value
        assert np.array_equal(a, b)

    def test_elu_variant_runs(self):
        _, _, _, params = tiny_setup(activation="elu")
        out = model.head(*head_inputs(params, rows=3, seed=0), params, "infer").value
        assert out.shape == (3, 4)

    def test_bad_mode(self):
        _, _, _, params = tiny_setup()
        with pytest.raises(ConfigError):
            model.head(*head_inputs(params, rows=2), params, "test")

    def test_bad_doublet_width(self):
        _, _, _, params = tiny_setup()
        x_i, x_half, session = head_inputs(params)
        with pytest.raises(ShapeError, match="d_doub"):
            model.head(ad.constant(np.zeros((6, params.dims.d_doub + 1))), x_half, session,
                       params, "infer")

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            model.VariantConfig(activation="gelu")


FUSED_HEAD_BOUND = 1e-12  # relative to each compared quantity's largest entry


class TestFusedHead:
    """``model.head`` against ``head_reference``, the same head with the
    enrichment materialized: the fused first layer sums in another order, so
    the two agree within ``FUSED_HEAD_BOUND``, not bit for bit."""

    @staticmethod
    def run(head, batch, params, mode):
        """Probabilities, gradients (every parameter, then ``x_half``) and the
        batchnorm running statistics of one forward and backward."""
        params.grads.fill(0.0)
        x_half = ad.parameter(model.encode_first_half(batch, params).value)
        probs = head(ad.constant(batch.second), x_half, batch.session, params, mode)
        ad.backward(model.loss(probs, batch.targets))
        grads = [params.grads, x_half.grad]
        stats = [stat.copy() for bn in (params.bn1, params.bn2) if bn is not None
                 for stat in (bn.running_mean, bn.running_var)]
        return probs.value, np.concatenate([g.ravel() for g in grads]), stats

    @pytest.mark.parametrize("activation,use_batchnorm",
                             [("relu", False), ("elu", False), ("relu", True)])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_the_materialized_enrichment(self, activation, use_batchnorm, mode):
        tracks, sessions, pipeline, params = tiny_setup(
            seed=4, hidden=5, n_sessions=12, activation=activation, use_batchnorm=use_batchnorm)
        batch = one_batch(sessions, pipeline, tracks)
        state = snapshot(params)
        probs, grads, stats = self.run(model.head, batch, params, mode)
        restore(params, state)
        ref_probs, ref_grads, ref_stats = self.run(head_reference, batch, params, mode)
        for got, ref in [(probs, ref_probs), (grads, ref_grads), *zip(stats, ref_stats)]:
            assert np.max(np.abs(got - ref)) <= FUSED_HEAD_BOUND * np.max(np.abs(ref))

    @pytest.mark.parametrize("at", [0, 3])
    def test_one_event_session_gets_no_head_gradient(self, at):
        tracks, sessions, pipeline, params = tiny_setup(seed=12)
        lone = data.Session("lone", sessions[0].events[:1])
        batch = one_batch([*sessions[:at], lone, *sessions[at:]], pipeline, tracks)
        assert at not in batch.session
        x_half = ad.parameter(model.encode_first_half(batch, params).value)
        probs = model.head(ad.constant(batch.second), x_half, batch.session, params, "train")
        ad.backward(model.loss(probs, batch.targets))
        assert np.array_equal(x_half.grad[at], np.zeros(x_half.shape[1]))
        assert np.delete(x_half.grad, at, axis=0).any(axis=1).all()


class TestLoss:
    def test_uniform_half_probability(self):
        probs = ad.constant(np.full((6, 4), 0.5))
        targets = np.random.default_rng(0).integers(0, 2, size=(6, 4))
        value = model.loss(probs, targets).value[0, 0]
        assert value == pytest.approx(1.6 * math.log(2.0), rel=1e-12)

    def test_perfect_fit(self):
        targets = np.random.default_rng(1).integers(0, 2, size=(5, 4)).astype(float)
        probs = ad.constant(np.clip(targets, 1e-9, 1 - 1e-9))
        assert model.loss(probs, targets).value[0, 0] < 1e-7

    def test_all_masked_rejected(self):
        probs = ad.constant(np.zeros((0, 4)))
        with pytest.raises(DegenerateBatchError):
            model.loss(probs, np.zeros((0, 4)))


class TestPrediction:
    def test_threshold_rule(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=4)
        session, sid = sessions[:1], sessions.session_ids[0]
        probs = model.predict_probs(session, pipeline, tracks, params)[sid]
        members = [(params, pipeline)]
        for threshold in (0.0, 0.5):
            pred = metrics.ensemble_predict(members, session, tracks, threshold)
            assert pred == ["".join("1" if p >= threshold else "0" for p in probs)]
        assert set(metrics.ensemble_predict(members, session, tracks, 0.0)[0]) == {"1"}

    def test_output_length_matches_second_half(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=6)
        for session in sessions:
            probs = model.predict_probs(session_table([session]), pipeline, tracks, params)
            assert len(probs[session.session_id]) == len(split_halves(session)[1])

    @pytest.mark.parametrize("at", [0, 3])
    def test_one_event_session_keeps_its_own_probabilities(self, at):
        # a one-event session has no second half: it gets no probabilities, and
        # each neighbour keeps its own, bit for bit as in the batch without it
        # (a session predicted alone runs 1-row matmuls, whose low bits differ)
        tracks, sessions, pipeline, params = tiny_setup(seed=12)
        lone = data.Session("lone", sessions[0].events[:1])
        with_lone = model.predict_probs(session_table([*sessions[:at], lone, *sessions[at:]]),
                                        pipeline, tracks, params)
        without = model.predict_probs(sessions, pipeline, tracks, params)
        assert with_lone.pop("lone").shape == (0,)
        lone_probs = model.predict_probs(session_table([lone]), pipeline, tracks, params)
        assert lone_probs["lone"].shape == (0,)
        assert with_lone.keys() == without.keys()
        for session in sessions:
            sid = session.session_id
            assert np.array_equal(with_lone[sid], without[sid])
            alone = model.predict_probs(session_table([session]), pipeline, tracks, params)[sid]
            assert np.max(np.abs(with_lone[sid] - alone)) <= 1e-12

    def test_predict_probs_is_predict_encoded_cut_into_views(self, monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(seed=10, n_sessions=20)
        monkeypatch.setattr(model, "PREDICT_BATCH_SIZE", 8)
        flat = model.predict_encoded(pipeline.encode(sessions, tracks), params)
        probs = model.predict_probs(sessions, pipeline, tracks, params)
        assert list(probs) == sessions.session_ids
        assert [len(p) for p in probs.values()] == \
            data.second_half_length(sessions.lengths).tolist()
        assert np.concatenate(list(probs.values())).tobytes() == flat.tobytes()
        base = probs[sessions.session_ids[0]].base
        assert base is not None and all(p.base is base for p in probs.values())

    def test_batched_equals_single(self, monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(seed=7)
        monkeypatch.setattr(model, "PREDICT_BATCH_SIZE", 4)
        batched = model.predict_probs(sessions, pipeline, tracks, params)
        for session in sessions:
            single = model.predict_probs(session_table([session]), pipeline, tracks, params)
            assert np.allclose(single[session.session_id], batched[session.session_id],
                               rtol=0.0, atol=1e-12)


def traced_peak(run):
    """Bytes ``run()`` holds at its high-water mark, by ``tracemalloc``, which
    counts every NumPy buffer: the figure is exact and repeats."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceKeepsNoGraph:
    @pytest.mark.parametrize("activation,use_batchnorm",
                             [("relu", False), ("elu", False), ("relu", True)])
    def test_probabilities_match_a_recording_forward_bitwise(self, activation, use_batchnorm,
                                                             monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(
            seed=8, hidden=5, n_sessions=20, activation=activation, use_batchnorm=use_batchnorm)
        rng = np.random.default_rng(8)
        for bn in (params.bn1, params.bn2) if use_batchnorm else ():
            bn.running_mean[...] = rng.normal(size=bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        encoded = pipeline.encode(sessions, tracks)
        monkeypatch.setattr(model, "PREDICT_BATCH_SIZE", 8)
        probs = model.predict_encoded(encoded, params)
        rows = np.arange(len(sessions))
        recorded = []
        for lo in range(0, len(rows), 8):
            out = model.forward_batch(encoded.batch(rows[lo:lo + 8]), params, "infer")
            assert out.parents
            recorded.append(out.value[:, 0])
        assert probs.tobytes() == np.concatenate(recorded).tobytes()

    def test_every_inference_entry_point_keeps_no_graph(self, monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(seed=9, n_sessions=12)
        calls = []
        forward = model.forward_batch

        def spy(batch, params, mode):
            out = forward(batch, params, mode)
            calls.append((mode, bool(out.parents)))
            return out

        monkeypatch.setattr(model, "forward_batch", spy)
        model.predict_probs(sessions, pipeline, tracks, params)
        metrics.ensemble_predict([(params, pipeline)] * 2, sessions, tracks)
        training.train(sessions[:8], sessions[8:], tracks, pipeline, params.variant,
                       training.TrainConfig(batch_size=4, epochs=2))
        assert calls == [("infer", False)] * 5  # 1 + 2 members + 2 validations

    def test_peak_memory_is_at_most_half_of_a_recording_forward(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=3, hidden=32, n_sessions=256)
        encoded = pipeline.encode(sessions, tracks)

        def recording():
            batch = encoded.batch(np.arange(len(sessions)))
            return model.forward_batch(batch, params, "infer").value[:, 0].copy()

        inference = traced_peak(lambda: model.predict_encoded(encoded, params))
        assert inference <= 0.5 * traced_peak(recording)


class _KinkWatch:
    """Records how close any relu input came to its kink during a forward.

    Central differences are invalid when a probe straddles x = 0 of a relu
    (elu with alpha=1 is C1, so only relu matters); probes that pass within a
    few h of the kink are skipped rather than asserted.
    """

    def __init__(self):
        self.min_distance = np.inf

    def __enter__(self):
        self._orig = ad.activation

        def spy(a, kind):
            if kind == "relu":
                self.min_distance = min(self.min_distance, float(np.min(np.abs(a.value))))
            return self._orig(a, kind)

        ad.activation = spy
        return self

    def __exit__(self, *exc):
        ad.activation = self._orig
        return False


def model_loss_value(batch, params, state):
    """Loss as a pure function of a named parameter state (for FD probing)."""
    restore(params, state)
    probs = model.forward_batch(batch, params, "infer")
    return model.loss(probs, batch.targets).value[0, 0]


def whole_model_fd(seed, use_batchnorm=False, coords_per_param=None, tol=1e-4):
    """FD-check the loss gradient w.r.t. every named parameter tensor.

    Parameters are jittered off their init values first: zero-initialized
    biases otherwise park dead relu rows exactly on the kink where the FD
    oracle is undefined. Returns (checked, skipped) probe counts.
    """
    tracks, sessions, pipeline, params = tiny_setup(
        seed=seed, hidden=3, use_batchnorm=use_batchnorm
    )
    jitter = np.random.default_rng(seed + 5000)
    state = {
        k: v + jitter.uniform(-0.05, 0.05, size=v.shape)
        for k, v in snapshot(params).items()
    }
    restore(params, state)
    batch = one_batch(sessions[seed % 4:seed % 4 + 2], pipeline, tracks)
    probs = model.forward_batch(batch, params, "infer")
    ad.backward(model.loss(probs, batch.targets))
    grads = {name: grad.copy() for name, grad in params.views(params.grads).items()}
    state = snapshot(params)
    rng = np.random.default_rng(seed + 1)
    h = 1e-6
    checked = skipped = 0
    for name, base in [(n, state[n]) for n in sorted(grads)]:
        flat = base.reshape(-1)
        n_coords = flat.size if coords_per_param is None else min(coords_per_param, flat.size)
        coords = rng.choice(flat.size, size=n_coords, replace=False)
        for c in coords:
            sides = []
            with _KinkWatch() as watch:
                for sign in (+1, -1):
                    probe = {k: v.copy() for k, v in state.items()}
                    probe[name].reshape(-1)[c] += sign * h
                    sides.append(model_loss_value(batch, params, probe))
            if watch.min_distance < 5 * h:
                skipped += 1
                continue
            checked += 1
            numeric = (sides[0] - sides[1]) / (2 * h)
            analytic = grads[name].reshape(-1)[c]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            assert err < tol, f"{name}[{c}]: analytic {analytic} vs numeric {numeric}"
    restore(params, state)
    return checked, skipped


class TestWholeModelGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_coordinates_small_model(self, seed):
        checked, skipped = whole_model_fd(seed, coords_per_param=6)
        assert checked > 10 * max(skipped, 1)

    def test_batchnorm_variant(self):
        checked, _ = whole_model_fd(11, use_batchnorm=True, coords_per_param=4)
        assert checked > 0


def saved_checkpoint(path, params, pipeline):
    """Save ``params`` with ``pipeline`` as a checkpoint at ``path``."""
    training.save_checkpoint(training.Checkpoint(params, pipeline, None, {}), path)
    return path


class TestStateDict:
    """The checkpoint's name -> array table: ``ModelParams.arrays`` writes it
    and ``load_checkpoint`` checks it against a fresh store and reads it back."""

    def test_round_trip(self, tmp_path):
        _, _, pipeline, params = tiny_setup(seed=5, use_batchnorm=True)
        params.bn1.running_var[...] = np.linspace(0.5, 2.0, params.bn1.running_var.size)
        path = saved_checkpoint(tmp_path / "m.ckpt", params, pipeline)
        clone = training.load_checkpoint(path).params
        assert clone.arrays().keys() == params.arrays().keys()
        for name, arr in clone.arrays().items():
            assert np.array_equal(arr, params.arrays()[name]), name

    def test_shape_check(self, tmp_path):
        _, _, pipeline, params = tiny_setup(seed=5)
        path = saved_checkpoint(tmp_path / "m.ckpt", params, pipeline)
        # the transposed shape keeps the byte count, so only the table check sees it
        rewrite_checkpoint(path, tmp_path / "bad.ckpt",
                           lambda envelope: envelope["payload"]["params"]["proj.w"]["shape"]
                           .reverse())
        rows, cols = params.proj_w.shape
        with pytest.raises(CheckpointIntegrityError,
                           match=rf"shape of 'proj\.w' is \({cols}, {rows}\) in the header"):
            training.load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_table_derived_without_a_store_is_the_stores(self, use_batchnorm):
        _, _, _, params = tiny_setup(seed=5, use_batchnorm=use_batchnorm)
        shapes = model.array_shapes(params.variant, params.dims)
        assert list(shapes.items()) == [(name, arr.shape)
                                        for name, arr in params.arrays().items()]

    def test_name_check(self, tmp_path):
        _, _, pipeline, params = tiny_setup(seed=5)
        path = saved_checkpoint(tmp_path / "m.ckpt", params, pipeline)

        def rename(envelope):
            table = envelope["payload"]["params"]
            table["mystery"] = table.pop("proj.b")

        rewrite_checkpoint(path, tmp_path / "bad.ckpt", rename)
        with pytest.raises(CheckpointIntegrityError, match="shape of 'mystery' is"):
            training.load_checkpoint(tmp_path / "bad.ckpt")


class TestParameterViews:
    """Every weight is a view of ``ModelParams.values``; ``arrays`` hands out
    the live arrays, and a checkpoint holds its model's own store."""

    def test_arrays_are_the_live_store(self):
        _, _, _, params = tiny_setup(seed=5, use_batchnorm=True)
        arrays = params.arrays()
        assert list(arrays) == sorted(arrays)
        assert arrays["bn1.running_mean"] is params.bn1.running_mean
        assert arrays["bn2.running_var"] is params.bn2.running_var
        for name, arr in arrays.items():
            arr[...] = 7.0
        assert (params.values == 7.0).all()
        assert (params.bn1.running_mean == 7.0).all() and (params.bn2.running_var == 7.0).all()

    def test_build_returns_the_checkpoints_own_store(self):
        tracks, sessions, pipeline, params = tiny_setup(seed=6)
        ckpt = training.Checkpoint(params, pipeline, None, {})
        built, built_pipeline = ckpt.build()
        assert built is params and built_pipeline is pipeline
        assert ckpt.build()[0] is built and ckpt.build()[1] is built_pipeline
        batch = one_batch(sessions, pipeline, tracks)
        ad.backward(model.loss(model.forward_batch(batch, built, "train"), batch.targets))
        before = ckpt.content_hash()
        training.adam_step(built, training.AdamState())
        assert ckpt.content_hash() != before

    def test_two_models_share_no_memory(self):
        _, _, _, params = tiny_setup(seed=5, use_batchnorm=True)
        other = fresh_params(params.variant, params.dims, seed=5)
        assert np.array_equal(other.values, params.values)
        for mine, theirs in [(params.values, other.values), (params.grads, other.grads),
                             (params.values, params.grads),
                             (params.bn1.running_mean, other.bn1.running_mean)]:
            assert not np.shares_memory(mine, theirs)

    def test_loading_a_gru_column_block_writes_only_that_block(self):
        _, _, _, params = tiny_setup(seed=5, hidden=3)
        before = params.values.copy()
        params.arrays()["gru1.w_ux"][...] = 9.0
        marked = np.zeros(params.values.shape, dtype=bool)
        params.views(marked)["gru1.w_ux"][...] = True
        assert np.array_equal(params.values != before, marked)
        numeric, context = (node.value for node in params.gru1.w_in)
        assert (np.concatenate([numeric, context])[:, :3] == 9.0).all()


def no_draw(*args):
    raise AssertionError("glorot drawn")


class TestFreshModel:
    def test_constructor_allocates_and_draws_nothing(self, monkeypatch):
        _, _, _, params = tiny_setup(seed=5, use_batchnorm=True)
        monkeypatch.setattr(model, "glorot", no_draw)
        empty = model.ModelParams(params.variant, params.dims)
        assert not empty.values.any() and not empty.grads.any()
        assert not empty.bn1.running_mean.any() and (empty.bn1.running_var == 1.0).all()

    def test_loading_and_predicting_draw_nothing(self, tmp_path, monkeypatch):
        tracks, sessions, pipeline, params = tiny_setup(seed=7, use_batchnorm=True)
        path = saved_checkpoint(tmp_path / "m.ckpt", params, pipeline)
        expected = model.predict_probs(sessions, pipeline, tracks, params)
        monkeypatch.setattr(model, "glorot", no_draw)
        loaded = training.load_checkpoint(path)
        built, built_pipeline = loaded.build()
        assert built is loaded.params and built_pipeline is loaded.pipeline
        got = model.predict_probs(sessions, built_pipeline, tracks, built)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[sid], expected[sid]) for sid in expected)
