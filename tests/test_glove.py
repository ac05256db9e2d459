import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skipgru import data, glove, parallel
from skipgru.data import Event, Session
from skipgru.errors import ConfigError, TrainingError, ValidationError

from helpers import (
    batch_gradients,
    central_diff,
    loop_cooccurrence_pairs,
    loop_directed_entries,
    max_rel_err,
    pair_dict,
    reference_train_glove,
    scatter_adagrad_step,
    session_table,
    switching_every_microsecond,
)


def sessions_of(*seqs):
    """A table of one session per track-id sequence, interactions left out."""
    return session_table([
        Session(f"s{k}", [Event(t, p + 1, None) for p, t in enumerate(seq)])
        for k, seq in enumerate(seqs)
    ])


def table_of(track_ids, pairs):
    """A table from a ``{(i, j): weight}`` dict with ``i < j``."""
    keys = sorted(pairs)
    return glove.CooccurrenceTable(track_ids, np.array(keys, dtype=np.int64).reshape(-1, 2),
                                   np.array([pairs[k] for k in keys]))


def weight(table, a, b):
    """The table's weight of tracks ``a`` and ``b`` (by id), 0.0 when absent."""
    i, j = sorted((table.track_ids.index(a), table.track_ids.index(b)))
    return pair_dict(table).get((i, j), 0.0)


def random_table(n_tracks, n_pairs, seed):
    """``n_pairs`` distinct random pairs over ``n_tracks`` with weights in (0.1, 8)."""
    rng = np.random.default_rng(seed)
    # pair (i, j) has key starts[i] + j - i - 1 in the row-major i < j order
    starts = np.concatenate([[0], np.cumsum(np.arange(n_tracks - 1, 0, -1))])
    keys = np.sort(rng.choice(starts[-1], size=n_pairs, replace=False))
    i = np.searchsorted(starts, keys, side="right") - 1
    return glove.CooccurrenceTable([f"t{k}" for k in range(n_tracks)],
                                   np.stack([i, keys - starts[i] + i + 1], axis=1),
                                   rng.uniform(0.1, 8.0, size=n_pairs))


def assert_same_embeddings(got, want):
    for name in ("main", "context", "main_bias", "context_bias"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.epoch_losses == want.epoch_losses


def row_step(param, cache, rows, grad, lr):
    """``glove._adagrad_rows`` for a slice's row indices and its ``[m]`` or
    ``[m, d]`` gradients, as the training loop calls it."""
    touched, slot = np.unique(rows, return_inverse=True)
    if grad.ndim == 2:
        slot = (slot[:, None] * grad.shape[1] + np.arange(grad.shape[1])).reshape(-1)
    grad = grad.reshape(-1).copy()
    glove._adagrad_rows(param, cache, touched, slot, grad, lr, np.empty_like(grad))


def cluster_corpus(n_clusters=10, tracks_per_cluster=4, n_sessions=200, seed=0):
    """Sessions drawing only from one cluster each: within-cluster pairs
    co-occur constantly, cross-cluster pairs never do."""
    rng = np.random.default_rng(seed)
    clusters = [
        [f"c{c}_t{i}" for i in range(tracks_per_cluster)] for c in range(n_clusters)
    ]
    seqs = []
    for _ in range(n_sessions):
        members = clusters[rng.integers(0, n_clusters)]
        seqs.append([members[rng.integers(0, len(members))] for _ in range(rng.integers(10, 21))])
    return clusters, sessions_of(*seqs)


class TestCooccurrence:
    def test_adjacent_pair(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B"]), window=5)
        assert weight(table, "A", "B") == 1.0

    def test_distance_two(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C"]), window=5)
        assert weight(table, "A", "C") == 0.5

    def test_window_cutoff(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C"]), window=1)
        assert weight(table, "A", "C") == 0.0

    def test_repeats_accumulate(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "A"]), window=5)
        assert weight(table, "A", "B") == 2.0
        assert weight(table, "A", "A") == 0.0  # no diagonal

    def test_symmetry(self):
        # one row per unordered pair, i < j, in ascending (i, j) order; reading
        # every session backwards gives the same table
        _, sessions = cluster_corpus(n_sessions=30, seed=4)
        table = glove.build_cooccurrence(sessions, window=5)
        assert table.pairs.dtype == np.int64 and table.pairs.shape == (len(table.values), 2)
        assert table.values.dtype == np.float64
        assert (table.pairs[:, 0] < table.pairs[:, 1]).all()
        assert np.array_equal(np.lexsort(table.pairs.T[::-1]), np.arange(len(table.pairs)))
        backwards = glove.build_cooccurrence(
            session_table([Session(s.session_id, s.events[::-1]) for s in sessions]), window=5)
        assert backwards.track_ids == table.track_ids
        assert np.array_equal(backwards.pairs, table.pairs)
        assert np.allclose(backwards.values, table.values, rtol=1e-12, atol=0.0)

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="^glove window must be >= 1, got 0$"):
            glove.build_cooccurrence(sessions_of(["A", "B"]), window=0)

    @pytest.mark.parametrize("window", [1, 2, 5, 30])
    def test_matches_per_pair_loop(self, window):
        _, clustered = cluster_corpus(n_sessions=60, seed=6)
        # short sessions, one-event sessions and tracks repeated back to back
        odd = sessions_of(["A"], ["A", "A"], ["A", "B"], ["B", "A", "B", "A", "A", "C"],
                          ["C", "C", "C"], ["D", "A", "D", "B", "D"])
        sessions = session_table([*clustered, *odd])
        table = glove.build_cooccurrence(sessions, window=window)
        track_ids, pairs = loop_cooccurrence_pairs(sessions, window)
        assert table.track_ids == track_ids
        assert pair_dict(table) == pairs
        assert list(pair_dict(table)) == sorted(pairs)

    def test_no_sessions(self):
        table = glove.build_cooccurrence(sessions_of(), window=5)
        assert table.track_ids == []
        assert table.pairs.shape == (0, 2) and table.values.shape == (0,)

    def test_directed_entries_match_sorted_loop(self):
        table = glove.build_cooccurrence(cluster_corpus(n_sessions=60, seed=7)[1], window=3)
        for got, want in zip(table.directed_entries(), loop_directed_entries(pair_dict(table))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_directed_entries_read_through_the_flat_pairs(self):
        # entry e is pair e >> 1, from flat[e] to flat[e ^ 1]: the slice loop's reads
        table = random_table(30, 200, seed=9)
        i, j, x = table.directed_entries()
        e = np.arange(len(i))
        flat = table.pairs.reshape(-1)
        assert np.array_equal(i, flat[e]) and np.array_equal(j, flat[e ^ 1])
        assert np.array_equal(x, table.values[e >> 1])

    def test_directed_entries_of_empty_table(self):
        i, j, x = table_of(["A"], {}).directed_entries()
        assert i.shape == j.shape == x.shape == (0,)


class TestCooccurrenceProperties:
    @given(seqs=st.lists(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=25),
                         max_size=8),
           window=st.integers(1, 30))
    def test_matches_per_pair_loop(self, seqs, window):
        # one-event sessions, repeated tracks and windows past the session end
        sessions = sessions_of(*seqs)
        table = glove.build_cooccurrence(sessions, window=window)
        track_ids, pairs = loop_cooccurrence_pairs(sessions, window)
        assert table.track_ids == track_ids
        assert pair_dict(table) == pairs


class TestGloveWeight:
    def test_cap(self):
        assert list(glove.glove_weights([100.0, 250.0], x_max=100.0)) == [1.0, 1.0]

    def test_formula(self):
        assert float(glove.glove_weights(50.0, x_max=100.0, alpha=0.75)) == pytest.approx(
            0.5946035575013605, abs=1e-15
        )

    def test_zero(self):
        assert float(glove.glove_weights(0.0)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            glove.glove_weights(-1.0)

    def test_array_matches_scalar(self):
        x = np.array([0.0, 0.5, 1.0, 37.5, 99.999, 100.0, 250.0])
        weights = glove.glove_weights(x, x_max=100.0, alpha=0.75)
        assert weights.shape == x.shape
        assert list(weights) == [float(glove.glove_weights(v, x_max=100.0, alpha=0.75))
                                 for v in x]

    def test_array_negative_rejected(self):
        with pytest.raises(ValidationError, match="-0.5"):
            glove.glove_weights(np.array([1.0, -0.5, 2.0]))


class TestTraining:
    def test_loss_decreases(self):
        _, sessions = cluster_corpus(n_sessions=50, seed=1)
        table = glove.build_cooccurrence(sessions)
        emb = glove.train_glove(table, dims=16, epochs=8, seed=3)
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

    def test_single_pair_fit(self):
        table = table_of(["A", "B"], {(0, 1): 4.0})
        emb = glove.train_glove(table, dims=4, epochs=400, seed=0)
        fit = float(emb.main[0] @ emb.context[1] + emb.main_bias[0] + emb.context_bias[1])
        assert abs(fit - np.log(4.0)) < 1e-2

    def test_deterministic(self):
        _, sessions = cluster_corpus(n_sessions=40, seed=2)
        table = glove.build_cooccurrence(sessions)
        a = glove.train_glove(table, dims=8, epochs=3, seed=9)
        b = glove.train_glove(table, dims=8, epochs=3, seed=9)
        assert np.array_equal(a.vectors(), b.vectors())
        assert a.epoch_losses == b.epoch_losses

    def test_empty_table(self):
        with pytest.raises(TrainingError):
            glove.train_glove(table_of(["A"], {}), dims=2, epochs=1)

    def test_cosine_separation(self):
        clusters, sessions = cluster_corpus(seed=5)
        table = glove.build_cooccurrence(sessions)
        emb = glove.train_glove(table, dims=24, epochs=20, seed=1)
        vecs = emb.as_dict()

        def cosine(a, b):
            return float(vecs[a] @ vecs[b] / (np.linalg.norm(vecs[a]) * np.linalg.norm(vecs[b])))

        within = cosine(clusters[0][0], clusters[0][1])
        across = cosine(clusters[0][0], clusters[1][0])
        assert within > across

    @pytest.mark.parametrize("shape", [(5, 7), (5,)])
    def test_row_step_matches_scatter_reference(self, shape):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 4, size=4096)  # row 4 is never touched
        grad = rng.normal(size=(4096,) + shape[1:])
        param, cache = rng.normal(size=shape), 1.0 + rng.random(size=shape)
        want_param, want_cache = param.copy(), cache.copy()
        scatter_adagrad_step(want_param, want_cache, rows, grad, 0.05)
        row_step(param, cache, rows, grad, 0.05)
        assert max_rel_err(cache, want_cache) < 1e-12
        assert np.max(np.abs(param - want_param) / np.abs(want_param)) < 1e-12
        assert np.array_equal(param[4], want_param[4])

    def test_sparse_slice_writes_only_its_rows(self):
        rng = np.random.default_rng(12)
        rows = np.array([9_000, 3, 9_000, 77, 3, 3])
        grad = rng.normal(size=(6, 3))
        param, cache = rng.normal(size=(10_000, 3)), 1.0 + rng.random(size=(10_000, 3))
        want_param, want_cache = param.copy(), cache.copy()
        scatter_adagrad_step(want_param, want_cache, rows, grad, 0.05)
        row_step(param, cache, rows, grad, 0.05)
        other = np.setdiff1d(np.arange(10_000), rows)
        assert np.array_equal(param[other], want_param[other])
        assert np.array_equal(cache[other], want_cache[other])
        assert max_rel_err(param, want_param) < 1e-12
        assert max_rel_err(cache, want_cache) < 1e-12

    def test_one_slice_matches_scatter_reference(self):
        # six tracks, all 15 pairs: every row is hit by five entries in the slice
        tracks = [f"t{k}" for k in range(6)]
        pairs = {(a, b): 1.0 + a + 2 * b for a in range(6) for b in range(a + 1, 6)}
        table = table_of(tracks, pairs)
        emb = glove.train_glove(table, dims=4, epochs=1, seed=3)

        rng = np.random.default_rng(3)
        span = 0.5 / 4
        params = [rng.uniform(-span, span, size=size) for size in [(6, 4), (6, 4), 6, 6]]
        caches = [np.ones_like(p) for p in params]
        i, j, x = loop_directed_entries(pairs)
        sel = rng.permutation(len(i))
        i, j = i[sel], j[sel]
        loss, *grads = batch_gradients(
            *params, i, j, np.log(x[sel]), glove.glove_weights(x[sel]))
        for param, cache, rows, grad in zip(params, caches, [i, j, i, j], grads):
            scatter_adagrad_step(param, cache, rows, grad, glove.GloveConfig.lr)

        got = [emb.main, emb.context, emb.main_bias, emb.context_bias]
        for g, want in zip(got, params):
            assert np.max(np.abs(g - want) / np.abs(want)) < 1e-12
        assert emb.epoch_losses == [float(loss.sum())]

    def test_objective_swap_symmetric(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C", "A", "C"]))
        emb = glove.train_glove(table, dims=3, epochs=2, seed=7)
        swapped = glove.EmbeddingTable(
            track_ids=emb.track_ids,
            main=emb.context.copy(),
            context=emb.main.copy(),
            main_bias=emb.context_bias.copy(),
            context_bias=emb.main_bias.copy(),
        )
        assert glove.objective(table, emb) == pytest.approx(
            glove.objective(table, swapped), rel=1e-12
        )

    def test_entry_gradients_match_finite_differences(self):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C", "B"]), window=2)
        rng = np.random.default_rng(12)
        v, d = table.n_tracks, 3
        emb = glove.EmbeddingTable(
            track_ids=list(table.track_ids),
            main=rng.normal(size=(v, d)),
            context=rng.normal(size=(v, d)),
            main_bias=rng.normal(size=v),
            context_bias=rng.normal(size=v),
        )
        i, j, x = table.directed_entries()
        f = np.array([float(glove.glove_weights(w)) for w in x])
        wi, wj = emb.main[i], emb.context[j]
        _, g = glove._residual((wi * wj).sum(axis=1), emb.main_bias[i], emb.context_bias[j],
                               np.log(x), f)
        analytic_main = np.zeros_like(emb.main)
        np.add.at(analytic_main, i, g[:, None] * wj)
        analytic_context = np.zeros_like(emb.context)
        np.add.at(analytic_context, j, g[:, None] * wi)

        def total(main):
            probe = glove.EmbeddingTable(
                track_ids=emb.track_ids, main=main, context=emb.context,
                main_bias=emb.main_bias, context_bias=emb.context_bias,
            )
            return glove.objective(table, probe)

        numeric = central_diff(total, emb.main)
        assert max_rel_err(analytic_main, numeric) < 1e-5

        def total_ctx(context):
            probe = glove.EmbeddingTable(
                track_ids=emb.track_ids, main=emb.main, context=context,
                main_bias=emb.main_bias, context_bias=emb.context_bias,
            )
            return glove.objective(table, probe)

        assert max_rel_err(analytic_context, central_diff(total_ctx, emb.context)) < 1e-5


class TestWorkspaceLoop:
    """The slice loop runs in reused buffers, its steps one column block at a
    time, and matches the loop that formed every slice x dims temporary
    afresh, bit for bit."""

    @staticmethod
    def assert_matches_reference(table, dims, epochs, seed):
        got = glove.train_glove(table, dims=dims, epochs=epochs, seed=seed)
        want = reference_train_glove(table, dims, epochs, seed=seed)
        assert_same_embeddings(got, want)
        return got

    def test_multi_slice_table_with_a_short_last_slice(self):
        table = random_table(300, 5_000, seed=21)
        assert len(table.pairs) * 2 % glove.ENTRY_BATCH
        assert len(table.pairs) * 2 > 2 * glove.ENTRY_BATCH
        self.assert_matches_reference(table, dims=12, epochs=2, seed=4)

    @pytest.mark.parametrize("dims", [150, 151], ids=["blocked", "one-block"])
    def test_matches_reference_with_and_without_blocks(self, dims):
        self.assert_matches_reference(random_table(300, 5_000, seed=25), dims=dims, epochs=2,
                                      seed=7)

    @pytest.mark.parametrize("dims,width", [
        (150, 15), (151, 151), (64, 16), (100, 10), (44, 11), (34, 34), (7, 7), (1, 1),
    ])
    def test_block_width(self, dims, width):
        assert glove._block_width(dims) == width

    @pytest.mark.parametrize("width", [1, 5, 30])
    def test_block_width_does_not_matter(self, monkeypatch, width):
        table = random_table(200, 4_500, seed=26)
        want = glove.train_glove(table, dims=30, epochs=2, seed=8)
        monkeypatch.setattr(glove, "_block_width", lambda dims: width)
        assert_same_embeddings(glove.train_glove(table, dims=30, epochs=2, seed=8), want)

    def test_narrow_index_dtype_does_not_wrap(self):
        # block rows are row * nb + b: int8 pairs would wrap past 127
        table = random_table(100, 1_500, seed=27)
        narrow = glove.CooccurrenceTable(table.track_ids, table.pairs.astype(np.int8),
                                         table.values)
        assert_same_embeddings(glove.train_glove(narrow, dims=150, epochs=1, seed=2),
                               glove.train_glove(table, dims=150, epochs=1, seed=2))

    def test_sparse_table_leaves_untouched_rows_bitwise(self):
        table = random_table(10_000, 600, seed=22)
        emb = self.assert_matches_reference(table, dims=6, epochs=3, seed=5)
        rng = np.random.default_rng(5)
        span = 0.5 / 6
        initial = [rng.uniform(-span, span, size=size)
                   for size in [(10_000, 6), (10_000, 6), 10_000, 10_000]]
        touched = np.unique(table.pairs)
        untouched = np.setdiff1d(np.arange(10_000), touched)
        assert len(untouched) > 8_000
        for got, start in zip([emb.main, emb.context, emb.main_bias, emb.context_bias], initial):
            assert np.array_equal(got[untouched], start[untouched])
            assert not np.array_equal(got[touched], start[touched])

    def test_one_dimension(self):
        self.assert_matches_reference(random_table(40, 500, seed=23), dims=1, epochs=3, seed=6)

    @pytest.mark.parametrize("dims,blocks", [(150, 10), (45, 3), (151, 1)],
                             ids=["ten-blocks", "three-blocks", "one-block"])
    def test_worker_count_does_not_matter(self, monkeypatch, dims, blocks):
        # 10,000 directed entries: two full slices and a short one. Four
        # workers asked for, more than the cores, give the caller and one
        # worker; switching every microsecond would show an update lost or
        # crossed between the halves
        table = random_table(300, 5_000, seed=21)
        steps, threads = glove._block_steps, set()

        def recording(*args):
            threads.add(threading.get_ident())
            steps(*args)

        monkeypatch.setattr(glove, "_block_steps", recording)
        runs, before = [], threading.active_count()
        with switching_every_microsecond():
            for workers in (1, 2, 4):
                monkeypatch.setattr(parallel, "WORKERS", workers)
                threads.clear()
                runs.append(glove.train_glove(table, dims=dims, epochs=2, seed=9))
                assert len(threads) == min(workers, 2, blocks)
                assert threading.active_count() == before
        for run in runs[1:]:
            assert_same_embeddings(run, runs[0])

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_block_step_error_comes_out_and_the_worker_is_joined(self, monkeypatch, failing):
        class BlockError(Exception):
            pass

        caller, steps, raised = threading.get_ident(), glove._block_steps, []

        def step(*args):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raised.append(BlockError(failing))
                raise raised[-1]
            steps(*args)

        monkeypatch.setattr(parallel, "WORKERS", 2)
        monkeypatch.setattr(glove, "_block_steps", step)
        before = threading.active_count()
        with pytest.raises(BlockError) as info:
            glove.train_glove(random_table(300, 5_000, seed=21), dims=150, epochs=1, seed=0)
        assert len(raised) == 1 and info.value is raised[0]
        assert threading.active_count() == before

    @staticmethod
    def peak_slices(dims):
        """What one epoch over 400 tracks (two full slices and a short one)
        allocates above its inputs at its peak, in [slice, dims] float arrays.
        The inputs are the parameters and caches, the per-pair log counts and
        weights and the epoch's permutation of the entries."""
        v = 400
        table = random_table(v, 5_000, seed=24)
        n_pairs = len(table.pairs)
        inputs = 2 * (2 * v * dims + 2 * v) * 8 + 2 * n_pairs * 8 + 2 * n_pairs * 8
        tracemalloc.start()
        try:
            glove.train_glove(table, dims=dims, epochs=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - inputs) / (glove.ENTRY_BATCH * dims * 8)

    def test_one_epoch_peak_stays_under_one_slice(self):
        # at the default 150 dims the workspace is each half's three float
        # [slice, 15] blocks, whose memory the two [ROW_CHUNK, dims] chunks
        # borrow, and two intp ones: 0.8 slices, on one thread or two
        assert self.peak_slices(glove.GloveConfig.dims) <= 1.0

    def test_one_block_peak_holds_one_flat_index(self):
        # 151 has no divisor from 8 to 16, so the steps run as one block, one
        # half, on the calling thread: three float [slice, 151] buffers, which
        # the two [ROW_CHUNK, 151] chunks borrow, and one intp one are 4
        # slices, and a step's sums over at most 400 touched rows add 0.1. The
        # two sides' flat indexes share one buffer; a second one would put the
        # peak near 5.2
        assert self.peak_slices(151) <= 4.5


class TestTableCheck:
    """A hand-built table is checked before training: no index is clamped and
    no weight turns the loss into NaN."""

    @staticmethod
    def train(pairs, values, n_tracks=5):
        table = glove.CooccurrenceTable([f"t{k}" for k in range(n_tracks)], pairs, values)
        return glove.train_glove(table, dims=3, epochs=1)

    @pytest.mark.parametrize("pair", [(1, 5), (1, 9), (-1, 2), (3, 3), (3, 2)])
    def test_bad_index_names_its_pair(self, pair):
        pairs = np.array([(0, 1), (1, 2), pair, (2, 4)], dtype=np.int64)
        with pytest.raises(ValidationError, match=r"pair 2: \(%d, %d\)" % pair):
            self.train(pairs, np.ones(4))

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_weight_names_its_pair(self, value):
        pairs = np.array([(0, 1), (1, 2), (2, 3)], dtype=np.int64)
        with pytest.raises(ValidationError, match="pair 1: .*finite weight > 0"):
            self.train(pairs, np.array([1.0, value, 2.0]))

    def test_first_bad_pair_is_named(self):
        pairs = np.array([(0, 1), (0, 7), (1, 2), (2, 4)], dtype=np.int64)
        with pytest.raises(ValidationError, match="pair 1:"):
            self.train(pairs, np.array([1.0, 1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("pairs", [
        np.array([[0.0, 1.0]]), np.array([0, 1]), np.array([[0, 1, 2]]), [[0, 1]],
    ], ids=["float", "flat", "three-columns", "list"])
    def test_pairs_must_be_an_integer_n_by_2_array(self, pairs):
        with pytest.raises(ValidationError, match=r"pairs must be an integer \[n, 2\] array"):
            self.train(pairs, np.ones(1))

    @pytest.mark.parametrize("values", [np.ones(2), np.ones((1, 1)), np.array(["1"]), [1.0]],
                             ids=["long", "2-d", "text", "list"])
    def test_values_must_match_the_pairs(self, values):
        with pytest.raises(ValidationError, match=r"values must be a real \[1\] array"):
            self.train(np.array([[0, 1]]), values)

    def test_objective_checks_the_table(self):
        table = glove.CooccurrenceTable(["a", "b"], np.array([[0, 2]]), np.ones(1))
        emb = glove.EmbeddingTable(["a", "b"], np.zeros((2, 1)), np.zeros((2, 1)),
                                   np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError, match=r"pair 0: \(0, 2\)"):
            glove.objective(table, emb)

    def test_built_tables_pass(self):
        _, sessions = cluster_corpus(n_sessions=40, seed=8)
        glove.check_table(glove.build_cooccurrence(sessions, window=5))
        glove.check_table(glove.build_cooccurrence(sessions_of(), window=5))


class TestExport:
    def test_round_trip(self, tmp_path):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C", "A"]))
        emb = glove.train_glove(table, dims=5, epochs=3, seed=0)
        path = tmp_path / "emb.txt"
        glove.export_embeddings(emb, path)
        loaded = glove.load_embeddings(path)
        combined = emb.as_dict()
        assert set(loaded) == set(combined)
        for tid in loaded:
            assert np.max(np.abs(loaded[tid] - combined[tid])) <= 1e-12

    def test_format_shape(self, tmp_path):
        table = glove.build_cooccurrence(sessions_of(["A", "B", "C"]))
        emb = glove.train_glove(table, dims=4, epochs=1, seed=0)
        path = tmp_path / "emb.txt"
        glove.export_embeddings(emb, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split()) == 5 for line in lines)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            glove.load_embeddings(tmp_path / "absent.txt")

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("A 1.0 2.0\nB 1.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            glove.load_embeddings(path)

    def test_duplicate_track_id_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("A 1.0 2.0\nB 1.0 2.0\nA 3.0 4.0\n")
        with pytest.raises(ValidationError, match="line 3.*duplicate"):
            glove.load_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "-nan", "infinity"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"A 1.0 2.0\nB 1.0 {bad}\n")
        with pytest.raises(ValidationError, match="line 2.*non-finite"):
            glove.load_embeddings(path)

    # float() reads the last ten, but the format's numerals are ASCII with no
    # "_" and no leading "+"
    @pytest.mark.parametrize("bad", ["0x10", "abc", "1,0", "nan(1)", "1..0", "1_0", "1_80.5",
                                     "\u0661", "\u0661.\u0662", "1.\u0665", "+0.5", "+.5e-3",
                                     "+1e+20", "+inf", "+0"])
    def test_non_numeric_value_names_its_line(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"A 1.0 2.0\nB 1.0 2.0\nC {bad} 2.0\nD 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="^line 3: non-numeric embedding value in "
                                                  "column 2$"):
            glove.load_embeddings(path)

    @pytest.mark.parametrize("text,expected", [
        ("A 1.0 2.0\nB x 2.0\nA 1.0 2.0\n", "line 2: non-numeric"),
        ("A 1.0 2.0\nB inf 2.0\nC 1.0\n", "line 2: non-finite"),
        ("A 1.0 2.0\nA 1.0 2.0\nB x 2.0\n", "line 2: duplicate"),
        ("A 1.0 2.0\nB 1.0\nC nan 2.0\n", "line 2: expected 2 values"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, text, expected):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=expected):
            glove.load_embeddings(path)

    def test_values_parse_as_float_does(self, tmp_path):
        tokens = ["1.5e-400", "-0", ".5e-3", "4.9e-324", "1e-310", "0.1",
                  "1.7976931348623157e308", "-2.5E+3"]
        rows = [tokens, [repr(float(x)) for x in np.random.default_rng(5).normal(size=len(tokens))]]
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"t{k} " + " ".join(row) + "\n" for k, row in enumerate(rows)),
                        encoding="utf-8")
        loaded = glove.load_embeddings(path)
        for k, row in enumerate(rows):
            assert loaded[f"t{k}"].tobytes() == np.array([float(v) for v in row]).tobytes()

    @pytest.mark.parametrize("values, column", [(["x", "+1"], 2), (["+1", "x"], 2),
                                                (["1", "1_0"], 3), (["1", "0x1"], 3),
                                                (["1", "+1e+20"], 3)])
    def test_first_bad_value_is_the_column_named(self, tmp_path, values, column):
        path = tmp_path / "emb.txt"
        path.write_text(f"A {' '.join(values)}\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            glove.load_embeddings(path)
        assert str(info.value) == f"line 1: non-numeric embedding value in column {column}"

    @settings(max_examples=200)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_repr_loads(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_text(f"A {value!r} {-value!r}\n", encoding="utf-8")
            loaded = glove.load_embeddings(path)["A"]
        assert loaded.tobytes() == np.array([value, -value]).tobytes()

    def test_track_id_may_hold_underscores_and_other_scripts(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("t_1 1.0 2.5\n\u0661\u00e9 -3.0 0.25\n", encoding="utf-8")
        loaded = glove.load_embeddings(path)
        assert {tid: vec.tolist() for tid, vec in loaded.items()} == {
            "t_1": [1.0, 2.5], "\u0661\u00e9": [-3.0, 0.25]}

    @settings(max_examples=30)
    @given(values=arrays(np.float64, st.tuples(st.just(2), st.integers(1, 8), st.integers(1, 6)),
                         elements=st.floats(-1e300, 1e300)))
    def test_export_load_round_trip_is_bit_exact(self, values):
        main, context = values
        v = main.shape[0]
        emb = glove.EmbeddingTable([f"t{k}" for k in range(v)], main, context,
                                   np.zeros(v), np.zeros(v))
        with tempfile.TemporaryDirectory() as tmp:
            glove.export_embeddings(emb, Path(tmp) / "emb.txt")
            loaded = glove.load_embeddings(Path(tmp) / "emb.txt")
        assert list(loaded) == emb.track_ids
        assert np.array(list(loaded.values())).tobytes() == emb.vectors().tobytes()


class TestTableInput:
    @pytest.mark.parametrize("window", [1, 5])
    def test_loaded_table_matches_per_pair_loop(self, tmp_path, window):
        tracks, sessions = data.gen_synthetic(n_sessions=60, n_tracks=50, seed=12)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions[::-1], mode="infer")
        table = data.load_sessions(path, None, mode="infer")
        built = glove.build_cooccurrence(table, window=window)
        track_ids, pairs = loop_cooccurrence_pairs(table, window)
        assert built.track_ids == track_ids
        assert pair_dict(built) == pairs
        assert pair_dict(glove.build_cooccurrence(sessions, window=window)) == pairs

    def test_slice_renumbers_over_played_tracks(self, tmp_path):
        tracks, sessions = data.gen_synthetic(n_sessions=20, n_tracks=50, seed=13)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions, mode="train")
        part = data.load_sessions(path, None, mode="train")[:3]
        built = glove.build_cooccurrence(part, window=5)
        assert (built.track_ids, pair_dict(built)) == loop_cooccurrence_pairs(sessions[:3], 5)


class TestGloveConfig:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(dims=0), "dims and epochs must be >= 1, got dims=0, epochs=25"),
        (dict(epochs=0), "dims and epochs must be >= 1, got dims=150, epochs=0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(lr=float("nan")), "lr must be finite and positive, got nan"),
        (dict(x_max=0.0), "x_max must be finite and positive, got 0.0"),
        (dict(alpha=float("inf")), "alpha must be finite and positive, got inf"),
    ])
    def test_train_glove_checks_its_arguments_through_the_config(self, kwargs, message):
        table = glove.build_cooccurrence(sessions_of(["A", "B"]), window=5)
        for check in (glove.GloveConfig, lambda **kw: glove.train_glove(table, **kw)):
            with pytest.raises(ConfigError, match=f"^glove {message}$"):
                check(**kwargs)
