import threading
import time
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skipgru import autodiff as ad
from skipgru.errors import DegenerateBatchError, NumericError, ShapeError, StateError

from helpers import (batchnorm_state, central_diff, composed_gru, composed_gru_step, concat_rows,
                     failing_head, max_rel_err, projected_gru, reachable, scatter_rows,
                     switching_every_microsecond)


def loss_of(node):
    """sum() as a scalar head so backward can run on any test graph."""
    return ad.sum_all(node)


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)


class TestElementwise:
    def test_hadamard_zero_annihilator(self):
        out = ad.hadamard(ad.constant([1.0, 2.0, 3.0]), ad.constant([0.0, 0.0, 0.0]))
        assert np.array_equal(out.value, [[0.0, 0.0, 0.0]])

    def test_hadamard_hand_product(self):
        out = ad.hadamard(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert np.array_equal(out.value, [[3.0, 8.0]])

    def test_add(self):
        out = ad.add(ad.constant([1.0, 1.0]), ad.constant([2.0, 2.0]))
        assert np.array_equal(out.value, [[3.0, 3.0]])

    def test_bias_row_broadcast(self):
        a = ad.constant(np.ones((3, 2)))
        bias = ad.parameter([[1.0, -1.0]])
        out = ad.add(a, bias)
        assert np.array_equal(out.value, [[2.0, 0.0]] * 3)
        ad.backward(loss_of(out))
        assert np.array_equal(bias.grad, [[3.0, 3.0]])

    def test_broadcast_only_along_rows(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            ad.add(a, b)


class TestActivation:
    def test_sigmoid_symmetry_point(self):
        assert ad.sigmoid(ad.constant([[0.0]])).value[0, 0] == 0.5

    def test_sigmoid_closed_form(self):
        out = ad.sigmoid(ad.constant([[1.0]])).value[0, 0]
        assert out == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_sigmoid_matches_two_branch_reference(self):
        x = np.random.default_rng(2).normal(scale=60.0, size=(200, 50))
        x[0, :4] = [0.0, -0.0, 800.0, -800.0]
        ref = np.empty_like(x)
        pos = x >= 0.0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        assert np.array_equal(ad.sigmoid(ad.constant(x)).value, ref)

    def test_elu_closed_form(self):
        out = ad.activation(ad.constant([[-1.0]]), "elu").value[0, 0]
        assert out == pytest.approx(-0.6321205588285577, abs=1e-15)

    def test_relu(self):
        out = ad.relu(ad.constant([[-2.0, 0.0, 3.0]]))
        assert np.array_equal(out.value, [[0.0, 0.0, 3.0]])

    def test_output_bounds(self):
        # float64 sigmoid rounds to 1.0 beyond x ~ 37,
        # so probe the range where the open bounds are representable
        rng = np.random.default_rng(7)
        x = ad.constant(rng.uniform(-15.0, 15.0, size=(20, 20)))
        s = ad.sigmoid(x).value
        r = ad.relu(x).value
        e = ad.activation(x, "elu").value
        assert ((s > 0.0) & (s < 1.0)).all()
        assert (r >= 0.0).all()
        assert (e > -ad.ELU_ALPHA).all()

    @pytest.mark.parametrize("kind", ["tanh", "softmax"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=kind):
            ad.activation(ad.constant([[1.0]]), kind)


class TestConcat:
    def test_single_part_is_identity(self):
        a = ad.constant([[1.0, 2.0]])
        assert np.array_equal(ad.concat_cols([a]).value, a.value)

    def test_forced_layout(self):
        out = ad.concat_cols([ad.constant([[1.0, 2.0]]), ad.constant([[9.0]])])
        assert np.array_equal(out.value, [[1.0, 2.0, 9.0]])

    def test_backward_slices_to_parents(self):
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((2, 1)))
        ad.backward(loss_of(ad.concat_cols([a, b])))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.ones((2, 1)))

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_cols([ad.constant(np.ones((2, 2))), ad.constant(np.ones((3, 2)))])


class TestBatchNorm:
    # a column of variance 1 normalizes to x / sqrt(1 + BN_EPSILON)
    UNIT = 1.0 / np.sqrt(1.0 + ad.BN_EPSILON)

    def test_hand_normalization(self):
        state = batchnorm_state(1)
        out = ad.batchnorm(ad.constant([[1.0], [3.0]]), state, "train")
        assert np.allclose(out.value, [[-self.UNIT], [self.UNIT]], rtol=0.0, atol=1e-15)

    def test_already_normalized_unchanged(self):
        x = np.array([[-1.0], [1.0]])
        state = batchnorm_state(1)
        out = ad.batchnorm(ad.constant(x), state, "train")
        assert np.allclose(out.value, x * self.UNIT, rtol=0.0, atol=1e-15)

    def test_infer_identity_running_stats(self):
        state = batchnorm_state(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = ad.batchnorm(ad.constant(x), state, "infer")
        assert np.allclose(out.value, x * self.UNIT, rtol=0.0, atol=1e-15)

    def test_degenerate_batch(self):
        state = batchnorm_state(2)
        with pytest.raises(DegenerateBatchError):
            ad.batchnorm(ad.constant(np.ones((1, 2))), state, "train")

    def test_train_columns_standardized(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
        state = batchnorm_state(4)
        out = ad.batchnorm(ad.constant(x), state, "train").value
        var = x.var(axis=0)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.var(axis=0) - var / (var + ad.BN_EPSILON)).max() < 1e-12

    def test_running_stats_update(self):
        x = np.array([[0.0, 10.0], [2.0, 14.0]])
        state = batchnorm_state(2)
        ad.batchnorm(ad.constant(x), state, "train")
        # batch mean [1, 12] and variance [1, 4], folded in at BN_MOMENTUM = 0.1
        assert ad.BN_MOMENTUM == 0.1
        assert np.allclose(state.running_mean, [0.1, 1.2])
        assert np.allclose(state.running_var, [1.0, 1.3])

    def test_running_stats_update_in_place_bitwise(self):
        # the stats keep their array objects, and every batch folds in by the
        # out-of-place formula's two products and sum, bit for bit
        rng = np.random.default_rng(11)
        state = batchnorm_state(5)
        mean, var = state.running_mean, state.running_var
        want_mean, want_var = mean.copy(), var.copy()
        rate = ad.BN_MOMENTUM
        for _ in range(4):
            x = rng.normal(loc=2.0, scale=3.0, size=(7, 5))
            ad.batchnorm(ad.constant(x), state, "train")
            want_mean = (1.0 - rate) * want_mean + rate * x.mean(axis=0)
            want_var = (1.0 - rate) * want_var + rate * x.var(axis=0)
            assert state.running_mean is mean and state.running_var is var
            assert np.array_equal(mean, want_mean) and np.array_equal(var, want_var)


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(w))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_gives_2w(self):
        w = ad.parameter([[1.0, -2.0, 0.5]])
        ad.backward(ad.sum_all(ad.hadamard(w, w)))
        assert np.allclose(w.grad, 2.0 * w.value)

    def test_multipath_accumulates(self):
        x = ad.parameter([[3.0]])
        ad.backward(ad.sum_all(ad.add(x, x)))
        assert x.grad[0, 0] == 2.0

    def test_non_scalar_loss(self):
        with pytest.raises(ShapeError):
            ad.backward(ad.parameter(np.ones((1, 2))))

    def test_backward_twice_is_error(self):
        w = ad.parameter([[1.0]])
        out = ad.sum_all(w)
        ad.backward(out)
        with pytest.raises(StateError):
            ad.backward(out)

    def test_zero_grad_resets(self):
        w = ad.parameter([[1.0, 2.0]])
        ad.backward(ad.sum_all(ad.scale(w, 3.0)))
        w.grad.fill(0.0)
        ad.backward(ad.sum_all(w))
        assert np.array_equal(w.grad, np.ones((1, 2)))

    def test_second_backward_through_shared_node_counts_once(self):
        x = ad.parameter([[1.0]])
        y = ad.scale(x, 2.0)
        ad.backward(ad.sum_all(y))
        x.grad.fill(0.0)
        ad.backward(ad.sum_all(y))
        assert np.array_equal(x.grad, [[2.0]])

    def test_pass_through_gradient_is_never_added_into(self):
        # add hands its output gradient to both inputs as the same array, so
        # u's two contributions must not be summed in place into it
        x = ad.parameter([[1.0, -1.0]])
        u, v = ad.scale(x, 2.0), ad.scale(x, 3.0)
        out = ad.add(ad.add(u, v), u)
        ad.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, [[7.0, 7.0]])
        assert np.array_equal(out.grad, [[1.0, 1.0]])
        assert np.array_equal(u.grad, [[2.0, 2.0]])

    def test_constants_and_intermediates_hold_no_grad_until_backward(self):
        c, w = ad.constant([[1.0, 2.0]]), ad.parameter([[3.0, 4.0]])
        y = ad.hadamard(w, c)
        assert c.grad is None and y.grad is None
        assert np.array_equal(w.grad, np.zeros((1, 2)))
        ad.backward(ad.sum_all(y))
        assert c.grad is None
        assert np.array_equal(w.grad, [[1.0, 2.0]])



def one_leaf_three_ways(rng):
    """A loss in which the parameter ``w`` feeds three ops, so its gradient
    is the sum of three contributions from three nodes."""
    w = ad.parameter(rng.normal(size=(3, 3)))
    x = ad.constant(rng.normal(size=(5, 3)))
    twice = ad.matmul(ad.matmul(x, w), w)
    out = ad.hadamard(twice, ad.take_rows(w, [0, 1, 2, 0, 1]))
    return ad.sum_all(ad.hadamard(out, ad.constant(rng.normal(size=(5, 3))))), [w]


def recurrent_head(rng):
    """A GRU layer behind its input projection, summarized by rows and
    enriched into an affine map: the ``gru`` and ``enrich_affine`` nodes whose
    pulls share one memo per backward, with nine parameters."""
    h, sizes = 4, [3, 2, 2, 1]
    shapes = [(2, 3 * h), (1, 3 * h), (h, h), (h, h), (h, h), (2, h), (1, h), (2 + 2 * h, 3),
              (1, 3)]
    w_in, b, w_us, w_rs, w_s, proj_w, proj_b, w1, b1 = params = [
        ad.parameter(rng.normal(size=shape)) for shape in shapes]
    pre = ad.affine(ad.constant(rng.normal(size=(sum(sizes), 2))), w_in, b)
    o = ad.gru(pre, ad.constant(np.zeros((3, h))), w_us, w_rs, w_s, sizes)
    x_i = ad.constant(rng.normal(size=(5, 2)))
    gate = ad.relu(ad.affine(x_i, proj_w, proj_b))
    out = ad.enrich_affine(x_i, ad.take_rows(o, [5, 6, 7]), [0, 0, 1, 2, 2], gate, w1, b1)
    return ad.sum_all(ad.hadamard(ad.sigmoid(out), ad.constant(rng.normal(size=(5, 3))))), params


class TestBackwardWithAWorker:
    @pytest.mark.parametrize("build", [one_leaf_three_ways, recurrent_head])
    def test_grads_equal_those_without_a_worker_bitwise(self, build):
        before = threading.active_count()
        with switching_every_microsecond(), ThreadPoolExecutor(max_workers=1) as worker:
            for seed in range(20):
                grads = []
                for pool in (None, worker):
                    loss, params = build(np.random.default_rng(seed))
                    ad.backward(loss, pool)
                    grads.append([p.grad.tobytes() for p in params])
                assert grads[0] == grads[1]
        assert threading.active_count() == before

    @pytest.mark.parametrize("build,stolen", [(one_leaf_three_ways, False),
                                              (recurrent_head, True)],
                             ids=["a-shared-leaf", "disjoint-leaves"])
    def test_the_caller_runs_unstarted_tasks_only_if_no_two_share_a_leaf(
            self, monkeypatch, build, stolen):
        # the worker is held busy until the caller waits for the tasks, so
        # every task is still queued when the walk ends
        caller, release, ran = threading.get_ident(), threading.Event(), []
        pull, wait = ad._pull_leaves, futures.wait

        def recording_pull(pulls, g):
            ran.append((threading.get_ident(), [id(leaf) for leaf, _ in pulls]))
            pull(pulls, g)

        def releasing_wait(jobs):
            release.set()
            return wait(jobs)

        monkeypatch.setattr(ad, "_pull_leaves", recording_pull)
        monkeypatch.setattr(ad, "futures", SimpleNamespace(wait=releasing_wait))
        runs = []
        with ThreadPoolExecutor(max_workers=1) as worker:
            for pool in (None, worker):
                loss, params = build(np.random.default_rng(3))
                index = {id(p): k for k, p in enumerate(params)}
                ran.clear()
                release.clear()
                if pool is not None:
                    pool.submit(release.wait, 10)
                ad.backward(loss, pool)
                runs.append(([p.grad.tobytes() for p in params],
                             [(thread == caller, [index[leaf] for leaf in leaves])
                              for thread, leaves in ran]))
        (serial_grads, serial_tasks), (grads, tasks) = runs
        assert grads == serial_grads
        walk = [leaves for _, leaves in serial_tasks]
        assert len(walk) > 1
        if stolen:
            assert tasks == [(True, leaves) for leaves in reversed(walk)]
        else:
            assert tasks == [(False, leaves) for leaves in walk]

    @pytest.mark.parametrize("where", ["task", "walk"])
    def test_an_error_comes_out_as_itself_once_every_task_has_finished(self, where):
        class PullError(Exception):
            pass

        err, before = PullError(where), threading.active_count()
        with ThreadPoolExecutor(max_workers=1) as worker:
            loss, params = one_leaf_three_ways(np.random.default_rng(0))
            top, raised, finished = failing_head(loss, err, where)
            with pytest.raises(PullError) as info:
                ad.backward(top, worker)
            assert info.value is err
            assert (raised[0] == threading.get_ident()) == (where == "walk")
            assert where == "task" or finished.is_set()
        assert threading.active_count() == before

    def test_an_error_of_a_task_the_caller_stole_comes_out_once_the_worker_stops(
            self, monkeypatch):
        # the worker is held inside the first task until the caller waits, so
        # the caller runs the second task, which raises, while the first runs
        class PullError(Exception):
            pass

        err, caller, before = PullError("stolen"), threading.get_ident(), threading.active_count()
        started, release, finished, raised = (threading.Event(), threading.Event(),
                                              threading.Event(), [])
        wait = futures.wait

        def releasing_wait(jobs):
            release.set()
            return wait(jobs)

        def held(g):
            started.set()
            assert release.wait(timeout=10)
            time.sleep(0.05)
            finished.set()
            return g

        def stolen(g):
            raised.append(threading.get_ident())
            raise err

        def after_the_worker_starts(g):
            assert started.wait(timeout=10)
            return g

        monkeypatch.setattr(ad, "futures", SimpleNamespace(wait=releasing_wait))
        one = np.ones((1, 1))
        base = ad.Node(one, requires_grad=True, parents=[(ad.parameter(one), stolen)])
        mid = ad.Node(one, requires_grad=True, parents=[(base, after_the_worker_starts)])
        top = ad.Node(one, requires_grad=True,
                      parents=[(mid, lambda g: g), (ad.parameter(one), held)])
        with ThreadPoolExecutor(max_workers=1) as worker:
            with pytest.raises(PullError) as info:
                ad.backward(top, worker)
            assert finished.is_set()
        assert info.value is err and raised == [caller]
        assert threading.active_count() == before


GRAPH_OPS = ("matmul", "affine", "mean", "gated", "sigmoid", "elu", "take_rows")


def random_graph(ops, x0, x1, w, b, weights):
    """A loss over a graph that ``ops`` builds from the leaves, and the graph's
    hub. Op k reads nodes ``i`` and ``j`` (modulo the nodes built so far) of
    its ``(kind, i, j)``, but every third op reads the hub, the first op's
    output, in place of node ``i``; the loss adds one weighted sum of every op
    output, so the hub has at least three readers, built far apart. No op
    grows its operands, so values stay near the leaves' scale."""
    nodes = [x0, x1]
    for k, (kind, i, j) in enumerate(ops):
        a = nodes[2] if k % 3 == 2 else nodes[i % len(nodes)]
        c = nodes[j % len(nodes)]
        nodes.append({
            "matmul": lambda: ad.matmul(a, w),
            "affine": lambda: ad.affine(a, w, b),
            "mean": lambda: ad.scale(ad.add(a, c), 0.5),
            "gated": lambda: ad.hadamard(a, ad.sigmoid(c)),
            "sigmoid": lambda: ad.sigmoid(a),
            "elu": lambda: ad.activation(a, "elu"),
            "take_rows": lambda: ad.take_rows(a, [i % 3, j % 3, (i + j) % 3]),
        }[kind]())
    terms = [ad.sum_all(ad.hadamard(node, weight)) for node, weight in zip(nodes[2:], weights)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return loss, nodes[2]


class TestRandomGraphs:
    @given(ops=st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 99),
                                  st.integers(0, 99)), min_size=7, max_size=12),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_grads_match_finite_differences_and_a_worker_bitwise(self, ops, seed):
        rng = np.random.default_rng(seed)
        values = [rng.normal(scale=0.5, size=shape) for shape in ((3, 3), (3, 3), (3, 3), (1, 3))]
        weights = [ad.constant(rng.normal(size=(3, 3))) for _ in ops]
        grads = []
        with switching_every_microsecond(), ThreadPoolExecutor(max_workers=1) as worker:
            for pool in (None, worker):
                params = [ad.parameter(v) for v in values]
                loss, hub = random_graph(ops, *params, weights)
                ad.backward(loss, pool)
                grads.append([p.grad.tobytes() for p in params])
        assert grads[0] == grads[1]
        built = sorted(node.index for node in reachable(loss)
                       for parent, _ in node.parents if parent is hub)
        assert len(built) >= 3 and built[-1] - built[0] >= 4

        for k, param in enumerate(params):
            def f(x, k=k):
                probe = [ad.constant(x if m == k else v) for m, v in enumerate(values)]
                return random_graph(ops, *probe, weights)[0].value[0, 0]

            assert max_rel_err(param.grad, central_diff(f, values[k])) < 1e-6


def every_op(w):
    """One output of every op, each downstream of the parameter ``w`` ([3, 3])."""
    x = ad.take_rows(ad.scale(w, 0.5), [0, 2, 1, 0])
    w11 = ad.matmul(ad.take_rows(w, [0]), ad.constant(np.ones((3, 1))))
    bn = batchnorm_state(3)
    return [
        ad.matmul(x, w), ad.add(x, ad.take_rows(w, [1])), ad.hadamard(x, x),
        ad.sigmoid(x), ad.relu(x), ad.activation(x, "elu"), ad.concat_cols([x, x]),
        ad.sum_all(x), ad.bce(ad.sigmoid(x), np.ones((4, 3))),
        ad.batchnorm(x, bn, "train"), ad.batchnorm(x, bn, "infer"),
        ad.gru(w, ad.constant(np.zeros((2, 1))), w11, w11, w11, [2, 1]),
    ]


class TestNoGrad:
    def test_ops_inside_keep_no_parents(self):
        values = np.random.default_rng(0).normal(size=(3, 3))
        recorded = every_op(ad.parameter(values))
        with ad.no_grad():
            bare = every_op(ad.parameter(values))
        for kept, out in zip(recorded, bare, strict=True):
            assert kept.parents and kept.requires_grad
            assert out.parents == [] and not out.requires_grad and out.grad is None
            assert np.array_equal(out.value, kept.value)

    def test_recording_resumes_after_an_error_inside(self):
        w = ad.parameter([[1e308]])
        with pytest.raises(NumericError), np.errstate(over="ignore"), ad.no_grad():
            ad.scale(w, 10.0)
        assert ad.scale(w, 0.5).parents

    def test_nested_blocks_restore_the_outer_state(self):
        w = ad.parameter([[1.0]])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.scale(w, 2.0).parents
        assert ad.scale(w, 2.0).parents

    def test_a_block_in_one_thread_leaves_another_recording(self):
        w = ad.parameter([[1.0]])
        entered, built = threading.Event(), threading.Event()
        parents = {}

        def inside():
            with ad.no_grad():
                entered.set()
                built.wait(timeout=10)
                parents["inside"] = ad.scale(w, 2.0).parents

        worker = threading.Thread(target=inside)
        worker.start()
        assert entered.wait(timeout=10)
        parents["outside"] = ad.scale(w, 2.0).parents
        built.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert parents["outside"] and parents["inside"] == []


class TestTakeRows:
    def test_gathers_in_index_order(self):
        a = ad.constant([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        out = ad.take_rows(a, [2, 0, 2])
        assert np.array_equal(out.value, [[3.0, -3.0], [1.0, -1.0], [3.0, -3.0]])

    def test_repeated_rows_sum_their_gradients(self):
        a = ad.parameter(np.zeros((3, 2)))
        ad.backward(loss_of(ad.take_rows(a, [2, 0, 2, 2])))
        assert np.array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])

    @pytest.mark.parametrize("idx", [[3], [-1], [[0]]])
    def test_bad_index(self, idx):
        with pytest.raises(ShapeError):
            ad.take_rows(ad.constant(np.ones((3, 2))), idx)

    @given(idx=st.lists(st.integers(0, 11), max_size=40), spare=st.integers(0, 3),
           cols=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @example(idx=[], spare=2, cols=3, seed=0)
    @example(idx=[4, 1, 4, 0, 1, 4], spare=0, cols=2, seed=1)
    @example(idx=[3, 0, 2], spare=1, cols=2, seed=2)
    def test_pull_matches_add_at(self, idx, spare, cols, seed):
        # random, repeated, unsorted and empty indices; spare rows take no gradient
        rows = max(idx, default=0) + 1 + spare
        g = np.random.default_rng(seed).normal(size=(len(idx), cols))
        a = ad.parameter(np.zeros((rows, cols)))
        ad.backward(ad.sum_all(ad.hadamard(ad.take_rows(a, idx), ad.constant(g))))
        expected = scatter_rows((rows, cols), idx, g)
        assert np.max(np.abs(a.grad - expected), initial=0.0) <= 1e-12
        if len(set(idx)) == len(idx):
            assert np.array_equal(a.grad, expected)

    @pytest.mark.parametrize("idx", [[4, 0, 2, 5], [4, 1, 4, 0, 1, 4, 4]],
                             ids=["unique", "repeated"])
    def test_pull_equals_the_summed_reference(self, idx):
        # the reference sums each index's rows as one np.add.reduceat segment of
        # the stable sort; with no repeat that is the plain scatter
        g = np.random.default_rng(len(idx)).normal(size=(len(idx), 3))
        order = np.argsort(idx, kind="stable")
        starts = np.flatnonzero(np.diff(np.take(idx, order), prepend=-1))
        expected = np.zeros((6, 3))
        expected[np.take(idx, order[starts])] = np.add.reduceat(g[order], starts, axis=0)
        a = ad.parameter(np.zeros((6, 3)))
        ad.backward(ad.sum_all(ad.hadamard(ad.take_rows(a, idx), ad.constant(g))))
        assert np.array_equal(a.grad, expected)
        if len(set(idx)) == len(idx):
            assert np.array_equal(a.grad, scatter_rows((6, 3), idx, g))


class TestAffine:
    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_value_and_grads_equal_add_of_matmul_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        values = [rng.normal(size=(rows, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))]
        head = ad.constant(rng.normal(size=(rows, 3)))
        results = []
        for build in (ad.affine, lambda x, w, b: ad.add(ad.matmul(x, w), b)):
            nodes = [ad.parameter(v) for v in values]
            out = build(*nodes)
            ad.backward(ad.sum_all(ad.hadamard(out, head)))
            results.append([out.value] + [n.grad for n in nodes])
        for fused, composed in zip(*results, strict=True):
            assert np.array_equal(fused, composed)

    def test_is_one_node(self):
        x, w, b = (ad.parameter(np.ones(shape)) for shape in [(2, 3), (3, 4), (1, 4)])
        out = ad.affine(x, w, b)
        assert [parent for parent, _ in out.parents] == [x, w, b]

    @pytest.mark.parametrize("shapes", [[(2, 3), (4, 4), (1, 4)], [(2, 3), (3, 4), (2, 4)],
                                        [(2, 3), (3, 4), (1, 3)]])
    def test_shapes_checked(self, shapes):
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(*(ad.constant(np.ones(shape)) for shape in shapes))


ENRICH_INDEX = [1, 1, 3, 0, 3, 1]  # row 2 of the four h rows is never read


def enrich_shapes(d=3, k=2, n=4):
    """Shapes of ``enrich_affine``'s x, h, gate, w and b over ``ENRICH_INDEX``."""
    rows = len(ENRICH_INDEX)
    return [(rows, d), (4, k), (rows, k), (d + 2 * k, n), (1, n)]


def fused_enrichment(x, h, gate, w, b):
    return ad.enrich_affine(x, h, ENRICH_INDEX, gate, w, b)


def composed_enrichment(x, h, gate, w, b):
    """The oracle: the enriched rows materialized, then one affine map."""
    h_rows = ad.take_rows(h, ENRICH_INDEX)
    return ad.affine(ad.concat_cols([x, h_rows, ad.hadamard(h_rows, gate)]), w, b)


class TestEnrichAffine:
    def test_matches_the_materialized_composition(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = [rng.normal(size=shape) for shape in enrich_shapes()]
            head = ad.constant(rng.normal(size=(len(ENRICH_INDEX), 4)))
            results = []
            for build in (fused_enrichment, composed_enrichment):
                nodes = [ad.parameter(v) for v in values]
                out = build(*nodes)
                ad.backward(ad.sum_all(ad.hadamard(out, head)))
                results.append([out.value] + [n.grad for n in nodes])
            for fused, composed in zip(*results, strict=True):
                assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed))

    def test_unread_row_of_h_gets_no_gradient(self):
        nodes = [ad.parameter(np.ones(shape)) for shape in enrich_shapes()]
        ad.backward(loss_of(fused_enrichment(*nodes)))
        h = nodes[1]
        assert np.array_equal(h.grad[2], [0.0, 0.0])
        assert np.delete(h.grad, 2, axis=0).all()

    def test_constant_rows_stay_out_of_the_graph(self):
        x, *rest = enrich_shapes()
        nodes = [ad.constant(np.ones(x))] + [ad.parameter(np.ones(s)) for s in rest]
        out = fused_enrichment(*nodes)
        assert [parent for parent, _ in out.parents] == nodes[1:]

    def test_each_backward_pulls_its_own_gradient(self):
        # the pulls share one memo; a second backward through the same node
        # must not reuse the first one's summed gradient
        values = [np.random.default_rng(3).normal(size=s) for s in enrich_shapes()]
        nodes = [ad.parameter(v) for v in values]
        out = fused_enrichment(*nodes)
        ad.backward(loss_of(out))
        first = [n.grad.copy() for n in nodes]
        ad.backward(ad.scale(loss_of(out), 3.0))
        for node, grad in zip(nodes, first):
            assert np.max(np.abs(node.grad - 4.0 * grad)) <= 1e-12 * np.max(np.abs(grad))

    @pytest.mark.parametrize("which,shape", [(0, (5, 3)), (2, (6, 3)), (3, (6, 4)), (4, (2, 4))])
    def test_shapes_checked(self, which, shape):
        shapes = enrich_shapes()
        shapes[which] = shape
        with pytest.raises(ShapeError, match="enrich_affine"):
            fused_enrichment(*(ad.constant(np.ones(s)) for s in shapes))

    @pytest.mark.parametrize("idx", [[4], [-1], [[0]]])
    def test_bad_index(self, idx):
        x, h, gate, w, b = (ad.constant(np.ones(s)) for s in enrich_shapes())
        with pytest.raises(ShapeError):
            ad.enrich_affine(x, h, idx, gate, w, b)


GRU_BATCH, GRU_IN, GRU_HIDDEN = 2, 3, 4


def gru_shapes(steps):
    """Shapes of ``projected_gru``'s x, o0 and nine weights, in argument order."""
    i, h = GRU_IN, GRU_HIDDEN
    return [(steps * GRU_BATCH, i), (GRU_BATCH, h),
            (i, h), (h, h), (i, h), (h, h), (i, h), (h, h),
            (1, h), (1, h), (1, h)]


def recurrence_shapes(steps):
    """Shapes of ``ad.gru``'s pre-activation, o0 and three recurrent weights."""
    h = GRU_HIDDEN
    return [(steps * GRU_BATCH, 3 * h), (GRU_BATCH, h), (h, h), (h, h), (h, h)]


class TestGru:
    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_matches_composed_primitives(self, steps):
        b = GRU_BATCH
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = [rng.normal(size=shape) for shape in gru_shapes(steps)]
            head = ad.constant(rng.normal(size=(steps * b, GRU_HIDDEN)))
            fused_in = [ad.parameter(v) for v in values]
            fused = projected_gru(*fused_in, sizes=[b] * steps)
            ad.backward(ad.sum_all(ad.hadamard(fused, head)))

            xs = [ad.parameter(values[0][t * b:(t + 1) * b]) for t in range(steps)]
            o0 = ad.parameter(values[1])
            weights = [ad.parameter(v) for v in values[2:]]
            composed = composed_gru(xs, o0, weights)
            ad.backward(ad.sum_all(ad.hadamard(composed, head)))

            assert np.max(np.abs(fused.value - composed.value)) <= 1e-12
            expected = [np.concatenate([x.grad for x in xs]), o0.grad]
            expected += [w.grad for w in weights]
            for node, grad in zip(fused_in, expected):
                assert np.max(np.abs(node.grad - grad)) <= 1e-12

    def test_each_backward_sweeps_its_own_gradient(self):
        rng = np.random.default_rng(4)
        values = [rng.normal(size=shape) for shape in gru_shapes(3)]
        heads = [rng.normal(size=(3 * GRU_BATCH, GRU_HIDDEN)) for _ in range(2)]

        def weight_grads(head):
            nodes = [ad.constant(values[0]), ad.constant(values[1])]
            nodes += [ad.parameter(v) for v in values[2:]]
            ad.backward(ad.sum_all(ad.hadamard(projected_gru(*nodes, sizes=[GRU_BATCH] * 3),
                                               ad.constant(head))))
            return [n.grad for n in nodes[2:]]

        # a second loss over the same gru node reaches it with head1 alone;
        # the weights, as leaves, accumulate both passes
        nodes = [ad.constant(values[0]), ad.constant(values[1])]
        nodes += [ad.parameter(v) for v in values[2:]]
        shared = projected_gru(*nodes, sizes=[GRU_BATCH] * 3)
        for head in heads:
            ad.backward(ad.sum_all(ad.hadamard(shared, ad.constant(head))))
        first, second = weight_grads(heads[0]), weight_grads(heads[1])
        for node, g0, g1 in zip(nodes[2:], first, second):
            assert np.allclose(node.grad, g0 + g1, rtol=0.0, atol=1e-12)

    def test_shared_node_with_grads_reset_by_hand(self):
        rng = np.random.default_rng(5)
        values = [rng.normal(size=shape) for shape in gru_shapes(3)]
        heads = [rng.normal(size=(3 * GRU_BATCH, GRU_HIDDEN)) for _ in range(2)]
        nodes = [ad.constant(values[0]), ad.constant(values[1])]
        nodes += [ad.parameter(v) for v in values[2:]]
        shared = projected_gru(*nodes, sizes=[GRU_BATCH] * 3)
        ad.backward(ad.sum_all(ad.hadamard(shared, ad.constant(heads[0]))))
        for node in nodes[2:]:
            node.grad.fill(0.0)
        ad.backward(ad.sum_all(ad.hadamard(shared, ad.constant(heads[1]))))

        fresh = [ad.constant(values[0]), ad.constant(values[1])]
        fresh += [ad.parameter(v) for v in values[2:]]
        ad.backward(ad.sum_all(ad.hadamard(projected_gru(*fresh, sizes=[GRU_BATCH] * 3),
                                           ad.constant(heads[1]))))
        for node, alone in zip(nodes[2:], fresh[2:]):
            assert np.allclose(node.grad, alone.grad, rtol=0.0, atol=1e-12)

    def test_pre_activation_is_not_written(self):
        values = [np.random.default_rng(6).normal(size=s) for s in recurrence_shapes(3)]
        nodes = [ad.parameter(v.copy()) for v in values]
        ad.backward(ad.sum_all(ad.gru(*nodes, [GRU_BATCH] * 3)))
        assert np.array_equal(nodes[0].value, values[0])

    def test_parents_are_the_recurrence_inputs(self):
        nodes = [ad.parameter(np.zeros(s)) for s in recurrence_shapes(2)]
        out = ad.gru(*nodes, [GRU_BATCH] * 2)
        assert [p for p, _ in out.parents] == nodes

    def test_non_finite_pre_activation_rejected(self):
        # the gates saturate to finite outputs, so only the pre-activation shows it
        values = [np.ones(shape) for shape in recurrence_shapes(1)]
        values[0][...] = 1e308
        values[2][...] = 1e308  # o0 @ W_us overflows inside the step
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="gru"):
            ad.gru(*[ad.constant(v) for v in values], [GRU_BATCH])

    def test_input_rows_must_be_steps_of_the_state(self):
        values = [np.ones(shape) for shape in recurrence_shapes(3)]
        with pytest.raises(ShapeError):
            ad.gru(*[ad.constant(v) for v in values], [GRU_BATCH] * 2)

    @pytest.mark.parametrize("which, shape", [(0, (6, 11)), (2, (4, 3)), (4, (3, 4))])
    def test_shapes_checked(self, which, shape):
        values = [np.ones(s) for s in recurrence_shapes(3)]
        values[which] = np.ones(shape)
        with pytest.raises(ShapeError):
            ad.gru(*[ad.constant(v) for v in values], [GRU_BATCH] * 3)

    @pytest.mark.parametrize("sizes", [[], [1], [2, 3], [2, 0], [[2]]])
    def test_step_sizes_checked(self, sizes):
        # the first step runs the whole batch; a step never adds rows nor runs none
        h = GRU_HIDDEN
        rows = int(np.sum(sizes))
        values = [np.ones((rows, 3 * h)), np.ones((GRU_BATCH, h))] + [np.ones((h, h))] * 3
        with pytest.raises(ShapeError, match="step sizes"):
            ad.gru(*[ad.constant(v) for v in values], sizes)

    @pytest.mark.parametrize("sizes", [(4, 3, 3, 1), (4, 4, 2), (4, 1, 1, 1, 1)])
    def test_packed_steps_match_composed_primitives(self, sizes):
        b, h = sizes[0], GRU_HIDDEN
        rows = sum(sizes)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            shapes = gru_shapes(1)
            shapes[:2] = [(rows, GRU_IN), (b, h)]
            values = [rng.normal(size=shape) for shape in shapes]
            head = rng.normal(size=(rows, h))
            (packed, packed_grads), (oracle, oracle_grads) = packed_and_oracle(values, head, sizes)
            assert np.max(np.abs(packed - oracle)) <= 1e-12
            for mine, theirs in zip(packed_grads, oracle_grads):
                assert np.max(np.abs(mine - theirs)) <= 1e-12

    @pytest.mark.parametrize("spread", [1.0, 10.0])
    def test_benchmark_scale_matches_composed_primitives(self, spread):
        # a train batch's shapes (batch and hidden 64, 16 inputs); at spread
        # 10 the pre-activations reach about 40, and many gates saturate
        sizes, i, h = (64, 64, 60, 45, 33, 20, 8), 16, 64
        rng = np.random.default_rng(11)
        shapes = [(sum(sizes), i), (sizes[0], h)] + [(i, h), (h, h)] * 3 + [(1, h)] * 3
        values = [spread * rng.normal(size=shapes[0]), rng.uniform(-1.0, 1.0, size=shapes[1])]
        values += [rng.normal(size=shape) / np.sqrt(shape[0]) for shape in shapes[2:]]
        head = rng.normal(size=(sum(sizes), h))
        (packed, packed_grads), (oracle, oracle_grads) = packed_and_oracle(values, head, sizes)
        pre = values[0] @ np.concatenate(values[2:8:2], axis=1)
        assert np.max(np.abs(pre)) > (30.0 if spread > 1.0 else 3.0)
        for mine, theirs in zip([packed, *packed_grads], [oracle, *oracle_grads]):
            assert np.max(np.abs(mine - theirs)) <= 1e-12 * np.max(np.abs(theirs))

    def test_gate_is_the_logistic_function(self):
        # the gates' 1/2 + tanh(a / 2) / 2 against the two-branch sigmoid,
        # halving the argument exactly as gru does
        x = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                            np.linspace(-40.0, 40.0, 200_001), [0.0, -0.0]])
        gate = ad._gate(0.5 * x, np.empty_like(x))
        assert not np.isnan(gate).any()
        assert np.max(np.abs(gate - ad._sigmoid(x))) <= 4.5e-16


def packed_and_oracle(values, head, sizes):
    """``projected_gru`` over steps of ``sizes`` rows and its oracle, on the
    inputs ``values`` in ``projected_gru``'s argument order, each as ``(value,
    gradient of every input)`` after one backward of ``sum(out * head)``. The
    oracle runs ``composed_gru_step`` on the first n_t states of step t; the
    other rows keep theirs."""
    b = sizes[0]
    bounds = np.cumsum((0,) + tuple(sizes))
    head = ad.constant(head)
    packed_in = [ad.parameter(v) for v in values]
    packed = projected_gru(*packed_in, sizes=sizes)
    ad.backward(ad.sum_all(ad.hadamard(packed, head)))

    oracle_in = [ad.parameter(v) for v in values]
    x, o, weights = oracle_in[0], oracle_in[1], oracle_in[2:]
    states = []
    for t, n in enumerate(sizes):
        x_t = ad.take_rows(x, np.arange(bounds[t], bounds[t + 1]))
        o_t = composed_gru_step(x_t, ad.take_rows(o, np.arange(n)), *weights)
        states.append(o_t)
        o = concat_rows([o_t, ad.take_rows(o, np.arange(n, b))])
    oracle = concat_rows(states)
    ad.backward(ad.sum_all(ad.hadamard(oracle, head)))
    return ((packed.value, [node.grad for node in packed_in]),
            (oracle.value, [node.grad for node in oracle_in]))


class TestFiniteness:
    def test_nan_leaf_rejected(self):
        with pytest.raises(NumericError):
            ad.constant([[np.nan]])

    def test_overflowing_op_rejected(self):
        a = ad.constant([[1e308]])
        b = ad.constant([[10.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="matmul"):
            ad.matmul(a, b)


def _gradcheck(build, params, n_seeds=100, tol=1e-5):
    """FD-check d(sum(build(*params)))/d(param) for every param, many seeds.

    build receives Nodes and returns a Node; params is a list of shapes.
    """
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        values = [rng.normal(scale=1.0, size=shape) for shape in params]
        nodes = [ad.parameter(v) for v in values]
        ad.backward(ad.sum_all(build(*nodes)))
        for i, v in enumerate(values):
            def f(x, i=i):
                probe = [ad.constant(values[j]) if j != i else ad.constant(x)
                         for j in range(len(values))]
                return ad.sum_all(build(*probe)).value[0, 0]

            err = max_rel_err(nodes[i].grad, central_diff(f, v))
            worst = max(worst, err)
    assert worst < tol, f"max relative error {worst}"


class TestGradientsVsFiniteDifferences:
    def test_matmul(self):
        _gradcheck(ad.matmul, [(3, 4), (4, 2)], n_seeds=100)

    def test_add(self):
        _gradcheck(ad.add, [(3, 4), (3, 4)], n_seeds=100)

    def test_affine(self):
        _gradcheck(ad.affine, [(3, 4), (4, 2), (1, 2)], n_seeds=100)

    def test_enrich_affine(self):
        _gradcheck(fused_enrichment, enrich_shapes(), n_seeds=100)

    def test_hadamard(self):
        _gradcheck(ad.hadamard, [(3, 4), (3, 4)], n_seeds=100)

    def test_bias_broadcast(self):
        _gradcheck(ad.add, [(4, 3), (1, 3)], n_seeds=100)

    @pytest.mark.parametrize("kind", ["sigmoid", "relu", "elu"])
    def test_activations(self, kind):
        _gradcheck(lambda a: ad.activation(a, kind), [(3, 4)], n_seeds=100)

    def test_concat_cols(self):
        _gradcheck(
            lambda a, b: ad.hadamard(ad.concat_cols([a, b]), ad.concat_cols([b, a])),
            [(3, 2), (3, 2)],
            n_seeds=100,
        )

    def test_scale(self):
        _gradcheck(lambda a: ad.scale(a, -2.5), [(3, 4)], n_seeds=100)

    def test_bce(self):
        rng = np.random.default_rng(11)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = rng.uniform(0.05, 0.95, size=(3, 4))
            y = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
            node = ad.parameter(p)
            ad.backward(ad.sum_all(ad.bce(node, y)))
            num = central_diff(lambda x: ad.sum_all(ad.bce(ad.constant(x), y)).value[0, 0], p)
            assert max_rel_err(node.grad, num) < 1e-5

    def test_batchnorm_train(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 3))
            g = rng.normal(size=(1, 3))
            b = rng.normal(size=(1, 3))

            def run(xv, gv, bv, as_params=False):
                mk = ad.parameter if as_params else ad.constant
                state = ad.BatchNormState(
                    gamma=mk(gv), beta=mk(bv),
                    running_mean=np.zeros(3), running_var=np.ones(3),
                )
                xn = mk(xv)
                out = ad.sum_all(ad.hadamard(node := ad.batchnorm(xn, state, "train"), node))
                return out, xn, state

            out, xn, state = run(x, g, b, as_params=True)
            ad.backward(out)
            for analytic, name, val in [
                (xn.grad, "x", x), (state.gamma.grad, "gamma", g), (state.beta.grad, "beta", b),
            ]:
                def f(v, name=name):
                    vals = {"x": x, "gamma": g, "beta": b}
                    vals[name] = v
                    return run(vals["x"], vals["gamma"], vals["beta"])[0].value[0, 0]

                assert max_rel_err(analytic, central_diff(f, val)) < 1e-5, name

    def test_batchnorm_infer(self):
        _gradcheck(
            lambda a: ad.batchnorm(
                a,
                ad.BatchNormState(
                    gamma=ad.constant(np.full((1, 3), 1.5)),
                    beta=ad.constant(np.full((1, 3), -0.5)),
                    running_mean=np.array([0.1, -0.2, 0.3]),
                    running_var=np.array([0.5, 2.0, 1.0]),
                ),
                "infer",
            ),
            [(4, 3)],
            n_seeds=100,
        )

    def test_composite_graph(self):
        def build(a, b, c):
            h = ad.activation(ad.matmul(a, b), "elu")
            return ad.hadamard(ad.sigmoid(ad.add(h, c)), h)

        _gradcheck(build, [(3, 4), (4, 2), (1, 2)], n_seeds=100)

    def test_take_rows_repeated_indices(self):
        head = np.random.default_rng(1).normal(size=(5, 3))
        _gradcheck(
            lambda a: ad.hadamard(ad.take_rows(a, [2, 0, 2, 2, 1]), ad.constant(head)),
            [(4, 3)],
            n_seeds=20,
        )

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_gru_every_input(self, steps):
        head = np.random.default_rng(steps).normal(size=(steps * GRU_BATCH, GRU_HIDDEN))
        _gradcheck(
            lambda *a: ad.hadamard(projected_gru(*a, sizes=[GRU_BATCH] * steps),
                                   ad.constant(head)),
            gru_shapes(steps),
            n_seeds=5,
        )

    def test_gru_recurrence_inputs(self):
        head = np.random.default_rng(7).normal(size=(3 * GRU_BATCH, GRU_HIDDEN))
        _gradcheck(
            lambda *a: ad.hadamard(ad.gru(*a, [GRU_BATCH] * 3), ad.constant(head)),
            recurrence_shapes(3),
            n_seeds=5,
        )
