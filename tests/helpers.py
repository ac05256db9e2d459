"""Shared test oracles: central finite differences, independent of the
library, a GRU composed step by step from autodiff nodes, the fused GRU
behind its input projection, the ``np.add.at`` row scatter, the session
table of a list of sessions, a session's halves as event lists, the packed
row order of a batch and each session's rows read back out of one, the
track table of a list of track rows, the
co-occurrence table as a pair dict, the GloVe slice loop as it ran before
its workspace buffers, a fresh batchnorm state, a fresh model at a seed, a
checkpoint writer for re-hashed tampered files, a thread switch every
microsecond, and a loss head whose backward raises from a chosen thread."""

import hashlib
import json
import math
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

from skipgru import autodiff as ad
from skipgru import data, glove, model


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at matrix x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric):
    """Worst-coordinate relative error with a unit floor in the denominator."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom))


def tanh(a):
    """Elementwise tanh as a graph node: the GRU candidate activation."""
    y = np.tanh(a.value)
    local = 1.0 - y * y
    return ad._result(y, [(a, lambda g: g * local)], "tanh")


def concat_rows(parts):
    """Row concatenation as a graph node; each part's pull is its row block."""
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])
    pulls = [(p, lambda g, lo=lo, hi=hi: g[lo:hi])
             for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])]
    return ad._result(np.concatenate([p.value for p in parts], axis=0), pulls, "concat_rows")


def composed_gru_step(x, o_prev, w_ux, w_us, w_rx, w_rs, w_x, w_s, b_u, b_r, b_s):
    """One GRU step built node by node from primitives: the fused ``ad.gru`` oracle."""
    u = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_ux), b_u), ad.matmul(o_prev, w_us)))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_rx), b_r), ad.matmul(o_prev, w_rs)))
    s = tanh(ad.add(ad.add(ad.matmul(x, w_x), b_s), ad.matmul(ad.hadamard(r, o_prev), w_s)))
    keep = ad.add(ad.constant(np.ones(u.shape)), ad.scale(u, -1.0))  # 1 - u
    return ad.add(ad.hadamard(keep, o_prev), ad.hadamard(u, s))


def composed_gru(xs, o0, weights):
    """Every step's state from the primitive-composed oracle, position-major."""
    states = []
    o = o0
    for x in xs:
        o = composed_gru_step(x, o, *weights)
        states.append(o)
    return concat_rows(states)


def projected_gru(x, o0, w_ux, w_us, w_rx, w_rs, w_x, w_s, b_u, b_r, b_s, sizes):
    """A whole GRU layer over ``x``, packed in steps of ``sizes`` rows, with
    ``composed_gru_step``'s arguments: the input projection
    ``x [W_ux | W_rx | W_x] + [b_u | b_r | b_s]`` as ordinary nodes, then the
    ``ad.gru`` recurrence."""
    pre = ad.add(ad.matmul(x, ad.concat_cols([w_ux, w_rx, w_x])),
                 ad.concat_cols([b_u, b_r, b_s]))
    return ad.gru(pre, o0, w_us, w_rs, w_s, sizes)


def enrich_reference(x_i, x_half, params):
    """The enriched rows ``[x_i ; x_half ; x_half * relu(proj(x_i))]``, formed
    as one concat of ordinary nodes: what ``model.head``'s fused first layer
    multiplies by ``head.w1`` without forming it."""
    gate = ad.relu(ad.affine(x_i, params.proj_w, params.proj_b))
    return ad.concat_cols([x_i, x_half, ad.hadamard(x_half, gate)])


def head_reference(x_i, x_half, session, params, mode):
    """``model.head`` unfused: each session's summary gathered per row, the
    enrichment materialized, then one ``ad.affine`` per layer."""
    enriched = enrich_reference(x_i, ad.take_rows(x_half, session), params)
    act = params.variant.activation
    a1 = ad.affine(enriched, params.head_w1, params.head_b1)
    if params.bn1 is not None:
        a1 = ad.batchnorm(a1, params.bn1, mode)
    a2 = ad.affine(ad.activation(a1, act), params.head_w2, params.head_b2)
    if params.bn2 is not None:
        a2 = ad.batchnorm(a2, params.bn2, mode)
    return ad.sigmoid(ad.affine(ad.activation(a2, act), params.head_w3, params.head_b3))


def batchnorm_state(width):
    """A norm layer of ``width`` columns at its initial scale 1, shift 0 and
    running statistics, with its own parameter nodes."""
    return ad.BatchNormState(ad.parameter(np.ones((1, width))), ad.parameter(np.zeros((1, width))),
                             np.zeros(width), np.ones(width))


def fresh_params(variant, dims, seed=0):
    """A fresh model at ``seed``: the store ``model.ModelParams`` allocates,
    then the glorot draw that ``training.train`` starts from."""
    params = model.ModelParams(variant, dims)
    params.initialize(seed)
    return params


def scatter_rows(shape, idx, g):
    """``np.add.at`` of ``g``'s rows into zeros of ``shape`` at ``idx``: the
    ``take_rows`` pull oracle."""
    out = np.zeros(shape)
    np.add.at(out, np.asarray(idx, dtype=np.int64), g)
    return out


def session_table(sessions):
    """The ``SessionTable`` of ``sessions``, in list order and unchecked.

    Each session is a ``data.Session``: a table's view or one built by hand,
    whose events may break the loader's rules (a short session, a gap in the
    positions, an interaction left out as None). The tests build every
    table that does not come from a file or ``gen_synthetic`` through here.
    """
    events = [ev for session in sessions for ev in session.events]
    observed = np.array([ev.interaction is not None for ev in events], dtype=bool)
    unobserved = data.InteractionRecord(False, False, False, False, 0, 0, 0, "")
    records = [ev.interaction or unobserved for ev in events]
    return data.SessionTable._build(
        [session.session_id for session in sessions],
        np.array([len(session.events) for session in sessions], dtype=np.int64),
        data._codes([ev.track_id for ev in events]),
        data._codes([record.context_type for record in records]),
        np.array([ev.position for ev in events], dtype=np.int64),
        np.array([[getattr(r, name) for name in data.TASK_NAMES] for r in records],
                 dtype=bool).reshape(-1, len(data.TASK_NAMES)),
        np.array([[getattr(r, name) for name in data.COUNT_COLUMNS] for r in records],
                 dtype=np.int64).reshape(-1, len(data.COUNT_COLUMNS)),
        observed)


def track_table(rows):
    """The ``TrackTable`` of ``(track_id, duration, release_year, acoustic)``
    rows, given in any order."""
    rows = list(rows)
    return data.TrackTable.from_rows(rows, len(rows[0][3]) if rows else 0)


def split_halves(session):
    """A hand-built session's observed first half and prediction half, as event lists."""
    cut = data.first_half_length(len(session.events))
    return session.events[:cut], session.events[cut:]


def one_batch(sessions, pipeline, tracks):
    """Every session of a table or list, encoded by ``pipeline`` and gathered
    as one batch."""
    if not isinstance(sessions, data.SessionTable):
        sessions = session_table(sessions)
    return pipeline.encode(sessions, tracks).batch(range(len(sessions)))


def packed_order(first_lengths):
    """``(session, step)`` of every packed first-half row: step after step,
    and within a step the sessions still running, sorted stably by decreasing
    first-half length."""
    ranked = sorted(range(len(first_lengths)), key=lambda k: -first_lengths[k])
    return [(k, t) for t in range(max(first_lengths)) for k in ranked if t < first_lengths[k]]


def unpack(batch):
    """Per session of a packed batch, in batch order: its first-half rows in
    step order, its second-half rows and their targets. A session's last row
    gives its length (the step it lies in) and its rank within each step."""
    bounds = np.concatenate([[0], np.cumsum(batch.sizes)])
    sessions = []
    for k, last in enumerate(batch.last.tolist()):
        length = int(np.searchsorted(bounds, last, side="right"))
        own = batch.session == k
        sessions.append((batch.first[bounds[:length] + last - bounds[length - 1]],
                         batch.second[own], batch.targets[own]))
    return sessions


def loop_cooccurrence_pairs(sessions, window):
    """Per-pair loop over each session: the ``glove.build_cooccurrence`` oracle."""
    track_ids = sorted({ev.track_id for s in sessions for ev in s.events})
    index = {tid: k for k, tid in enumerate(track_ids)}
    pairs = {}
    for session in sessions:
        seq = [index[ev.track_id] for ev in session.events]
        for a in range(len(seq)):
            for b in range(a + 1, min(a + window, len(seq) - 1) + 1):
                if seq[a] != seq[b]:
                    key = (min(seq[a], seq[b]), max(seq[a], seq[b]))
                    pairs[key] = pairs.get(key, 0.0) + 1.0 / (b - a)
    return track_ids, pairs


def pair_dict(table):
    """A co-occurrence table's arrays as ``{(i, j): weight}`` in Python numbers,
    the form ``loop_cooccurrence_pairs`` returns."""
    return dict(zip(map(tuple, table.pairs.tolist()), table.values.tolist()))


def loop_directed_entries(pairs):
    """Sorted-dict loop emitting (a, b) then (b, a): the ``directed_entries`` oracle."""
    n = len(pairs)
    i = np.empty(2 * n, dtype=np.int64)
    j = np.empty(2 * n, dtype=np.int64)
    x = np.empty(2 * n)
    for k, ((a, b), w) in enumerate(sorted(pairs.items())):
        i[2 * k], j[2 * k], x[2 * k] = a, b, w
        i[2 * k + 1], j[2 * k + 1], x[2 * k + 1] = b, a, w
    return i, j, x


def scatter_adagrad_step(param, cache, rows, grad, lr):
    """Entry-by-entry ``np.add.at`` AdaGrad step, the cache filled over the whole
    slice before any row moves: the ``glove`` row-step oracle."""
    np.add.at(cache, rows, grad * grad)
    np.add.at(param, rows, -lr * grad / np.sqrt(cache[rows]))


def batch_gradients(main, context, main_bias, context_bias, i, j, logx, f):
    """Per-entry loss and gradients of f * (w_i . w~_j + b_i + b~_j - logx)^2,
    each gathered and formed in fresh arrays."""
    wi = main[i]
    wj = context[j]
    diff = (wi * wj).sum(axis=1) + main_bias[i] + context_bias[j] - logx
    loss = f * diff * diff
    g = 2.0 * f * diff
    return loss, g[:, None] * wj, g[:, None] * wi, g, g


def adagrad_rows(param, cache, rows, grad, lr):
    """One AdaGrad step per touched row, each side's ``np.unique`` and flat
    ``slot * d + col`` index built afresh for every parameter."""
    touched, slot = np.unique(rows, return_inverse=True)
    shape = (len(touched),) + param.shape[1:]
    if grad.ndim == 2:
        slot = (slot[:, None] * grad.shape[1] + np.arange(grad.shape[1])).ravel()
        grad = grad.ravel()
    total = np.bincount(slot, weights=grad).reshape(shape)
    cache[touched] += np.bincount(slot, weights=grad * grad).reshape(shape)
    param[touched] -= lr * total / np.sqrt(cache[touched])


def reference_train_glove(table, dims, epochs, lr=glove.GloveConfig.lr, seed=0,
                          x_max=glove.GloveConfig.x_max, alpha=glove.GloveConfig.alpha):
    """The slice loop with fresh slice x dims temporaries: the bit-identity
    oracle of ``glove.train_glove``."""
    v = table.n_tracks
    rng = np.random.default_rng(seed)
    span = 0.5 / dims
    emb = glove.EmbeddingTable(
        track_ids=list(table.track_ids),
        main=rng.uniform(-span, span, size=(v, dims)),
        context=rng.uniform(-span, span, size=(v, dims)),
        main_bias=rng.uniform(-span, span, size=v),
        context_bias=rng.uniform(-span, span, size=v),
    )
    caches = [np.ones((v, dims)), np.ones((v, dims)), np.ones(v), np.ones(v)]
    i_all, j_all, x_all = table.directed_entries()
    logx_all = np.log(x_all)
    f_all = glove.glove_weights(x_all, x_max, alpha)
    for _ in range(epochs):
        order = rng.permutation(len(i_all))
        epoch_loss = 0.0
        for lo in range(0, len(order), glove.ENTRY_BATCH):
            sel = order[lo:lo + glove.ENTRY_BATCH]
            i, j = i_all[sel], j_all[sel]
            loss, *grads = batch_gradients(emb.main, emb.context, emb.main_bias,
                                           emb.context_bias, i, j, logx_all[sel], f_all[sel])
            epoch_loss += float(loss.sum())
            params = [emb.main, emb.context, emb.main_bias, emb.context_bias]
            for param, cache, rows, grad in zip(params, caches, [i, j, i, j], grads):
                adagrad_rows(param, cache, rows, grad, lr)
        emb.epoch_losses.append(epoch_loss)
    return emb


def _canonical_sha256(payload, tail):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8") + tail).hexdigest()


def rewrite_checkpoint(src, dst, tamper, arrays=None):
    """Copy a version-2 checkpoint, applying ``tamper`` to its header envelope
    and ``arrays``, if given, to its arrays, then re-hash, so only the schema
    and value checks can catch the change. ``arrays`` gets every array of the
    file by name (the parameters, then ``pipeline.embeddings``) as a writable
    view of a copy of the array bytes."""
    header, _, body = src.read_bytes().partition(b"\n")
    envelope = json.loads(header)
    tamper(envelope)
    if arrays is not None:
        payload = envelope["payload"]
        shapes = [(name, payload["params"][name]["shape"]) for name in sorted(payload["params"])]
        shapes.append(("pipeline.embeddings", payload["pipeline"]["embeddings"]["shape"]))
        values = np.frombuffer(body, dtype="<f8").copy()
        bounds = np.cumsum([0, *(math.prod(shape) for _, shape in shapes)])
        arrays({name: values[lo:hi].reshape(shape)
                for (name, shape), lo, hi in zip(shapes, bounds[:-1], bounds[1:])})
        body = values.tobytes()
    envelope["sha256"] = _canonical_sha256(envelope["payload"], body)
    dst.write_bytes(json.dumps(envelope).encode("utf-8") + b"\n" + body)


@contextmanager
def switching_every_microsecond():
    """Let the interpreter switch threads every microsecond inside the block,
    so an update lost or crossed between two threads would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def failing_head(loss, err, where):
    """Two nodes over the 1x1 ``loss`` whose backward raises ``err``, and the
    list of the threads that raised it.

    The top node's pull into a fresh parameter is a parameter-gradient task;
    the pull of the node below it, on the calling thread, waits until that
    task has started, so with a worker the task runs there. With ``where``
    ``"task"`` the task raises; with ``"walk"`` the pull below raises, and
    the task, which sleeps first, sets ``finished`` only as it ends.
    """
    started, finished, raised = threading.Event(), threading.Event(), []

    def task(g):
        started.set()
        if where == "task":
            raised.append(threading.get_ident())
            raise err
        time.sleep(0.05)
        finished.set()
        return g

    def below(g):
        if where == "walk":
            raised.append(threading.get_ident())
            raise err
        assert started.wait(timeout=10)
        return g

    mid = ad.Node(loss.value, requires_grad=True, parents=[(loss, below)])
    top = ad.Node(loss.value, requires_grad=True,
                  parents=[(mid, lambda g: g), (ad.parameter([[0.0]]), task)])
    return top, raised, finished
