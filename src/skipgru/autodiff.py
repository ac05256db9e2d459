"""Dense 2-D matrices with reverse-mode automatic differentiation.

Values are float64 numpy arrays of shape (rows, cols). Every operation
returns a new :class:`Node` whose ``parents`` list carries ``(node, pull)``
pairs; ``pull`` maps the output gradient to that parent's gradient
contribution. ``backward`` walks the graph once in reverse topological
order and accumulates gradients into every node that requires them. Only
parameters (leaves that require a gradient) own a ``grad`` array from the
start; every other node's ``grad`` is ``None`` until ``backward`` reaches it.

``backward`` may be given a worker thread, which forms the parameter
gradients while the walk goes on, with the same bits (see ``parallel``).

Inside ``with no_grad():`` nothing is recorded: an op's output keeps no
parents and no pulls, so it does not require a gradient, and each
intermediate array is freed at its last use instead of living as long as
the graph. The values, the shape checks and the non-finite check are those
of the recording path; only the bookkeeping stops. The switch is a
``contextvars.ContextVar``, so it holds for the current thread (or asyncio
task) only, and it is restored when the block exits, by an exception too.

Broadcasting is deliberately restricted: the second operand of ``add`` or
``hadamard`` may be a 1 x n bias row matched against an m x n left operand,
nothing else. All other mismatches raise :class:`ShapeError`.
Any op whose result contains NaN/Inf raises :class:`NumericError`.

Three ops stand for compositions of the others, as fewer nodes:
``affine(x, w, b)`` is ``add(matmul(x, w), b)`` bit for bit, with no
``x @ w`` node left in the graph; ``enrich_affine`` is an affine map of
enriched rows ``[x ; h[idx] ; h[idx] * gate]`` that never forms them and
projects each row of ``h`` once; ``gru`` is one layer's recurrence, with
tanh-form gates. The last two are not bit-identical to their compositions:
their values and gradients are within 1e-12 of the largest entry of each.
"""

from __future__ import annotations

import contextvars
from concurrent import futures
from concurrent.futures import Executor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, NumericError, ShapeError, StateError

ELU_ALPHA = 1.0
BCE_CLIP = 1e-12
# every norm layer's running-statistics rate and variance floor; a checkpoint
# stores neither, so they are constants of the code
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5

ACTIVATION_KINDS = ("sigmoid", "relu", "elu")

_recording = contextvars.ContextVar("skipgru_autodiff_recording", default=True)


def as_matrix(x) -> np.ndarray:
    """Coerce array-like input to a float64 matrix; 1-D input becomes a row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"expected at most 2-D data, got shape {a.shape}")
    return a


class Node:
    """A matrix value in the compute graph with an accumulated gradient."""

    __slots__ = ("value", "grad", "parents", "requires_grad", "_backward_done")

    def __init__(self, value, requires_grad: bool = False, parents=None, op: str = "leaf"):
        v = as_matrix(value)
        if not np.isfinite(v).all():
            raise NumericError(f"non-finite values produced by '{op}'")
        self.value = v
        self.grad = np.zeros_like(v) if requires_grad and not parents else None
        self.parents = [] if parents is None else parents
        self.requires_grad = requires_grad
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        r, c = self.shape
        return f"Node({r}x{c}, requires_grad={self.requires_grad})"


def constant(x) -> Node:
    return Node(x, requires_grad=False)


def parameter(x) -> Node:
    return Node(x, requires_grad=True)


@contextmanager
def no_grad():
    """Record no graph inside the block: ops return nodes without parents."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _result(value, pulls, op: str) -> Node:
    """Build an op output; only grad-requiring parents stay in the graph, and
    none inside ``no_grad``."""
    parents = [(p, fn) for p, fn in pulls if p.requires_grad] if _recording.get() else []
    return Node(value, requires_grad=bool(parents), parents=parents, op=op)


def matmul(a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    av, bv = a.value, b.value
    return _result(
        av @ bv,
        [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)],
        "matmul",
    )


def _bias_reducer(a: Node, b: Node, op: str):
    """The pull that maps an output gradient to b's shape: identity for equal
    shapes, a column sum when b is a 1 x n bias row stretched over a's rows."""
    if a.shape == b.shape:
        return lambda g: g
    if b.shape == (1, a.shape[1]):
        return lambda g: g.sum(axis=0, keepdims=True)
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def add(a: Node, b: Node) -> Node:
    reduce_b = _bias_reducer(a, b, "add")
    return _result(a.value + b.value, [(a, lambda g: g), (b, reduce_b)], "add")


def affine(x: Node, w: Node, b: Node) -> Node:
    """``x @ w + b`` for a 1 x n bias row ``b``, as one node: the bias is added
    into the product in place, so the value and the pulls are those of
    ``add(matmul(x, w), b)`` bit for bit."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"affine: {x.shape} x {w.shape} + {b.shape} do not fit")
    xv, wv = x.value, w.value
    out = xv @ wv
    out += b.value
    return _result(out, [
        (x, lambda g: g @ wv.T),
        (w, lambda g: xv.T @ g),
        (b, lambda g: g.sum(axis=0, keepdims=True)),
    ], "affine")


def hadamard(a: Node, b: Node) -> Node:
    reduce_b = _bias_reducer(a, b, "hadamard")
    av, bv = a.value, b.value
    return _result(av * bv, [(a, lambda g: g * bv), (b, lambda g: reduce_b(g * av))],
                   "hadamard")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that only ever exponentiates non-positive numbers:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below, ``e = exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def activation(a: Node, kind: str) -> Node:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind '{kind}'")
    x = a.value
    if kind == "sigmoid":
        y = _sigmoid(x)
        local = y * (1.0 - y)
    elif kind == "relu":
        y = np.maximum(x, 0.0)
        local = (x > 0.0).astype(np.float64)
    else:  # elu
        neg = ELU_ALPHA * np.expm1(np.minimum(x, 0.0))
        y = np.where(x >= 0.0, x, neg)
        local = np.where(x >= 0.0, 1.0, neg + ELU_ALPHA)
    return _result(y, [(a, lambda g: g * local)], kind)


def sigmoid(a: Node) -> Node:
    return activation(a, "sigmoid")


def relu(a: Node) -> Node:
    return activation(a, "relu")


def concat_cols(parts: list[Node]) -> Node:
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts[1:]:
        if p.shape[0] != rows:
            raise ShapeError(
                f"concat_cols row mismatch: {parts[0].shape} vs {p.shape}"
            )
    value = np.concatenate([p.value for p in parts], axis=1)
    pulls = []
    offset = 0
    for p in parts:
        lo, hi = offset, offset + p.shape[1]
        pulls.append((p, lambda g, lo=lo, hi=hi: g[:, lo:hi]))
        offset = hi
    return _result(value, pulls, "concat_cols")


def _row_index(idx, rows: int, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"{op} needs a 1-D index, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"{op}: row index outside [0, {rows})")
    return idx


def _row_summer(idx: np.ndarray, rows: int):
    """The map of a ``[len(idx), n]`` gradient to ``[rows, n]`` that sums the
    rows sharing an index, as one ``np.add.reduceat`` segment of the index's
    stable sort; a row no index names gets zeros. The sort is made at the
    first call, so an op that is never pulled (under ``no_grad``, say) sorts
    nothing."""
    segments = []

    def sum_rows(g):
        if not segments:
            order = np.argsort(idx, kind="stable")
            starts = np.flatnonzero(np.diff(idx[order], prepend=-1))
            segments.append((order, starts, idx[order[starts]]))
        order, starts, hit = segments[0]
        out = np.zeros((rows, g.shape[1]))
        out[hit] = np.add.reduceat(g[order], starts, axis=0)
        return out

    return sum_rows


def take_rows(a: Node, idx) -> Node:
    """Rows ``a[idx]`` in the order given; a repeated index sums its gradients."""
    idx = _row_index(idx, a.shape[0], "take_rows")
    return _result(a.value[idx], [(a, _row_summer(idx, a.shape[0]))], "take_rows")


def enrich_affine(x: Node, h: Node, idx, gate: Node, w: Node, b: Node) -> Node:
    """``[x ; h[idx] ; h[idx] * gate] @ w + b`` as one node, never forming the
    enriched rows.

    Row i of ``x`` and ``gate`` reads row ``idx[i]`` of ``h``. The three row
    blocks ``[w_x ; w_h ; w_g]`` of ``w`` multiply the three column blocks,
    and the middle one is projected once per row of ``h``, as
    ``(h @ w_h)[idx]``: its pull sums the output gradient by ``idx`` before it
    multiplies by ``w_h.T``, and a row of ``h`` no index names gets zeros. The
    sum runs in another order than one product of the enriched rows, so
    values and gradients differ from that composition in the last bits only.
    The pulls share one memo per ``backward``, as ``gru``'s do.
    """
    rows, d = x.shape
    k = h.shape[1]
    idx = _row_index(idx, h.shape[0], "enrich_affine")
    if (len(idx) != rows or gate.shape != (rows, k) or w.shape[0] != d + 2 * k
            or b.shape != (1, w.shape[1])):
        raise ShapeError(f"enrich_affine: rows {x.shape}, h {h.shape}, index "
                         f"{idx.shape}, gate {gate.shape}, weights {w.shape} and "
                         f"bias {b.shape} do not fit")
    xv, hv, gv, wv = x.value, h.value, gate.value, w.value
    w_x, w_h, w_g = wv[:d], wv[d:d + k], wv[d + k:]
    h_rows = hv[idx]
    gated = h_rows * gv
    out = xv @ w_x
    out += (hv @ w_h)[idx]
    out += gated @ w_g
    out += b.value

    sum_rows = _row_summer(idx, h.shape[0])
    memo: dict = {}

    def pulled(g):
        """``(g summed by row of h, dL/d gated)``, once per ``backward``."""
        if memo.get("g") is not g:
            memo["g"], memo["pulled"] = g, (sum_rows(g), g @ w_g.T)
        return memo["pulled"]

    def pull_h(g):
        g_h, d_gated = pulled(g)
        return g_h @ w_h.T + sum_rows(d_gated * gv)

    def pull_w(g):
        g_h = pulled(g)[0]
        return np.concatenate([xv.T @ g, hv.T @ g_h, gated.T @ g])

    return _result(out, [
        (x, lambda g: g @ w_x.T),
        (h, pull_h),
        (gate, lambda g: pulled(g)[1] * h_rows),
        (w, pull_w),
        (b, lambda g: g.sum(axis=0, keepdims=True)),
    ], "enrich_affine")


def sum_all(a: Node) -> Node:
    rows, cols = a.shape
    return _result(
        np.array([[a.value.sum()]]),
        [(a, lambda g: np.full((rows, cols), g[0, 0]))],
        "sum_all",
    )


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return _result(c * a.value, [(a, lambda g: c * g)], "scale")


def bce(p: Node, targets) -> Node:
    """Elementwise binary cross-entropy against constant 0/1 targets.

    Probabilities are clipped to [BCE_CLIP, 1 - BCE_CLIP] before the logs so
    saturated sigmoids cannot produce infinities; the gradient is zero in the
    clipped region.
    """
    y = as_matrix(targets)
    if y.shape != p.shape:
        raise ShapeError(f"bce: probabilities {p.shape} vs targets {y.shape}")
    pc = np.clip(p.value, BCE_CLIP, 1.0 - BCE_CLIP)
    value = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    inside = (p.value > BCE_CLIP) & (p.value < 1.0 - BCE_CLIP)
    local = np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0)
    return _result(value, [(p, lambda g: g * local)], "bce")


@dataclass
class BatchNormState:
    """Running statistics plus the trainable scale/shift of one norm layer.

    Train mode normalizes with the current batch's per-column mean and biased
    variance and folds them into the running statistics in place
    (``running = (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch``, the
    same products and sum), so the arrays keep their identity; infer mode
    uses the running statistics only. Both modes add ``BN_EPSILON`` to the
    variance. These four arrays are the whole layer, so a checkpoint that
    stores them reproduces it.
    """

    gamma: Node
    beta: Node
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        if (self.running_var < 0.0).any():
            raise ValueError("running_var entries must be non-negative")


def batchnorm(a: Node, state: BatchNormState, mode: str) -> Node:
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown batchnorm mode '{mode}'")
    if a.shape[1] != state.gamma.shape[1]:
        raise ShapeError(
            f"batchnorm width mismatch: input {a.shape}, state {state.gamma.shape}"
        )
    x = a.value
    m = x.shape[0]
    gval = state.gamma.value

    if mode == "train":
        if m < 2:
            raise DegenerateBatchError(
                f"batchnorm train mode needs a batch of >= 2 rows, got {m}"
            )
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (x - mu) * inv
        for running, batch in ((state.running_mean, mu), (state.running_var, var)):
            running *= 1.0 - BN_MOMENTUM
            running += BN_MOMENTUM * batch

        def pull_a(g):
            dxhat = g * gval
            return inv * (
                dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)
            )

    else:
        inv = 1.0 / np.sqrt(state.running_var + BN_EPSILON)
        xhat = (x - state.running_mean) * inv

        def pull_a(g):
            return g * gval * inv

    value = gval * xhat + state.beta.value
    pulls = [
        (a, pull_a),
        (state.gamma, lambda g: (g * xhat).sum(axis=0, keepdims=True)),
        (state.beta, lambda g: g.sum(axis=0, keepdims=True)),
    ]
    return _result(value, pulls, "batchnorm")


def _gate(half_a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic function of ``2 * half_a``, written into ``out`` as
    ``1/2 + tanh(half_a) / 2``: one ``tanh`` and one multiply-add. It is
    within 4.5e-16 of ``_sigmoid`` in absolute terms (2.2e-16, one ulp at 1,
    on a grid over [-800, 800]), but near 0 it keeps no relative precision,
    so only the GRU gates use it."""
    np.tanh(half_a, out=out)
    out *= 0.5
    out += 0.5
    return out


def gru(pre: Node, o0: Node, w_us: Node, w_rs: Node, w_s: Node, sizes) -> Node:
    """The recurrence of one GRU layer over packed steps, as a single node.

    ``sizes`` holds each step's count of active rows, ``n_0 >= n_1 >= ...``,
    with ``n_0`` the batch: step t runs on the first ``n_t`` sequences only, so
    a batch sorted by decreasing length steps each sequence through its own
    length and no further. ``pre`` is the ``[sum(n_t), 3H]`` input
    pre-activation ``[u | r | s]`` (the caller's projection of every real
    step's input, ``x_t [W_ux | W_rx | W_x] + [b_u | b_r | b_s]``), packed step
    by step: step t's block of ``n_t`` rows follows step t - 1's. ``o0`` is the
    ``[B, H]`` initial state. Returns every step's output state, packed the
    same way:

        u_t = sigmoid(pre_u_t + o_{t-1} W_us)
        r_t = sigmoid(pre_r_t + o_{t-1} W_rs)
        s_t = tanh(pre_s_t + (r_t * o_{t-1}) W_s)
        o_t = o_{t-1} + u_t * (s_t - o_{t-1})

    The gates are computed as ``1/2 + tanh(a / 2) / 2`` (``_gate``), with the
    halving folded into one copy of the gate pre-activations and of
    ``[W_us | W_rs]`` per call, which is exact. ``pre`` is copied once, in two
    contiguous column blocks, and every per-step array is a contiguous row
    block of a buffer allocated once per call, so the step loop runs only the
    recurrent products and in-place passes; ``pre.value`` is not written.
    Values and gradients are within 1e-12 of the largest entry of each from
    the same recurrence composed of ``sigmoid``, ``add``, ``matmul`` and
    ``hadamard`` nodes, not bit-identical to it. The gradient is one
    backpropagation-through-time sweep, shared by the pulls of all parents of
    one ``backward``. Non-finite pre-activations raise :class:`NumericError`,
    since the saturating gates would hide them.
    """
    batch, h = o0.shape
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes.ndim != 1 or not sizes.size or sizes[0] != batch or sizes[-1] < 1
            or (np.diff(sizes) > 0).any()):
        raise ShapeError(f"gru: step sizes {sizes.tolist()} are not a non-increasing "
                         f"run of row counts from the batch of {batch} down to >= 1")
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    if (pre.shape != (bounds[-1], 3 * h)
            or any(w.shape != (h, h) for w in (w_us, w_rs, w_s))):
        raise ShapeError(f"gru: pre-activation {pre.shape} or recurrent weights "
                         f"{[w.shape for w in (w_us, w_rs, w_s)]} do not fit "
                         f"steps of {sizes.tolist()} rows of state {o0.shape}")
    steps = list(zip(bounds[:-1], bounds[1:]))
    w_gate = np.concatenate([w_us.value, w_rs.value], axis=1)
    w_half, ws = 0.5 * w_gate, w_s.value
    # the activations, step by step: half those of the gates, and the candidate's
    a_gate, a_s = 0.5 * pre.value[:, :2 * h], pre.value[:, 2 * h:].copy()
    gates = np.empty_like(a_gate)  # [u | r]
    s = np.empty_like(a_s)
    o_prev = np.empty_like(a_s)  # each step's incoming state, for the sweep
    ro = np.empty_like(a_s)  # r * o_prev, the candidate's recurrent input
    out = np.empty_like(a_s)
    o = o0.value
    for lo, hi in steps:
        op, gt, rop, st, ot = o_prev[lo:hi], gates[lo:hi], ro[lo:hi], s[lo:hi], out[lo:hi]
        op[...] = o[:hi - lo]  # the sequences still running keep the first rows
        a = a_gate[lo:hi]
        a += np.matmul(op, w_half, out=gt)
        _gate(a, gt)
        np.multiply(gt[:, h:], op, out=rop)
        a = a_s[lo:hi]
        a += np.matmul(rop, ws, out=st)
        np.tanh(a, out=st)
        o = np.subtract(st, op, out=ot)
        o *= gt[:, :h]
        o += op
    if not (np.isfinite(a_gate).all() and np.isfinite(a_s).all()):
        raise NumericError("non-finite pre-activation in 'gru'")

    def sweep(g):
        u, r = gates[:, :h].copy(), gates[:, h:].copy()
        # local derivatives of every step at once; only the state carry loops.
        # Formed in place: with fresh temporaries the layer ran about 5% slower
        keep = 1.0 - u
        ds_local = s * s
        np.subtract(1.0, ds_local, out=ds_local)
        ds_local *= u
        du_local = s - o_prev
        du_local *= u
        du_local *= keep
        dr_local = 1.0 - r
        dr_local *= r
        dr_local *= o_prev
        d_pre = np.empty((bounds[-1], 3 * h))
        # dL/d o_t over the first n_t rows; rows no later step reached stay 0
        d_o = np.zeros((batch, h))
        d_ro, d_from_gates = np.empty((batch, h)), np.empty((batch, h))
        w_gate_t, ws_t = np.ascontiguousarray(w_gate.T), np.ascontiguousarray(ws.T)
        for lo, hi in reversed(steps):
            n = hi - lo
            dp, do, dro, dfg = d_pre[lo:hi], d_o[:n], d_ro[:n], d_from_gates[:n]
            do += g[lo:hi]
            np.multiply(do, ds_local[lo:hi], out=dp[:, 2 * h:])
            np.matmul(dp[:, 2 * h:], ws_t, out=dro)
            np.multiply(do, du_local[lo:hi], out=dp[:, :h])
            np.multiply(dro, dr_local[lo:hi], out=dp[:, h:2 * h])
            do *= keep[lo:hi]
            dro *= r[lo:hi]
            do += dro
            do += np.matmul(dp[:, :2 * h], w_gate_t, out=dfg)
        return d_pre, d_o

    memo: dict = {}

    def swept(g):
        """``(dL/d pre, dL/d o0)``, swept once per ``backward``: all pulls of a
        pass get one gradient object, never added into in place."""
        if memo.get("g") is not g:
            memo["g"], memo["swept"] = g, sweep(g)
        return memo["swept"]

    return _result(out, [
        (pre, lambda g: swept(g)[0]),
        (o0, lambda g: swept(g)[1]),
        (w_us, lambda g: o_prev.T @ swept(g)[0][:, :h]),
        (w_rs, lambda g: o_prev.T @ swept(g)[0][:, h:2 * h]),
        (w_s, lambda g: ro.T @ swept(g)[0][:, 2 * h:]),
    ], "gru")


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _pull_leaves(pulls, g) -> None:
    """Add one node's contributions ``pull(g)`` into its leaves' grads, in
    parents order: a parameter-gradient task of ``backward``."""
    for leaf, pull in pulls:
        leaf.grad += pull(g)


def _finish(tasks, steal: bool) -> None:
    """Finish the parameter-gradient tasks a worker was given, as
    ``(pulls, g, future)`` in walk order. If ``steal`` (no two tasks write
    the same leaf), run on the calling thread, newest first, each one the
    worker has not started; then wait for the rest. Raises the error of the
    first task, in walk order, that failed."""
    errors = {}  # the errors of the tasks run here
    for k in reversed(range(len(tasks) if steal else 0)):
        pulls, g, job = tasks[k]
        if job.cancel():
            try:
                _pull_leaves(pulls, g)
            except BaseException as err:
                errors[k] = err
    futures.wait([job for *_, job in tasks])
    for k, (*_, job) in enumerate(tasks):
        err = errors.get(k) if job.cancelled() else job.exception()
        if err is not None:
            raise err


def backward(loss: Node, worker: Executor | None = None) -> None:
    """Populate grads of every reachable requires_grad node with dLoss/dNode.

    Leaf grads accumulate across calls until the caller zeroes them. Every
    intermediate node's grad is reset to ``None`` first and starts at the first
    contribution it receives, so a node shared with an earlier graph passes on
    only this loss's gradient. A contribution may be a view of the child's gradient
    (``add`` passes it through, ``concat_cols`` slices it), so an intermediate
    grad is never added to in place.

    A node's pulls into leaves (parameters) form one task, queued after that
    node's other pulls, so the memos those fill (``gru``'s sweep,
    ``enrich_affine``'s summed gradient) are complete before the task reads
    them. Without a ``worker`` each task runs on the calling thread as soon
    as it is queued; with one, the tasks are shared as ``parallel`` states.
    A task builds no ``Node``.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 loss, got {loss.shape}")
    if loss._backward_done:
        raise StateError("backward already ran on this graph; rebuild it first")
    loss._backward_done = True
    order = _topo_order(loss)
    for node in order:
        if node.parents:
            node.grad = None
    loss.grad = np.ones((1, 1))
    tasks, leaves, steal = [], set(), True
    try:
        for node in reversed(order):
            g = node.grad
            leaf_pulls = []
            for parent, pull in node.parents:
                if not parent.parents:
                    leaf_pulls.append((parent, pull))
                elif parent.grad is None:
                    parent.grad = pull(g)
                else:
                    parent.grad = parent.grad + pull(g)
            if leaf_pulls and worker is None:
                _pull_leaves(leaf_pulls, g)
            elif leaf_pulls:
                ids = {id(leaf) for leaf, _ in leaf_pulls}
                steal = steal and leaves.isdisjoint(ids)
                leaves |= ids
                tasks.append((leaf_pulls, g, worker.submit(_pull_leaves, leaf_pulls, g)))
    finally:
        _finish(tasks, steal)
