"""Skip-prediction network: two stacked GRUs encode the observed first half
into ``x_half``; each second-half track vector ``x_i`` is enriched as
``[x_i ; x_half ; x_half * relu(proj(x_i))]``; a two-layer MLP with four
sigmoid outputs predicts skip plus three auxiliary interaction flags per
position. Training minimizes task-weighted binary cross-entropy, averaged
over the real second-half positions.

The gates of a GRU step read the previous output state:

    u_t = sigmoid(W_u^x x_t + W_u^s o_{t-1} + b_u)
    r_t = sigmoid(W_r^x x_t + W_r^s o_{t-1} + b_r)
    s_t = tanh(W^x x_t + W^s (r_t * o_{t-1}) + b_s)
    o_t = (1 - u_t) * o_{t-1} + u_t * s_t

A batch holds real rows only (``features.EncodedSessions.batch`` gathers
them), packed as packed-sequence RNNs read them: ``first`` is step-major
over the sessions sorted stably by decreasing first-half length, so the
sessions still running at step t are the first ``sizes[t]``. Each GRU layer
projects all of its input rows at once by its stored input block
``[W_ux | W_rx | W_x]`` and bias block ``[b_u | b_r | b_s]`` (one
``ad.affine``); one ``ad.gru`` node then runs the recurrent products of step
t on its ``sizes[t]`` rows, with a hand-written BPTT sweep. Layer 1's input
is the constant numeric triplet columns beside a trainable embedding row
gathered for the context_type index; each is projected by its own row view
of the input block, so no gradient is formed for the constant. Layer 2
projects layer 1's output rows. ``x_half`` is each layer's state at the session's own last step
(``last``), in batch order. The head then enriches and classifies the
second-half rows (``second``, session-major), so train-mode batch
normalization and the loss see real positions only. Every affine map is one
``ad.affine`` node. The enrichment is never formed: one ``ad.enrich_affine``
node multiplies its three blocks by the matching row blocks of ``head.w1``,
projecting ``x_half`` once per session rather than once per second-half
row, and forms no gradient for the constant ``x_i`` block.

Inference is the same ``forward_batch`` in infer mode, run by
``predict_encoded`` under ``ad.no_grad()``: no graph is recorded, so a
batch's intermediate arrays do not outlive their last use. A prediction is
one flat array over the second-half events in table order, the axis that
``metrics`` averages, thresholds and scores; ``predict_probs`` cuts it into
per-session views keyed by session id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import SessionTable, TrackTable, second_half_length
from .errors import ConfigError, DegenerateBatchError, ShapeError
from .features import Batch, EncodedSessions, FeaturePipeline

CTX_EMBED_WIDTH = 8
TASK_WEIGHTS = (1.0, 0.2, 0.2, 0.2)
ACTIVATION_VARIANTS = ("relu", "elu")
PREDICT_BATCH_SIZE = 256


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    span = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-span, span, size=(rows, cols))


@dataclass
class VariantConfig:
    """One axis point of the model family: activation, width, normalization."""

    activation: str = "relu"
    hidden_size: int = 96
    use_batchnorm: bool = False

    def __post_init__(self):
        if self.activation not in ACTIVATION_VARIANTS:
            raise ConfigError(f"activation must be one of {ACTIVATION_VARIANTS}, "
                              f"got {self.activation!r}")
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be positive, got {self.hidden_size}")


@dataclass
class ModelDims:
    """Input-facing dimensions the parameter shapes are derived from."""

    d_trip: int
    d_doub: int
    ctx_col: int
    ctx_vocab: int
    ctx_width: int = CTX_EMBED_WIDTH

    @property
    def gru_input(self) -> int:
        return self.d_trip - 1 + self.ctx_width

    @classmethod
    def from_pipeline(cls, pipeline: FeaturePipeline) -> "ModelDims":
        return cls(
            d_trip=pipeline.d_trip,
            d_doub=pipeline.d_doub,
            ctx_col=pipeline.triplet_ctx_col,
            ctx_vocab=pipeline.context_vocab_size,
        )


@dataclass
class GruParams:
    """One GRU layer's parameter nodes. ``w_in`` holds the input weights
    ``[W_ux | W_rx | W_x]`` as row blocks, one per block of input columns the
    layer projects; ``b`` is the biases ``[b_u | b_r | b_s]``."""

    w_in: tuple[ad.Node, ...]
    b: ad.Node
    w_us: ad.Node
    w_rs: ad.Node
    w_s: ad.Node


# checkpoint names of the column thirds of each GRU layer's two stored blocks
_GRU_COLUMNS = {f"{layer}.{block}": [f"{layer}.{part}" for part in parts]
                for layer in ("gru1", "gru2") for block, parts
                in (("w_in", ("w_ux", "w_rx", "w_x")), ("b", ("b_u", "b_r", "b_s")))}


def _stored_shapes(variant: VariantConfig, dims: ModelDims) -> dict[str, tuple[int, int]]:
    """Every stored block's shape, by block name, in storage order."""
    h, h2 = variant.hidden_size, 2 * variant.hidden_size
    shapes = {}
    for layer, width in (("gru1", dims.gru_input), ("gru2", h)):
        shapes.update({f"{layer}.w_in": (width, 3 * h), f"{layer}.b": (1, 3 * h),
                       f"{layer}.w_us": (h, h), f"{layer}.w_rs": (h, h), f"{layer}.w_s": (h, h)})
    shapes.update({
        "proj.w": (dims.d_doub, h2), "proj.b": (1, h2),
        "head.w1": (dims.d_doub + 4 * h, h2), "head.b1": (1, h2),
        "head.w2": (h2, h2), "head.b2": (1, h2),
        "head.w3": (h2, len(TASK_WEIGHTS)), "head.b3": (1, len(TASK_WEIGHTS)),
        "ctx_embedding": (dims.ctx_vocab, dims.ctx_width),
    })
    if variant.use_batchnorm:
        shapes.update({f"{bn}.{p}": (1, h2) for bn in ("bn1", "bn2") for p in ("gamma", "beta")})
    return shapes


def array_shapes(variant: VariantConfig, dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """The shape of every array ``ModelParams.arrays`` returns, by name and in
    name order, derived without allocating anything: the shape table a
    checkpoint of this variant and these dimensions must carry."""
    shapes = {}
    for name, (rows, cols) in _stored_shapes(variant, dims).items():
        parts = _GRU_COLUMNS.get(name, [name])
        shapes.update({part: (rows, cols // len(parts)) for part in parts})
    if variant.use_batchnorm:
        shapes.update({f"{bn}.running_{stat}": (2 * variant.hidden_size,)
                       for bn in ("bn1", "bn2") for stat in ("mean", "var")})
    return dict(sorted(shapes.items()))


class ModelParams:
    """All trainable weights plus the frozen architecture configuration.

    Every weight is a view of one float64 vector ``values`` and its gradient
    the same view of ``grads``, so an optimizer step, a gradient norm or a
    zeroing is one operation on the whole vector. Each GRU layer stores its
    input weights as one ``[I, 3H]`` block and its biases as one ``[1, 3H]``
    block; layer 1's block is two row-view nodes, its numeric rows and its
    context rows. ``views`` maps each checkpoint name to its view, so
    ``gru1.w_ux`` is a column third of ``gru1``'s input block.

    The constructor only allocates: every weight starts at zero and the
    running statistics at mean 0, variance 1. ``initialize`` draws the
    starting weights of a training run; a loaded checkpoint writes its
    arrays through ``arrays`` instead.
    """

    def __init__(self, variant: VariantConfig, dims: ModelDims):
        self.variant = variant
        self.dims = dims
        h2, n_num = 2 * variant.hidden_size, dims.d_trip - 1
        self._shapes = _stored_shapes(variant, dims)
        size = sum(rows * cols for rows, cols in self._shapes.values())
        self.values, self.grads = np.zeros(size), np.zeros(size)
        values, grads = self._blocks(self.values), self._blocks(self.grads)

        def node(name, rows=slice(None)):
            param = ad.parameter(values[name][rows])
            param.grad = grads[name][rows]
            return param

        def gru(layer, w_in):
            return GruParams(w_in, node(f"{layer}.b"), node(f"{layer}.w_us"),
                             node(f"{layer}.w_rs"), node(f"{layer}.w_s"))

        self.gru1 = gru("gru1", (node("gru1.w_in", slice(n_num)),
                                 node("gru1.w_in", slice(n_num, None))))
        self.gru2 = gru("gru2", (node("gru2.w_in"),))
        self.proj_w, self.proj_b = node("proj.w"), node("proj.b")
        self.head_w1, self.head_b1 = node("head.w1"), node("head.b1")
        self.head_w2, self.head_b2 = node("head.w2"), node("head.b2")
        self.head_w3, self.head_b3 = node("head.w3"), node("head.b3")
        self.ctx_embedding = node("ctx_embedding")
        self.bn1 = self.bn2 = None
        if variant.use_batchnorm:
            self.bn1, self.bn2 = (ad.BatchNormState(node(f"{bn}.gamma"), node(f"{bn}.beta"),
                                                    np.zeros(h2), np.ones(h2))
                                  for bn in ("bn1", "bn2"))

    def initialize(self, seed: int) -> None:
        """The starting point of a training run: glorot weights drawn from
        ``seed`` in a fixed name order, and every norm scale set to 1."""
        rng = np.random.default_rng(seed)
        init = self.views(self.values)
        for name in (*(f"{layer}.{w}" for layer in ("gru1", "gru2")
                       for w in ("w_ux", "w_us", "w_rx", "w_rs", "w_x", "w_s")),
                     "proj.w", "head.w1", "head.w2", "head.w3", "ctx_embedding"):
            init[name][...] = glorot(rng, *init[name].shape)
        for name in (name for name in init if name.endswith(".gamma")):
            init[name][...] = 1.0

    def _blocks(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The stored blocks of a parameter-sized flat vector, by block name."""
        bounds = np.cumsum([0, *(rows * cols for rows, cols in self._shapes.values())])
        return {name: flat[lo:hi].reshape(shape) for (name, shape), lo, hi
                in zip(self._shapes.items(), bounds[:-1], bounds[1:])}

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each checkpoint name's view of a parameter-sized flat vector:
        ``values``, ``grads`` or an optimizer moment."""
        views = {}
        for name, block in self._blocks(flat).items():
            parts = _GRU_COLUMNS.get(name, [name])
            views.update(zip(parts, np.split(block, len(parts), axis=1)))
        return views

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array a checkpoint stores, live and in name order: the views
        of ``values`` and the batch-norm running statistics. Writing into one
        writes the model."""
        arrays = self.views(self.values)
        for prefix, bn in (("bn1", self.bn1), ("bn2", self.bn2)):
            if bn is not None:
                arrays.update({f"{prefix}.running_mean": bn.running_mean,
                               f"{prefix}.running_var": bn.running_var})
        return dict(sorted(arrays.items()))


def encode_first_half(batch: Batch, params: ModelParams) -> ad.Node:
    """Run both GRU layers over the batch's packed first-half rows; concat the
    two states at each session's last step, ``[batch, 2H]`` in batch order."""
    dims = params.dims
    first = batch.first
    if first.ndim != 2 or first.shape[1] != dims.d_trip:
        raise ShapeError(f"first-half rows must be [rows, d_trip = {dims.d_trip}], "
                         f"got {first.shape}")
    ctx = ad.take_rows(params.ctx_embedding, first[:, dims.ctx_col].astype(np.int64))
    g1, g2 = params.gru1, params.gru2
    w_num, w_ctx = g1.w_in
    pre1 = ad.add(ad.affine(ad.constant(np.delete(first, dims.ctx_col, axis=1)), w_num, g1.b),
                  ad.matmul(ctx, w_ctx))
    o0 = ad.constant(np.zeros((len(batch.last), params.variant.hidden_size)))
    o1 = ad.gru(pre1, o0, g1.w_us, g1.w_rs, g1.w_s, batch.sizes)
    o2 = ad.gru(ad.affine(o1, *g2.w_in, g2.b), o0, g2.w_us, g2.w_rs, g2.w_s, batch.sizes)
    return ad.concat_cols([ad.take_rows(o1, batch.last), ad.take_rows(o2, batch.last)])


def head(x_i: ad.Node, x_half: ad.Node, session, params: ModelParams, mode: str) -> ad.Node:
    """Probabilities ``[rows, 4]`` of the second-half rows ``x_i``, row i
    enriched by its session's summary ``x_half[session[i]]``.

    The enrichment ``[x_i ; x_half ; x_half * relu(proj(x_i))]`` and the first
    layer's affine map are one ``ad.enrich_affine`` node."""
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if x_i.shape[1] != params.dims.d_doub:
        raise ShapeError(f"head: doublet width {x_i.shape[1]} "
                         f"!= d_doub {params.dims.d_doub}")
    act = params.variant.activation
    gate = ad.relu(ad.affine(x_i, params.proj_w, params.proj_b))
    a1 = ad.enrich_affine(x_i, x_half, session, gate, params.head_w1, params.head_b1)
    if params.bn1 is not None:
        a1 = ad.batchnorm(a1, params.bn1, mode)
    h1 = ad.activation(a1, act)
    a2 = ad.affine(h1, params.head_w2, params.head_b2)
    if params.bn2 is not None:
        a2 = ad.batchnorm(a2, params.bn2, mode)
    h2 = ad.activation(a2, act)
    return ad.sigmoid(ad.affine(h2, params.head_w3, params.head_b3))


def forward_batch(batch: Batch, params: ModelParams, mode: str) -> ad.Node:
    """Probabilities ``[second-half rows, 4]`` in the row order of ``batch.second``."""
    return head(ad.constant(batch.second), encode_first_half(batch, params), batch.session,
                params, mode)


def loss(probs: ad.Node, targets: np.ndarray) -> ad.Node:
    """Mean over rows of the task-weighted BCE sum; every row is a real position."""
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"loss: probs {probs.shape} and targets {targets.shape} misaligned")
    if probs.shape[0] == 0:
        raise DegenerateBatchError("loss over a batch with no real positions")
    weights = ad.constant(np.asarray(TASK_WEIGHTS, dtype=np.float64))
    per_entry = ad.bce(probs, targets)
    return ad.scale(ad.sum_all(ad.hadamard(per_entry, weights)), 1.0 / probs.shape[0])


def predict_probs(sessions: SessionTable, pipeline: FeaturePipeline, tracks: TrackTable,
                  params: ModelParams) -> dict[str, np.ndarray]:
    """Each session's skip probabilities of its second-half positions, by
    session id: ``predict_encoded``'s flat array cut into views, no copies."""
    if not sessions:
        return {}
    probs = predict_encoded(pipeline.encode(sessions, tracks), params)
    cuts = np.cumsum(second_half_length(sessions.lengths))[:-1]
    return dict(zip(sessions.session_ids, np.split(probs, cuts)))


def predict_encoded(encoded: EncodedSessions, params: ModelParams) -> np.ndarray:
    """Skip probabilities of every second-half event of ``encoded``: one flat
    array in table order, ``second_half_length(lengths)`` per session, which
    batches of PREDICT_BATCH_SIZE sessions fill in turn. A batch runs the
    training ``forward_batch`` under ``ad.no_grad()``, so no graph is kept and
    each intermediate array is freed at its last use. Every inference caller
    (validation in ``training.train``, ``predict_probs``,
    ``metrics.ensemble_predict``) comes through here."""
    n = len(encoded.offsets) - 1
    out = np.empty(int(second_half_length(np.diff(encoded.offsets)).sum()))
    filled = 0
    with ad.no_grad():
        for lo in range(0, n, PREDICT_BATCH_SIZE):
            batch = encoded.batch(np.arange(lo, min(lo + PREDICT_BATCH_SIZE, n)))
            skip = forward_batch(batch, params, "infer").value[:, 0]
            out[filled:filled + len(skip)] = skip
            filled += len(skip)
    return out
