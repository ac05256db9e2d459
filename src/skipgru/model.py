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
projects all of its input rows at once with ordinary ops
(``x [W_ux | W_rx | W_x] + [b_u | b_r | b_s]``); one ``ad.gru`` node then
runs the recurrent products of step t on its ``sizes[t]`` rows, with a
hand-written BPTT sweep. Layer 1's input is the constant numeric triplet
columns beside a trainable embedding row gathered for the context_type
index; each block is projected by its own row block of the input weights, so
no gradient is formed for the constant. Layer 2 projects layer 1's output
rows. ``x_half`` is each layer's state at the session's own last step
(``last``), in batch order. The head then enriches and classifies the
second-half rows (``second``, session-major), so train-mode batch
normalization and the loss see real positions only. Every affine map is one
``ad.affine`` node. The enrichment is never formed: one ``ad.enrich_affine``
node multiplies its three blocks by the matching row blocks of ``head.w1``,
projecting ``x_half`` once per session rather than once per second-half
row, and forms no gradient for the constant ``x_i`` block.

Inference is the same ``forward_batch`` in infer mode, run by
``predict_encoded`` under ``ad.no_grad()``: no graph is recorded, so a
batch's intermediate arrays do not outlive their last use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import SessionTable, TrackRecord
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

    def to_dict(self) -> dict:
        return {"activation": self.activation, "hidden_size": self.hidden_size,
                "use_batchnorm": self.use_batchnorm}

    @classmethod
    def from_dict(cls, d: dict) -> "VariantConfig":
        return cls(**d)


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

    def to_dict(self) -> dict:
        return {"d_trip": self.d_trip, "d_doub": self.d_doub, "ctx_col": self.ctx_col,
                "ctx_vocab": self.ctx_vocab, "ctx_width": self.ctx_width}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelDims":
        return cls(**d)


@dataclass
class GruParams:
    w_ux: ad.Node
    w_us: ad.Node
    w_rx: ad.Node
    w_rs: ad.Node
    w_x: ad.Node
    w_s: ad.Node
    b_u: ad.Node
    b_r: ad.Node
    b_s: ad.Node

    @classmethod
    def create(cls, rng: np.random.Generator, input_dim: int, hidden: int) -> "GruParams":
        return cls(
            w_ux=ad.parameter(glorot(rng, input_dim, hidden)),
            w_us=ad.parameter(glorot(rng, hidden, hidden)),
            w_rx=ad.parameter(glorot(rng, input_dim, hidden)),
            w_rs=ad.parameter(glorot(rng, hidden, hidden)),
            w_x=ad.parameter(glorot(rng, input_dim, hidden)),
            w_s=ad.parameter(glorot(rng, hidden, hidden)),
            b_u=ad.parameter(np.zeros((1, hidden))),
            b_r=ad.parameter(np.zeros((1, hidden))),
            b_s=ad.parameter(np.zeros((1, hidden))),
        )

    def input_projection(self) -> tuple[ad.Node, ad.Node]:
        """The input weights ``[W_ux | W_rx | W_x]`` and biases ``[b_u | b_r | b_s]``
        whose affine map of a layer's input is ``ad.gru``'s pre-activation."""
        return (ad.concat_cols([self.w_ux, self.w_rx, self.w_x]),
                ad.concat_cols([self.b_u, self.b_r, self.b_s]))

    def named(self, prefix: str) -> dict[str, ad.Node]:
        return {f"{prefix}.{name}": node for name, node in vars(self).items()}


class ModelParams:
    """All trainable weights plus the frozen architecture configuration."""

    def __init__(self, variant: VariantConfig, dims: ModelDims, seed: int = 0):
        self.variant = variant
        self.dims = dims
        rng = np.random.default_rng(seed)
        h = variant.hidden_size
        self.gru1 = GruParams.create(rng, dims.gru_input, h)
        self.gru2 = GruParams.create(rng, h, h)
        self.proj_w = ad.parameter(glorot(rng, dims.d_doub, 2 * h))
        self.proj_b = ad.parameter(np.zeros((1, 2 * h)))
        self.head_w1 = ad.parameter(glorot(rng, self.d_enriched, 2 * h))
        self.head_b1 = ad.parameter(np.zeros((1, 2 * h)))
        self.head_w2 = ad.parameter(glorot(rng, 2 * h, 2 * h))
        self.head_b2 = ad.parameter(np.zeros((1, 2 * h)))
        self.head_w3 = ad.parameter(glorot(rng, 2 * h, len(TASK_WEIGHTS)))
        self.head_b3 = ad.parameter(np.zeros((1, len(TASK_WEIGHTS))))
        self.ctx_embedding = ad.parameter(glorot(rng, dims.ctx_vocab, dims.ctx_width))
        if variant.use_batchnorm:
            self.bn1 = ad.BatchNormState.create(2 * h)
            self.bn2 = ad.BatchNormState.create(2 * h)
        else:
            self.bn1 = self.bn2 = None

    @property
    def d_enriched(self) -> int:
        return self.dims.d_doub + 4 * self.variant.hidden_size

    def named_parameters(self) -> dict[str, ad.Node]:
        params = {}
        params.update(self.gru1.named("gru1"))
        params.update(self.gru2.named("gru2"))
        params.update({
            "proj.w": self.proj_w, "proj.b": self.proj_b,
            "head.w1": self.head_w1, "head.b1": self.head_b1,
            "head.w2": self.head_w2, "head.b2": self.head_b2,
            "head.w3": self.head_w3, "head.b3": self.head_b3,
            "ctx_embedding": self.ctx_embedding,
        })
        if self.bn1 is not None:
            params.update({
                "bn1.gamma": self.bn1.gamma, "bn1.beta": self.bn1.beta,
                "bn2.gamma": self.bn2.gamma, "bn2.beta": self.bn2.beta,
            })
        return params

    def state_dict(self) -> dict[str, np.ndarray]:
        """Every array needed to reproduce inference, running stats included."""
        state = {name: node.value.copy() for name, node in self.named_parameters().items()}
        if self.bn1 is not None:
            state["bn1.running_mean"] = self.bn1.running_mean.copy()
            state["bn1.running_var"] = self.bn1.running_var.copy()
            state["bn2.running_mean"] = self.bn2.running_mean.copy()
            state["bn2.running_var"] = self.bn2.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        expected = set(params)
        if self.bn1 is not None:
            expected |= {"bn1.running_mean", "bn1.running_var",
                         "bn2.running_mean", "bn2.running_var"}
        if set(state) != expected:
            missing = expected - set(state)
            extra = set(state) - expected
            raise ShapeError(f"state mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, node in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != node.value.shape:
                raise ShapeError(f"parameter {name}: shape {arr.shape} "
                                 f"!= expected {node.value.shape}")
            node.value = arr.copy()
            node.grad = np.zeros_like(arr)
        if self.bn1 is not None:
            for bn, prefix in ((self.bn1, "bn1"), (self.bn2, "bn2")):
                bn.running_mean = np.asarray(state[f"{prefix}.running_mean"], dtype=np.float64).copy()
                bn.running_var = np.asarray(state[f"{prefix}.running_var"], dtype=np.float64).copy()


def encode_first_half(batch: Batch, params: ModelParams) -> ad.Node:
    """Run both GRU layers over the batch's packed first-half rows; concat the
    two states at each session's last step, ``[batch, 4H]`` in batch order."""
    dims = params.dims
    first = batch.first
    if first.ndim != 2 or first.shape[1] != dims.d_trip:
        raise ShapeError(f"first-half rows must be [rows, d_trip = {dims.d_trip}], "
                         f"got {first.shape}")
    ctx = ad.take_rows(params.ctx_embedding, first[:, dims.ctx_col].astype(np.int64))
    g1, g2 = params.gru1, params.gru2
    w1, b1 = g1.input_projection()
    rows, n_num = np.arange(dims.gru_input), dims.d_trip - 1  # [numeric | ctx] rows of w1
    pre1 = ad.add(ad.affine(ad.constant(np.delete(first, dims.ctx_col, axis=1)),
                            ad.take_rows(w1, rows[:n_num]), b1),
                  ad.matmul(ctx, ad.take_rows(w1, rows[n_num:])))
    o0 = ad.constant(np.zeros((len(batch.last), params.variant.hidden_size)))
    o1 = ad.gru(pre1, o0, g1.w_us, g1.w_rs, g1.w_s, batch.sizes)
    o2 = ad.gru(ad.affine(o1, *g2.input_projection()), o0, g2.w_us, g2.w_rs, g2.w_s, batch.sizes)
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


def loss(probs: ad.Node, targets: np.ndarray, task_weights: tuple = TASK_WEIGHTS) -> ad.Node:
    """Mean over rows of the task-weighted BCE sum; every row is a real position."""
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"loss: probs {probs.shape} and targets {targets.shape} misaligned")
    if probs.shape[0] == 0:
        raise DegenerateBatchError("loss over a batch with no real positions")
    weights = ad.constant(np.asarray(task_weights, dtype=np.float64))
    per_entry = ad.bce(probs, targets)
    return ad.scale(ad.sum_all(ad.hadamard(per_entry, weights)), 1.0 / probs.shape[0])


def predict_probs(
    sessions: SessionTable,
    pipeline: FeaturePipeline,
    tracks: dict[str, TrackRecord],
    params: ModelParams,
    batch_size: int = PREDICT_BATCH_SIZE,
) -> dict[str, np.ndarray]:
    """Per-session skip probabilities of the second-half positions."""
    if not sessions:
        return {}
    return predict_encoded(pipeline.encode(sessions, tracks), params, batch_size)


def predict_encoded(encoded: EncodedSessions, params: ModelParams,
                    batch_size: int = PREDICT_BATCH_SIZE) -> dict[str, np.ndarray]:
    """``predict_probs`` over sessions already encoded by their pipeline.

    Every batch runs under ``ad.no_grad()``: the same ``forward_batch`` as
    training, but no graph is kept, so each intermediate array is freed at
    its last use. Every inference caller (validation in ``training.train``,
    ``predict_probs``, ``metrics.ensemble_predict``) comes through here."""
    out: dict[str, np.ndarray] = {}
    rows = np.arange(len(encoded.session_ids))
    with ad.no_grad():
        for lo in range(0, len(rows), batch_size):
            batch = encoded.batch(rows[lo:lo + batch_size])
            skip = forward_batch(batch, params, "infer").value[:, 0].copy()
            counts = np.bincount(batch.session, minlength=len(batch.session_ids))
            out.update(zip(batch.session_ids, np.split(skip, np.cumsum(counts)[:-1])))
    return out
