"""Adam optimization, the seeded mini-batch training loop, and versioned
checkpoint persistence.

A checkpoint is a JSON envelope: ``{"schema_version", "sha256", "payload"}``
where the hash covers the canonical (sorted-keys, no-whitespace) dump of the
payload. The payload carries the variant config, the model dimension table,
every named parameter with its shape, the fitted feature pipeline (embedding
table included, so inference needs no side files), an optional reference to
the original embedding file, and the training log. Loading re-verifies the
version, the hash, and every parameter shape; reloaded models reproduce the
saved model's predictions bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics
from .data import Session, TrackRecord, atomic_write
from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    NumericError,
    SkipGruError,
    TrainingError,
)
from .features import FeaturePipeline
from .model import (
    ModelDims,
    ModelParams,
    VariantConfig,
    flatten_position_major,
    forward_batch,
    loss,
    predict_encoded,
)

SCHEMA_VERSION = 1

ADAM_LR = 0.0005
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment buffers; lazily sized on first step."""

    lr: float = ADAM_LR
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, ad.Node], state: AdamState) -> None:
    """One in-place update from the gradients currently held by the nodes."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name in sorted(params):
        node = params[name]
        g = node.grad
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(node.value)
        if name not in state.v:
            state.v[name] = np.zeros_like(node.value)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        node.value -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def clip_gradients(params: dict[str, ad.Node], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for node in params.values():
        total += float((node.grad * node.grad).sum())
    norm = total ** 0.5
    if norm > max_norm > 0.0:
        factor = max_norm / norm
        for node in params.values():
            node.grad *= factor
    return norm


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    lr: float = ADAM_LR
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")


@dataclass
class Checkpoint:
    variant: VariantConfig
    dims: ModelDims
    state: dict[str, np.ndarray]
    pipeline_payload: dict
    embedding_ref: dict | None
    metadata: dict

    def build(self) -> tuple[ModelParams, FeaturePipeline]:
        with _payload_schema("checkpoint"):
            params = ModelParams(self.variant, self.dims, seed=0)
            params.load_state_dict(self.state)
            return params, FeaturePipeline.from_dict(self.pipeline_payload)

    def payload(self) -> dict:
        return {
            "variant": self.variant.to_dict(),
            "dims": self.dims.to_dict(),
            "params": {
                name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                for name, arr in sorted(self.state.items())
            },
            "pipeline": self.pipeline_payload,
            "embedding_ref": self.embedding_ref,
            "metadata": self.metadata,
        }

    def content_hash(self) -> str:
        return _hash_payload(self.payload())


@contextmanager
def _payload_schema(where):
    """Report a payload that does not fit the checkpoint schema as a CheckpointIntegrityError."""
    try:
        yield
    except SkipGruError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CheckpointIntegrityError(
            f"{where}: payload does not match the checkpoint schema "
            f"({type(err).__name__}: {err})"
        ) from None


def _hash_payload(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    payload = checkpoint.payload()
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "sha256": _hash_payload(payload),
        "payload": payload,
    }
    with atomic_write(path) as fh:
        json.dump(envelope, fh)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
    except json.JSONDecodeError as err:
        raise CheckpointIntegrityError(f"{path}: truncated or unparsable checkpoint "
                                       f"({err})") from None
    if not isinstance(envelope, dict) or "schema_version" not in envelope:
        raise CheckpointIntegrityError(f"{path}: not a checkpoint file")
    version = envelope["schema_version"]
    if version != SCHEMA_VERSION:
        raise CheckpointVersionError(
            f"{path}: schema version {version} unsupported (want {SCHEMA_VERSION})"
        )
    payload = envelope.get("payload")
    recorded = envelope.get("sha256")
    if payload is None or recorded is None:
        raise CheckpointIntegrityError(f"{path}: missing payload or hash")
    actual = _hash_payload(payload)
    if actual != recorded:
        raise CheckpointIntegrityError(
            f"{path}: content hash mismatch (stored {recorded[:12]}.., "
            f"computed {actual[:12]}..)"
        )
    with _payload_schema(path):
        state = {}
        for name, entry in payload["params"].items():
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
            if data.size != int(np.prod(shape)):
                raise CheckpointIntegrityError(
                    f"{path}: parameter {name} has {data.size} values for shape {shape}"
                )
            state[name] = data.reshape(shape)
        return Checkpoint(
            variant=VariantConfig.from_dict(payload["variant"]),
            dims=ModelDims.from_dict(payload["dims"]),
            state=state,
            pipeline_payload=payload["pipeline"],
            embedding_ref=payload.get("embedding_ref"),
            metadata=payload.get("metadata", {}),
        )


def train(
    train_sessions: list[Session],
    valid_sessions: list[Session],
    tracks: dict[str, TrackRecord],
    pipeline: FeaturePipeline,
    variant: VariantConfig,
    config: TrainConfig,
    embedding_ref: dict | None = None,
    log=None,
) -> Checkpoint:
    """Seeded training run; returns the best-validation-AA checkpoint.

    Both session lists are encoded once. Per epoch: shuffle, batch, forward,
    masked multi-task loss, backward, Adam. Validation mean AA is computed
    after every epoch and the best parameter snapshot is kept. Fully
    deterministic given config.seed.
    """
    if not train_sessions or not valid_sessions:
        raise ConfigError("train and validation session lists must be non-empty")
    params = ModelParams(variant, ModelDims.from_pipeline(pipeline), seed=config.seed)
    named = params.named_parameters()
    adam = AdamState(lr=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    valid_truth = metrics.second_half_truth(valid_sessions)
    train_set = pipeline.encode(train_sessions, tracks)
    valid_set = pipeline.encode(valid_sessions, tracks)

    best_state = params.state_dict()
    best_aa = None
    epoch_log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_sessions))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = train_set.batch(order[lo:lo + config.batch_size])
            targets, mask = flatten_position_major(batch)
            try:
                probs = forward_batch(batch, params, "train")
                batch_loss = loss(probs, targets, mask)
                for node in named.values():
                    node.zero_grad()
                ad.backward(batch_loss)
            except NumericError as err:
                raise TrainingError(
                    f"aborting: non-finite value in epoch {epoch}, "
                    f"batch starting at {lo} ({err})"
                ) from err
            if config.clip_norm is not None:
                clip_gradients(named, config.clip_norm)
            adam_step(named, adam)
            batch_losses.append(float(batch_loss.value[0, 0]))
        val_predictions = {
            sid: probs >= 0.5
            for sid, probs in predict_encoded(valid_set, params).items()
        }
        val_aa, _ = metrics.mean_aa(val_predictions, valid_truth)
        train_loss = float(np.mean(batch_losses))
        epoch_log.append({"epoch": epoch, "train_loss": train_loss, "val_aa": val_aa})
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} val_aa={val_aa:.4f}")
        if best_aa is None or val_aa > best_aa:
            best_aa = val_aa
            best_state = params.state_dict()

    metadata = {
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "seed": config.seed,
        "final_train_loss": epoch_log[-1]["train_loss"] if epoch_log else None,
        "best_val_aa": best_aa,
        "epoch_log": epoch_log,
    }
    return Checkpoint(
        variant=variant,
        dims=params.dims,
        state=best_state,
        pipeline_payload=pipeline.to_dict(),
        embedding_ref=embedding_ref,
        metadata=metadata,
    )
