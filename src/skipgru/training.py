"""Adam optimization, the seeded mini-batch training loop, and versioned
checkpoint persistence.

A version-2 checkpoint is one header line followed by raw array bytes. The
header is the JSON envelope ``{"schema_version": 2, "sha256", "payload"}``,
ended by ``\n``, so ``head -n 1 model.ckpt`` prints it. The payload carries
the variant config, the model dimension table, every named parameter's shape,
the fitted feature pipeline (``scalers`` bounds, ``context_vocab`` codes,
the sorted ``embedding_ids`` and the shape of their ``[n, d_emb]`` embedding
table, so inference needs no side files), an optional reference to the
original embedding file, and the training log. After the newline come the
arrays as little-endian float64, back to back: the parameters in name order,
then the embedding table. ``sha256`` is the digest of the canonical
(sorted-keys, no-whitespace) JSON dump of the payload followed by those
array bytes.

A ``Checkpoint`` holds its model's own ``ModelParams`` and
``FeaturePipeline``. Saving reads the live arrays (``ModelParams.arrays``)
in name order; loading builds the pipeline once, allocates one store and
copies the bytes straight into it. Past the version and the hash, loading
rejects a file no trained model could have written, naming the first
``dims`` field or array at fault: ``dims`` that differ from what the stored
pipeline gives, a name -> shape table that differs from the one the variant
and ``dims`` give (``model.array_shapes``, compared before anything is
allocated), a non-finite array, a negative running variance, or a
pipeline that ``FeaturePipeline.fit`` could not have written (see
``FeaturePipeline.from_dict``; the error names the pipeline field). Reloaded
models reproduce the saved model's predictions bit for bit. Any other
version, version 1 (one JSON line whose payload held the arrays as float
lists) included, is a ``CheckpointVersionError``.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import Executor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics, parallel
from .data import SessionTable, TrackTable, atomic_write, second_half_length
from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    NumericError,
    SkipGruError,
    TrainingError,
    ValidationError,
)
from .features import FeaturePipeline
from .model import (
    ModelDims,
    ModelParams,
    VariantConfig,
    array_shapes,
    forward_batch,
    loss,
    predict_encoded,
)

SCHEMA_VERSION = 2

ADAM_LR = 0.0005
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The moment vectors, flat as ``ModelParams.values`` and allocated at the
    first step, and the two scratch rows that every update reuses."""

    lr: float = ADAM_LR
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.empty(0))
    v: np.ndarray = field(default_factory=lambda: np.empty(0))
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0))


def _adam_moves(w, g, m, v, step, denom, lr: float, bc1: float, bc2: float) -> None:
    """Adam's elementwise passes over one contiguous piece of the flat
    vectors, all written in place (see ``adam_step``)."""
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=denom), g, out=denom)
    np.multiply(np.divide(m, bc1, out=step), lr, out=step)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
    w -= np.divide(step, denom, out=step)


def adam_step(params: ModelParams, state: AdamState, worker: Executor | None = None) -> None:
    """One in-place update of ``params.values`` from ``params.grads``.

    A non-finite gradient is named by its parameter, checked over the whole
    gradient before anything is written. Every operation then writes into
    the moments, the values or a row of the scratch buffer, in the order of
    the expressions ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``w -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, with ``b1``, ``b2`` and
    ``eps`` the ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` constants, so
    the update is bitwise that of the expressions, element by element, and
    allocates nothing after the first step. No element's arithmetic reads
    another's, so the flat vectors may be cut in two halves for the caller
    and a ``worker`` (``parallel.split``) with the same bits.
    """
    w, g = params.values, params.grads
    if not np.isfinite(g).all():
        name = next(name for name, view in params.views(g).items() if not np.isfinite(view).all())
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    if not state.t:
        state.m, state.v, state.scratch = np.zeros_like(w), np.zeros_like(w), np.empty((2, w.size))
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    flat = (w, g, state.m, state.v, *state.scratch)
    parallel.split(worker, w.size, lambda _, half: _adam_moves(
        *(a[half] for a in flat), state.lr, bc1, bc2))


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient vector in place so its L2 norm is at most max_norm."""
    norm = float(np.linalg.norm(grads))
    if norm > max_norm > 0.0:
        grads *= max_norm / norm
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < np.inf:
            raise ConfigError(f"clip_norm must be finite and positive, got {self.clip_norm}")


@dataclass
class Checkpoint:
    params: ModelParams
    pipeline: FeaturePipeline
    embedding_ref: dict | None
    metadata: dict

    def build(self) -> tuple[ModelParams, FeaturePipeline]:
        """The stored model and its feature pipeline. Both are this
        checkpoint's own objects, not copies: training the model, or a
        train-mode forward that moves its running statistics, changes what
        the checkpoint saves."""
        return self.params, self.pipeline

    def arrays(self) -> list[np.ndarray]:
        """The float arrays in file order: parameters by name, then the embedding table."""
        return [np.ascontiguousarray(a, dtype="<f8") for a in
                [*self.params.arrays().values(), self.pipeline.embedding_table]]

    def payload(self) -> dict:
        """The header payload: the arrays appear as their shapes."""
        return {
            "variant": asdict(self.params.variant),
            "dims": asdict(self.params.dims),
            "params": {name: {"shape": list(arr.shape)}
                       for name, arr in self.params.arrays().items()},
            "pipeline": {**self.pipeline.to_dict(),
                         "embeddings": {"shape": list(self.pipeline.embedding_table.shape)}},
            "embedding_ref": self.embedding_ref,
            "metadata": self.metadata,
        }

    def content_hash(self) -> str:
        return _content_hash(self.payload(), self.arrays())


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


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _content_hash(payload: dict, arrays) -> str:
    """sha256 of the canonical payload followed by the array bytes."""
    digest = hashlib.sha256(_canonical(payload))
    for arr in arrays:
        digest.update(arr)
    return digest.hexdigest()


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    payload, arrays = checkpoint.payload(), checkpoint.arrays()
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "sha256": _content_hash(payload, arrays),
        "payload": payload,
    }
    with atomic_write(path, binary=True) as fh:
        fh.write(json.dumps(envelope).encode("ascii") + b"\n")
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    try:
        envelope = json.loads(header.decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointIntegrityError(f"{path}: checkpoint header is not UTF-8 text") from None
    except json.JSONDecodeError as err:
        raise CheckpointIntegrityError(f"{path}: truncated or unparsable checkpoint "
                                       f"header ({err})") from None
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
    actual = _content_hash(payload, [body])
    if actual != recorded:
        raise CheckpointIntegrityError(
            f"{path}: content hash mismatch (stored {recorded[:12]}.., "
            f"computed {actual[:12]}..)"
        )
    with _payload_schema(path):
        shapes = {name: _shape(entry["shape"]) for name, entry in payload["params"].items()}
        table_shape = _shape(payload["pipeline"]["embeddings"]["shape"])
        n_params = sum(math.prod(shape) for shape in shapes.values())
        if len(body) != 8 * (n_params + math.prod(table_shape)):
            raise CheckpointIntegrityError(f"{path}: {len(body)} array bytes, but the header "
                                           f"lists {n_params + math.prod(table_shape)} floats")
        values = np.frombuffer(body, dtype="<f8")
        table = values[n_params:].reshape(table_shape)
        _check_array(path, "pipeline.embeddings", table)
        try:
            pipeline = FeaturePipeline.from_dict(payload["pipeline"], table)
        except ValidationError as err:
            raise CheckpointIntegrityError(f"{path}: pipeline.{err}") from None
        dims = ModelDims(**payload["dims"])
        _check_header(path, "dims.%s", asdict(dims), asdict(ModelDims.from_pipeline(pipeline)))
        variant = VariantConfig(**payload["variant"])
        _check_header(path, "the shape of %r", shapes, array_shapes(variant, dims))
        params = ModelParams(variant, dims)
        arrays = params.arrays()
        bounds = np.cumsum([0, *(arr.size for arr in arrays.values())])
        for (name, arr), lo, hi in zip(arrays.items(), bounds[:-1], bounds[1:]):
            _check_array(path, name, values[lo:hi])
            arr[...] = values[lo:hi].reshape(arr.shape)
        return Checkpoint(params, pipeline, payload.get("embedding_ref"),
                          payload.get("metadata", {}))


def _check_header(path, what: str, header: dict, want: dict) -> None:
    """Name the first entry, in key order, where the header differs from the
    model it describes."""
    if header != want:
        key = min(k for k in header.keys() | want.keys() if header.get(k) != want.get(k))
        raise CheckpointIntegrityError(f"{path}: {what % key} is {header.get(key)} in the "
                                       f"header, but {want.get(key)} in the model it describes")


def _check_array(path, name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise CheckpointIntegrityError(f"{path}: array {name!r} holds a non-finite value")
    if name.endswith(".running_var") and (arr < 0.0).any():
        raise CheckpointIntegrityError(f"{path}: array {name!r} holds a negative variance")


def _shape(raw) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(type(d) is int and d >= 0 for d in raw):
        raise ValueError(f"array shape {raw!r} is not a list of non-negative integers")
    return tuple(raw)


def train(
    train_sessions: SessionTable,
    valid_sessions: SessionTable,
    tracks: TrackTable,
    pipeline: FeaturePipeline,
    variant: VariantConfig,
    config: TrainConfig,
    embedding_ref: dict | None = None,
    log=None,
) -> Checkpoint:
    """Seeded training run; returns the best-validation-AA checkpoint.

    Both session tables are encoded once. Per epoch: shuffle, batch, forward,
    multi-task loss over the real positions, backward, Adam. Validation mean
    AA is computed after every epoch; the best epoch's arrays are copied and,
    at the end, written back into the model the checkpoint returns. Fully
    deterministic given config.seed. The backward and Adam steps may share
    their work with one worker thread (see ``parallel``).
    """
    if not train_sessions or not valid_sessions:
        raise ConfigError("train and validation session lists must be non-empty")
    params = ModelParams(variant, ModelDims.from_pipeline(pipeline))
    params.initialize(config.seed)
    adam = AdamState(lr=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    valid_truth = metrics.second_half_skips(valid_sessions)
    train_set = pipeline.encode(train_sessions, tracks)
    valid_set = pipeline.encode(valid_sessions, tracks)

    best = [arr.copy() for arr in params.arrays().values()]
    best_aa = None
    epoch_log: list[dict] = []
    # leaving the block joins the worker, whether the loop returns or raises
    with parallel.worker() as worker:
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(len(train_sessions))
            batch_losses = []
            for lo in range(0, len(order), config.batch_size):
                batch = train_set.batch(order[lo:lo + config.batch_size])
                try:
                    batch_loss = loss(forward_batch(batch, params, "train"), batch.targets)
                    params.grads.fill(0.0)
                    ad.backward(batch_loss, worker)
                except NumericError as err:
                    raise TrainingError(
                        f"aborting: non-finite value in epoch {epoch}, "
                        f"batch starting at {lo} ({err})"
                    ) from err
                if config.clip_norm is not None:
                    clip_gradients(params.grads, config.clip_norm)
                adam_step(params, adam, worker)
                batch_losses.append(float(batch_loss.value[0, 0]))
                del batch_loss  # free this batch's graph before the next is built
            val_aa, _ = metrics.mean_aa(predict_encoded(valid_set, params) >= metrics.THRESHOLD,
                                        valid_truth, second_half_length(valid_sessions.lengths))
            train_loss = float(np.mean(batch_losses))
            epoch_log.append({"epoch": epoch, "train_loss": train_loss, "val_aa": val_aa})
            if log is not None:
                log(f"epoch {epoch}: train_loss={train_loss:.6f} val_aa={val_aa:.4f}")
            if best_aa is None or val_aa > best_aa:
                best_aa = val_aa
                best = [arr.copy() for arr in params.arrays().values()]

    for arr, saved in zip(params.arrays().values(), best, strict=True):
        arr[...] = saved
    metadata = {
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "seed": config.seed,
        "final_train_loss": epoch_log[-1]["train_loss"] if epoch_log else None,
        "best_val_aa": best_aa,
        "epoch_log": epoch_log,
    }
    return Checkpoint(params, pipeline, embedding_ref, metadata)
