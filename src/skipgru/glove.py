"""Track embeddings from session co-occurrence, trained with a weighted
least-squares objective over log co-occurrence counts.

Sessions play the role of sentences and tracks the role of words. Pairs of
tracks within ``window`` of each other contribute 1/distance to a symmetric
co-occurrence table; embeddings then minimize

    sum_ij weight(X_ij) * (w_i . w~_j + b_i + b~_j - log X_ij)^2

with per-coordinate adaptive (AdaGrad-style) steps over shuffled slices of
the nonzero entries: within a slice the entries that share a row are summed,
and each row takes one step. The exported embedding for a track is
``w + w~``. The table is two arrays: each unordered pair of track indices
once, as an ``(i, j)`` row with ``i < j`` in sorted order, and its summed
weight. Training iterates both directions of every pair, which makes the
objective symmetric under swapping the main and context parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Session, SessionTable, as_table, atomic_write, open_text
from .errors import ConfigError, TrainingError, ValidationError

X_MAX = 100.0
ALPHA = 0.75
WINDOW = 5
LEARNING_RATE = 0.05
DIMS = 150
EPOCHS = 25
ENTRY_BATCH = 4096


@dataclass
class CooccurrenceTable:
    """Symmetric sparse co-occurrence weights over ``track_ids``.

    ``pairs`` is int64 ``[n, 2]``: each unordered pair of track indices once,
    as ``i < j``, in ascending ``(i, j)`` order. ``values`` is float64 ``[n]``,
    the weight of each pair.
    """

    track_ids: list[str]
    pairs: np.ndarray
    values: np.ndarray

    @property
    def n_tracks(self) -> int:
        return len(self.track_ids)

    def directed_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every pair as (i, j, x) arrays: ``(a, b)`` then
        ``(b, a)``, pair by pair in table order."""
        return self.pairs.ravel(), self.pairs[:, ::-1].ravel(), np.repeat(self.values, 2)


def build_cooccurrence(sessions: SessionTable | list[Session],
                       window: int = WINDOW) -> CooccurrenceTable:
    """Sum 1/distance over every pair of distinct tracks within ``window``
    of each other in a session.

    The table's track column is already one flat index array; it is renumbered
    over the tracks the sessions play, and event ``a`` pairs with
    ``a + 1 .. a + window`` through an offset grid, masked where the partner
    falls past the end of its session or is the same track. The grid is
    ravelled row-major, so each pair's weights are summed in the same
    (session, a, b) order as a per-pair loop would add them.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    table = as_table(sessions)
    played, seq = np.unique(table.track_index, return_inverse=True)
    track_ids = [table.track_ids[k] for k in played.tolist()]
    lengths = table.lengths
    n = len(seq)
    session_end = np.repeat(table.offsets[1:], lengths)
    width = min(window, int(lengths.max(initial=1)) - 1)
    offsets = np.arange(1, width + 1)
    partner = np.arange(n)[:, None] + offsets
    valid = partner < session_end[:, None]
    first = np.broadcast_to(seq[:, None], partner.shape)[valid]
    second = seq[partner[valid]]
    distance = np.broadcast_to(offsets, partner.shape)[valid]
    distinct = first != second
    first, second, distance = first[distinct], second[distinct], distance[distinct]
    v = len(track_ids)
    keys, inverse = np.unique(np.minimum(first, second) * v + np.maximum(first, second),
                              return_inverse=True)
    sums = np.bincount(inverse, weights=1.0 / distance, minlength=len(keys))
    return CooccurrenceTable(track_ids, np.stack(np.divmod(keys, v), axis=1), sums)


def glove_weights(x, x_max: float = X_MAX, alpha: float = ALPHA) -> np.ndarray:
    """Elementwise min(1, (x / x_max) ** alpha); negative counts are rejected."""
    x = np.asarray(x, dtype=np.float64)
    negative = x < 0
    if negative.any():
        raise ValidationError(f"co-occurrence weight must be >= 0, got {x[negative].flat[0]}")
    return np.where(x >= x_max, 1.0, (x / x_max) ** alpha)


@dataclass
class EmbeddingTable:
    """Main and context vector sets plus biases; export combines w + w~."""

    track_ids: list[str]
    main: np.ndarray       # [V, d]
    context: np.ndarray    # [V, d]
    main_bias: np.ndarray  # [V]
    context_bias: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def dims(self) -> int:
        return self.main.shape[1]

    def vectors(self) -> np.ndarray:
        return self.main + self.context

    def as_dict(self) -> dict[str, np.ndarray]:
        combined = self.vectors()
        return {tid: combined[k] for k, tid in enumerate(self.track_ids)}


def _batch_gradients(main, context, main_bias, context_bias, i, j, logx, f):
    """Per-entry loss and gradients of f * (w_i . w~_j + b_i + b~_j - logx)^2."""
    wi = main[i]
    wj = context[j]
    diff = (wi * wj).sum(axis=1) + main_bias[i] + context_bias[j] - logx
    loss = f * diff * diff
    g = 2.0 * f * diff
    return loss, g[:, None] * wj, g[:, None] * wi, g, g


def _adagrad_rows(param, cache, rows, grad, lr):
    """One AdaGrad step per row of ``param`` for a slice of entry gradients.

    Only the rows the slice touches are read or written. The gradients and
    squared gradients of the entries that share a row are summed first (a
    flat ``bincount`` over ``slot * d + col``, where ``slot`` numbers the
    touched rows), the squares are added to the cache, and each touched row
    then moves once by ``-lr * sum / sqrt(cache)``.
    """
    touched, slot = np.unique(rows, return_inverse=True)
    shape = (len(touched),) + param.shape[1:]
    if grad.ndim == 2:
        slot = (slot[:, None] * grad.shape[1] + np.arange(grad.shape[1])).ravel()
        grad = grad.ravel()
    total = np.bincount(slot, weights=grad).reshape(shape)
    cache[touched] += np.bincount(slot, weights=grad * grad).reshape(shape)
    param[touched] -= lr * total / np.sqrt(cache[touched])


def objective(table: CooccurrenceTable, emb: EmbeddingTable,
              x_max: float = X_MAX, alpha: float = ALPHA) -> float:
    i, j, x = table.directed_entries()
    f = glove_weights(x, x_max, alpha)
    loss, *_ = _batch_gradients(
        emb.main, emb.context, emb.main_bias, emb.context_bias, i, j, np.log(x), f
    )
    return float(loss.sum())


def train_glove(
    table: CooccurrenceTable,
    dims: int = DIMS,
    epochs: int = EPOCHS,
    lr: float = LEARNING_RATE,
    seed: int = 0,
    x_max: float = X_MAX,
    alpha: float = ALPHA,
) -> EmbeddingTable:
    """Fit embeddings to the table; deterministic given the seed.

    Entries are shuffled every epoch and consumed in vectorized slices of
    ENTRY_BATCH; each slice moves every row it touches once (see
    ``_adagrad_rows``). AdaGrad caches start at 1 so early steps are bounded by lr.
    The loss recorded per epoch is the objective evaluated as each slice is
    visited, before its update.
    """
    if dims < 1 or epochs < 1:
        raise ConfigError(f"glove dims and epochs must be >= 1, got dims={dims}, "
                          f"epochs={epochs}")
    for name, value in (("lr", lr), ("x_max", x_max), ("alpha", alpha)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"glove {name} must be finite and positive, got {value}")
    if not len(table.pairs):
        raise TrainingError("cannot train embeddings on an empty co-occurrence table")
    v = table.n_tracks
    rng = np.random.default_rng(seed)
    span = 0.5 / dims
    emb = EmbeddingTable(
        track_ids=list(table.track_ids),
        main=rng.uniform(-span, span, size=(v, dims)),
        context=rng.uniform(-span, span, size=(v, dims)),
        main_bias=rng.uniform(-span, span, size=v),
        context_bias=rng.uniform(-span, span, size=v),
    )
    cache_main = np.ones((v, dims))
    cache_context = np.ones((v, dims))
    cache_mb = np.ones(v)
    cache_cb = np.ones(v)

    i_all, j_all, x_all = table.directed_entries()
    logx_all = np.log(x_all)
    f_all = glove_weights(x_all, x_max, alpha)

    for _ in range(epochs):
        order = rng.permutation(len(i_all))
        epoch_loss = 0.0
        for lo in range(0, len(order), ENTRY_BATCH):
            sel = order[lo:lo + ENTRY_BATCH]
            i, j = i_all[sel], j_all[sel]
            loss, gwi, gwj, gbi, gbj = _batch_gradients(
                emb.main, emb.context, emb.main_bias, emb.context_bias,
                i, j, logx_all[sel], f_all[sel],
            )
            epoch_loss += float(loss.sum())
            _adagrad_rows(emb.main, cache_main, i, gwi, lr)
            _adagrad_rows(emb.context, cache_context, j, gwj, lr)
            _adagrad_rows(emb.main_bias, cache_mb, i, gbi, lr)
            _adagrad_rows(emb.context_bias, cache_cb, j, gbj, lr)
        emb.epoch_losses.append(epoch_loss)
    return emb


def export_embeddings(emb: EmbeddingTable, path) -> None:
    """Write 'track_id v_1 .. v_d' lines with full float64 precision."""
    combined = emb.vectors()
    with atomic_write(path) as fh:
        for k, track_id in enumerate(emb.track_ids):
            fh.write(track_id + " " + " ".join(repr(float(x)) for x in combined[k]) + "\n")


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read 'track_id v_1 .. v_d' lines into a dict of float64 vectors.

    A line's values are parsed by one ``np.array`` call, which reads each
    token as ``float()`` does; every error names its line.
    """
    table: dict[str, np.ndarray] = {}
    dims = None
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if len(fields) < 2:
                raise ValidationError(f"line {line_no}: embedding line needs id plus values")
            if dims is None:
                dims = len(fields) - 1
            elif len(fields) - 1 != dims:
                raise ValidationError(
                    f"line {line_no}: expected {dims} values, got {len(fields) - 1}"
                )
            if fields[0] in table:
                raise ValidationError(f"line {line_no}: duplicate track id {fields[0]!r}")
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise ValidationError(f"line {line_no}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise ValidationError(f"line {line_no}: non-finite embedding value")
            table[fields[0]] = vec
    if not table:
        raise ValidationError(f"{path}: no embeddings found")
    return table
