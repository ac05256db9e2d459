"""Track embeddings from session co-occurrence, trained with a weighted
least-squares objective over log co-occurrence counts.

Sessions play the role of sentences and tracks the role of words. Pairs of
tracks within ``window`` of each other contribute 1/distance to a symmetric
co-occurrence table; embeddings then minimize

    sum_ij weight(X_ij) * (w_i . w~_j + b_i + b~_j - log X_ij)^2

with per-coordinate adaptive (AdaGrad-style) steps over shuffled nonzero
entries. The exported embedding for a track is ``w + w~``. The table stores
each unordered pair once; training iterates both directions of every pair,
which makes the objective symmetric under swapping the main and context
parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Session, atomic_write
from .errors import TrainingError, ValidationError

X_MAX = 100.0
ALPHA = 0.75
WINDOW = 5
LEARNING_RATE = 0.05
DIMS = 150
EPOCHS = 25
ENTRY_BATCH = 4096


@dataclass
class CooccurrenceTable:
    """Symmetric sparse co-occurrence weights keyed by canonical (i < j) pairs."""

    track_ids: list[str]
    pairs: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def n_tracks(self) -> int:
        return len(self.track_ids)

    def weight(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self.pairs.get(key, 0.0)

    def add(self, i: int, j: int, amount: float) -> None:
        if i == j:
            return
        key = (i, j) if i < j else (j, i)
        self.pairs[key] = self.pairs.get(key, 0.0) + amount

    def merge(self, other: "CooccurrenceTable") -> None:
        """Entrywise sum; both tables must share the same track index."""
        if other.track_ids != self.track_ids:
            raise ValidationError("cannot merge tables over different track indices")
        for key, value in other.pairs.items():
            self.pairs[key] = self.pairs.get(key, 0.0) + value

    def directed_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every stored pair as (i, j, x) arrays."""
        n = len(self.pairs)
        i = np.empty(2 * n, dtype=np.int64)
        j = np.empty(2 * n, dtype=np.int64)
        x = np.empty(2 * n)
        for k, ((a, b), w) in enumerate(sorted(self.pairs.items())):
            i[2 * k], j[2 * k], x[2 * k] = a, b, w
            i[2 * k + 1], j[2 * k + 1], x[2 * k + 1] = b, a, w
        return i, j, x


def build_cooccurrence(sessions: list[Session], window: int = WINDOW) -> CooccurrenceTable:
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    track_ids = sorted({ev.track_id for s in sessions for ev in s.events})
    index = {tid: k for k, tid in enumerate(track_ids)}
    table = CooccurrenceTable(track_ids=track_ids)
    for session in sessions:
        seq = [index[ev.track_id] for ev in session.events]
        for a in range(len(seq)):
            for b in range(a + 1, min(a + window, len(seq) - 1) + 1):
                table.add(seq[a], seq[b], 1.0 / (b - a))
    return table


def glove_weight(x: float, x_max: float = X_MAX, alpha: float = ALPHA) -> float:
    if x < 0:
        raise ValidationError(f"co-occurrence weight must be >= 0, got {x}")
    if x >= x_max:
        return 1.0
    return (x / x_max) ** alpha


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


def objective(table: CooccurrenceTable, emb: EmbeddingTable,
              x_max: float = X_MAX, alpha: float = ALPHA) -> float:
    i, j, x = table.directed_entries()
    f = np.array([glove_weight(v, x_max, alpha) for v in x])
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
    ENTRY_BATCH; AdaGrad caches start at 1 so early steps are bounded by lr.
    The loss recorded per epoch is the objective evaluated as each slice is
    visited, before its update.
    """
    if not table.pairs:
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
    f_all = np.where(x_all >= x_max, 1.0, (x_all / x_max) ** alpha)

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
            np.add.at(cache_main, i, gwi * gwi)
            np.add.at(cache_context, j, gwj * gwj)
            np.add.at(cache_mb, i, gbi * gbi)
            np.add.at(cache_cb, j, gbj * gbj)
            np.add.at(emb.main, i, -lr * gwi / np.sqrt(cache_main[i]))
            np.add.at(emb.context, j, -lr * gwj / np.sqrt(cache_context[j]))
            np.add.at(emb.main_bias, i, -lr * gbi / np.sqrt(cache_mb[i]))
            np.add.at(emb.context_bias, j, -lr * gbj / np.sqrt(cache_cb[j]))
        emb.epoch_losses.append(epoch_loss)
    return emb


def export_embeddings(emb: EmbeddingTable, path) -> None:
    """Write 'track_id v_1 .. v_d' lines with full float64 precision."""
    combined = emb.vectors()
    with atomic_write(path) as fh:
        for k, track_id in enumerate(emb.track_ids):
            fh.write(track_id + " " + " ".join(repr(float(x)) for x in combined[k]) + "\n")


def load_embeddings(path) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    dims = None
    with open(path, encoding="utf-8") as fh:
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
                vec = np.array([float(v) for v in fields[1:]])
            except ValueError:
                raise ValidationError(f"line {line_no}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise ValidationError(f"line {line_no}: non-finite embedding value")
            table[fields[0]] = vec
    if not table:
        raise ValidationError(f"{path}: no embeddings found")
    return table
