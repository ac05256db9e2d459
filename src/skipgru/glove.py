"""Track embeddings from session co-occurrence, trained with a weighted
least-squares objective over log co-occurrence counts.

Sessions play the role of sentences and tracks the role of words. Pairs of
tracks within ``window`` of each other contribute 1/distance to a symmetric
co-occurrence table; embeddings then minimize

    sum_ij weight(X_ij) * (w_i . w~_j + b_i + b~_j - log X_ij)^2

with per-coordinate adaptive (AdaGrad-style) steps over shuffled slices of
the nonzero entries: within a slice the entries that share a row are summed,
and each row takes one step. The slices run in workspace buffers that
training allocates once: three float ``[slice, d]`` buffers (the gathered
``w_i`` and ``w~_j`` rows; their product, then each side's gradients) and
one intp buffer for the flat ``bincount`` index. Rows are gathered with
``np.take(..., out=, mode="clip")`` after ``check_table`` has proved every
index in range, products are formed with ``out=`` ufuncs, and a gathered
row buffer that is no longer read holds its side's squared gradients and
touched rows. So a slice allocates nothing of size slice x d, and the
allocator does not hand freed pages back to the OS only to fault them in
again on the next slice. The exported embedding for a track is
``w + w~``. The table is two arrays: each unordered pair of track indices
once, as an ``(i, j)`` row with ``i < j`` in sorted order, and its summed
weight. Training iterates both directions of every pair, which makes the
objective symmetric under swapping the main and context parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SessionTable, atomic_write, open_text
from .errors import ConfigError, TrainingError, ValidationError

X_MAX = 100.0
ALPHA = 0.75
WINDOW = 5
LEARNING_RATE = 0.05
DIMS = 150
EPOCHS = 25
SEED = 0
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


def build_cooccurrence(sessions: SessionTable, window: int = WINDOW) -> CooccurrenceTable:
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
    played, seq = np.unique(sessions.track_index, return_inverse=True)
    track_ids = [sessions.track_ids[k] for k in played.tolist()]
    lengths = sessions.lengths
    n = len(seq)
    session_end = np.repeat(sessions.offsets[1:], lengths)
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


def _residual(prod, bias_i, bias_j, logx, f):
    """Per-entry loss and residual gradient ``g`` of
    f * (w_i . w~_j + b_i + b~_j - logx)^2, from the rowwise products
    ``prod = w_i * w~_j``. An entry's gradient is ``g * w~_j`` for w_i,
    ``g * w_i`` for w~_j and ``g`` for each bias."""
    diff = prod.sum(axis=1) + bias_i + bias_j - logx
    return f * diff * diff, 2.0 * f * diff


def _spread(slot, d, out):
    """``slot * d + col`` for every column of a slice's ``[m, d]`` vector
    gradients, built in the intp buffer ``out``: their flat ``bincount``
    places."""
    return np.add((slot * d)[:, None], np.arange(d), out=out).reshape(-1)


def _adagrad_rows(param, cache, touched, slot, grad, lr, work):
    """One AdaGrad step per row of ``param`` for a slice of entry gradients.

    Only the ``touched`` rows are read or written. ``grad`` is flat, and
    ``slot`` numbers each value's place among the touched rows: the entry's
    row for a bias, ``row * d + col`` for a table of vectors (``_spread``).
    The squared gradients of each place are summed (a flat ``bincount``) and
    added to the cache, then the gradients are summed, and each touched row
    moves once by ``-lr * sum / sqrt(cache)``. ``work``, a float buffer of
    ``grad``'s size, holds the squares and then the touched rows, so the
    step's only fresh arrays are its two sums, never alive together.
    """
    sums = np.bincount(slot, weights=np.multiply(grad, grad, out=work))
    shape = (len(touched),) + param.shape[1:]
    rows = np.take(cache, touched, axis=0, out=work[:sums.size].reshape(shape), mode="clip")
    rows += sums.reshape(shape)
    del sums
    cache[touched] = rows
    step = np.bincount(slot, weights=grad).reshape(shape)
    step *= lr
    step /= np.sqrt(rows, out=rows)
    rows = np.take(param, touched, axis=0, out=rows, mode="clip")
    rows -= step
    param[touched] = rows


def check_table(table: CooccurrenceTable) -> None:
    """Reject a table that training cannot read: ``pairs`` must be an integer
    ``[n, 2]`` array with ``0 <= i < j < n_tracks`` and ``values`` a real
    ``[n]`` array, finite and > 0. The error names the first bad pair's
    position; no index is ever clamped."""
    pairs, values = table.pairs, table.values
    if not (isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu"
            and pairs.ndim == 2 and pairs.shape[1] == 2):
        raise ValidationError("co-occurrence pairs must be an integer [n, 2] array")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
            and values.shape == (len(pairs),)):
        raise ValidationError(f"co-occurrence values must be a real [{len(pairs)}] array")
    i, j = pairs.T
    v = table.n_tracks
    bad = ~((0 <= i) & (i < j) & (j < v) & np.isfinite(values) & (values > 0))
    if bad.any():
        k = int(bad.argmax())
        raise ValidationError(
            f"co-occurrence pair {k}: ({i[k]}, {j[k]}) with weight {float(values[k])!r} "
            f"needs 0 <= i < j < {v} tracks and a finite weight > 0"
        )


def objective(table: CooccurrenceTable, emb: EmbeddingTable,
              x_max: float = X_MAX, alpha: float = ALPHA) -> float:
    check_table(table)
    i, j, x = table.directed_entries()
    loss, _ = _residual(emb.main[i] * emb.context[j], emb.main_bias[i], emb.context_bias[j],
                        np.log(x), glove_weights(x, x_max, alpha))
    return float(loss.sum())


def train_glove(
    table: CooccurrenceTable,
    dims: int = DIMS,
    epochs: int = EPOCHS,
    lr: float = LEARNING_RATE,
    seed: int = SEED,
    x_max: float = X_MAX,
    alpha: float = ALPHA,
) -> EmbeddingTable:
    """Fit embeddings to the table; deterministic given the seed.

    The table is checked first (``check_table``). Entries are shuffled every
    epoch and consumed in vectorized slices of ENTRY_BATCH; each slice moves
    every row it touches once (see ``_adagrad_rows``). The slices run in
    workspace buffers allocated once per call, so a slice allocates nothing of
    size slice x dims. AdaGrad caches start at 1 so early steps are bounded by
    lr. The loss recorded per epoch is the objective evaluated as each slice is
    visited, before its update.
    """
    if dims < 1 or epochs < 1:
        raise ConfigError(f"glove dims and epochs must be >= 1, got dims={dims}, "
                          f"epochs={epochs}")
    if seed < 0:
        raise ConfigError(f"glove seed must be >= 0, got {seed}")
    for name, value in (("lr", lr), ("x_max", x_max), ("alpha", alpha)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"glove {name} must be finite and positive, got {value}")
    check_table(table)
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

    # Workspace: the gathered w_i and w~_j rows, one buffer for their product
    # and then each side's entry gradients, and the flat bincount index.
    n = len(i_all)
    size = (min(ENTRY_BATCH, n), dims)
    wi_buf, wj_buf, grad_buf = np.empty(size), np.empty(size), np.empty(size)
    flat_buf = np.empty(size, dtype=np.intp)
    sides = ((emb.main, cache_main, emb.main_bias, cache_mb),
             (emb.context, cache_context, emb.context_bias, cache_cb))

    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, ENTRY_BATCH):
            sel = order[lo:lo + ENTRY_BATCH]
            m = len(sel)
            i, j = i_all[sel], j_all[sel]
            wi = np.take(emb.main, i, axis=0, out=wi_buf[:m], mode="clip")
            wj = np.take(emb.context, j, axis=0, out=wj_buf[:m], mode="clip")
            grad = np.multiply(wi, wj, out=grad_buf[:m])
            loss, g = _residual(grad, emb.main_bias[i], emb.context_bias[j],
                                logx_all[sel], f_all[sel])
            epoch_loss += float(loss.sum())
            for (param, cache, bias, bias_cache), rows, other in zip(sides, (i, j), (wj, wi)):
                # ``other`` is not read again: it becomes this side's spare buffer
                touched, slot = np.unique(rows, return_inverse=True)
                np.multiply(g[:, None], other, out=grad)
                _adagrad_rows(param, cache, touched, _spread(slot, dims, flat_buf[:m]),
                              grad.reshape(-1), lr, other.reshape(-1))
                _adagrad_rows(bias, bias_cache, touched, slot, g, lr, np.empty_like(g))
        emb.epoch_losses.append(epoch_loss)
    return emb


def check_track_ids(track_ids) -> None:
    """Reject a track id that an embedding line cannot hold: the line is
    whitespace separated, so an id must be non-empty and hold no whitespace."""
    bad = next((track_id for track_id in track_ids if track_id.split() != [track_id]), None)
    if bad is not None:
        raise ValidationError(f"track id {bad!r} is empty or holds whitespace; "
                              f"the embedding file cannot hold it")


def export_embeddings(emb: EmbeddingTable, path) -> None:
    """Write 'track_id v_1 .. v_d' lines with full float64 precision; the ids
    are checked by ``check_track_ids`` before anything is written."""
    check_track_ids(emb.track_ids)
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
