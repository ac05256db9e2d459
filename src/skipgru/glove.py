"""Track embeddings from session co-occurrence, trained with a weighted
least-squares objective over log co-occurrence counts.

Sessions play the role of sentences and tracks the role of words. Pairs of
tracks within ``window`` of each other contribute 1/distance to a symmetric
co-occurrence table; embeddings then minimize

    sum_ij weight(X_ij) * (w_i . w~_j + b_i + b~_j - log X_ij)^2

with per-coordinate adaptive (AdaGrad-style) steps over shuffled slices of
the nonzero entries: within a slice the entries that share a row are summed,
and each row takes one step. Each entry's dot product ``w_i . w~_j`` is
summed row by row over chunks of ROW_CHUNK gathered rows. The steps then run
one column block at a time: each ``[V, d]`` table and its cache is viewed,
with no copy, as ``[V * nb, bw]`` rows (row ``r``'s block ``b`` is row
``r * nb + b``), so a block's gathers and scatters read contiguous
``bw``-wide pieces and its buffers are ``[slice, bw]``. At the default 150
dims a block is 15 wide and no array of size slice x d exists; a ``d`` with
no divisor from 8 to 16 runs as one block. Block ``b`` owns the rows
``r * nb + b`` of both tables and both caches and no other memory, so the
two halves of a slice's blocks may run on two threads at once (see
``parallel``). Every (row, column) sum still adds the slice's entries in
slice order in one ``bincount``, so the result does not depend on the block
width, bit for bit.
The buffers are allocated once per training call, and rows are gathered with
``np.take(..., out=, mode="clip")`` after ``check_table`` has proved every
index in range. The exported embedding for a track is
``w + w~``. The table is two arrays: each unordered pair of track indices
once, as an ``(i, j)`` row with ``i < j`` in sorted order, and its summed
weight. Training iterates both directions of every pair, which makes the
objective symmetric under swapping the main and context parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .data import SessionTable, atomic_write, first_loose_float, float_count, open_text
from .errors import ConfigError, TrainingError, ValidationError

ENTRY_BATCH = 4096
ROW_CHUNK = 512


@dataclass
class GloveConfig:
    """GloVe's settings and their ranges, the ``glove`` section of a run config;
    ``build_cooccurrence`` and ``train_glove`` check their arguments here."""

    dims: int = 150
    window: int = 5
    epochs: int = 25
    x_max: float = 100.0
    alpha: float = 0.75
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.dims < 1 or self.epochs < 1:
            raise ConfigError(f"glove dims and epochs must be >= 1, got dims={self.dims}, "
                              f"epochs={self.epochs}")
        for name, low in (("window", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"glove {name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "x_max", "alpha"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"glove {name} must be finite and positive, "
                                  f"got {getattr(self, name)}")


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
        ``(b, a)``, pair by pair in table order. So entry ``e`` is pair
        ``e >> 1``, its ``i`` is ``pairs.reshape(-1)[e]`` and its ``j`` is
        ``pairs.reshape(-1)[e ^ 1]``."""
        return self.pairs.ravel(), self.pairs[:, ::-1].ravel(), np.repeat(self.values, 2)


def build_cooccurrence(sessions: SessionTable,
                       window: int = GloveConfig.window) -> CooccurrenceTable:
    """Sum 1/distance over every pair of distinct tracks within ``window``
    of each other in a session.

    The table's track column is already one flat index array; it is renumbered
    over the tracks the sessions play, and event ``a`` pairs with
    ``a + 1 .. a + window`` through an offset grid, masked where the partner
    falls past the end of its session or is the same track. The grid is
    ravelled row-major, so each pair's weights are summed in the same
    (session, a, b) order as a per-pair loop would add them.
    """
    GloveConfig(window=window)
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


def glove_weights(x, x_max: float = GloveConfig.x_max,
                  alpha: float = GloveConfig.alpha) -> np.ndarray:
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

    def vectors(self) -> np.ndarray:
        return self.main + self.context

    def as_dict(self) -> dict[str, np.ndarray]:
        combined = self.vectors()
        return {tid: combined[k] for k, tid in enumerate(self.track_ids)}


def _residual(dot, bias_i, bias_j, logx, f):
    """Per-entry loss and residual gradient ``g`` of
    f * (w_i . w~_j + b_i + b~_j - logx)^2, from the per-entry dot products
    ``dot = w_i . w~_j``. An entry's gradient is ``g * w~_j`` for w_i,
    ``g * w_i`` for w~_j and ``g`` for each bias."""
    diff = dot + bias_i + bias_j - logx
    return f * diff * diff, 2.0 * f * diff


def _block_width(dims: int) -> int:
    """Columns per block of the vector steps: the widest divisor of ``dims``
    up to 16 if it is at least 8, else ``dims`` (one block)."""
    width = max(w for w in range(1, min(dims, 16) + 1) if dims % w == 0)
    return width if width >= 8 else dims


def _adagrad_rows(param, cache, touched, slot, grad, lr, work):
    """One AdaGrad step per row of ``param`` for a slice of entry gradients.

    Only the ``touched`` rows are read or written. ``grad`` is flat, and
    ``slot`` numbers each value's place among the touched rows: the entry's
    row for a bias, ``row * w + col`` for ``[m, w]`` gradients of a table of
    ``w``-wide rows. The squared gradients of each place are summed (a flat
    ``bincount``) and added to the cache, then the gradients are summed, and
    each touched row moves once by ``-lr * sum / sqrt(cache)``. ``work``, a
    float buffer of ``grad``'s size, holds the squares and then the touched
    rows, so the step's only fresh arrays are its two sums, never alive
    together.
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


def _flat_index(slot, place) -> np.ndarray:
    """The ``[m, w]`` places ``slot * w + col`` of a side's touched-row slots,
    written into ``place`` and returned flat: ``_adagrad_rows``' ``slot``
    for ``[m, w]`` gradients."""
    w = place.shape[1]
    np.add((slot * w)[:, None], np.arange(w), out=place)
    return place.reshape(-1)


def _block_steps(blocks, buffers, steps, rows, g, index, shared, lr):
    """The vector steps of one slice over column ``blocks``, in ``buffers``
    (three ``[m, bw]`` floats). For block ``b`` the entries' ``b`` columns of
    w_i and w~_j are gathered, and each side steps block ``b`` of its touched
    rows with ``g`` times the other side's columns. ``steps`` holds each
    side's ``[V * nb, bw]`` table, its cache and its touched rows times
    ``nb``; ``rows`` each entry's ``i * nb`` and ``j * nb``. ``index`` holds
    each side's flat bincount index, or, when ``shared`` is a ``[m, bw]`` intp
    buffer, its slots, and the two sides take turns building theirs there.
    Only the rows ``r * nb + b`` of ``blocks`` are read or written."""
    block_i, block_j, grad = buffers
    (main_blocks, _, _), (context_blocks, _, _) = steps
    for b in blocks:
        wi = np.take(main_blocks, rows[0] + b, axis=0, out=block_i, mode="clip")
        wj = np.take(context_blocks, rows[1] + b, axis=0, out=block_j, mode="clip")
        for k, ((param, cache, first), other) in enumerate(zip(steps, (wj, wi))):
            flat = index[k] if shared is None else _flat_index(index[k], shared)
            # ``other`` is not read again: it becomes this side's spare buffer
            np.multiply(g[:, None], other, out=grad)
            _adagrad_rows(param, cache, first + b, flat, grad.reshape(-1), lr,
                          other.reshape(-1))


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
              x_max: float = GloveConfig.x_max, alpha: float = GloveConfig.alpha) -> float:
    check_table(table)
    i, j, x = table.directed_entries()
    loss, _ = _residual((emb.main[i] * emb.context[j]).sum(axis=1), emb.main_bias[i],
                        emb.context_bias[j], np.log(x), glove_weights(x, x_max, alpha))
    return float(loss.sum())


def train_glove(table: CooccurrenceTable, dims: int = GloveConfig.dims,
                epochs: int = GloveConfig.epochs, lr: float = GloveConfig.lr,
                seed: int = GloveConfig.seed, x_max: float = GloveConfig.x_max,
                alpha: float = GloveConfig.alpha) -> EmbeddingTable:
    """Fit embeddings to the table; deterministic given the seed.

    The table is checked first (``check_table``). Entries are shuffled every
    epoch and consumed in vectorized slices of ENTRY_BATCH; each slice moves
    every row it touches once (see ``_adagrad_rows``). An entry is read from
    the table through its place in ``directed_entries`` order, and its log
    count and weight are computed once per pair. A slice's dot products are
    summed over ROW_CHUNK rows at a time on the calling thread, which also
    computes the residuals, the loss and the bias steps. The vector steps then
    run one column block of width ``bw`` at a time (``_block_width``), the
    two halves of the ``nb`` blocks on the caller and the worker
    (``parallel.split``). The halves write disjoint rows, and each owns three
    ``[slice, bw]`` float buffers; the dot chunks borrow their memory, so the
    workspace allocated once per call is those buffers and two
    ``[slice, bw]`` intp ones (one set of each if there is one block).

    AdaGrad caches start at 1 so early steps are bounded by lr. The loss
    recorded per epoch is the objective evaluated as each slice is visited,
    before its update.
    """
    GloveConfig(dims=dims, epochs=epochs, x_max=x_max, alpha=alpha, lr=lr, seed=seed)
    check_table(table)
    if not len(table.pairs):
        raise TrainingError("cannot train embeddings on an empty co-occurrence table")
    v = table.n_tracks
    float_count(v, dims)  # a table no array can hold fails before any draw
    rng = np.random.default_rng(seed)
    span = 0.5 / dims
    emb = EmbeddingTable(
        track_ids=list(table.track_ids),
        main=rng.uniform(-span, span, size=(v, dims)),
        context=rng.uniform(-span, span, size=(v, dims)),
        main_bias=rng.uniform(-span, span, size=v),
        context_bias=rng.uniform(-span, span, size=v),
    )
    bw = _block_width(dims)
    nb = dims // bw
    # the vector tables and their caches as [V * nb, bw] rows, with no copy:
    # row r's block b is row r * nb + b
    main_blocks = emb.main.reshape(v * nb, bw)
    context_blocks = emb.context.reshape(v * nb, bw)
    sides = ((emb.main_bias, np.ones(v), main_blocks, np.ones((v * nb, bw))),
             (emb.context_bias, np.ones(v), context_blocks, np.ones((v * nb, bw))))

    # entry e is pair e >> 1, read as (flat[e], flat[e ^ 1]) (directed_entries);
    # intp, since row * nb + b would wrap in a narrower index dtype
    flat = table.pairs.reshape(-1).astype(np.intp, copy=False)
    logx = np.log(table.values)
    f = glove_weights(table.values, x_max, alpha)

    # Workspace: three [slice, bw] block buffers (``_block_steps``) for each
    # half of the blocks (``parallel.split``) and each side's flat bincount
    # index; with one block there is one half, and the two sides take turns
    # in one index buffer. A chunk's gathered w_i and w~_j rows, whose
    # products are summed into ``dot``, borrow the block buffers' memory: no
    # block runs until the chunks are summed.
    n = len(flat)
    m_max, chunk = min(ENTRY_BATCH, n), min(ROW_CHUNK, n)
    work = np.empty(max(2 * chunk * dims, min(nb, 2) * 3 * m_max * bw))
    rows_i, rows_j = work[:2 * chunk * dims].reshape(2, chunk, dims)
    buffers = work[:min(nb, 2) * 3 * m_max * bw].reshape(-1, 3, m_max, bw)
    dot = np.empty(m_max)
    places = np.empty((min(nb, 2), m_max, bw), dtype=np.intp)

    # leaving the block joins the worker, whether the loop returns or raises
    with parallel.worker() as pool:
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for lo in range(0, n, ENTRY_BATCH):
                sel = order[lo:lo + ENTRY_BATCH]
                m = len(sel)
                i, j, pair = flat[sel], flat[sel ^ 1], sel >> 1
                for c in range(0, m, ROW_CHUNK):
                    ci, cj = i[c:c + ROW_CHUNK], j[c:c + ROW_CHUNK]
                    wi = np.take(emb.main, ci, axis=0, out=rows_i[:len(ci)], mode="clip")
                    wj = np.take(emb.context, cj, axis=0, out=rows_j[:len(ci)], mode="clip")
                    np.multiply(wi, wj, out=wi).sum(axis=1, out=dot[c:c + len(ci)])
                loss, g = _residual(dot[:m], emb.main_bias[i], emb.context_bias[j],
                                    logx[pair], f[pair])
                epoch_loss += float(loss.sum())
                steps, index = [], []
                for (bias, bias_cache, param, cache), rows in zip(sides, (i, j)):
                    touched, slot = np.unique(rows, return_inverse=True)
                    _adagrad_rows(bias, bias_cache, touched, slot, g, lr, np.empty_like(g))
                    steps.append((param, cache, touched * nb))
                    index.append(slot)
                del slot
                shared = places[0, :m] if nb == 1 else None
                if shared is None:
                    # the sides' slots give way to the flat indexes built from them
                    index = [_flat_index(slot, place[:m]) for slot, place in zip(index, places)]
                args = (steps, (i * nb, j * nb), g, index, shared, lr)
                parallel.split(pool, nb, lambda k, half: _block_steps(
                    range(nb)[half], buffers[k, :, :m], *args))
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
    token as ``float()`` does, once ``data.first_loose_float`` has found no
    token that ``float()`` reads but the format forbids (``1_0``, ``+3``);
    the track id may hold any character but whitespace. Every error names
    its line, and a non-numeric value its column (the id is column 1).
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
            values = fields[1:]
            bad = first_loose_float(values)
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:  # name an unreadable value unless a loose one comes first
                bad = _first_unreadable(values[:bad])
            if bad is not None:
                raise ValidationError(f"line {line_no}: non-numeric embedding value in "
                                      f"column {bad + 2}")
            if not np.isfinite(vec).all():
                raise ValidationError(f"line {line_no}: non-finite embedding value")
            table[fields[0]] = vec
    if not table:
        raise ValidationError(f"{path}: no embeddings found")
    return table


def _first_unreadable(values: list[str]) -> int:
    """The index of the first of ``values`` that NumPy cannot read as a float,
    or ``len(values)`` when it reads them all."""
    for k, raw in enumerate(values):
        try:
            np.float64(raw)
        except ValueError:
            return k
    return len(values)
