"""Columnar featurization of session events into fixed-width rows.

Column layout, frozen and relied upon by the model and the checkpoints:

triplet (observed first-half event):
    [track embedding (d_emb) | duration | release_year | acoustic_0..d_ac-1 |
     seek_fwd_count | seek_back_count | hour_of_day |
     skipped | context_switch | no_pause_before_play | short_pause_before_play |
     context_type code | position | is_pad]

doublet (second-half event, interactions withheld):
    [track embedding (d_emb) | duration | release_year | acoustic_0..d_ac-1 |
     position | is_pad]

Only this module knows the layout. ``FeaturePipeline.encode`` turns a
session table into two blocks once: ``static``, the song metadata of each
used track (embedding, duration, release_year, acoustic), and ``dynamic``,
every other column of each event (the interaction block, position, is_pad).
A triplet is its track's static row followed by its event's whole dynamic
row; a doublet is the same static row followed by the dynamic row's last two
columns, so it is its triplet without the interaction block.
``EncodedSessions.batch`` gathers a batch's real rows from the two blocks,
packed in the order the model reads them. No row is a pad: is_pad stays in
the layout, which checkpoints fix, and is 0 everywhere. The track
embeddings are one matrix: a used track's row is gathered from it, or is
zero for a track without an embedding.

Every numeric column is scaled into [0, 1] by one expression, ``min_max``,
from its training range. The context_type slot carries a code, 0 for a type
``fit`` never saw; the trainable dense embedding for it lives in the model.
Position is normalized by the global maximum session length.

``FeaturePipeline.from_dict`` rejects a state that ``fit`` could not have
written, naming the field: a bound that is not finite or a ``lo`` above its
``hi``, ``context_vocab`` codes that are not 1..n in sorted type order,
``embedding_ids`` that are not sorted and distinct, or an embedding table
whose shape does not match them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import (
    COUNT_COLUMNS,
    MAX_SESSION_LEN,
    TASK_NAMES,
    SessionTable,
    TrackTable,
    first_half_length,
    id_rows,
)
from .errors import DataError, EmptyBatchError, StateError, ValidationError

# width of the interaction-only block: 3 counts + 4 task flags + context code
INTERACTION_WIDTH = len(COUNT_COLUMNS) + len(TASK_NAMES) + 1


def min_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``values [n, k]`` scaled column by column into [0, 1] by the training
    bounds ``lo`` and ``hi`` (one per column): a value outside the bounds is
    clamped, and a column whose bounds are equal maps to 0. Each column is
    scaled on its own into a contiguous row of one preallocated ``[k, n]``
    array, returned transposed, so every ufunc loop runs over ``n`` values."""
    scaled = np.empty((values.shape[1], len(values)))
    for column, value, low, high in zip(scaled, values.T, lo, hi):
        span = high - low
        if span == 0:
            column[:] = 0.0
        else:
            np.subtract(value, low, out=column)
            column /= span
            np.clip(column, 0.0, 1.0, out=column)
    return scaled.T


def position_feature(position):
    if np.any((position < 1) | (position > MAX_SESSION_LEN)):
        raise ValidationError(f"position must be in [1, {MAX_SESSION_LEN}], got {position}")
    return position / MAX_SESSION_LEN


class FeaturePipeline:
    """The fitted feature state and the pretrained track-embedding table.

    Construct with the embedding table (track_id -> vector), then ``fit`` on
    training sessions before any ``encode`` call. The vectors are kept as
    one read-only ``[n, d_emb]`` matrix, ``embedding_table``, whose rows
    follow the sorted ``embedding_ids``. ``fit`` sets the rest: ``lo`` and
    ``hi``, the training range of each of ``numeric_columns``, and
    ``contexts``, the sorted context types, of which ``contexts[k]`` codes as
    ``k + 1`` and any other type as 0. A pipeline whose ``contexts`` is None
    is unfitted. Fitted pipelines are immutable in use and safe to share
    across threads.
    """

    def __init__(self, embeddings: dict[str, np.ndarray], d_emb: int | None = None):
        if d_emb is None:
            if not embeddings:
                raise ValidationError("d_emb is required when the embedding table is empty")
            d_emb = len(next(iter(embeddings.values())))
        vectors = {k: np.asarray(v, dtype=np.float64) for k, v in embeddings.items()}
        for track_id, vec in vectors.items():
            if vec.shape != (d_emb,):
                raise ValidationError(
                    f"embedding for {track_id!r} has shape {vec.shape}, want ({d_emb},)"
                )
        self.d_emb = int(d_emb)
        self.embedding_ids = sorted(vectors)
        self.embedding_table = np.array([vectors[k] for k in self.embedding_ids],
                                        dtype=np.float64).reshape(len(vectors), self.d_emb)
        self.embedding_table.flags.writeable = False
        self.acoustic_dim = self.lo = self.hi = self.contexts = None

    def fit(self, table: SessionTable, tracks: TrackTable) -> "FeaturePipeline":
        if not table:
            raise EmptyBatchError("cannot fit the feature pipeline on an empty session list")
        used, _ = _used_tracks(table, tracks)
        observed = table.observed
        if not observed.any():
            raise ValidationError("cannot fit the feature pipeline without an observed event")
        self.acoustic_dim = tracks.acoustic.shape[1]
        # column by column: this measured faster than min(axis=0) on the int count block
        columns = [*self._track_values(tracks, used).T, *table.counts[observed].T]
        self.lo = np.array([column.min() for column in columns], dtype=np.float64)
        self.hi = np.array([column.max() for column in columns], dtype=np.float64)
        self.contexts = [table.context_types[k]
                         for k in np.unique(table.context_index[observed]).tolist()]
        return self

    def _require_fitted(self):
        if self.contexts is None:
            raise StateError("feature pipeline used before fit()")

    @property
    def numeric_columns(self) -> list[str]:
        """The min-max scaled columns, in layout order; ``lo`` and ``hi`` follow it."""
        self._require_fitted()
        return ["duration", "release_year", *(f"acoustic_{k}" for k in range(self.acoustic_dim)),
                *COUNT_COLUMNS]

    @property
    def d_doub(self) -> int:
        self._require_fitted()
        return self.d_emb + 2 + self.acoustic_dim + 2

    @property
    def d_trip(self) -> int:
        return self.d_doub + INTERACTION_WIDTH

    @property
    def triplet_ctx_col(self) -> int:
        """Column of the context_type code inside a triplet vector."""
        return self.d_trip - 3

    @property
    def context_vocab_size(self) -> int:
        """Rows of the context embedding: one per fitted type, plus code 0."""
        self._require_fitted()
        return len(self.contexts) + 1

    def _embedding_rows(self, track_ids: list[str]) -> np.ndarray:
        """The embedding rows of ``track_ids``, zeros for a track without one."""
        rows = id_rows(self.embedding_ids, track_ids)
        known = rows >= 0
        out = np.zeros((len(rows), self.d_emb))
        out[known] = self.embedding_table[rows[known]]
        return out

    def _track_values(self, tracks: TrackTable, rows: np.ndarray) -> np.ndarray:
        """Unscaled values of the tracks at ``rows``: the leading ``numeric_columns``."""
        if tracks.acoustic.shape[1] != self.acoustic_dim:
            raise ValidationError(f"tracks: acoustic dim {tracks.acoustic.shape[1]} "
                                  f"!= fitted dim {self.acoustic_dim}")
        return np.column_stack([tracks.duration[rows], tracks.release_year[rows],
                                tracks.acoustic[rows]])

    def encode(self, table: SessionTable, tracks: TrackTable) -> "EncodedSessions":
        """Featurize a session table once, on its flat event axis; ``batch``
        then gathers the real rows of any batch of its sessions."""
        if not table:
            raise EmptyBatchError("cannot encode an empty session list")
        self._require_fitted()
        lengths = table.lengths
        bad = np.flatnonzero((lengths < 1) | (lengths > MAX_SESSION_LEN))
        if bad.size:
            raise ValidationError(f"session {table.session_ids[bad[0]]}: length "
                                  f"{lengths[bad[0]]} outside [1, {MAX_SESSION_LEN}]")
        used, track_row = _used_tracks(table, tracks)
        session, _, first = table.event_layout()
        unobserved = np.flatnonzero(first & ~table.observed)
        if unobserved.size:
            e = unobserved[0]
            raise ValidationError(f"session {table.session_ids[session[e]]}: missing "
                                  f"interaction at position {table.positions[e]} (first half)")
        k = len(COUNT_COLUMNS)  # the last k numeric columns
        context = id_rows(self.contexts, table.context_types) + 1
        dynamic = np.zeros((len(first), INTERACTION_WIDTH + 2))  # is_pad stays 0
        dynamic[first, :INTERACTION_WIDTH] = np.column_stack([
            min_max(table.counts[first], self.lo[-k:], self.hi[-k:]),
            table.flags[first], context[table.context_index[first]]])
        dynamic[:, -2] = position_feature(table.positions.astype(np.float64))
        static = np.hstack([self._embedding_rows([tracks.ids[r] for r in used.tolist()]),
                            min_max(self._track_values(tracks, used), self.lo[:-k], self.hi[:-k])])
        return EncodedSessions(table.offsets, static, track_row, dynamic, table.flags)

    def state_key(self) -> tuple[str, bytes]:
        """Exact, hashable identity of the fitted state: pipelines with equal
        keys encode every session to the same bytes."""
        return json.dumps(self.to_dict(), sort_keys=True), self.embedding_table.tobytes()

    def to_dict(self) -> dict:
        """The fitted state but the embedding table, as plain JSON values; the
        table is ``embedding_table``, whose rows follow ``embedding_ids``."""
        self._require_fitted()
        bounds = zip(self.numeric_columns, zip(self.lo.tolist(), self.hi.tolist()))
        return {
            "d_emb": self.d_emb,
            "acoustic_dim": self.acoustic_dim,
            "scalers": {name: list(pair) for name, pair in sorted(bounds)},
            "context_vocab": {c: k for k, c in enumerate(self.contexts, start=1)},
            "embedding_ids": list(self.embedding_ids),
        }

    @classmethod
    def from_dict(cls, payload: dict, embeddings: np.ndarray) -> "FeaturePipeline":
        """The pipeline whose ``to_dict`` is ``payload`` and whose
        ``embedding_table`` is a copy of ``embeddings``. A state that ``fit``
        could not have written is a ValidationError naming its field."""
        pipeline = cls({}, d_emb=payload["d_emb"])
        ids = list(payload["embedding_ids"])
        table = np.array(embeddings, dtype=np.float64)
        if table.shape != (len(ids), pipeline.d_emb):
            raise ValidationError(f"embeddings: table of shape {table.shape} does not match "
                                  f"{len(ids)} ids of dimension {pipeline.d_emb}")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValidationError("embedding_ids: not sorted and distinct")
        table.flags.writeable = False
        pipeline.embedding_ids, pipeline.embedding_table = ids, table
        pipeline.acoustic_dim = payload["acoustic_dim"]
        vocab = dict(payload["context_vocab"])
        pipeline.contexts = sorted(vocab)
        if [vocab[c] for c in pipeline.contexts] != list(range(1, len(vocab) + 1)):
            raise ValidationError(f"context_vocab: codes {vocab} are not 1..{len(vocab)} "
                                  f"in sorted type order")
        scalers, names = payload["scalers"], pipeline.numeric_columns
        if set(scalers) != set(names):
            raise ValidationError(f"scalers: names {sorted(scalers)} do not match the "
                                  f"feature schema")
        for name in names:
            lo, hi = scalers[name]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValidationError(f"scalers: {name!r} bounds [{lo}, {hi}] are not "
                                      f"finite with lo <= hi")
        pipeline.lo, pipeline.hi = np.array([scalers[name] for name in names],
                                            dtype=np.float64).T.copy()
        return pipeline


def _used_tracks(table: SessionTable, tracks: TrackTable) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``tracks`` that the table's events play, in track-id order,
    and each event's index into them. A track missing from ``tracks`` is a
    DataError naming the first session that plays it."""
    codes, event_track = np.unique(table.track_index, return_inverse=True)
    rows = id_rows(tracks.ids, [table.track_ids[k] for k in codes.tolist()])
    if (rows < 0).any():
        event = int(np.argmax(rows[event_track] < 0))
        session = np.searchsorted(table.offsets, event, side="right") - 1
        raise DataError(f"session {table.session_ids[session]}: unknown track_id "
                        f"{table.track_ids[table.track_index[event]]!r}")
    return rows, event_track


@dataclass
class Batch:
    """The real rows of a batch of sessions, packed as ``EncodedSessions.batch``
    lays them out; no row is a pad."""

    first: np.ndarray    # [first-half events, d_trip] triplets, step-major
    sizes: np.ndarray    # int [longest first half], rows of ``first`` at each step
    last: np.ndarray     # int [batch], each session's last-step row of ``first``
    second: np.ndarray   # [second-half events, d_doub] doublets, session-major
    session: np.ndarray  # int [second-half events], each doublet's session in the batch
    targets: np.ndarray  # [second-half events, 4] labels of ``second``


@dataclass
class EncodedSessions:
    """A featurized session list on the session table's flat event axis, as
    two blocks: what belongs to a track, once per track, and what belongs to
    an event, once per event.

    Session ``k`` holds events ``offsets[k]:offsets[k + 1]``, its first half
    observed. An event's triplet is its track's row of ``static`` followed by
    its row of ``dynamic``: the scaled interaction block (0 on second-half
    events), then position and is_pad. Its doublet is the same static row
    followed by the last two columns of ``dynamic`` only.
    """

    offsets: np.ndarray    # int [n + 1]
    static: np.ndarray     # [tracks used, d_doub - 2]
    track_row: np.ndarray  # int [events], into static
    dynamic: np.ndarray    # [events, INTERACTION_WIDTH + 2]
    labels: np.ndarray     # bool [events, 4], TASK_NAMES order

    def batch(self, rows) -> Batch:
        """The sessions at ``rows``, in that order, as packed real rows.

        ``first`` is packed as packed-sequence RNNs read it: the sessions are
        sorted stably by decreasing first-half length, so the ones still
        running at step t are the first ``sizes[t]``, and step t's rows follow
        step t - 1's. ``second`` and ``targets`` hold each session's
        second-half events in order, one session after another.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts, ends = self.offsets[rows], self.offsets[rows + 1]
        first_lengths = first_half_length(ends - starts)
        order = np.argsort(-first_lengths, kind="stable")
        running = first_lengths[order] > np.arange(first_lengths.max())[:, None]  # [step, rank]
        step, rank = np.nonzero(running)
        sizes = running.sum(axis=1)
        # each session's last step: its step's first packed row plus its rank
        last = np.concatenate([[0], np.cumsum(sizes)])[first_lengths - 1] + np.argsort(order)
        first = starts[order[rank]] + step
        second_lengths = ends - starts - first_lengths
        session = np.repeat(np.arange(len(rows)), second_lengths)
        # each second-half row: its session's first second-half event plus its rank there
        within = np.arange(len(session)) - (np.cumsum(second_lengths) - second_lengths)[session]
        second = (starts + first_lengths)[session] + within
        return Batch(
            np.hstack([self.static[self.track_row[first]], self.dynamic[first]]),
            sizes, last,
            np.hstack([self.static[self.track_row[second]], self.dynamic[second, -2:]]),
            session, self.labels[second].astype(np.float64))
