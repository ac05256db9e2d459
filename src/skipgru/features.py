"""Columnar featurization of session events into fixed-width tensors.

Column layout, frozen and relied upon by the model and the checkpoints:

triplet (observed first-half event):
    [track embedding (d_emb) | duration | release_year | acoustic_0..d_ac-1 |
     seek_fwd_count | seek_back_count | hour_of_day |
     skipped | context_switch | no_pause_before_play | short_pause_before_play |
     context_type vocab index | position | is_pad]

doublet (second-half event, interactions withheld):
    [track embedding (d_emb) | duration | release_year | acoustic_0..d_ac-1 |
     position | is_pad]

Only this module knows the layout: ``FeaturePipeline.encode`` turns a session
list into compact arrays once, and ``EncodedSessions.batch`` gathers padded
tensors from them. Pad slots are 0 except is_pad, which is 1.

Numeric features are min-max scaled into [0, 1] from training data (values
outside the training range are clamped). The context_type slot carries the
vocabulary *index*; the trainable dense embedding for it lives in the model.
Position is normalized by the global maximum session length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    HALF_LEN,
    MAX_SESSION_LEN,
    TASK_NAMES,
    PaddedBatch,
    Session,
    TrackRecord,
    split_halves,
)
from .errors import EmptyBatchError, StateError, ValidationError

NUMERIC_INTERACTION_FEATURES = ("seek_fwd_count", "seek_back_count", "hour_of_day")
# width of the interaction-only block: 3 numerics + 4 booleans + ctx index
INTERACTION_WIDTH = len(NUMERIC_INTERACTION_FEATURES) + 4 + 1


@dataclass
class Scaler:
    """Min-max normalizer learned from training values."""

    lo: float
    hi: float

    def transform(self, x):
        """Elementwise scaling into [0, 1]; a constant training range maps to 0."""
        if self.hi == self.lo:
            return np.zeros_like(x)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    @classmethod
    def fit(cls, values) -> "Scaler":
        values = list(values)
        if not values:
            raise ValidationError("cannot fit a scaler on no values")
        return cls(lo=float(min(values)), hi=float(max(values)))


def position_feature(position):
    if np.any((position < 1) | (position > MAX_SESSION_LEN)):
        raise ValidationError(f"position must be in [1, {MAX_SESSION_LEN}], got {position}")
    return position / MAX_SESSION_LEN


@dataclass
class Vocabulary:
    """Dense token index with 0 reserved for unknown/pad tokens."""

    index: dict[str, int]

    @classmethod
    def fit(cls, tokens) -> "Vocabulary":
        return cls(index={tok: i for i, tok in enumerate(sorted(set(tokens)), start=1)})

    def lookup(self, token: str) -> int:
        return self.index.get(token, 0)

    @property
    def size(self) -> int:
        """Number of embedding rows needed, reserved index included."""
        return len(self.index) + 1


class FeaturePipeline:
    """Scalers, vocabularies and the pretrained track-embedding table.

    Construct with the embedding table (track_id -> vector), then ``fit`` on
    training sessions before any ``encode`` call. Fitted pipelines are
    immutable in use and safe to share across threads.
    """

    def __init__(self, embeddings: dict[str, np.ndarray], d_emb: int | None = None):
        if d_emb is None:
            if not embeddings:
                raise ValidationError("d_emb is required when the embedding table is empty")
            d_emb = len(next(iter(embeddings.values())))
        self.embeddings = {k: np.asarray(v, dtype=np.float64) for k, v in embeddings.items()}
        for track_id, vec in self.embeddings.items():
            if vec.shape != (d_emb,):
                raise ValidationError(
                    f"embedding for {track_id!r} has shape {vec.shape}, want ({d_emb},)"
                )
        self.d_emb = int(d_emb)
        self.acoustic_dim: int | None = None
        self.scalers: dict[str, Scaler] = {}
        self.context_vocab: Vocabulary | None = None
        self.fitted = False

    def fit(self, sessions: list[Session], tracks: dict[str, TrackRecord]) -> "FeaturePipeline":
        if not sessions:
            raise EmptyBatchError("cannot fit the feature pipeline on an empty session list")
        events = [ev for session in sessions for ev in session.events]
        used = list({ev.track_id: tracks[ev.track_id] for ev in events}.values())
        observed = [ev.interaction for ev in events if ev.interaction is not None]
        self.acoustic_dim = len(used[0].acoustic)
        self.context_vocab = Vocabulary.fit(a.context_type for a in observed)
        self.scalers = {name: Scaler.fit(column) for name, column
                        in zip(self._track_columns(), self._track_values(used).T)}
        self.scalers.update(zip(NUMERIC_INTERACTION_FEATURES,
                                map(Scaler.fit, self._interaction_values(observed).T)))
        self.fitted = True
        return self

    def _require_fitted(self):
        if not self.fitted:
            raise StateError("feature pipeline used before fit()")

    @property
    def d_doub(self) -> int:
        self._require_fitted()
        return self.d_emb + 2 + self.acoustic_dim + 2

    @property
    def d_trip(self) -> int:
        return self.d_doub + INTERACTION_WIDTH

    @property
    def triplet_ctx_col(self) -> int:
        """Column of the context_type vocab index inside a triplet vector."""
        return self.d_trip - 3

    @property
    def context_vocab_size(self) -> int:
        self._require_fitted()
        return self.context_vocab.size

    def track_embedding(self, track_id: str) -> np.ndarray:
        vec = self.embeddings.get(track_id)
        return np.zeros(self.d_emb) if vec is None else vec

    def _track_columns(self) -> list[str]:
        return ["duration", "release_year", *(f"acoustic_{k}" for k in range(self.acoustic_dim))]

    def _track_values(self, used: list[TrackRecord]) -> np.ndarray:
        """Unscaled rows in ``_track_columns`` order."""
        for track in used:
            if len(track.acoustic) != self.acoustic_dim:
                raise ValidationError(f"track {track.track_id}: acoustic dim "
                                      f"{len(track.acoustic)} != fitted dim {self.acoustic_dim}")
        return np.column_stack([[t.duration for t in used], [t.release_year for t in used],
                                np.stack([t.acoustic for t in used])])

    def _interaction_values(self, observed) -> np.ndarray:
        """Interaction-block rows; the NUMERIC_INTERACTION_FEATURES columns are unscaled."""
        return np.array([
            (a.seek_fwd_count, a.seek_back_count, a.hour_of_day, *a.targets(),
             self.context_vocab.lookup(a.context_type))
            for a in observed
        ], dtype=np.float64).reshape(-1, INTERACTION_WIDTH)

    def _scaled(self, values: np.ndarray, names) -> np.ndarray:
        """The leading columns of ``values``, each scaled by the scaler of its name."""
        return np.column_stack([self.scalers[name].transform(column)
                                for name, column in zip(names, values.T)])

    def encode(self, sessions: list[Session], tracks: dict[str, TrackRecord]) -> "EncodedSessions":
        """Featurize a session list once; ``batch`` then gathers padded tensors from it."""
        if not sessions:
            raise EmptyBatchError("cannot encode an empty session list")
        self._require_fitted()
        n = len(sessions)
        row_of: dict[str, int] = {}  # track_id -> static row; row 0 is the pad row
        track_rows = np.zeros((n, 2 * HALF_LEN), dtype=np.int64)
        positions = np.zeros((n, 2 * HALF_LEN))
        targets = np.zeros((n, HALF_LEN, len(TASK_NAMES)))
        observed = []
        for i, session in enumerate(sessions):
            if len(session) > MAX_SESSION_LEN:
                raise ValidationError(f"session {session.session_id}: longer than {MAX_SESSION_LEN}")
            first, second = split_halves(session)
            for t, ev in [*enumerate(first), *enumerate(second, start=HALF_LEN)]:
                track_rows[i, t] = row_of.setdefault(ev.track_id, len(row_of) + 1)
                positions[i, t] = ev.position
            observed.extend(ev.interaction for ev in first)
            for t, ev in enumerate(second):
                if ev.interaction is not None:
                    targets[i, t] = ev.interaction.targets()
        used = [tracks[track_id] for track_id in row_of]
        static = np.hstack([np.stack([self.track_embedding(t.track_id) for t in used]),
                            self._scaled(self._track_values(used), self._track_columns())])
        raw = self._interaction_values(observed)
        raw[:, :len(NUMERIC_INTERACTION_FEATURES)] = self._scaled(raw, NUMERIC_INTERACTION_FEATURES)
        real = track_rows > 0
        positions[real] = position_feature(positions[real])
        interactions = np.zeros((n, HALF_LEN, INTERACTION_WIDTH))
        interactions[real[:, :HALF_LEN]] = raw
        return EncodedSessions([s.session_id for s in sessions],
                               np.vstack([np.zeros(static.shape[1]), static]),
                               track_rows, positions, interactions, targets)

    def schema_fingerprint(self) -> tuple:
        """Stable identity of the feature layout, used for ensemble compatibility."""
        self._require_fitted()
        return (
            self.d_emb,
            self.acoustic_dim,
            tuple(sorted(self.scalers)),
            tuple(sorted(self.context_vocab.index.items())),
        )

    def to_dict(self) -> dict:
        """The fitted state; ``embeddings`` is one ``[n, d_emb]`` table whose
        rows follow the sorted ``embedding_ids``."""
        self._require_fitted()
        ids = sorted(self.embeddings)
        return {
            "d_emb": self.d_emb,
            "acoustic_dim": self.acoustic_dim,
            "scalers": {k: [s.lo, s.hi] for k, s in sorted(self.scalers.items())},
            "context_vocab": dict(sorted(self.context_vocab.index.items())),
            "embedding_ids": ids,
            "embeddings": np.array([self.embeddings[k] for k in ids],
                                   dtype=np.float64).reshape(len(ids), self.d_emb),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeaturePipeline":
        ids, table = payload["embedding_ids"], np.asarray(payload["embeddings"], dtype=np.float64)
        if len(set(ids)) != len(ids) or table.ndim != 2 or table.shape[0] != len(ids):
            raise ValidationError(f"embedding table of shape {table.shape} does not match "
                                  f"{len(ids)} distinct embedding ids")
        pipeline = cls(embeddings=dict(zip(ids, table)), d_emb=payload["d_emb"])
        pipeline.acoustic_dim = payload["acoustic_dim"]
        pipeline.scalers = {k: Scaler(lo=v[0], hi=v[1]) for k, v in payload["scalers"].items()}
        if set(pipeline.scalers) != {*pipeline._track_columns(), *NUMERIC_INTERACTION_FEATURES}:
            raise ValidationError(f"scalers {sorted(pipeline.scalers)} do not match the "
                                  f"feature schema")
        pipeline.context_vocab = Vocabulary(index=dict(payload["context_vocab"]))
        pipeline.fitted = True
        return pipeline


@dataclass
class EncodedSessions:
    """A featurized session list, kept compact until a batch is gathered.

    Slots ``0..HALF_LEN-1`` hold a session's first half and ``HALF_LEN..`` its
    second half, each padded at the tail. ``track_rows`` indexes ``static``,
    whose row 0 is the all-zero pad row, so a slot is real exactly where its
    track row is nonzero.
    """

    session_ids: list[str]
    static: np.ndarray        # [tracks used + 1, d_doub - 2]
    track_rows: np.ndarray    # int [n, 2 * HALF_LEN]
    positions: np.ndarray     # [n, 2 * HALF_LEN] position feature, 0 on pad slots
    interactions: np.ndarray  # [n, HALF_LEN, INTERACTION_WIDTH] scaled, 0 on pad slots
    targets: np.ndarray       # [n, HALF_LEN, 4]

    def batch(self, rows) -> PaddedBatch:
        """The sessions at ``rows``, in that order, as padded tensors."""
        track_rows = self.track_rows[rows]
        static = self.static[track_rows]
        tail = np.stack([self.positions[rows], track_rows == 0], axis=2)  # position | is_pad
        first = np.concatenate(
            [static[:, :HALF_LEN], self.interactions[rows], tail[:, :HALF_LEN]], axis=2)
        second = np.concatenate([static[:, HALF_LEN:], tail[:, HALF_LEN:]], axis=2)
        mask = track_rows[:, HALF_LEN:] > 0
        return PaddedBatch([self.session_ids[r] for r in rows], first, second, mask,
                           self.targets[rows], mask.sum(axis=1).tolist())
