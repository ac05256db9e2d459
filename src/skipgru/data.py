"""Session/track data model, CSV ingestion, half-splitting, padding and a
synthetic corpus generator with a known learnable skip rule.

File formats (UTF-8, comma-separated, first row is the header):

sessions.csv
    session_id, position, track_id, skipped, context_switch,
    no_pause_before_play, short_pause_before_play, seek_fwd_count,
    seek_back_count, hour_of_day, context_type
    Booleans are serialized as 0/1. In inference files the eight interaction
    columns are empty for second-half rows.

tracks.csv
    track_id, duration, release_year, acoustic_0 .. acoustic_{d-1}
"""

from __future__ import annotations

import csv
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ParseError,
    ValidationError,
)

MIN_SESSION_LEN = 10
MAX_SESSION_LEN = 20
HALF_LEN = MAX_SESSION_LEN // 2

TASK_NAMES = ("skipped", "context_switch", "no_pause_before_play", "short_pause_before_play")

SESSION_COLUMNS = (
    "session_id", "position", "track_id", "skipped", "context_switch",
    "no_pause_before_play", "short_pause_before_play", "seek_fwd_count",
    "seek_back_count", "hour_of_day", "context_type",
)
INTERACTION_COLUMNS = SESSION_COLUMNS[3:]

CONTEXT_TYPES = ("playlist", "radio", "album", "artist_page", "search", "charts")


@dataclass(frozen=True)
class InteractionRecord:
    skipped: bool
    context_switch: bool
    no_pause_before_play: bool
    short_pause_before_play: bool
    seek_fwd_count: int
    seek_back_count: int
    hour_of_day: int
    context_type: str

    def __post_init__(self):
        if not 0 <= self.hour_of_day <= 23:
            raise ValidationError(f"hour_of_day must be in [0, 23], got {self.hour_of_day}")
        if self.seek_fwd_count < 0 or self.seek_back_count < 0:
            raise ValidationError("seek counts must be non-negative")

    def targets(self) -> tuple[bool, bool, bool, bool]:
        return (self.skipped, self.context_switch,
                self.no_pause_before_play, self.short_pause_before_play)


@dataclass(eq=False)
class TrackRecord:
    track_id: str
    duration: float
    release_year: int
    acoustic: np.ndarray

    def __post_init__(self):
        self.acoustic = np.asarray(self.acoustic, dtype=np.float64)
        if self.acoustic.ndim != 1:
            raise ValidationError(f"track {self.track_id}: acoustic vector must be 1-D")
        if not np.isfinite(self.acoustic).all():
            raise ValidationError(f"track {self.track_id}: non-finite acoustic entries")
        if not np.isfinite(self.duration):
            raise ValidationError(f"track {self.track_id}: non-finite duration {self.duration}")


@dataclass(frozen=True)
class Event:
    track_id: str
    position: int
    interaction: InteractionRecord | None


@dataclass
class Session:
    session_id: str
    events: list[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, mode: str) -> None:
        n = len(self.events)
        if not MIN_SESSION_LEN <= n <= MAX_SESSION_LEN:
            raise ValidationError(
                f"session {self.session_id}: length {n} outside "
                f"[{MIN_SESSION_LEN}, {MAX_SESSION_LEN}]"
            )
        for i, ev in enumerate(self.events, start=1):
            if ev.position != i:
                raise ValidationError(
                    f"session {self.session_id}: positions not contiguous 1..{n} "
                    f"(found {ev.position} at slot {i})"
                )
        first_len = first_half_length(n)
        for ev in self.events:
            required = mode == "train" or ev.position <= first_len
            if required and ev.interaction is None:
                raise ValidationError(
                    f"session {self.session_id}: missing interaction at position "
                    f"{ev.position} ({mode} mode)"
                )


def first_half_length(session_len: int) -> int:
    """Observed-prefix length: ceil(L/2), so odd sessions put the extra event first."""
    return math.ceil(session_len / 2)


def split_halves(session: Session) -> tuple[list[Event], list[Event]]:
    cut = first_half_length(len(session.events))
    return session.events[:cut], session.events[cut:]


@dataclass
class PaddedBatch:
    """Fixed-length feature tensors for a batch of sessions.

    ``first_half``/``second_half`` are padded at the tail to HALF_LEN steps;
    padded slots carry 0.0 in every feature and 1 in the is_pad slot. ``mask``
    marks real second-half positions; ``targets`` holds the four task labels
    and is meaningful only where ``mask`` is true.
    """

    session_ids: list[str]
    first_half: np.ndarray     # [batch, HALF_LEN, d_trip]
    second_half: np.ndarray    # [batch, HALF_LEN, d_doub]
    mask: np.ndarray           # bool [batch, HALF_LEN]
    targets: np.ndarray        # float64 [batch, HALF_LEN, 4]
    second_lengths: list[int]

    @property
    def size(self) -> int:
        return len(self.session_ids)


def pad_batch(sessions: list[Session], pipeline, tracks: dict[str, TrackRecord]) -> PaddedBatch:
    """Encode sessions through a fitted pipeline into padded tensors."""
    return pipeline.encode(sessions, tracks).batch(range(len(sessions)))


def _parse_bool(raw: str, column: str, line_no: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ParseError(f"line {line_no}: column '{column}' must be 0 or 1, got {raw!r}")


def _parse_int(raw: str, column: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: column '{column}' is not an integer: {raw!r}") from None


def _parse_float(raw: str, column: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: column '{column}' is not a number: {raw!r}") from None


def load_tracks(path) -> dict[str, TrackRecord]:
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty track file") from None
        if header[:3] != ["track_id", "duration", "release_year"]:
            raise ParseError(f"{path}: unexpected track header {header[:3]}")
        acoustic_cols = header[3:]
        expected = [f"acoustic_{i}" for i in range(len(acoustic_cols))]
        if acoustic_cols != expected:
            raise ParseError(f"{path}: acoustic columns must be acoustic_0..acoustic_{{d-1}}")
        tracks: dict[str, TrackRecord] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} columns, got {len(row)}")
            track_id = row[0]
            if track_id in tracks:
                raise ValidationError(f"line {line_no}: duplicate track_id {track_id!r}")
            duration = _parse_float(row[1], "duration", line_no)
            release_year = _parse_int(row[2], "release_year", line_no)
            acoustic = [_parse_float(v, c, line_no) for v, c in zip(row[3:], acoustic_cols)]
            try:
                tracks[track_id] = TrackRecord(track_id, duration, release_year,
                                               np.array(acoustic))
            except ValidationError as err:
                raise ValidationError(f"line {line_no}: {err}") from None
    return tracks


def load_sessions(path, tracks: dict[str, TrackRecord] | None, mode: str) -> list[Session]:
    """Load and validate sessions; result is sorted by session_id then position.

    ``tracks=None`` skips track-id resolution (used when only the interaction
    labels matter, e.g. loading a truth file for scoring).
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    rows: dict[str, list[tuple[int, Event]]] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty session file") from None
        if tuple(header) != SESSION_COLUMNS:
            raise ParseError(f"{path}: unexpected header {header}, want {list(SESSION_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(SESSION_COLUMNS):
                raise ParseError(
                    f"line {line_no}: expected {len(SESSION_COLUMNS)} columns, got {len(row)}"
                )
            session_id, position_raw, track_id = row[0], row[1], row[2]
            position = _parse_int(position_raw, "position", line_no)
            if tracks is not None and track_id not in tracks:
                raise DataError(f"line {line_no}: unknown track_id {track_id!r}")
            inter_raw = row[3:]
            if all(v == "" for v in inter_raw):
                interaction = None
            elif any(v == "" for v in inter_raw):
                raise ParseError(
                    f"line {line_no}: interaction columns must be all present or all empty"
                )
            else:
                interaction = InteractionRecord(
                    skipped=_parse_bool(inter_raw[0], "skipped", line_no),
                    context_switch=_parse_bool(inter_raw[1], "context_switch", line_no),
                    no_pause_before_play=_parse_bool(inter_raw[2], "no_pause_before_play", line_no),
                    short_pause_before_play=_parse_bool(
                        inter_raw[3], "short_pause_before_play", line_no
                    ),
                    seek_fwd_count=_parse_int(inter_raw[4], "seek_fwd_count", line_no),
                    seek_back_count=_parse_int(inter_raw[5], "seek_back_count", line_no),
                    hour_of_day=_parse_int(inter_raw[6], "hour_of_day", line_no),
                    context_type=inter_raw[7],
                )
            rows.setdefault(session_id, []).append(
                (line_no, Event(track_id=track_id, position=position, interaction=interaction))
            )
    sessions = []
    for session_id in sorted(rows):
        events = [ev for _, ev in sorted(rows[session_id], key=lambda r: r[1].position)]
        session = Session(session_id=session_id, events=events)
        session.validate(mode)
        sessions.append(session)
    return sessions


@contextmanager
def open_text(path, newline: str | None = None):
    """UTF-8 text handle for reading ``path``; a byte that is not UTF-8 raises
    ParseError naming the path and the first line that does not decode."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: line {_first_undecodable_line(path)}: "
                         f"not UTF-8 text ({err.reason})") from None


def _first_undecodable_line(path) -> int:
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return line_no


@contextmanager
def atomic_write(path, newline: str | None = None, binary: bool = False):
    """File handle whose contents replace ``path`` only when the block ends.

    The data goes to a temporary file in the target directory, which is
    flushed to disk and then renamed over ``path``. If the block raises, the
    temporary file is removed and whatever ``path`` held is left untouched.
    The handle is UTF-8 text, with ``newline`` passed to ``open`` (``""`` for
    ``csv`` writers), or takes bytes when ``binary`` is set.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    text = {} if binary else {"newline": newline, "encoding": "utf-8"}
    try:
        with open(tmp, "xb" if binary else "x", **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tracks(path, tracks: dict[str, TrackRecord]) -> None:
    ids = sorted(tracks)
    dim = len(tracks[ids[0]].acoustic) if ids else 0
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "duration", "release_year"]
                        + [f"acoustic_{i}" for i in range(dim)])
        for track_id in ids:
            t = tracks[track_id]
            writer.writerow([t.track_id, repr(t.duration), t.release_year]
                            + [repr(float(v)) for v in t.acoustic])


def write_sessions(path, sessions: list[Session], mode: str = "train") -> None:
    """Serialize sessions; infer mode blanks second-half interaction columns."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SESSION_COLUMNS)
        for session in sessions:
            cut = first_half_length(len(session.events))
            for ev in session.events:
                hidden = mode == "infer" and ev.position > cut
                if hidden or ev.interaction is None:
                    inter = [""] * len(INTERACTION_COLUMNS)
                else:
                    a = ev.interaction
                    inter = [
                        int(a.skipped), int(a.context_switch),
                        int(a.no_pause_before_play), int(a.short_pause_before_play),
                        a.seek_fwd_count, a.seek_back_count, a.hour_of_day, a.context_type,
                    ]
                writer.writerow([session.session_id, ev.position, ev.track_id] + inter)


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# how strongly a session's track choices concentrate around its taste
# direction; higher values make co-listened tracks more acoustically alike
TASTE_CONCENTRATION = 3.0


def gen_synthetic(
    n_sessions: int,
    n_tracks: int,
    acoustic_dim: int = 2,
    seed: int = 0,
    label_noise: float = 0.05,
) -> tuple[dict[str, TrackRecord], list[Session]]:
    """Deterministic synthetic corpus with a learnable skip rule.

    Each session draws a latent unit preference vector u; a track is skipped
    exactly when u . acoustic < 0, then the label is flipped with probability
    ``label_noise``. The auxiliary interaction flags are independent noisy
    copies of the skip flag, and seek counts are skip-correlated, so the
    observed first half statistically reveals u and makes the second half
    predictable from track features alone.

    Tracks within a session are drawn from a session-specific acoustic
    neighborhood (softmax around an independent taste direction), so tracks
    that sound alike tend to be co-listened and session co-occurrence carries
    acoustic information. The taste direction is independent of u, which
    keeps the marginal skip rate at one half.
    """
    if n_tracks < 50:
        raise ConfigError(f"n_tracks must be >= 50, got {n_tracks}")
    if acoustic_dim < 2:
        raise ConfigError(f"acoustic_dim must be >= 2, got {acoustic_dim}")
    if n_sessions < 1:
        raise ConfigError(f"n_sessions must be >= 1, got {n_sessions}")
    rng = np.random.default_rng(seed)
    tracks: dict[str, TrackRecord] = {}
    for i in range(n_tracks):
        track_id = f"t{i:05d}"
        tracks[track_id] = TrackRecord(
            track_id=track_id,
            duration=float(np.round(rng.uniform(90.0, 420.0), 3)),
            release_year=int(rng.integers(1960, 2024)),
            acoustic=_unit_vector(rng, acoustic_dim),
        )
    track_ids = sorted(tracks)
    acoustic_matrix = np.stack([tracks[tid].acoustic for tid in track_ids])
    sessions = []
    for k in range(n_sessions):
        length = int(rng.integers(MIN_SESSION_LEN, MAX_SESSION_LEN + 1))
        u = _unit_vector(rng, acoustic_dim)
        taste = _unit_vector(rng, acoustic_dim)
        affinity = np.exp(TASTE_CONCENTRATION * (acoustic_matrix @ taste))
        affinity /= affinity.sum()
        chosen = rng.choice(n_tracks, size=length, p=affinity)
        hour = int(rng.integers(0, 24))
        context = CONTEXT_TYPES[rng.integers(0, len(CONTEXT_TYPES))]
        events = []
        for pos in range(1, length + 1):
            track = tracks[track_ids[chosen[pos - 1]]]
            skip = bool(float(u @ track.acoustic) < 0.0)
            if rng.random() < label_noise:
                skip = not skip
            events.append(Event(
                track_id=track.track_id,
                position=pos,
                interaction=InteractionRecord(
                    skipped=skip,
                    context_switch=skip ^ (rng.random() < 0.15),
                    no_pause_before_play=(not skip) ^ (rng.random() < 0.2),
                    short_pause_before_play=skip ^ (rng.random() < 0.25),
                    seek_fwd_count=int(rng.poisson(1.5 if skip else 0.3)),
                    seek_back_count=int(rng.poisson(0.8 if skip else 0.2)),
                    hour_of_day=hour,
                    context_type=context,
                ),
            ))
        sessions.append(Session(session_id=f"s{k:06d}", events=events))
    return tracks, sessions
