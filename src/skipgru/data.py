"""Session/track data model, CSV ingestion into columnar session and track
tables, atomic file writes and a synthetic corpus generator with a known
learnable skip rule.

File formats (UTF-8, comma-separated, first row is the header):

sessions.csv
    session_id, position, track_id, skipped, context_switch,
    no_pause_before_play, short_pause_before_play, seek_fwd_count,
    seek_back_count, hour_of_day, context_type
    Booleans are serialized as 0/1. In inference files the eight interaction
    columns are empty for second-half rows. Fields may be quoted as ``csv``
    quotes them, and lines may end in CR LF.

tracks.csv
    track_id, duration, release_year, acoustic_0 .. acoustic_{d-1}

A track set is one ``TrackTable`` (sorted ``ids`` and their columns), which
``load_tracks`` and ``gen_synthetic`` build and ``write_tracks`` writes; an
id's row is found by ``id_rows``, one ``searchsorted`` over the sorted ids.

``load_sessions`` parses sessions.csv straight into a ``SessionTable``: the
events of every session laid end to end on one flat event axis, sorted by
session_id and then position, with ``offsets`` marking where each session
starts. Per event the table holds a track index into its sorted
``track_ids``, the position, a bool block of the four TASK_NAMES flags, an
int block of seek_fwd_count, seek_back_count and hour_of_day, a context-type
index into its sorted ``context_types``, and an ``observed`` bit that is
false where the interaction columns were blank. Featurization, co-occurrence
counting, truth extraction, ``write_sessions`` and the session checks read
these arrays directly, and ``gen_synthetic`` builds its corpus as one. A
table behaves as a sequence of sessions: ``len``, slicing and ``take`` give
tables, and an integer index gives a ``Session`` built from the columns, a
copy that writes nothing back (``Session``, ``Event`` and
``InteractionRecord`` are built nowhere else).

A sessions.csv is read by one of two parsers, and the file alone decides
which. ``_parse_plain`` cuts a plain file (no quotes, canonical numerals,
every row valid; see its docstring) into fields from its bytes with array
code: the separators are found with ``np.flatnonzero``, numerals are summed
digit by digit, and the string columns are coded with ``np.unique`` over
NUL-padded byte keys. Any other file goes to ``_read_csv``, which reads it
with the ``csv`` reader one row at a time; its row parser ``_parse_row`` is
the only source of the per-row error messages. Both give the same table.
"""

from __future__ import annotations

import csv
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ParseError,
    ValidationError,
)

MIN_SESSION_LEN = 10
MAX_SESSION_LEN = 20

TASK_NAMES = ("skipped", "context_switch", "no_pause_before_play", "short_pause_before_play")

SESSION_COLUMNS = (
    "session_id", "position", "track_id", "skipped", "context_switch",
    "no_pause_before_play", "short_pause_before_play", "seek_fwd_count",
    "seek_back_count", "hour_of_day", "context_type",
)
INTERACTION_COLUMNS = SESSION_COLUMNS[3:]
COUNT_COLUMNS = ("seek_fwd_count", "seek_back_count", "hour_of_day")
HOURS_PER_DAY = 24

CONTEXT_TYPES = ("playlist", "radio", "album", "artist_page", "search", "charts")

# gen_synthetic defaults: acoustic vector width and skip-label flip probability
ACOUSTIC_DIM = 2
LABEL_NOISE = 0.05

_INT64 = np.iinfo(np.int64)
# the most digits an int64 numeral has, leading zeros aside
_INT64_DIGITS = len(str(_INT64.max))
# the longest field an error message repeats in full
_ECHO_CHARS = 32


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
        fault = _range_fault(self.seek_fwd_count, self.seek_back_count, self.hour_of_day)
        if fault:
            raise ValidationError(fault)


def _range_fault(seek_fwd_count: int, seek_back_count: int, hour_of_day: int) -> str | None:
    """The first out-of-range interaction count, as "column '<name>' ...", or None."""
    if not 0 <= hour_of_day < HOURS_PER_DAY:
        return f"column 'hour_of_day' must be in [0, {HOURS_PER_DAY - 1}], got {hour_of_day}"
    for column, value in zip(COUNT_COLUMNS, (seek_fwd_count, seek_back_count)):
        if value < 0:
            return f"column '{column}' must be non-negative, got {value}"
    return None


def _track_fault(track_id: str, duration: float, acoustic) -> str | None:
    """A track's first non-finite value, as "track <id>: ...", or None."""
    if not all(map(math.isfinite, acoustic)):
        return f"track {track_id}: non-finite acoustic entries"
    if not math.isfinite(duration):
        return f"track {track_id}: non-finite duration {duration}"
    return None


@dataclass(eq=False)
class TrackTable:
    """Tracks as columns, row ``k`` being track ``ids[k]``; ``len`` and
    iteration give the ids. Columns of unequal length, unsorted or repeated
    ids and non-finite values raise ValidationError."""

    ids: list[str]            # sorted, distinct
    duration: np.ndarray      # float64 [n]
    release_year: np.ndarray  # int64 [n]
    acoustic: np.ndarray      # float64 [n, a]

    def __post_init__(self):
        self.ids, n = list(self.ids), len(self.ids)
        self.duration = np.asarray(self.duration, dtype=np.float64)
        self.release_year = np.asarray(self.release_year, dtype=np.int64)
        self.acoustic = np.asarray(self.acoustic, dtype=np.float64)
        if not self.duration.shape == self.release_year.shape == self.acoustic.shape[:-1] == (n,):
            raise ValidationError(f"track columns of unequal length for {n} ids")
        k = next((k for k in range(1, n) if not self.ids[k - 1] < self.ids[k]), None)
        if k is not None:
            raise ValidationError(f"track ids must be sorted and distinct: "
                                  f"{self.ids[k]!r} follows {self.ids[k - 1]!r}")
        bad = ~(np.isfinite(self.duration) & np.isfinite(self.acoustic).all(axis=1))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(_track_fault(self.ids[k], self.duration[k], self.acoustic[k]))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    @classmethod
    def from_rows(cls, rows, width: int) -> "TrackTable":
        """The table of ``(track_id, duration, release_year, acoustic)`` rows
        given in any order, each with ``width`` acoustic values."""
        rows = sorted(rows, key=lambda row: row[0])
        ids, duration, release_year, acoustic = zip(*rows) if rows else ((),) * 4
        return cls(ids, duration, release_year, np.reshape(acoustic, (len(rows), width)))


def id_rows(ids: list[str], wanted: list[str]) -> np.ndarray:
    """Each ``wanted`` id's index in the sorted, distinct ``ids``, or -1 where
    ``ids`` lacks it. The search runs on object arrays, which compare as
    Python strings do; a fixed-width ``str`` array drops trailing NULs."""
    keys, wanted = np.array(ids, dtype=object), np.array(wanted, dtype=object)
    at = np.searchsorted(keys, wanted)
    found = at < len(keys)
    found[found] = keys[at[found]] == wanted[found]
    return np.where(found, at, -1)


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


def first_half_length(session_len):
    """Observed-prefix length: ceil(L/2), so odd sessions put the extra event
    first. Works elementwise on integer arrays."""
    return (session_len + 1) // 2


def second_half_length(session_len):
    """Predicted-suffix length: what ``first_half_length`` leaves; elementwise."""
    return session_len - first_half_length(session_len)


# the per-event columns of a SessionTable, in field order
EVENT_COLUMNS = ("track_index", "positions", "flags", "counts", "context_index", "observed")


@dataclass(eq=False)
class SessionTable:
    """Sessions as columns over one flat event axis (see the module docstring).

    Session ``k`` is ``session_ids[k]`` and holds events
    ``offsets[k]:offsets[k + 1]`` in slot order. Slices and ``take`` share the
    ``track_ids`` and ``context_types`` lists, so an index may name a string
    that no event of the result uses.
    """

    session_ids: list[str]
    offsets: np.ndarray        # int64 [sessions + 1]
    track_ids: list[str]       # sorted distinct track ids
    context_types: list[str]   # sorted distinct context types; "" marks unobserved events
    track_index: np.ndarray    # int64 [events], into track_ids
    positions: np.ndarray      # int64 [events]
    flags: np.ndarray          # bool [events, 4], TASK_NAMES order
    counts: np.ndarray         # int64 [events, 3], COUNT_COLUMNS order
    context_index: np.ndarray  # int64 [events], into context_types
    observed: np.ndarray       # bool [events]; false where the interaction columns are blank

    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def event_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per event: its session's row, its rank within the session, and
        whether it lies in the observed first half."""
        lengths = self.lengths
        session = np.repeat(np.arange(len(lengths)), lengths)
        rank = np.arange(len(session)) - self.offsets[session]
        return session, rank, rank < first_half_length(lengths)[session]

    def take(self, rows) -> "SessionTable":
        """The sessions at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = self.lengths[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        events = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], lengths)
        return replace(self, session_ids=[self.session_ids[r] for r in rows.tolist()],
                       offsets=offsets,
                       **{name: getattr(self, name)[events] for name in EVENT_COLUMNS})

    def __getitem__(self, key):
        """A table for a slice; a ``Session`` view for an integer."""
        if isinstance(key, slice):
            return self.take(range(len(self))[key])
        k = range(len(self))[key]
        span = slice(self.offsets[k], self.offsets[k + 1])
        columns = [getattr(self, name)[span].tolist() for name in EVENT_COLUMNS]
        return Session(self.session_ids[k], [
            Event(self.track_ids[track], position,
                  InteractionRecord(*flags, *counts, self.context_types[context])
                  if observed else None)
            for track, position, flags, counts, context, observed in zip(*columns)
        ])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @classmethod
    def _build(cls, session_ids, lengths, tracks, contexts, positions, flags, counts,
               observed, order=slice(None)) -> "SessionTable":
        """A table from per-event columns, every one taken in ``order``; the
        string columns come coded, as ``(sorted distinct values, index)``
        pairs (``tracks``, ``contexts``) such as ``_codes`` returns."""
        (track_ids, track_index), (context_types, context_index) = tracks, contexts
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(session_ids, offsets, track_ids, context_types, track_index[order],
                   positions[order], flags[order], counts[order], context_index[order],
                   observed[order])


def _codes(values) -> tuple[list[str], np.ndarray]:
    """The sorted distinct strings of ``values`` and each value's index among them."""
    distinct = sorted(set(values))
    index = {value: k for k, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), dtype=np.int64,
                                 count=len(values))


def _echo(raw: str) -> str:
    """A field quoted for an error message, cut after _ECHO_CHARS characters."""
    if len(raw) <= _ECHO_CHARS:
        return repr(raw)
    return f"{raw[:_ECHO_CHARS]!r}... ({len(raw)} characters)"


def _parse_bool(raw: str, column: str, line_no: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ParseError(f"line {line_no}: column '{column}' must be 0 or 1, got {_echo(raw)}")


def _parse_int64(raw: str, column: str, line_no: int) -> int:
    """An int64 field: an optional ``-`` and ASCII digits, the file format's
    numerals, and nothing else (no ``+``, blanks, ``_`` or other scripts'
    digits, which ``int()`` would read). A numeral with more than
    _INT64_DIGITS digits after its leading zeros is out of range; it is
    worded so before ``int()``, whose 4,300-digit limit would call it no
    integer. An echoed field is cut to _ECHO_CHARS characters."""
    digits = raw[1:] if raw[:1] == "-" else raw
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"line {line_no}: column '{column}' is not an integer: {_echo(raw)}")
    if len(digits.lstrip("0")) <= _INT64_DIGITS and _INT64.min <= int(raw) <= _INT64.max:
        return int(raw)
    raise ParseError(f"line {line_no}: column '{column}' does not fit in 64 bits: {_echo(raw)}")


def first_loose_float(fields: list[str]) -> int | None:
    """The index of the first of ``fields`` that ``float()`` may read although
    it is no numeral of the file formats, or None. A numeral is ASCII, holds
    no ``_``, and has no blank at either end and no leading ``+`` (``float()``
    reads ``1_80.5``, `` 7 `` and ``+3``); an exponent keeps its sign, as
    ``repr`` writes ``1e+20``. A field ``float()`` cannot read is left to it.
    ``fields`` is one csv field or a line's tokens split at whitespace, so a
    line of plain numerals is settled by a few scans of its joined text."""
    text = "".join(fields)
    if text.isascii() and "_" not in text and "+" not in text and text == text.strip():
        return None
    return next((k for k, raw in enumerate(fields) if not raw.isascii() or "_" in raw
                 or raw[:1] == "+" or raw != raw.strip()), None)


def _parse_float(raw: str, column: str, line_no: int) -> float:
    """A float field: a numeral as ``float()`` reads it, by the rule of
    ``first_loose_float``."""
    try:
        if first_loose_float([raw]) is not None:
            raise ValueError(raw)
        return float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: column '{column}' is not a number: "
                         f"{_echo(raw)}") from None


def load_tracks(path) -> TrackTable:
    """Load tracks.csv. Each row is checked as it is read (column count,
    duplicate id, duration, release_year, acoustic values, then non-finite
    values), so the first bad line is the one reported."""
    with _csv_reader(path) as reader:
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
        rows, seen = [], set()
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} columns, got {len(row)}")
            track_id = row[0]
            if track_id in seen:
                raise ValidationError(f"line {line_no}: duplicate track_id {track_id!r}")
            seen.add(track_id)
            duration = _parse_float(row[1], "duration", line_no)
            release_year = _parse_int64(row[2], "release_year", line_no)
            acoustic = [_parse_float(v, c, line_no) for v, c in zip(row[3:], acoustic_cols)]
            fault = _track_fault(track_id, duration, acoustic)
            if fault:
                raise ValidationError(f"line {line_no}: {fault}")
            rows.append((track_id, duration, release_year, acoustic))
    return TrackTable.from_rows(rows, len(acoustic_cols))


def load_sessions(path, tracks: TrackTable | None, mode: str) -> SessionTable:
    """Load and validate sessions; the table is sorted by session_id then position.

    ``tracks=None`` skips track-id resolution (used when only the interaction
    labels matter, e.g. loading a truth file for scoring). A plain file is
    parsed from its bytes by ``_parse_plain``; a file it declines (quoted
    fields, a bad row, anything it cannot read with certainty) goes to
    ``_read_csv``, which parses it row by row and words every row error.
    The input alone decides the path, and both give the same table.
    Session-level checks follow once every row has parsed, in session_id
    order.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    table = _parse_plain(raw, tracks)
    if table is None:
        table = _read_csv(path, tracks)
    _check_sessions(table, mode)
    return table


def _read_csv(path, tracks) -> SessionTable:
    """The unchecked table of a sessions.csv read with ``csv``, one row at a
    time; ``_parse_row`` raises the first bad row's error, in file order."""
    session_ids, track_ids, context_types = [], [], []
    values = []  # _parse_row's nine values per row, row after row
    known = None if tracks is None else set(tracks.ids)
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty session file") from None
        if tuple(header) != SESSION_COLUMNS:
            raise ParseError(f"{path}: unexpected header {header}, want {list(SESSION_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            values.extend(_parse_row(row, line_no, known))
            session_ids.append(row[0])
            track_ids.append(row[2])
            context_types.append(row[10])
    values = np.array(values, dtype=np.int64).reshape(-1, 9)
    positions, observed, flags, counts = (values[:, 0], values[:, 1].astype(bool),
                                          values[:, 2:6].astype(bool), values[:, 6:])
    distinct, session = _codes(session_ids)
    return SessionTable._build(distinct, np.bincount(session, minlength=len(distinct)),
                               _codes(track_ids), _codes(context_types), positions, flags,
                               counts, observed, order=np.lexsort((positions, session)))


_HEADER = ",".join(SESSION_COLUMNS).encode()
_COMMA, _NEWLINE, _CR = b",\n\r"
# the longest numeral _parse_plain reads: 18 decimal digits always fit in int64
_MAX_DIGITS = 18
# the widest string field _parse_plain codes, in 8-byte words; a wider one
# goes to the csv reader
_MAX_KEY_WORDS = 8
# _WORD_MASKS[w] keeps the first w bytes of a big-endian 8-byte word
_WORD_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * w)) for w in range(9)], dtype=np.uint64)


def _parse_plain(raw: bytes, tracks) -> SessionTable | None:
    r"""The unchecked table of a plain sessions.csv from its bytes, parsed with
    array code, or None (declined) for a file it cannot read with certainty.

    Plain means: UTF-8 with no ``"`` or NUL byte; lines end in ``\n`` or
    ``\r\n``; the first is exactly the header and every other has exactly
    ten commas; numerals are 1 to _MAX_DIGITS ASCII digits and flags ``0``
    or ``1``; the eight interaction fields are all blank or all present;
    ``hour_of_day`` is below HOURS_PER_DAY; every track id is in ``tracks``
    (when given); no string field is wider than _MAX_KEY_WORDS words. The
    ``csv`` reader accepts every row of such a file and reads the same
    fields, so both paths give equal tables. Fields are cut at the commas
    and newlines, 11 per row.
    """
    if b'"' in raw or b"\0" in raw:
        return None
    if not (raw.startswith(_HEADER + b"\n") or raw.startswith(_HEADER + b"\r\n")):
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    # the bytes, a final newline, then room for a key window at any field start
    size = len(raw) + (not raw.endswith(b"\n"))
    padded = np.zeros(size + 8 * _MAX_KEY_WORDS, dtype=np.uint8)
    padded[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    padded[size - 1] = _NEWLINE
    text = padded[:size]
    sep = np.flatnonzero((text == _COMMA) | (text == _NEWLINE))
    columns = len(SESSION_COLUMNS)
    if len(sep) % columns or len(sep) == columns:
        return None
    sep = sep.reshape(-1, columns)
    if (text[sep[:, -1]] != _NEWLINE).any() or (text[sep[:, :-1]] != _COMMA).any():
        return None
    # a CR is only allowed as the last byte of a line, where it is not data
    crlf = text[sep[:, -1] - 1] == _CR
    if np.count_nonzero(crlf) != raw.count(b"\r"):
        return None
    # field k of row r is text[ends[r, k] - widths[r, k]:ends[r, k]]
    widths = sep.reshape(-1)[columns:] - sep.reshape(-1)[columns - 1:-1]
    widths -= 1
    widths = widths.reshape(-1, columns)
    ends = sep[1:]
    ends[:, -1] -= crlf[1:]
    widths[:, -1] -= crlf[1:]
    blank = widths[:, 3:] == 0
    observed = ~blank[:, 0]
    if (blank[:, 1:] != blank[:, :1]).any() or (widths[:, 1] == 0).any():
        return None
    # a blank flag's last byte is the comma before it, which reads as False
    flag_bytes = text[ends[:, 3:7] - 1]
    if (widths[:, 3:7] > 1).any() or ((flag_bytes - ord("0") > 1) & observed[:, None]).any():
        return None
    positions = _numerals(text, ends[:, 1], widths[:, 1])
    counts = _numerals(text, ends[:, 7:10], widths[:, 7:10])
    if positions is None or counts is None or (counts[:, 2] >= HOURS_PER_DAY).any():
        return None
    coded = [_byte_codes(padded, ends[:, k] - widths[:, k], widths[:, k]) for k in (0, 2, 10)]
    if None in coded:
        return None
    (session_ids, session), track_codes, context_codes = coded
    if tracks is not None and (id_rows(tracks.ids, track_codes[0]) < 0).any():
        return None
    return SessionTable._build(session_ids, np.bincount(session, minlength=len(session_ids)),
                               track_codes, context_codes, positions, flag_bytes == ord("1"),
                               counts, observed, order=np.lexsort((positions, session)))


def _numerals(text: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The int64 values of the ASCII digit fields ending at ``ends`` (any
    shape), a blank field reading 0, or None when a field is not digits or
    has more than _MAX_DIGITS of them."""
    value = np.zeros(ends.shape, dtype=np.int64)
    longest = int(widths.max())
    if longest > _MAX_DIGITS:
        return None
    for k in range(longest):  # the k-th digit from the right
        digit = text[ends - 1 - k] - ord("0")  # uint8: bytes below "0" wrap past 9
        present = widths > k
        if (present & (digit > 9)).any():
            return None
        value += np.where(present, digit, 0) * np.int64(10) ** k
    return value


def _byte_codes(text: np.ndarray, starts: np.ndarray, widths: np.ndarray):
    """``(sorted distinct strings, index)`` of the fields at ``starts``, as
    ``_codes`` gives them, or None when one is wider than _MAX_KEY_WORDS words.

    A key is the field's bytes NUL-padded to whole big-endian 8-byte words;
    keys sort as the bytes do, and UTF-8 bytes sort in code-point order.
    """
    words = max(-(-int(widths.max()) // 8), 1)
    if words > _MAX_KEY_WORDS:
        return None
    keys = np.lib.stride_tricks.sliding_window_view(text, 8 * words)[starts].view(">u8")
    keys = keys & _WORD_MASKS[np.clip(widths[:, None] - 8 * np.arange(words), 0, 8)]
    if words == 1:
        distinct, index = np.unique(keys[:, 0], return_inverse=True)
    else:  # np.unique over the keys as byte strings is 2-3 times slower
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        first = np.ones(len(keys), dtype=bool)  # each distinct key's first row in order
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        index = np.empty(len(keys), dtype=np.int64)
        index[order] = np.cumsum(first) - 1
        distinct = ranked[first]
    distinct = distinct.astype(">u8").view(f"S{8 * words}").reshape(-1)
    return [key.decode("utf-8") for key in distinct.tolist()], index


def _parse_row(row: list[str], line_no: int, known: set[str] | None) -> tuple[int, ...]:
    """One sessions.csv row's values: position, observed bit, the four flags
    and the three counts; blank interaction columns read as unobserved, with
    flags and counts 0. A bad row raises its error instead.

    The single source of the loader's per-row error text. Checks run in
    column order, so a row with several faults reports its leftmost: column
    count, position, track id, blank interaction columns, the four flags, the
    three counts, then the count ranges.
    """
    if len(row) != len(SESSION_COLUMNS):
        raise ParseError(f"line {line_no}: expected {len(SESSION_COLUMNS)} columns, got {len(row)}")
    position = _parse_int64(row[1], "position", line_no)
    if known is not None and row[2] not in known:
        raise DataError(f"line {line_no}: unknown track_id {row[2]!r}")
    interaction = row[3:]
    if "" in interaction:
        if any(interaction):
            raise ParseError(
                f"line {line_no}: interaction columns must be all present or all empty"
            )
        return position, 0, 0, 0, 0, 0, 0, 0, 0
    flags = [_parse_bool(raw, column, line_no) for raw, column in zip(interaction, TASK_NAMES)]
    counts = [_parse_int64(raw, column, line_no)
              for raw, column in zip(interaction[len(TASK_NAMES):], COUNT_COLUMNS)]
    fault = _range_fault(*counts)
    if fault:
        raise ValidationError(f"line {line_no}: {fault}")
    return position, 1, *flags, *counts


def _check_sessions(table: SessionTable, mode: str) -> None:
    """Raise the first bad session's error, in table order: a length outside
    [MIN_SESSION_LEN, MAX_SESSION_LEN], else the first slot whose position is
    not its 1-based slot number, else the first missing interaction the mode
    requires (every one in train mode, the first half's in infer mode)."""
    lengths = table.lengths
    session, rank, first = table.event_layout()
    gap = table.positions != rank + 1
    missing = ~table.observed & (first | (mode == "train"))
    bad = ((lengths < MIN_SESSION_LEN) | (lengths > MAX_SESSION_LEN)
           | (np.bincount(session, weights=gap | missing, minlength=len(table)) > 0))
    if not bad.any():
        return
    k = int(np.argmax(bad))
    n, name = int(lengths[k]), f"session {table.session_ids[k]}"
    if not MIN_SESSION_LEN <= n <= MAX_SESSION_LEN:
        raise ValidationError(f"{name}: length {n} outside [{MIN_SESSION_LEN}, {MAX_SESSION_LEN}]")
    span = slice(table.offsets[k], table.offsets[k + 1])
    positions, gap = table.positions[span], gap[span]
    if gap.any():
        slot = int(np.argmax(gap))
        raise ValidationError(f"{name}: positions not contiguous 1..{n} "
                              f"(found {positions[slot]} at slot {slot + 1})")
    event = int(np.argmax(missing[span]))
    raise ValidationError(f"{name}: missing interaction at position {positions[event]} "
                          f"({mode} mode)")


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


@contextmanager
def _csv_reader(path):
    """A ``csv`` reader over UTF-8 ``path``; a ``csv.Error`` (such as a field
    over the reader's size limit) raises ParseError naming the line."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as err:
            raise ParseError(f"{path}: line {reader.line_num}: {err}") from None


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


def write_tracks(path, tracks: TrackTable) -> None:
    rows = zip(tracks.ids, tracks.duration.tolist(), tracks.release_year.tolist(),
               tracks.acoustic.tolist())
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "duration", "release_year"]
                        + [f"acoustic_{i}" for i in range(tracks.acoustic.shape[1])])
        # csv writes a Python float, as .tolist() gives them, as repr does
        writer.writerows([track_id, duration, release_year, *acoustic]
                         for track_id, duration, release_year, acoustic in rows)


def write_sessions(path, table: SessionTable, mode: str = "train") -> None:
    """Serialize a table in its order. The interaction columns are blank for
    unobserved events and, in infer mode, for events past the first half."""
    session, _, first = table.event_layout()
    shown = table.observed & ((mode != "infer") | first)
    blank = [""] * len(INTERACTION_COLUMNS)
    columns = (session, table.positions, table.track_index, shown, table.flags.astype(np.int64),
               table.counts, table.context_index)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SESSION_COLUMNS)
        writer.writerows(
            [table.session_ids[k], position, table.track_ids[track],
             *([*flags, *counts, table.context_types[context]] if show else blank)]
            for k, position, track, show, flags, counts, context
            in zip(*(column.tolist() for column in columns)))


def float_count(*shape: int) -> int:
    """The element count of a float64 array of ``shape``, as a Python int.

    A count whose bytes no array can index raises ``MemoryError``, as a count
    too large to allocate does, where NumPy would raise ``ValueError``.
    """
    count = math.prod(int(n) for n in shape)
    if count * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {count} float64 values: "
                          f"{count * 8} bytes is more than an array can index")
    return count


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=float_count(dim))
    return v / np.linalg.norm(v)


# how strongly a session's track choices concentrate around its taste
# direction; higher values make co-listened tracks more acoustically alike
TASTE_CONCENTRATION = 3.0


def gen_synthetic(
    n_sessions: int,
    n_tracks: int,
    acoustic_dim: int = ACOUSTIC_DIM,
    seed: int = 0,
    label_noise: float = LABEL_NOISE,
) -> tuple[TrackTable, SessionTable]:
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

    The sessions come as a table in generation order, ids ``s000000`` on;
    every event is observed. The draws are scalar and in a fixed order (per
    track: duration, release year, acoustic vector), which the files depend on.
    """
    if n_tracks < 50:
        raise ConfigError(f"n_tracks must be >= 50, got {n_tracks}")
    if acoustic_dim < 2:
        raise ConfigError(f"acoustic_dim must be >= 2, got {acoustic_dim}")
    if n_sessions < 1:
        raise ConfigError(f"n_sessions must be >= 1, got {n_sessions}")
    if not 0.0 <= label_noise <= 1.0:
        raise ConfigError(f"label_noise must be in [0, 1], got {label_noise}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    tracks = TrackTable.from_rows([(f"t{i:05d}", float(np.round(rng.uniform(90.0, 420.0), 3)),
                                    int(rng.integers(1960, 2024)), _unit_vector(rng, acoustic_dim))
                                   for i in range(n_tracks)], acoustic_dim)
    lengths, events, contexts = [], [], []
    values = []  # per event: position, the four flags, the three counts
    for _ in range(n_sessions):
        length = int(rng.integers(MIN_SESSION_LEN, MAX_SESSION_LEN + 1))
        u = _unit_vector(rng, acoustic_dim)
        taste = _unit_vector(rng, acoustic_dim)
        affinity = np.exp(TASTE_CONCENTRATION * (tracks.acoustic @ taste))
        affinity /= affinity.sum()
        chosen = rng.choice(n_tracks, size=length, p=affinity)
        hour = int(rng.integers(0, HOURS_PER_DAY))
        context = CONTEXT_TYPES[rng.integers(0, len(CONTEXT_TYPES))]
        for pos, track in enumerate(chosen.tolist(), start=1):
            skip = bool(float(u @ tracks.acoustic[track]) < 0.0)
            if rng.random() < label_noise:
                skip = not skip
            values += (pos, skip, skip ^ (rng.random() < 0.15),
                       (not skip) ^ (rng.random() < 0.2), skip ^ (rng.random() < 0.25),
                       rng.poisson(1.5 if skip else 0.3), rng.poisson(0.8 if skip else 0.2), hour)
        lengths.append(length)
        events += (tracks.ids[track] for track in chosen.tolist())
        contexts += [context] * length
    values = np.array(values, dtype=np.int64).reshape(-1, 8)
    table = SessionTable._build(
        [f"s{k:06d}" for k in range(n_sessions)], np.array(lengths, dtype=np.int64),
        _codes(events), _codes(contexts), values[:, 0], values[:, 1:5].astype(bool),
        values[:, 5:], np.ones(len(values), dtype=bool))
    return tracks, table
