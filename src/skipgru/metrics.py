"""Average Accuracy scoring, corpus-level reports, probability-averaging
ensembles, and submission-file evaluation, all on one flat axis: the
second-half events of a session table in table order, one row per session
(``second_half_length(lengths)`` events). In a file a row is its ``0``/``1``
string, and row k of a submission pairs with row k of the truth.

Average Accuracy for one row of T predictions rewards early correct ones:

    AA = sum_i A(i) * L(i) / T

where L(i) says whether prediction i was correct and A(i) is the running
accuracy over the first i predictions. A row holds at most MAX_SECOND_HALF =
10 predictions, so each A(i) is a multiple of 1 / 2520 (lcm(1..10)) and a
row's AA is an int64 numerator over ``2520 * T``: both exact in float64, so
the one division gives the nearest float to the true value. The mean adds
the rows' AA left to right in row order.

Ensemble combination is the arithmetic mean of member skip probabilities;
per position the member values are sorted before summing, which makes the
output exactly invariant under member reordering. Ties at the threshold
resolve to a skip (the >= rule).
"""

from __future__ import annotations

import math

import numpy as np

from . import model as model_mod
from .data import (MAX_SESSION_LEN, SessionTable, TrackTable, atomic_write, open_text,
                   second_half_length)
from .errors import (AlignmentError, ConfigError, EnsembleError, ParseError, SkipGruError,
                     ValidationError)

# the ensemble's default skip threshold on the mean probability
THRESHOLD = 0.5
# the longest second half a session has, so the longest row AA scores
MAX_SECOND_HALF = second_half_length(MAX_SESSION_LEN)
# every A(i) of a row is a multiple of 1 / _SCALE; _STEP[i - 1] is _SCALE / i
_SCALE = math.lcm(*range(1, MAX_SECOND_HALF + 1))
_STEP = _SCALE // np.arange(1, MAX_SECOND_HALF + 1)


def mean_aa(pred_bits, truth_bits, lengths) -> tuple[float, dict]:
    """Unweighted mean AA of the rows of flat predictions and truth, cut by
    ``lengths`` (each 1..MAX_SECOND_HALF), plus a report: each row's AA in
    row order, and per position the share of correct predictions and the
    number of rows that reach it."""
    pred, truth = np.asarray(pred_bits, dtype=bool), np.asarray(truth_bits, dtype=bool)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not pred.shape == truth.shape == (lengths.sum(),):
        raise ValidationError(f"{pred.size} predictions, {truth.size} truth labels and "
                              f"row lengths that add up to {lengths.sum()} do not line up")
    if not len(lengths):
        raise ValidationError("mean_aa over an empty session set")
    bad = (lengths < 1) | (lengths > MAX_SECOND_HALF)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(f"row {k + 1} has {lengths[k]} predictions, "
                              f"outside [1, {MAX_SECOND_HALF}]")
    hit = pred == truth
    starts = np.cumsum(lengths) - lengths
    row = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(hit.size) - starts[row]
    correct = np.cumsum(hit)
    correct -= (correct - hit)[starts][row]  # hits so far within the row
    aa = np.add.reduceat(hit * correct * _STEP[position], starts) / (_SCALE * lengths)
    counts = np.bincount(position)
    hits = np.bincount(position[hit], minlength=len(counts))
    mean = sum(aa.tolist()) / len(aa)
    return mean, {
        "sessions": len(aa),
        # every row has a first position, so its count is the row count
        "first_position_accuracy": hits.tolist()[0] / len(aa),
        "per_session": aa,
        "per_position": list(zip(range(1, len(counts) + 1), (hits / counts).tolist(),
                                 counts.tolist())),
    }


def average_accuracy(pred, truth) -> float:
    """AA of one row: ``mean_aa``'s one-row case."""
    return mean_aa(pred, truth, [len(pred)])[0]


def _rows(bits: np.ndarray, lengths) -> list[str]:
    """Flat bits as ``0``/``1`` row strings of the given lengths."""
    text = (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")
    ends = np.cumsum(lengths).tolist()
    return [text[lo:hi] for lo, hi in zip([0, *ends], ends)]


def second_half_skips(sessions: SessionTable) -> np.ndarray:
    """The ``skipped`` flags of the second-half events, flat in table order
    (requires train-mode data)."""
    session, _, first = sessions.event_layout()
    unlabelled = np.flatnonzero(~first & ~sessions.observed)
    if unlabelled.size:
        raise ValidationError(f"session {sessions.session_ids[session[unlabelled[0]]]}: "
                              "second-half interactions missing, cannot derive truth")
    return sessions.flags[~first, 0]


def second_half_truth(sessions: SessionTable) -> list[str]:
    """Each session's second-half skip labels as a row string, in table order."""
    return _rows(second_half_skips(sessions), second_half_length(sessions.lengths))


def _member_mean(stacked: np.ndarray) -> np.ndarray:
    """The mean over axis 0 of ``[members, positions]`` probabilities, per
    position ``smallest + mean(sorted values - smallest)``: sorting makes it
    exactly invariant under member reordering, and the shifted form makes the
    mean of identical values bitwise that value for any member count."""
    stacked = np.sort(stacked, axis=0)
    base = stacked[0]
    return base + (stacked - base).sum(axis=0) / len(stacked)


def ensemble_probs(member_probs: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The member mean of per-session probabilities, by session id: the
    dicts are laid end to end on one flat axis, averaged by the same kernel
    as ``ensemble_predict``, and cut back into sessions."""
    if not member_probs:
        raise EnsembleError("ensemble needs at least one member")
    ids = list(member_probs[0])
    lengths = [len(p) for p in member_probs[0].values()]
    for k, probs in enumerate(member_probs[1:], start=1):
        if probs.keys() != member_probs[0].keys():
            raise EnsembleError(f"member {k} predicts a different session set")
        if [len(probs[sid]) for sid in ids] != lengths:
            raise EnsembleError(f"member {k} predicts another number of positions")
    if not ids:
        return {}
    mean = _member_mean(np.stack([np.concatenate([probs[sid] for sid in ids])
                                  for probs in member_probs]))
    return dict(zip(ids, np.split(mean, np.cumsum(lengths)[:-1])))


def ensemble_predict(members: list[tuple], sessions: SessionTable, tracks: TrackTable,
                     threshold: float = THRESHOLD) -> list[str]:
    """Mean-probability ensemble over (params, pipeline) members, as one
    ``0``/``1`` row string per session in table order (``1`` where the mean
    is >= threshold): the submission's lines.

    Each member predicts from the sessions as its own fitted pipeline encodes
    them, so members may differ in their feature pipelines (embedding width,
    scaling bounds, context vocabulary). The sessions are encoded once per
    distinct fitted state (``FeaturePipeline.state_key``), not once per
    member. An error in a member's encode is raised again as the same type,
    prefixed ``member k: ``. A threshold outside [0, 1], NaN included, is a
    :class:`ConfigError`.
    """
    if not members:
        raise EnsembleError("ensemble needs at least one member")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    if not sessions:
        return []
    encoded = {}
    member_probs = []
    for k, (params, pipeline) in enumerate(members):
        key = pipeline.state_key()
        if key not in encoded:
            try:
                encoded[key] = pipeline.encode(sessions, tracks)
            except SkipGruError as err:
                raise type(err)(f"member {k}: {err}") from err
        member_probs.append(model_mod.predict_encoded(encoded[key], params))
    skips = _member_mean(np.stack(member_probs)) >= threshold
    return _rows(skips, second_half_length(sessions.lengths))


def write_submission(path, rows: list[str]) -> None:
    """One line per row, in the order given."""
    with atomic_write(path) as fh:
        fh.write("".join(row + "\n" for row in rows))


def submission_lines(path) -> list[str]:
    """Every line of a submission, stripped, in file order: line ``k`` is
    item ``k - 1``, and a blank line is ``""``. A line holds only ``0`` and
    ``1``, at most MAX_SECOND_HALF of them; a ParseError names the file and
    the first line that does not."""
    with open_text(path) as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    for line_no, line in enumerate(lines, start=1):
        if line.strip("01"):
            raise ParseError(f"{path}: line {line_no}: submission characters must be 0/1, "
                             f"found {sorted(set(line) - {'0', '1'})}")
        if len(line) > MAX_SECOND_HALF:
            raise ParseError(f"{path}: line {line_no}: {len(line)} predictions, but a second "
                             f"half has at most {MAX_SECOND_HALF}")
    return lines


def read_submission(path) -> list[str]:
    """The non-blank lines of a submission (``submission_lines``) as row
    strings."""
    return [line for line in submission_lines(path) if line]


def score_submission(truth_rows: list[str], rows: list[str]):
    """Score submission rows against truth rows, paired by order.

    Both are ``0``/``1`` row strings, as ``second_half_truth`` and
    ``read_submission`` give them. A row-count mismatch names the first row
    with no partner, and a length mismatch the first rows whose lengths
    differ; rows are numbered from 1.
    """
    n_rows, n_truth = len(rows), len(truth_rows)
    if n_rows != n_truth:
        first = (f"truth row {n_rows + 1} has no submission row" if n_rows < n_truth
                 else f"row {n_truth + 1} has no truth session")
        raise AlignmentError(f"submission has {n_rows} rows, truth has {n_truth} sessions: "
                             f"{first}")
    lengths = np.array([len(row) for row in truth_rows], dtype=np.int64)
    differ = np.flatnonzero(lengths != [len(row) for row in rows])
    if differ.size:
        raise AlignmentError(f"prediction length mismatch in rows {(differ[:5] + 1).tolist()}")
    # each row's characters as flat bits, True for "1"
    pred, truth = (np.frombuffer("".join(r).encode(), dtype=np.uint8) == ord("1")
                   for r in (rows, truth_rows))
    return mean_aa(pred, truth, lengths)
