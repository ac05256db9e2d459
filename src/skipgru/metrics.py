"""Average Accuracy scoring, corpus-level reports, probability-averaging
ensembles, and submission-file evaluation.

Average Accuracy for one session rewards early correct predictions:

    AA = sum_i A(i) * L(i) / T

where L(i) says whether prediction i was correct and A(i) is the running
accuracy over the first i predictions. Over booleans the value is an exact
rational: the sum is kept in integers over the common denominator
lcm(1..T) * T and divided once at the end, and Python's int / int is
correctly rounded, so the result is the nearest float to the true value.

Ensemble combination is the arithmetic mean of member skip probabilities;
per position the member values are sorted before summing, which makes the
output exactly invariant under member reordering. Ties at the threshold
resolve to a skip (the >= rule).
"""

from __future__ import annotations

import math

import numpy as np

from . import model as model_mod
from .data import (
    SessionTable,
    TrackTable,
    atomic_write,
    first_half_length,
    open_text,
)
from .errors import (
    AlignmentError,
    ConfigError,
    EnsembleError,
    ParseError,
    SkipGruError,
    ValidationError,
)

# the ensemble's default skip threshold on the mean probability
THRESHOLD = 0.5


def _as_bools(values) -> list[bool]:
    return [bool(v) for v in values]


def average_accuracy(pred, truth) -> float:
    pred = _as_bools(pred)
    truth = _as_bools(truth)
    if len(pred) != len(truth):
        raise ValidationError(
            f"prediction length {len(pred)} != truth length {len(truth)}"
        )
    if not pred:
        raise ValidationError("average_accuracy needs at least one prediction")
    scale = math.lcm(*range(1, len(pred) + 1))  # every A(i) is a multiple of 1 / scale
    correct = 0
    total = 0
    for i, (p, t) in enumerate(zip(pred, truth), start=1):
        if p == t:
            correct += 1
            total += correct * (scale // i)
    return total / (scale * len(pred))


def mean_aa(predictions: dict, truths: dict) -> tuple[float, dict]:
    """Unweighted mean of per-session AA plus a positional report."""
    missing = sorted(set(truths) - set(predictions))
    extra = sorted(set(predictions) - set(truths))
    if missing or extra:
        raise AlignmentError(
            f"session sets differ; missing from predictions: {missing[:5]}, "
            f"unexpected in predictions: {extra[:5]}"
        )
    if not truths:
        raise ValidationError("mean_aa over an empty session set")
    bad_lengths = [
        sid for sid in truths if len(predictions[sid]) != len(truths[sid])
    ]
    if bad_lengths:
        raise AlignmentError(f"prediction length mismatch for sessions {bad_lengths[:5]}")
    per_session: dict[str, float] = {}
    position_hits: dict[int, int] = {}
    position_counts: dict[int, int] = {}
    for sid in sorted(truths):
        pred, truth = predictions[sid], truths[sid]
        per_session[sid] = average_accuracy(pred, truth)
        for i, (p, t) in enumerate(zip(pred, truth), start=1):
            position_hits[i] = position_hits.get(i, 0) + (bool(p) == bool(t))
            position_counts[i] = position_counts.get(i, 0) + 1
    mean = sum(per_session.values()) / len(per_session)
    report = {
        "sessions": len(per_session),
        "mean_aa": mean,
        # every session has a first position, so its count is the session count
        "first_position_accuracy": position_hits[1] / len(per_session),
        "per_session": per_session,
        "per_position": [
            (i, position_hits[i] / position_counts[i], position_counts[i])
            for i in sorted(position_counts)
        ],
    }
    return mean, report


def second_half_truth(sessions: SessionTable) -> dict[str, list[bool]]:
    """Skip labels of each session's prediction half (requires train-mode data)."""
    session, _, first = sessions.event_layout()
    unlabelled = np.flatnonzero(~first & ~sessions.observed)
    if unlabelled.size:
        raise ValidationError(
            f"session {sessions.session_ids[session[unlabelled[0]]]}: second-half "
            "interactions missing, cannot derive truth"
        )
    skipped = sessions.flags[:, 0].tolist()
    cuts = (sessions.offsets[:-1] + first_half_length(sessions.lengths)).tolist()
    return {sid: skipped[lo:hi]
            for sid, lo, hi in zip(sessions.session_ids, cuts, sessions.offsets[1:].tolist())}


def ensemble_probs(member_probs: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Arithmetic mean of member probabilities.

    Per position the member values are sorted and averaged as
    ``smallest + mean(values - smallest)``: sorting makes the result exactly
    invariant under member reordering, and the shifted form makes the mean of
    identical values bitwise equal to that value for any member count.
    """
    if not member_probs:
        raise EnsembleError("ensemble needs at least one member")
    keys = set(member_probs[0])
    for k, probs in enumerate(member_probs[1:], start=1):
        if set(probs) != keys:
            raise EnsembleError(f"member {k} predicts a different session set")
    combined = {}
    for sid in keys:
        stacked = np.sort(np.stack([probs[sid] for probs in member_probs]), axis=0)
        base = stacked[0]
        combined[sid] = base + (stacked - base).sum(axis=0) / len(member_probs)
    return combined


def ensemble_predict(
    members: list[tuple],
    sessions: SessionTable,
    tracks: TrackTable,
    threshold: float = THRESHOLD,
) -> dict[str, np.ndarray]:
    """Mean-probability ensemble over (params, pipeline) members; >= threshold skips.

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
        return {}
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
    combined = ensemble_probs(member_probs)
    return {sid: probs >= threshold for sid, probs in combined.items()}


def write_submission(path, predictions: dict) -> None:
    """One line per session in session_id order, '1' for predicted skips."""
    with atomic_write(path) as fh:
        for sid in sorted(predictions):
            fh.write("".join("1" if p else "0" for p in predictions[sid]) + "\n")


def read_submission(path) -> list[list[bool]]:
    rows = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            bad = set(line) - {"0", "1"}
            if bad:
                raise ParseError(
                    f"line {line_no}: submission characters must be 0/1, found {sorted(bad)}"
                )
            rows.append([c == "1" for c in line])
    return rows


def score_submission(truth_lines: dict[str, list[bool]], submission_rows: list[list[bool]]):
    """Score ordered submission rows against per-session truth.

    Truth keys are consumed in ascending session_id order, matching the
    documented submission ordering. A row-count mismatch names the first
    truth session with no row, or the first extra row (rows count the
    submission's non-blank lines).
    """
    truth_ids = sorted(truth_lines)
    n_rows, n_truth = len(submission_rows), len(truth_ids)
    if n_rows != n_truth:
        first = (f"truth session {truth_ids[n_rows]!r} has no row" if n_rows < n_truth
                 else f"row {n_truth + 1} has no truth session")
        raise AlignmentError(
            f"submission has {n_rows} rows, truth has {n_truth} sessions: {first}"
        )
    predictions = {sid: submission_rows[k] for k, sid in enumerate(truth_ids)}
    return mean_aa(predictions, truth_lines)
