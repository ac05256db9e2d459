import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skipgru import data, metrics, model, training
from skipgru.errors import (
    AlignmentError,
    EnsembleError,
    ParseError,
    ValidationError,
)
from skipgru.features import FeaturePipeline

from helpers import fresh_params, session_table, split_halves


def brute_force_aa(pred, truth):
    """Literal double-loop evaluation of the metric, exact arithmetic."""
    t = len(pred)
    total = Fraction(0)
    for i in range(1, t + 1):
        correct_prefix = sum(
            1 for j in range(i) if bool(pred[j]) == bool(truth[j])
        )
        a_i = Fraction(correct_prefix, i)
        l_i = 1 if bool(pred[i - 1]) == bool(truth[i - 1]) else 0
        total += a_i * l_i
    return float(total / t)


class TestAverageAccuracy:
    def test_all_correct(self):
        assert metrics.average_accuracy([1, 0, 1, 0, 1], [1, 0, 1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert metrics.average_accuracy([1, 1, 1], [0, 0, 0]) == 0.0

    def test_pattern_101_is_exactly_five_ninths(self):
        # correctness pattern (1, 0, 1)
        assert metrics.average_accuracy([1, 0, 1], [1, 1, 1]) == 5 / 9

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            t = int(rng.integers(1, 11))
            pred = rng.integers(0, 2, size=t)
            truth = rng.integers(0, 2, size=t)
            assert metrics.average_accuracy(pred, truth) == brute_force_aa(pred, truth)

    @given(pairs=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=10))
    def test_brute_force_property(self, pairs):
        pred, truth = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        assert metrics.average_accuracy(pred, truth) == brute_force_aa(pred, truth)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            metrics.average_accuracy([1, 0], [1])

    def test_empty(self):
        with pytest.raises(ValidationError):
            metrics.average_accuracy([], [])

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            t = int(rng.integers(1, 11))
            pred = rng.integers(0, 2, size=t)
            truth = rng.integers(0, 2, size=t)
            aa = metrics.average_accuracy(pred, truth)
            assert 0.0 <= aa <= 1.0
            all_correct = bool((pred == truth).all())
            assert (aa == 1.0) == all_correct
            assert (aa == 0.0) == bool((pred != truth).all())

    def test_flipping_wrong_to_correct_never_decreases(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            t = int(rng.integers(2, 11))
            pred = rng.integers(0, 2, size=t)
            truth = rng.integers(0, 2, size=t)
            wrong = np.nonzero(pred != truth)[0]
            if wrong.size == 0:
                continue
            base = metrics.average_accuracy(pred, truth)
            k = int(wrong[rng.integers(0, wrong.size)])
            fixed = pred.copy()
            fixed[k] = truth[k]
            assert metrics.average_accuracy(fixed, truth) >= base

    def test_hand_checked_session_and_its_report(self):
        assert metrics.average_accuracy([1, 0, 1], [1, 1, 1]) == 5 / 9
        _, report = metrics.mean_aa([1, 0, 1], [1, 1, 1], [3])
        assert report["per_session"].tolist() == [5 / 9]
        # one session, so each position's accuracy is its correct bit
        assert report["per_position"] == [(1, 1.0, 1), (2, 0.0, 1), (3, 1.0, 1)]
        assert report["first_position_accuracy"] == 1.0

    def test_every_hit_pattern_matches_brute_force(self):
        # all 2,046 hit patterns of 1..10 predictions, scored as one flat array
        patterns = [bits for t in range(1, metrics.MAX_SECOND_HALF + 1)
                    for bits in itertools.product([False, True], repeat=t)]
        assert len(patterns) == 2046
        pred = np.concatenate(patterns)
        mean, report = metrics.mean_aa(pred, np.ones_like(pred), [len(p) for p in patterns])
        expected = [brute_force_aa(p, [True] * len(p)) for p in patterns]
        assert report["per_session"].tolist() == expected
        assert mean == sum(expected) / len(expected)
        assert [metrics.average_accuracy(p, [True] * len(p)) for p in patterns] == expected

    def test_row_longer_than_a_second_half_is_rejected(self):
        assert metrics.MAX_SECOND_HALF == 10
        with pytest.raises(ValidationError, match=r"row 2 has 11 predictions, outside \[1, 10\]"):
            metrics.mean_aa([1] * 12, [1] * 12, [1, 11])
        with pytest.raises(ValidationError, match="11 predictions"):
            metrics.average_accuracy([1] * 11, [1] * 11)

    def test_flat_arrays_that_do_not_line_up_are_rejected(self):
        with pytest.raises(ValidationError, match="^2 predictions, 3 truth labels and row "
                                                  "lengths that add up to 2 do not line up$"):
            metrics.mean_aa([1, 0], [1, 0, 1], [2])
        with pytest.raises(ValidationError, match="2 predictions, 2 truth labels and row "
                                                  "lengths that add up to 3 "):
            metrics.mean_aa([1, 0], [1, 0], [1, 2])
        with pytest.raises(ValidationError, match="empty"):
            metrics.mean_aa([], [], [])


def flat(rows):
    """Per-row bit lists as ``mean_aa``'s flat bits and row lengths."""
    return [b for row in rows for b in row], [len(row) for row in rows]


class TestMeanAA:
    def test_mean_of_two(self):
        (preds, lengths), (truths, _) = flat([[1, 1], [0, 0]]), flat([[1, 1], [1, 1]])
        mean, report = metrics.mean_aa(preds, truths, lengths)
        assert mean == 0.5
        assert report["sessions"] == 2
        assert report["first_position_accuracy"] == 0.5

    def test_single_session(self):
        mean, _ = metrics.mean_aa([1, 0, 1], [1, 1, 1], [3])
        assert mean == 5 / 9

    def test_alignment_error_lists_offenders(self):
        # rows pair by order, so the offender is the first row without a partner
        with pytest.raises(AlignmentError, match="truth row 2 has no submission row"):
            metrics.score_submission(["1", "0"], ["1"])
        with pytest.raises(AlignmentError, match="row 2 has no truth session"):
            metrics.score_submission(["1"], ["1", "0"])

    def test_length_mismatch_names_session(self):
        with pytest.raises(AlignmentError, match=r"rows \[2\]"):
            metrics.score_submission(["1", "1"], ["1", "10"])

    def test_per_position_table(self):
        (preds, lengths), (truths, _) = flat([[1, 1, 1], [0, 0]]), flat([[1, 0, 1], [0, 1]])
        _, report = metrics.mean_aa(preds, truths, lengths)
        table = {pos: (acc, n) for pos, acc, n in report["per_position"]}
        assert table[1] == (1.0, 2)
        assert table[2] == (0.0, 2)
        assert table[3] == (1.0, 1)

    def test_random_coin_band(self):
        # Monte-Carlo oracle: i.i.d. coin-flip predictions against balanced
        # truth concentrate the session mean a bit above 1/4
        rng = np.random.default_rng(3)
        preds, truths = [], []
        for _ in range(1000):
            t = int(rng.integers(5, 11))
            preds.append(rng.integers(0, 2, size=t))
            truths.append(rng.integers(0, 2, size=t))
        (preds, lengths), (truths, _) = flat(preds), flat(truths)
        mean, _ = metrics.mean_aa(preds, truths, lengths)
        assert 0.28 <= mean <= 0.38


class TestEnsembleProbs:
    def test_identical_members_bitwise(self):
        probs = {"a": np.array([0.1, 0.5, 0.93]), "b": np.array([0.7])}
        for n in (2, 3, 5):
            combined = metrics.ensemble_probs([probs] * n)
            for sid in probs:
                assert np.array_equal(combined[sid], probs[sid])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(4)
        members = [
            {"a": rng.uniform(size=7), "b": rng.uniform(size=5)} for _ in range(5)
        ]
        base = metrics.ensemble_probs(members)
        shuffled = metrics.ensemble_probs(members[::-1])
        mixed = metrics.ensemble_probs([members[2], members[0], members[4],
                                        members[1], members[3]])
        for sid in base:
            assert np.array_equal(base[sid], shuffled[sid])
            assert np.array_equal(base[sid], mixed[sid])

    @given(draws=st.data(), n_members=st.integers(1, 6),
           lengths=st.lists(st.integers(1, 10), min_size=1, max_size=4))
    def test_member_order_property(self, draws, n_members, lengths):
        probs = st.floats(0.0, 1.0)
        members = [{f"s{k}": np.array(draws.draw(st.lists(probs, min_size=m, max_size=m)))
                    for k, m in enumerate(lengths)} for _ in range(n_members)]
        order = draws.draw(st.permutations(range(n_members)))
        base = metrics.ensemble_probs(members)
        permuted = metrics.ensemble_probs([members[k] for k in order])
        assert base.keys() == permuted.keys()
        for sid in base:
            assert base[sid].tobytes() == permuted[sid].tobytes()

    def test_tie_breaks_to_skip(self):
        combined = metrics.ensemble_probs([{"s": np.array([0.9])},
                                           {"s": np.array([0.1])}])
        assert combined["s"][0] == 0.5
        assert (combined["s"] >= 0.5).tolist() == [True]

    def test_session_set_mismatch_names_member(self):
        with pytest.raises(EnsembleError, match="member 1"):
            metrics.ensemble_probs([{"a": np.array([0.5])}, {"b": np.array([0.5])}])

    def test_position_count_mismatch_names_member(self):
        # equal totals, so only the per-session lengths tell the members apart
        first = {"a": np.array([0.5]), "b": np.array([0.5, 0.5])}
        second = {"a": np.array([0.5, 0.5]), "b": np.array([0.5])}
        with pytest.raises(EnsembleError, match="member 1 predicts another number"):
            metrics.ensemble_probs([first, second])

    def test_equals_the_per_session_mean(self):
        rng = np.random.default_rng(5)
        members = [{f"s{k}": rng.uniform(size=n) for k, n in enumerate([3, 7, 1, 5])}
                   for _ in range(3)]
        combined = metrics.ensemble_probs(members)
        for sid, probs in combined.items():
            stacked = np.sort(np.stack([m[sid] for m in members]), axis=0)
            expected = stacked[0] + (stacked - stacked[0]).sum(axis=0) / 3
            assert probs.tobytes() == expected.tobytes()


def as_row(bits):
    """A row string of ``0``/``1`` from booleans."""
    return "".join("1" if b else "0" for b in bits)


def small_models(n_members=2, hidden=3, seed=0):
    tracks, sessions = data.gen_synthetic(n_sessions=8, n_tracks=50,
                                          acoustic_dim=2, seed=seed)
    pipeline = FeaturePipeline({}, d_emb=3).fit(sessions, tracks)
    dims = model.ModelDims.from_pipeline(pipeline)
    members = [
        (fresh_params(model.VariantConfig(hidden_size=hidden), dims, seed=s), pipeline)
        for s in range(n_members)
    ]
    return tracks, sessions, pipeline, members


class TestEnsemblePredict:
    def test_single_member_equals_model(self):
        tracks, sessions, pipeline, members = small_models(1)
        params, _ = members[0]
        combined = metrics.ensemble_predict(members, sessions, tracks)
        for k, sid in enumerate(sessions.session_ids):
            direct = model.predict_probs(sessions[k:k + 1], pipeline, tracks, params)[sid]
            assert combined[k] == as_row(direct >= 0.5)

    def test_copies_reproduce_single_model(self):
        tracks, sessions, pipeline, members = small_models(1)
        single = metrics.ensemble_predict(members, sessions, tracks)
        for n in (2, 3, 4):
            assert metrics.ensemble_predict(members * n, sessions, tracks) == single

    def test_member_order_irrelevant(self):
        tracks, sessions, pipeline, members = small_models(3)
        a = metrics.ensemble_predict(members, sessions, tracks)
        assert metrics.ensemble_predict(members[::-1], sessions, tracks) == a

    def test_mixed_pipelines_average_member_predictions(self):
        tracks, sessions, pipeline, members = small_models(2)
        wide = FeaturePipeline({}, d_emb=5).fit(sessions[:6], tracks)
        dims = model.ModelDims.from_pipeline(wide)
        mixed = members + [
            (fresh_params(model.VariantConfig(hidden_size=3), dims, seed=7), wide),
            (members[1][0], shifted_copy(pipeline)),
        ]
        assert len({p.d_emb for _, p in mixed}) == 2
        assert len({p.state_key() for _, p in mixed}) == 3
        for order in itertools.permutations(range(len(mixed))):
            ordered = [mixed[k] for k in order]
            combined = metrics.ensemble_probs([model.predict_probs(sessions, p, tracks, params)
                                               for params, p in ordered])
            got = metrics.ensemble_predict(ordered, sessions, tracks)
            assert list(combined) == sessions.session_ids
            assert got == [as_row(probs >= 0.5) for probs in combined.values()]

    def test_member_that_cannot_encode_is_named(self):
        tracks, sessions, pipeline, members = small_models(1)
        other_tracks, _ = data.gen_synthetic(n_sessions=8, n_tracks=50, acoustic_dim=4, seed=0)
        other = FeaturePipeline({}, d_emb=3).fit(sessions, other_tracks)
        dims = model.ModelDims.from_pipeline(other)
        bad = (fresh_params(model.VariantConfig(hidden_size=3), dims, seed=7), other)
        with pytest.raises(ValidationError, match="^member 1: tracks: acoustic dim 2 "):
            metrics.ensemble_predict([members[0], bad], sessions, tracks)


class TestTruthAndSubmission:
    def test_second_half_truth(self):
        tracks, sessions = data.gen_synthetic(n_sessions=4, n_tracks=50, seed=6)
        truth = metrics.second_half_truth(sessions)
        assert len(truth) == len(sessions)
        for row, session in zip(truth, sessions):
            _, second = split_halves(session)
            assert row == as_row(e.interaction.skipped for e in second)
        assert metrics.second_half_skips(sessions).tolist() == [c == "1" for c in "".join(truth)]

    def test_truth_requires_interactions(self):
        tracks, sessions = data.gen_synthetic(n_sessions=2, n_tracks=50, seed=6)
        session = sessions[0]
        cut = data.first_half_length(len(session.events))
        session.events = [
            data.Event(e.track_id, e.position, None if e.position > cut else e.interaction)
            for e in session.events
        ]
        with pytest.raises(ValidationError):
            metrics.second_half_truth(session_table([session]))

    def test_submission_round_trip(self, tmp_path):
        rows = ["001", "10"]
        path = tmp_path / "sub.txt"
        metrics.write_submission(path, rows)
        assert path.read_text() == "001\n10\n"  # in the order given
        assert metrics.read_submission(path) == rows
        metrics.write_submission(path, [])
        assert path.read_text() == "" and metrics.read_submission(path) == []

    def test_read_strips_lines_and_skips_blank_ones(self, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_bytes(b" 01 \r\n\n\t\r110\r\n1\x0c1\n")
        where = re.escape(f"{path}: line 5: ")
        with pytest.raises(ParseError, match=rf"^{where}.*found \['\\x0c'\]"):
            metrics.read_submission(path)
        path.write_bytes(b" 01 \r\n\n\t\r110\r\n\x0c11\x0c\n")
        assert metrics.read_submission(path) == ["01", "110", "11"]

    def test_row_longer_than_a_second_half_reports_its_line(self, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_text("0101010101\n\n01010101010\n")
        where = re.escape(f"{path}: line 3: ")
        with pytest.raises(ParseError, match=rf"^{where}11 predictions, but a second half "
                                             "has at most 10$"):
            metrics.read_submission(path)

    def test_bad_character_reports_line(self, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_text("010\n0x1\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: line 2: ")):
            metrics.read_submission(path)

    def test_score_submission_identity(self):
        rows = ["10", "001"]
        mean, report = metrics.score_submission(list(rows), rows)
        assert mean == 1.0

    def test_score_submission_row_count_mismatch(self):
        with pytest.raises(AlignmentError):
            metrics.score_submission(["1"], [])

    def test_short_submission_names_the_first_session_without_a_row(self):
        with pytest.raises(AlignmentError, match="1 rows, truth has 3 sessions: "
                                                 "truth row 2 has no submission row"):
            metrics.score_submission(["1", "1", "0"], ["1"])

    def test_long_submission_names_the_first_extra_row(self):
        with pytest.raises(AlignmentError, match="3 rows, truth has 1 sessions: "
                                                 "row 2 has no truth session"):
            metrics.score_submission(["1"], ["1", "0", "1"])

    def test_score_submission_length_mismatch(self):
        with pytest.raises(AlignmentError, match=r"prediction length mismatch in rows \[1\]"):
            metrics.score_submission(["10"], ["1"])


def count_encodes(monkeypatch):
    """Record the pipeline of every FeaturePipeline.encode call from now on."""
    calls = []
    original = FeaturePipeline.encode

    def encode(self, sessions, tracks):
        calls.append(self)
        return original(self, sessions, tracks)

    monkeypatch.setattr(FeaturePipeline, "encode", encode)
    return calls


def shifted_copy(pipeline):
    """An equal-schema copy whose duration bounds span a wider range."""
    copy = FeaturePipeline.from_dict(pipeline.to_dict(), pipeline.embedding_table)
    copy.hi[copy.numeric_columns.index("duration")] += 50.0
    return copy


class TestEnsembleEncoding:
    def test_members_from_separate_checkpoints_share_one_encode(self, tmp_path, monkeypatch):
        tracks, sessions, pipeline, members = small_models(3)
        loaded = []
        for k, (params, _) in enumerate(members):
            path = tmp_path / f"member{k}.ckpt"
            training.save_checkpoint(training.Checkpoint(params, pipeline, None, {}),
                                     path)
            loaded.append(training.load_checkpoint(path).build())
        assert len({id(p) for _, p in loaded}) == 3
        calls = count_encodes(monkeypatch)
        metrics.ensemble_predict(loaded, sessions, tracks)
        assert len(calls) == 1

    def test_shifted_scaler_gets_its_own_encode(self, monkeypatch):
        tracks, sessions, pipeline, members = small_models(2)
        shifted = shifted_copy(pipeline)
        assert shifted.state_key() != pipeline.state_key()
        calls = count_encodes(monkeypatch)
        metrics.ensemble_predict([members[0], (members[1][0], shifted)], sessions, tracks)
        assert [p is shifted for p in calls] == [False, True]

    def test_grouped_encoding_matches_per_member_encoding(self):
        tracks, sessions, pipeline, members = small_models(3)
        mixed = members + [(members[0][0], shifted_copy(pipeline))]
        combined = metrics.ensemble_probs([model.predict_probs(sessions, p, tracks, params)
                                           for params, p in mixed])
        # thresholds at the combined values themselves make the >= rule bit-sensitive
        for threshold in [0.5, *(combined[sid][0] for sid in sessions.session_ids[:4])]:
            got = metrics.ensemble_predict(mixed, sessions, tracks, threshold=threshold)
            assert got == [as_row(probs >= threshold) for probs in combined.values()]

    def test_truth_from_a_loaded_table(self, tmp_path):
        tracks, sessions = data.gen_synthetic(n_sessions=6, n_tracks=50, seed=8)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions[::-1], mode="train")
        table = data.load_sessions(path, None, mode="train")
        assert metrics.second_half_truth(table) == metrics.second_half_truth(sessions)
        data.write_sessions(path, sessions, mode="infer")
        with pytest.raises(ValidationError, match=f"^session {sessions[0].session_id}: "):
            metrics.second_half_truth(data.load_sessions(path, None, mode="infer"))
