import os
import tempfile

import numpy as np
import pytest

from skipgru import cli, data, glove, metrics, training
from skipgru.errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    ParseError,
    ValidationError,
)
from skipgru.features import FeaturePipeline


def make_interaction(skip=False, context_type="playlist", **over):
    kwargs = dict(
        skipped=skip,
        context_switch=False,
        no_pause_before_play=True,
        short_pause_before_play=False,
        seek_fwd_count=0,
        seek_back_count=0,
        hour_of_day=12,
        context_type=context_type,
    )
    kwargs.update(over)
    return data.InteractionRecord(**kwargs)


def make_session(session_id, length, track_ids, with_second_half=True):
    events = []
    for pos in range(1, length + 1):
        first = pos <= data.first_half_length(length)
        inter = make_interaction(skip=pos % 2 == 0) if (first or with_second_half) else None
        events.append(data.Event(track_id=track_ids[(pos - 1) % len(track_ids)],
                                 position=pos, interaction=inter))
    return data.Session(session_id=session_id, events=events)


@pytest.fixture(scope="module")
def corpus():
    return data.gen_synthetic(n_sessions=40, n_tracks=60, acoustic_dim=3, seed=11)


@pytest.fixture(scope="module")
def fitted_pipeline(corpus):
    tracks, sessions = corpus
    return FeaturePipeline({}, d_emb=6).fit(sessions, tracks)


class TestSplitHalves:
    @pytest.mark.parametrize("length,first,second", [(20, 10, 10), (11, 6, 5), (10, 5, 5)])
    def test_split_rule(self, length, first, second):
        session = make_session("s", length, ["a"])
        f, s = data.split_halves(session)
        assert (len(f), len(s)) == (first, second)

    def test_lengths_sum_and_order(self):
        for length in range(10, 21):
            f, s = data.split_halves(make_session("s", length, ["a"]))
            assert len(f) + len(s) == length
            assert len(f) >= len(s) >= 5


class TestValidation:
    def test_length_bounds(self):
        session = make_session("s", 10, ["a"])
        session.events = session.events[:9]
        with pytest.raises(ValidationError, match="length 9"):
            session.validate("train")

    def test_contiguous_positions(self):
        session = make_session("s", 10, ["a"])
        session.events[3] = data.Event("a", 9, session.events[3].interaction)
        with pytest.raises(ValidationError, match="contiguous"):
            session.validate("train")

    def test_train_requires_all_interactions(self):
        session = make_session("s", 12, ["a"], with_second_half=False)
        with pytest.raises(ValidationError, match="missing interaction"):
            session.validate("train")
        session.validate("infer")

    def test_hour_of_day_range(self):
        with pytest.raises(ValidationError):
            make_interaction(hour_of_day=24)

    def test_seek_counts_nonnegative(self):
        with pytest.raises(ValidationError):
            make_interaction(seek_fwd_count=-1)


class TestTrackRecord:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, bad):
        with pytest.raises(ValidationError, match="duration"):
            data.TrackRecord("t", bad, 2000, np.zeros(2))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_load_tracks_names_the_line(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        "a,200.0,2000,0.5\n"
                        f"b,{bad},2001,0.5\n")
        with pytest.raises(ValidationError, match="line 3.*duration"):
            data.load_tracks(path)


class TestCsvRoundTrip:
    def test_well_formed_file(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath, tpath = tmp_path / "s.csv", tmp_path / "t.csv"
        data.write_tracks(tpath, tracks)
        data.write_sessions(spath, sessions[:2], mode="train")
        loaded_tracks = data.load_tracks(tpath)
        assert set(loaded_tracks) == set(tracks)
        got = data.load_sessions(spath, loaded_tracks, mode="train")
        assert [s.session_id for s in got] == sorted(s.session_id for s in sessions[:2])
        for s in got:
            assert [e.position for e in s.events] == list(range(1, len(s.events) + 1))

    def test_loader_order_stable(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath, tpath = tmp_path / "s.csv", tmp_path / "t.csv"
        data.write_tracks(tpath, tracks)
        data.write_sessions(spath, sessions, mode="train")
        first = data.load_sessions(spath, tracks, mode="train")
        second = data.load_sessions(spath, tracks, mode="train")
        assert [s.session_id for s in first] == [s.session_id for s in second]

    def test_unknown_track_named(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, sessions[:1], mode="train")
        with pytest.raises(DataError, match="t00"):
            data.load_sessions(spath, {}, mode="train")

    def test_train_mode_missing_second_half(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, sessions[:1], mode="infer")
        with pytest.raises(ValidationError, match="missing interaction"):
            data.load_sessions(spath, tracks, mode="train")
        loaded = data.load_sessions(spath, tracks, mode="infer")
        cut = data.first_half_length(len(loaded[0].events))
        assert all(e.interaction is None for e in loaded[0].events[cut:])

    def test_malformed_row_reports_line(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, sessions[:1], mode="train")
        lines = spath.read_text().splitlines()
        parts = lines[3].split(",")
        parts[7] = "noon"  # seek_fwd_count
        lines[3] = ",".join(parts)
        spath.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 4"):
            data.load_sessions(spath, tracks, mode="train")

    def test_bad_bool_reports_line(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, sessions[:1], mode="train")
        lines = spath.read_text().splitlines()
        parts = lines[2].split(",")
        parts[3] = "yes"
        lines[2] = ",".join(parts)
        spath.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_sessions(spath, tracks, mode="train")

    def test_bad_header(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("who,knows\n")
        with pytest.raises(ParseError, match="header"):
            data.load_sessions(spath, {}, mode="train")


class TestPadBatch:
    def test_full_length_session_all_true(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        session = make_session("s", 20, sorted(tracks)[:3])
        batch = data.pad_batch([session], fitted_pipeline, tracks)
        assert batch.mask.all()
        assert batch.first_half.shape == (1, 10, fitted_pipeline.d_trip)
        assert batch.second_half.shape == (1, 10, fitted_pipeline.d_doub)

    def test_min_length_session_half_mask(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        batch = data.pad_batch([make_session("s", 10, sorted(tracks)[:3])],
                               fitted_pipeline, tracks)
        assert batch.mask[0].tolist() == [True] * 5 + [False] * 5

    def test_two_session_masks(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        batch = data.pad_batch(
            [make_session("a", 20, sorted(tracks)[:3]), make_session("b", 12, sorted(tracks)[:3])],
            fitted_pipeline, tracks,
        )
        assert batch.mask[0].sum() == 10
        assert batch.mask[1].tolist() == [True] * 6 + [False] * 4

    def test_pad_slots_are_pad_constant(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        batch = data.pad_batch([make_session("s", 10, sorted(tracks)[:3])],
                               fitted_pipeline, tracks)
        for arr in (batch.first_half, batch.second_half):
            pad = np.zeros(arr.shape[2])
            pad[-1] = 1.0
            for t in range(5, 10):
                assert np.array_equal(arr[0, t], pad)

    def test_mask_has_at_least_five_true_entries_per_row(self, corpus, fitted_pipeline):
        tracks, sessions = corpus
        batch = data.pad_batch(sessions, fitted_pipeline, tracks)
        assert batch.mask.sum(axis=1).min() >= 5

    def test_mask_filter_round_trip(self, corpus, fitted_pipeline):
        tracks, sessions = corpus
        batch = data.pad_batch(sessions[:8], fitted_pipeline, tracks)
        for i, session in enumerate(sessions[:8]):
            _, second = data.split_halves(session)
            kept = batch.second_half[i][batch.mask[i]]
            alone = data.pad_batch([session], fitted_pipeline, tracks).second_half[0]
            assert np.array_equal(kept, alone[:len(second)])
            assert kept[:, -2].tolist() == [e.position / data.MAX_SESSION_LEN for e in second]
            assert not kept[:, -1].any()

    def test_empty_batch(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        with pytest.raises(EmptyBatchError):
            data.pad_batch([], fitted_pipeline, tracks)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = data.gen_synthetic(n_sessions=5, n_tracks=50, acoustic_dim=2, seed=3)
        b = data.gen_synthetic(n_sessions=5, n_tracks=50, acoustic_dim=2, seed=3)
        assert sorted(a[0]) == sorted(b[0])
        for ta, tb in zip(a[0].values(), b[0].values()):
            assert np.array_equal(ta.acoustic, tb.acoustic)
            assert ta.duration == tb.duration
        assert [s.events for s in a[1]] == [s.events for s in b[1]]

    def test_noise_free_rule(self):
        tracks, sessions = data.gen_synthetic(
            n_sessions=30, n_tracks=50, acoustic_dim=2, seed=5, label_noise=0.0
        )
        # with noise off, the skip flag must follow sign(u . acoustic); u is
        # latent, but flags must then be deterministic per (session, track)
        for session in sessions:
            by_track = {}
            for ev in session.events:
                flag = ev.interaction.skipped
                assert by_track.setdefault(ev.track_id, flag) == flag

    def test_marginal_skip_rate(self):
        tracks, sessions = data.gen_synthetic(n_sessions=700, n_tracks=80, seed=9)
        flags = [e.interaction.skipped for s in sessions for e in s.events]
        assert len(flags) > 10_000
        rate = sum(flags) / len(flags)
        assert 0.45 <= rate <= 0.55

    def test_parameter_bounds(self):
        with pytest.raises(ConfigError):
            data.gen_synthetic(n_sessions=5, n_tracks=10)
        with pytest.raises(ConfigError):
            data.gen_synthetic(n_sessions=5, n_tracks=50, acoustic_dim=1)
        with pytest.raises(ConfigError):
            data.gen_synthetic(n_sessions=0, n_tracks=50)

    def test_sessions_valid(self):
        tracks, sessions = data.gen_synthetic(n_sessions=25, n_tracks=50, seed=1)
        for s in sessions:
            s.validate("train")


class _FailingFile:
    """File handle whose second write raises, after the first reached the disk;
    reads pass through to the wrapped handle."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError("disk full")
        n = self.fh.write(text)
        self.fh.flush()
        return n

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __iter__(self):
        return iter(self.fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _save_checkpoint(path):
    from test_model import tiny_setup

    _, _, pipeline, params = tiny_setup()
    checkpoint = training.Checkpoint(params.variant, params.dims, params.state_dict(),
                                     pipeline.to_dict(), None, {})
    training.save_checkpoint(checkpoint, path)


def _export_embeddings(path):
    rng = np.random.default_rng(0)
    table = glove.EmbeddingTable(["t1", "t2"], rng.normal(size=(2, 3)),
                                 rng.normal(size=(2, 3)), np.zeros(2), np.zeros(2))
    glove.export_embeddings(table, path)


def _evaluate_report(flag):
    """``evaluate`` writing one report to ``path``, its errors left to propagate."""
    def write(path):
        with tempfile.TemporaryDirectory() as inputs:
            truth = os.path.join(inputs, "truth.txt")
            with open(truth, "w", encoding="utf-8") as fh:
                fh.write("01010\n11100\n")
            args = cli.build_parser().parse_args(
                ["evaluate", "--truth", truth, "--submission", truth, flag, str(path)])
            args.func(args)
    return write


def _corpus(seed=3):
    return data.gen_synthetic(n_sessions=3, n_tracks=50, seed=seed)


WRITERS = {
    "checkpoint": _save_checkpoint,
    "submission": lambda path: metrics.write_submission(path, {"s1": [True], "s2": [False]}),
    "embeddings": _export_embeddings,
    "tracks": lambda path: data.write_tracks(path, _corpus()[0]),
    "sessions": lambda path: data.write_sessions(path, _corpus()[1]),
    "per-session report": _evaluate_report("--per-session"),
    "breakdown report": _evaluate_report("--breakdown"),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_leaves_old_file(self, writer, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")
        monkeypatch.setattr(data, "open", lambda *a, **k: _FailingFile(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            WRITERS[writer](path)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_and_leaves_no_temp_file(self, writer, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")
        WRITERS[writer](path)
        assert path.read_bytes() != b"old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]
