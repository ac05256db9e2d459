import csv
import hashlib
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipgru import cli, data, glove, metrics, training
from skipgru.errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    ParseError,
    ValidationError,
)
from skipgru.features import FeaturePipeline

from helpers import one_batch, session_table, split_halves, track_table


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


def table_halves(session):
    """First- and second-half event counts of a session as the table lays it out."""
    _, _, first = session_table([session]).event_layout()
    return int(first.sum()), int((~first).sum())


class TestSplitHalves:
    @pytest.mark.parametrize("length,first,second", [(20, 10, 10), (11, 6, 5), (10, 5, 5)])
    def test_split_rule(self, length, first, second):
        session = make_session("s", length, ["a"])
        assert table_halves(session) == (first, second)

    def test_lengths_sum_and_order(self):
        for length in range(10, 21):
            f, s = table_halves(make_session("s", length, ["a"]))
            assert f + s == length
            assert f >= s >= 5


def check(session, mode="train"):
    """The loader's session checks on a table of one hand-built session."""
    data._check_sessions(session_table([session]), mode)


class TestValidation:
    def test_length_bounds(self):
        session = make_session("s", 10, ["a"])
        session.events = session.events[:9]
        with pytest.raises(ValidationError, match="length 9"):
            check(session)

    def test_contiguous_positions(self):
        session = make_session("s", 10, ["a"])
        session.events[3] = data.Event("a", 9, session.events[3].interaction)
        with pytest.raises(ValidationError, match="contiguous"):
            check(session)

    def test_train_requires_all_interactions(self):
        session = make_session("s", 12, ["a"], with_second_half=False)
        with pytest.raises(ValidationError, match="missing interaction"):
            check(session)
        check(session, mode="infer")

    @pytest.mark.parametrize("length,edits,mode,message", [
        (9, {2: 5, 4: None}, "train", "session s: length 9 outside [10, 20]"),
        (21, {}, "infer", "session s: length 21 outside [10, 20]"),
        (12, {7: 9, 3: None}, "train", "session s: positions not contiguous 1..12 "
                                       "(found 9 at slot 8)"),
        (12, {1: 0, 5: 5}, "infer", "session s: positions not contiguous 1..12 "
                                    "(found 0 at slot 2)"),
        (12, {9: None, 4: None}, "train", "session s: missing interaction at position 5 "
                                          "(train mode)"),
        (11, {8: None, 5: None}, "infer", "session s: missing interaction at position 6 "
                                          "(infer mode)"),
    ])
    def test_error_text_and_precedence(self, length, edits, mode, message):
        # ``edits`` maps a 0-based slot to a new position, or to None to drop
        # the slot's interaction; a length fault comes before a position
        # fault, which comes before a missing interaction
        session = make_session("s", length, ["a"])
        for slot, edit in edits.items():
            ev = session.events[slot]
            session.events[slot] = (data.Event("a", ev.position, None) if edit is None
                                    else data.Event("a", edit, ev.interaction))
        with pytest.raises(ValidationError) as info:
            check(session, mode=mode)
        assert str(info.value) == message


    def test_hour_of_day_range(self):
        with pytest.raises(ValidationError):
            make_interaction(hour_of_day=24)

    def test_seek_counts_nonnegative(self):
        with pytest.raises(ValidationError):
            make_interaction(seek_fwd_count=-1)


class TestTrackTable:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, bad):
        with pytest.raises(ValidationError, match="duration"):
            track_table([("t", bad, 2000, np.zeros(2))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_acoustic_rejected(self, bad):
        with pytest.raises(ValidationError, match="^track u: non-finite acoustic entries$"):
            track_table([("t", 200.0, 2000, [0.5, 0.5]), ("u", bad, 2001, [0.5, bad])])

    @pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"], ["a", "c", "b"]])
    def test_unsorted_or_repeated_ids_rejected(self, ids):
        n = len(ids)
        with pytest.raises(ValidationError, match="sorted and distinct"):
            data.TrackTable(ids, np.full(n, 200.0), np.full(n, 2000), np.zeros((n, 2)))

    @pytest.mark.parametrize("duration,release_year,acoustic", [
        (np.zeros(3), np.zeros(2), np.zeros((2, 1))),
        (np.zeros(2), np.zeros(2), np.zeros((3, 1))),
        (np.zeros(2), np.zeros(2), np.zeros(2)),
    ])
    def test_columns_of_unequal_length_rejected(self, duration, release_year, acoustic):
        with pytest.raises(ValidationError, match="unequal length"):
            data.TrackTable(["a", "b"], duration, release_year, acoustic)

    def test_rows_sorted_by_id_len_and_iteration(self):
        tracks = track_table([("b", 300.0, 2010, [1.0]), ("a", 100.0, 1990, [0.0])])
        assert len(tracks) == 2 and list(tracks) == ["a", "b"]
        assert tracks.duration.tolist() == [100.0, 300.0]
        assert tracks.release_year.dtype == np.int64 and tracks.acoustic.shape == (2, 1)

    def test_id_rows_finds_exact_ids(self):
        ids = ["", "a", "a\0", "b", "bé"]
        wanted = ["a\0", "b", "", "a\0\0", "c", "bé", "a"]
        assert data.id_rows(ids, wanted).tolist() == [2, 3, 0, -1, -1, 4, 1]
        assert data.id_rows([], ["a"]).tolist() == [-1]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_load_tracks_names_the_line(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        "a,200.0,2000,0.5\n"
                        f"b,{bad},2001,0.5\n")
        with pytest.raises(ValidationError, match="line 3.*duration"):
            data.load_tracks(path)

    @pytest.mark.parametrize("earlier,later,message", [
        ("b,nan,2001,0.5", "c,200.0,x,0.5", "line 3: track b: non-finite duration nan"),
        ("b,200.0,x,0.5", "c,nan,2001,0.5",
         "line 3: column 'release_year' is not an integer: 'x'"),
        ("a,200.0,2001,0.5", "c,200.0,2001", "line 3: duplicate track_id 'a'"),
        ("b,200.0,2001,inf", "b,1,2", "line 3: track b: non-finite acoustic entries"),
    ])
    def test_load_tracks_reports_the_earlier_bad_line(self, tmp_path, earlier, later, message):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        f"a,200.0,2000,0.5\n{earlier}\n{later}\n")
        with pytest.raises(DataError) as info:
            data.load_tracks(path)
        assert str(info.value) == message

    def test_write_load_round_trip(self, tmp_path, corpus):
        tracks, _ = corpus
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        data.write_tracks(first, tracks)
        loaded = data.load_tracks(first)
        assert loaded.ids == tracks.ids
        for column in ("duration", "release_year", "acoustic"):
            got, want = getattr(loaded, column), getattr(tracks, column)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        data.write_tracks(second, loaded)
        assert first.read_bytes() == second.read_bytes()


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
            data.load_sessions(spath, track_table([]), mode="train")

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
            data.load_sessions(spath, track_table([]), mode="train")


class TestPadBatch:
    """``EncodedSessions.batch`` holds each session's real rows only."""

    def test_full_length_session_all_true(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        session = make_session("s", 20, sorted(tracks)[:3])
        batch = one_batch([session], fitted_pipeline, tracks)
        assert batch.session.tolist() == [0] * 10
        assert batch.first.shape == (10, fitted_pipeline.d_trip)
        assert batch.second.shape == (10, fitted_pipeline.d_doub)

    def test_min_length_session_half_mask(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        batch = one_batch([make_session("s", 10, sorted(tracks)[:3])], fitted_pipeline, tracks)
        assert batch.sizes.tolist() == [1] * 5
        assert batch.session.tolist() == [0] * 5

    def test_two_session_masks(self, corpus, fitted_pipeline):
        tracks, _ = corpus
        batch = one_batch(
            [make_session("a", 20, sorted(tracks)[:3]), make_session("b", 12, sorted(tracks)[:3])],
            fitted_pipeline, tracks,
        )
        assert batch.sizes.tolist() == [2] * 6 + [1] * 4
        assert batch.session.tolist() == [0] * 10 + [1] * 6

    def test_mask_has_at_least_five_true_entries_per_row(self, corpus, fitted_pipeline):
        tracks, sessions = corpus
        batch = one_batch(sessions, fitted_pipeline, tracks)
        assert np.bincount(batch.session, minlength=len(sessions)).min() >= 5

    def test_mask_filter_round_trip(self, corpus, fitted_pipeline):
        tracks, sessions = corpus
        batch = one_batch(sessions[:8], fitted_pipeline, tracks)
        for i, session in enumerate(sessions[:8]):
            _, second = split_halves(session)
            kept = batch.second[batch.session == i]
            alone = one_batch([session], fitted_pipeline, tracks).second
            assert np.array_equal(kept, alone) and len(alone) == len(second)
            assert kept[:, -2].tolist() == [e.position / data.MAX_SESSION_LEN for e in second]
            assert not kept[:, -1].any()

    def test_empty_batch(self, corpus, fitted_pipeline):
        tracks, sessions = corpus
        with pytest.raises(EmptyBatchError):
            fitted_pipeline.encode(sessions[:0], tracks)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = data.gen_synthetic(n_sessions=5, n_tracks=50, acoustic_dim=2, seed=3)
        b = data.gen_synthetic(n_sessions=5, n_tracks=50, acoustic_dim=2, seed=3)
        assert a[0].ids == b[0].ids
        assert np.array_equal(a[0].acoustic, b[0].acoustic)
        assert np.array_equal(a[0].duration, b[0].duration)
        assert_tables_equal(a[1], b[1])

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

    @pytest.mark.parametrize("noise", [-0.01, 1.5, float("nan")])
    def test_label_noise_outside_unit_interval(self, noise):
        with pytest.raises(ConfigError, match="label_noise must be in"):
            data.gen_synthetic(n_sessions=5, n_tracks=50, label_noise=noise)

    def test_sessions_valid(self):
        tracks, sessions = data.gen_synthetic(n_sessions=25, n_tracks=50, seed=1)
        data._check_sessions(sessions, "train")
        assert sessions.session_ids == [f"s{k:06d}" for k in range(25)]
        assert sessions.observed.all() and set(sessions.track_ids) <= set(tracks)

    def test_infer_file_matches_its_pinned_digest(self, tmp_path):
        # a pinned digest: a change to the generator's draw order or to the
        # file format changes it
        _, sessions = data.gen_synthetic(35, 50, seed=7)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions[30:], mode="infer")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "178e2d6a30eedf5526b2ca3d4111a51f59803239c39fc276d0fd95c0787315e2")


class _FailingFile:
    """File handle whose first write puts half of its text on the disk and
    then raises, as a full disk does, so a writer that writes its whole file
    at once fails too; reads pass through to the wrapped handle."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")

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
    checkpoint = training.Checkpoint(params, pipeline, None, {})
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
    "submission": lambda path: metrics.write_submission(path, ["1", "0"]),
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


def assert_tables_equal(a, b):
    assert a.session_ids == b.session_ids
    assert a.track_ids == b.track_ids
    assert a.context_types == b.context_types
    for name in ("offsets", *data.EVENT_COLUMNS):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


# numerals Python's int() reads but the file format does not: the byte parser
# declines them, and so must the csv fallback
LOOSE_NUMERALS = {"underscore": "1_000", "blanks": " 7 ", "plus": "+3", "arabic-indic": "\u0662"}
each_loose_numeral = pytest.mark.parametrize("raw", LOOSE_NUMERALS.values(), ids=LOOSE_NUMERALS)


def write_edited(path, sessions, edits):
    """Write ``sessions`` in train mode, then set fields of chosen file lines:
    ``edits`` maps a 1-based line number to {column index: value}; the key
    "drop" removes the last column."""
    data.write_sessions(path, sessions, mode="train")
    lines = path.read_text().splitlines()
    for line_no, fields in edits.items():
        parts = lines[line_no - 1].split(",")
        for k, v in fields.items():
            if k == "drop":
                parts = parts[:-1]
            else:
                parts[k] = v
        lines[line_no - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


class TestSessionTable:
    def test_loaded_table_layout(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, sessions[::-1], mode="train")
        table = data.load_sessions(spath, tracks, mode="train")
        assert table.session_ids == sorted(s.session_id for s in sessions)
        assert table.offsets[0] == 0 and table.offsets[-1] == sum(len(s) for s in sessions)
        assert table.lengths.tolist() == [len(s) for s in sessions]
        assert table.track_ids == sorted({e.track_id for s in sessions for e in s.events})
        assert table.flags.shape == (table.offsets[-1], 4) and table.flags.dtype == bool
        assert table.counts.shape == (table.offsets[-1], 3) and table.counts.dtype == np.int64
        assert table.observed.all()
        assert_tables_equal(table, sessions)

    def test_sequence_protocol(self, corpus):
        _, table = corpus
        sessions = list(table)
        assert len(table) == len(sessions) and table
        assert not table[:0] and not session_table([])
        assert table[3] == sessions[3] and table[-1] == sessions[-1]
        assert [e.position for e in table[3].events] == list(range(1, len(table[3]) + 1))
        with pytest.raises(IndexError):
            table[len(sessions)]
        for part, want in [(table[:-7], sessions[:-7]), (table[-7:], sessions[-7:]),
                           (table[5:30:4], sessions[5:30:4]), (table[:0], [])]:
            assert isinstance(part, data.SessionTable)
            assert list(part) == want
            assert_tables_equal(part, table.take([sessions.index(s) for s in want]))
        reordered = table.take([4, 0, 2])
        assert [s.session_id for s in reordered] == [sessions[k].session_id for k in (4, 0, 2)]

    def test_writer_keeps_table_order(self, tmp_path, corpus):
        _, sessions = corpus
        spath = tmp_path / "s.csv"
        shuffled = sessions.take([7, 2, 30, 0])
        data.write_sessions(spath, shuffled, mode="train")
        with open(spath, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        want = [(s.session_id, str(e.position), e.track_id) for s in shuffled for e in s.events]
        assert [tuple(row[:3]) for row in rows] == want

    def test_header_only_file_is_empty(self, tmp_path, corpus):
        spath = tmp_path / "s.csv"
        data.write_sessions(spath, corpus[1][:0], mode="train")
        table = data.load_sessions(spath, track_table([]), mode="train")
        assert len(table) == 0 and list(table) == []


class TestRowErrors:
    """Every row fault names its line; the first bad row in file order wins,
    and a row with several faults reports the one the per-row checks reach
    first: column count, position, track id, blank interaction columns, the
    four flags, the three counts, then the count ranges."""

    def test_hour_out_of_range_names_line_and_column(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:1], {4: {9: "25"}})
        with pytest.raises(ValidationError,
                           match=r"^line 4: column 'hour_of_day' must be in \[0, 23\], got 25$"):
            data.load_sessions(spath, tracks, mode="train")

    @pytest.mark.parametrize("column,name", [(7, "seek_fwd_count"), (8, "seek_back_count")])
    def test_negative_seek_names_line_and_column(self, tmp_path, corpus, column, name):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:1], {6: {column: "-3"}})
        with pytest.raises(ValidationError,
                           match=rf"^line 6: column '{name}' must be non-negative, got -3$"):
            data.load_sessions(spath, tracks, mode="train")

    @pytest.mark.parametrize("fields,error,message", [
        ({1: "x", 2: "zzz", 3: "yes"}, ParseError,
         "line 3: column 'position' is not an integer: 'x'"),
        ({2: "zzz", 4: ""}, DataError, "line 3: unknown track_id 'zzz'"),
        ({4: "", 3: "yes"}, ParseError,
         "line 3: interaction columns must be all present or all empty"),
        ({3: "yes", 7: "abc"}, ParseError, "line 3: column 'skipped' must be 0 or 1, got 'yes'"),
        ({9: "25", 5: "2"}, ParseError,
         "line 3: column 'no_pause_before_play' must be 0 or 1, got '2'"),
        ({9: "25", 7: "-1"}, ValidationError,
         "line 3: column 'hour_of_day' must be in [0, 23], got 25"),
        ({8: "-2", 9: "x"}, ParseError, "line 3: column 'hour_of_day' is not an integer: 'x'"),
        ({7: "-1", 8: "-2"}, ValidationError,
         "line 3: column 'seek_fwd_count' must be non-negative, got -1"),
        ({"drop": True, 1: "x"}, ParseError, "line 3: expected 11 columns, got 10"),
        ({1: "99999999999999999999"}, ParseError,
         "line 3: column 'position' does not fit in 64 bits: '99999999999999999999'"),
    ])
    def test_first_fault_of_a_row(self, tmp_path, corpus, fields, error, message):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:2], {3: fields})
        with pytest.raises(error) as info:
            data.load_sessions(spath, tracks, mode="train")
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("raw,message", [
        ("9" * 5000, "does not fit in 64 bits: '" + "9" * 32 + "'... (5000 characters)"),
        ("-" + "1" * 20, "does not fit in 64 bits: '-" + "1" * 20 + "'"),
        ("0" * 40 + "9223372036854775808", "does not fit in 64 bits: "),
        ("9" * 5000 + "x", "is not an integer: '" + "9" * 32 + "'... (5001 characters)"),
        ("12a", "is not an integer: '12a'"),
        *((raw, f"is not an integer: {raw!r}") for raw in LOOSE_NUMERALS.values()),
    ], ids=["5000-digits", "signed-20-digits", "zero-padded-2**63", "5000-digits-and-x",
            "short-non-integer", *LOOSE_NUMERALS])
    def test_long_numeral_is_worded_and_clipped(self, raw, message):
        with pytest.raises(ParseError) as info:
            data._parse_int64(raw, "position", 7)
        text = str(info.value)
        assert text.startswith("line 7: column 'position' " + message) and len(text) < 200

    def test_long_flag_and_number_are_clipped(self):
        for parse, wording in [(data._parse_bool, "must be 0 or 1, got"),
                               (data._parse_float, "is not a number:")]:
            with pytest.raises(ParseError) as info:
                parse("x" * 200_000, "c", 7)
            assert str(info.value) == (f"line 7: column 'c' {wording} '{'x' * 32}'... "
                                       "(200000 characters)")

    @pytest.mark.parametrize("raw,value", [("0" * 40 + "7", 7), ("-" + "0" * 30, 0),
                                           ("-9223372036854775808", -2 ** 63),
                                           ("0009223372036854775807", 2 ** 63 - 1)],
                             ids=["zero-padded-7", "minus-zeros", "int64-min", "int64-max"])
    def test_leading_zeros_do_not_count(self, raw, value):
        assert data._parse_int64(raw, "position", 7) == value

    def test_quoted_file_with_a_long_position(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:2], {4: {1: '"' + "9" * 5000 + '"'}})
        with pytest.raises(ParseError) as info:
            data.load_sessions(spath, tracks, mode="train")
        assert str(info.value).startswith("line 4: column 'position' does not fit in 64 bits")
        assert len(str(info.value)) < 200

    @each_loose_numeral
    def test_loose_numeral_in_a_quoted_file(self, tmp_path, corpus, raw):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:2], {4: {1: f'"{raw}"'}})
        assert data._parse_plain(spath.read_bytes(), tracks) is None
        with pytest.raises(ParseError) as info:
            data.load_sessions(spath, tracks, mode="train")
        assert str(info.value) == f"line 4: column 'position' is not an integer: {raw!r}"

    def test_negative_count_in_a_quoted_file_reaches_the_range_check(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        write_edited(spath, sessions[:2], {4: {7: '"-4"'}})
        with pytest.raises(ValidationError) as info:
            data.load_sessions(spath, tracks, mode="train")
        assert str(info.value) == "line 4: column 'seek_fwd_count' must be non-negative, got -4"

    @each_loose_numeral
    def test_loose_release_year(self, tmp_path, raw):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        f"a,200.0,2000,0.5\nb,200.0,{raw},0.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            data.load_tracks(path)
        assert str(info.value) == f"line 3: column 'release_year' is not an integer: {raw!r}"

    @pytest.mark.parametrize("column,raw", [("duration", "1_80.5"), ("acoustic_0", "\u0661"),
                                            ("duration", "\u0662\u0660\u0660.5"),
                                            ("acoustic_0", "0.2_5"), ("duration", " 7 "),
                                            ("acoustic_0", "7 "), ("duration", "+3"),
                                            ("acoustic_0", "\t1.5\n"), ("duration", "+1e+20"),
                                            ("acoustic_0", "+inf")],
                             ids=["underscore", "arabic-indic", "arabic-indic-decimal",
                                  "underscore-fraction", "blanks", "trailing-blank", "plus",
                                  "tab-newline", "plus-exponent", "plus-inf"])
    def test_loose_float(self, tmp_path, column, raw):
        # float() reads all of these; the file format's numerals are ASCII,
        # with no digit grouping, no blank around them and no leading "+"
        # (an exponent keeps its sign)
        fields = {"duration": "200.0", "acoustic_0": "0.5", column: raw}
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["track_id", "duration", "release_year", "acoustic_0"],
                                      ["a", "200.0", "2000", "0.5"],
                                      ["b", fields["duration"], "2000", fields["acoustic_0"]]])
        with pytest.raises(ParseError) as info:
            data.load_tracks(path)
        assert str(info.value) == f"line 3: column '{column}' is not a number: {raw!r}"

    @settings(max_examples=200)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_repr_parses(self, value):
        assert np.float64(data._parse_float(repr(value), "duration", 2)).tobytes() == \
            np.float64(value).tobytes()

    def test_track_id_may_hold_underscores_and_other_scripts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        "a_1,200.5,2000,0.5\n\u0661\u00e9,180.25,1999,-1e-3\n",
                        encoding="utf-8")
        tracks = data.load_tracks(path)
        assert tracks.ids == sorted(["a_1", "\u0661\u00e9"])
        assert sorted(tracks.duration.tolist()) == [180.25, 200.5]

    def test_long_release_year(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("track_id,duration,release_year,acoustic_0\n"
                        "a,200.0,2000,0.5\n"
                        f"b,200.0,{'9' * 5000},0.5\n")
        with pytest.raises(ParseError) as info:
            data.load_tracks(path)
        assert str(info.value).startswith("line 3: column 'release_year' does not fit in 64 bits")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("first_bad", [5, 8192])
    def test_first_bad_row_in_file_order(self, tmp_path, corpus, first_bad):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        # enough copies of the corpus, under fresh ids, to hold every edited line
        rows_per_copy = sum(len(s.events) for s in sessions)
        copies = -(-(first_bad + 19) // rows_per_copy)
        many = session_table([data.Session(f"{s.session_id}-{k}", s.events)
                              for k in range(copies) for s in sessions])
        # the later rows fail checks that come earlier within a row
        later = {first_bad + 18: {1: "x"}, first_bad + 19: {2: "zzz"}}
        write_edited(spath, many, {first_bad: {9: "24"}, **later})
        with pytest.raises(ValidationError, match=rf"^line {first_bad}: column 'hour_of_day'"):
            data.load_sessions(spath, tracks, mode="train")
        write_edited(spath, many, later)
        with pytest.raises(ParseError, match=rf"^line {first_bad + 18}: column 'position'"):
            data.load_sessions(spath, tracks, mode="train")

    def test_row_faults_come_before_session_faults(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        # line 2 breaks the first session's positions; line 40 holds a bad flag
        write_edited(spath, sessions[:3], {2: {1: "7"}, 40: {6: "2"}})
        with pytest.raises(ParseError, match="^line 40: column 'short_pause_before_play'"):
            data.load_sessions(spath, tracks, mode="train")
        write_edited(spath, sessions[:3], {2: {1: "7"}})
        with pytest.raises(ValidationError, match="positions not contiguous"):
            data.load_sessions(spath, tracks, mode="train")

    def test_first_bad_session_in_session_order(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        short = data.Session("b", sessions[1].events[:9])
        gap = data.Session("a", [data.Event(e.track_id, e.position + (e.position > 4),
                                            e.interaction) for e in sessions[0].events])
        data.write_sessions(spath, session_table([short, gap]), mode="train")
        with pytest.raises(ValidationError, match=r"^session a: positions not contiguous"):
            data.load_sessions(spath, tracks, mode="train")
        data.write_sessions(spath, session_table([short, sessions[2]]), mode="train")
        with pytest.raises(ValidationError, match=r"^session b: length 9 outside \[10, 20\]$"):
            data.load_sessions(spath, tracks, mode="train")


TRACK_POOL = [f"t{k:02d}" for k in range(8)] + ["t,quoted\"", "tü"]

interactions = st.builds(
    data.InteractionRecord, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.integers(0, 40), st.integers(0, 40), st.integers(0, data.HOURS_PER_DAY - 1),
    st.sampled_from(data.CONTEXT_TYPES + ("mix,ed \"ctx\"",)))


@st.composite
def session_lists(draw):
    """Valid train-mode sessions in arbitrary order, ids unique and awkward to quote."""
    ids = draw(st.lists(st.text(alphabet="ab,\"é 1", min_size=1, max_size=4),
                        min_size=1, max_size=5, unique=True))
    sessions = []
    for session_id in ids:
        length = draw(st.integers(data.MIN_SESSION_LEN, data.MAX_SESSION_LEN))
        tracks = draw(st.lists(st.sampled_from(TRACK_POOL), min_size=length, max_size=length))
        records = draw(st.lists(interactions, min_size=length, max_size=length))
        sessions.append(data.Session(session_id, [
            data.Event(track, pos, record)
            for pos, (track, record) in enumerate(zip(tracks, records), start=1)]))
    return sessions


def blank_second_halves(session):
    cut = data.first_half_length(len(session))
    return data.Session(session.session_id, [
        data.Event(e.track_id, e.position, e.interaction if e.position <= cut else None)
        for e in session.events])


class TestCsvProperties:
    @settings(max_examples=40)
    @given(sessions=session_lists(), mode=st.sampled_from(["train", "infer"]),
           rng=st.randoms(use_true_random=False))
    def test_write_load_round_trip(self, sessions, mode, rng):
        want = sorted(sessions, key=lambda s: s.session_id)
        if mode == "infer":
            want = [blank_second_halves(s) for s in want]
        tracks = track_table((t, 200.0, 2000, np.zeros(2)) for t in TRACK_POOL)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            data.write_sessions(path, session_table(sessions), mode=mode)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            rng.shuffle(rows)  # the loader sorts by session_id, then position
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
            loaded = data.load_sessions(path, tracks, mode=mode)
            assert_tables_equal(data.load_sessions(path, None, mode=mode), loaded)
        assert list(loaded) == want
        assert_tables_equal(session_table(want), loaded)


PLAIN_TRACKS = [f"t{k:02d}" for k in range(6)] + ["tü", "a track id of 21 bytes"]


@st.composite
def plain_session_lists(draw):
    """Valid sessions with no byte that needs quoting; ids may be empty,
    non-ASCII or wider than one 8-byte key word."""
    ids = draw(st.lists(st.text(alphabet="abé 1_", max_size=12), min_size=1, max_size=5,
                        unique=True))
    records = st.builds(
        data.InteractionRecord, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        st.integers(0, 10 ** 12), st.integers(0, 40), st.integers(0, data.HOURS_PER_DAY - 1),
        st.sampled_from(data.CONTEXT_TYPES + ("é",)))
    sessions = []
    for session_id in ids:
        length = draw(st.integers(data.MIN_SESSION_LEN, data.MAX_SESSION_LEN))
        sessions.append(data.Session(session_id, [
            data.Event(draw(st.sampled_from(PLAIN_TRACKS)), pos, draw(records))
            for pos in range(1, length + 1)]))
    return sessions


def csv_path_outcome(path, tracks, mode):
    """What the csv reader makes of a file: its checked table, or its error."""
    try:
        table = data._read_csv(path, tracks)
        data._check_sessions(table, mode)
    except Exception as err:  # noqa: BLE001 - the outcome under test
        return type(err), str(err)
    return table


def assert_same_outcome(got, want):
    if isinstance(want, data.SessionTable):
        assert isinstance(got, data.SessionTable), got
        assert_tables_equal(got, want)
    else:
        assert got == want


class TestByteParser:
    """``load_sessions`` parses a plain file from its bytes and gives exactly
    the table the csv reader gives; any other file is declined to the csv
    reader, which gives the table or the error."""

    @settings(max_examples=60)
    @given(sessions=plain_session_lists(), mode=st.sampled_from(["train", "infer"]),
           eol=st.sampled_from(["\n", "\r\n"]), final=st.booleans(),
           rng=st.randoms(use_true_random=False), known=st.booleans())
    def test_plain_file_reads_as_the_csv_reader_does(self, sessions, mode, eol, final, rng,
                                                     known):
        tracks = track_table((t, 200.0, 2000, np.zeros(2)) for t in PLAIN_TRACKS) if known else None
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            data.write_sessions(path, session_table(sessions), mode=mode)
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = fh.read().splitlines()
            rng.shuffle(rows)
            raw = (eol.join([header, *rows]) + eol * final).encode()
            with open(path, "wb") as fh:
                fh.write(raw)
            plain = data._parse_plain(raw, tracks)
            assert plain is not None
            assert_tables_equal(plain, data._read_csv(path, tracks))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda b: b.replace(b"s000001", b"s\xff00001", 1), id="not-utf8"),
        pytest.param(lambda b: b.replace(b"s000001", b'"s000001"'), id="quoted"),
        pytest.param(lambda b: b.replace(b"playlist", b'play"list'), id="bare-quote"),
        pytest.param(lambda b: b.replace(b"s000001", b"s00\x000001"), id="nul"),
        pytest.param(lambda b: b.replace(b"s000001", b"s00\r0001", 1), id="lone-cr"),
        pytest.param(lambda b: b.replace(b"\r\n", b"\r\r\n", 1), id="cr-cr-lf"),
        pytest.param(lambda b: b"\xef\xbb\xbf" + b, id="bom"),
        pytest.param(lambda b: b.replace(b"position", b"Position", 1), id="header-name"),
        pytest.param(lambda b: b.replace(b"\r\n", b",extra\r\n", 1), id="header-width"),
        pytest.param(lambda b: b"", id="empty"),
        pytest.param(lambda b: b.split(b"\r\n")[0] + b"\r\n", id="header-only"),
        pytest.param(lambda b: b.replace(b"\r\ns000001", b"\r\n\r\ns000001", 1), id="blank-line"),
        pytest.param(lambda b: b + b"\r\n", id="blank-last-line"),
        pytest.param(lambda b: b.replace(b",playlist", b"playlist", 1), id="nine-commas"),
        pytest.param(lambda b: b.replace(b",playlist", b",play,list", 1), id="eleven-commas"),
        pytest.param(lambda b: b.replace(b"s000001,2,", b"s000001, 2,"), id="space-numeral"),
        pytest.param(lambda b: b.replace(b"s000001,2,", b"s000001,+2,"), id="plus-numeral"),
        pytest.param(lambda b: b.replace(b"s000001,12,", b"s000001,1_2,"), id="underscore"),
        pytest.param(lambda b: b.replace(b"s000001,2,", b"s000001,0000000000000000002,"),
                     id="nineteen-digits"),
        pytest.param(lambda b: b.replace(b"s000001,2,", b"s000001,\xd9\xa2,"),
                     id="arabic-digit"),
        pytest.param(lambda b: b.replace(b"s000001,2,", b"s000001,,"), id="blank-position"),
        pytest.param(lambda b: edit_row(b, 5, {7: b"-1"}), id="negative-count"),
        pytest.param(lambda b: edit_row(b, 5, {4: b"2"}), id="flag-two"),
        pytest.param(lambda b: edit_row(b, 5, {3: b"00"}), id="flag-wide"),
        pytest.param(lambda b: edit_row(b, 5, {6: b""}), id="partly-blank"),
        pytest.param(lambda b: edit_row(b, 5, {9: b"24"}), id="hour-24"),
        pytest.param(lambda b: edit_row(b, 5, {2: b"t99999"}), id="unknown-track"),
        pytest.param(lambda b: edit_row(b, 5, {10: b"x" * 65}), id="wide-field"),
    ])
    def test_declined_file_gives_the_csv_outcome(self, tmp_path, corpus, edit):
        tracks, sessions = corpus
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions[:3], mode="train")
        raw = edit(path.read_bytes())
        path.write_bytes(raw)
        assert data._parse_plain(raw, tracks) is None
        want = csv_path_outcome(path, tracks, "train")
        try:
            got = data.load_sessions(path, tracks, mode="train")
        except Exception as err:  # noqa: BLE001 - the outcome under test
            got = type(err), str(err)
        assert_same_outcome(got, want)

    def test_written_file_takes_the_byte_path(self, tmp_path, corpus, monkeypatch):
        tracks, sessions = corpus
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions, mode="infer")
        want = data._read_csv(path, tracks)

        def refuse(*args):
            raise AssertionError("the csv reader ran")

        monkeypatch.setattr(data, "_read_csv", refuse)
        assert_tables_equal(data.load_sessions(path, tracks, mode="infer"), want)

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # about 30k rows; measured at 9.76 times the file's size (the csv
        # reader's peak is 8.72 times). An [events, 11, width] int64 gather
        # would add more than 8 times the file for each byte of width.
        tracks, sessions = data.gen_synthetic(n_sessions=2000, n_tracks=50, seed=1)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions, mode="train")
        assert peak_over_size(path, tracks) <= 11.0

    def test_quoted_copy_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # the same rows with every field quoted, so the csv reader parses
        # them; measured at 6.66 times the file's size
        tracks, sessions = data.gen_synthetic(n_sessions=2000, n_tracks=50, seed=1)
        path = tmp_path / "s.csv"
        data.write_sessions(path, sessions, mode="train")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        assert data._parse_plain(path.read_bytes(), tracks) is None
        assert peak_over_size(path, tracks) <= 11.0


def peak_over_size(path, tracks) -> float:
    """The tracemalloc peak of loading ``path``, over the file's size."""
    tracemalloc.start()
    try:
        data.load_sessions(path, tracks, mode="train")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / os.path.getsize(path)


def edit_row(raw: bytes, line_no: int, fields: dict) -> bytes:
    """``raw`` with fields of its 1-based line ``line_no`` replaced."""
    lines = raw.split(b"\r\n")
    parts = lines[line_no - 1].split(b",")
    for k, value in fields.items():
        parts[k] = value
    lines[line_no - 1] = b",".join(parts)
    return b"\r\n".join(lines)
