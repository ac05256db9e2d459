import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipgru import data
from skipgru.errors import DataError, StateError, ValidationError
from skipgru.features import INTERACTION_WIDTH, FeaturePipeline, min_max, position_feature

from helpers import one_batch, packed_order, session_table, split_halves, track_table, unpack
from test_data import make_interaction


@pytest.fixture(scope="module")
def corpus():
    return data.gen_synthetic(n_sessions=30, n_tracks=55, acoustic_dim=3, seed=2)


@pytest.fixture(scope="module")
def pipeline(corpus):
    tracks, sessions = corpus
    emb = {tid: np.full(5, i * 0.1) for i, tid in enumerate(sorted(tracks))}
    return FeaturePipeline(emb).fit(sessions, tracks)


def scaled_durations(fit_durations, durations):
    """The duration feature of tracks lasting ``durations``, from a pipeline
    fit on one session that plays tracks lasting ``fit_durations``."""
    fit_ids = [f"f{k:02d}" for k in range(len(fit_durations))]
    ids = [f"t{k:02d}" for k in range(len(durations))]
    tracks = track_table((track_id, duration, 2000, np.zeros(2)) for track_id, duration
                         in zip([*fit_ids, *ids], [*fit_durations, *durations]))
    pipeline = FeaturePipeline({}, d_emb=1).fit(
        session_table([one_session(fit_ids, length=len(fit_ids))]), tracks)
    session = one_session(ids, length=len(ids))
    # static holds one row per used track, in id order: t00, t01, ...
    return pipeline.encode(session_table([session]), tracks).static[:, 1].tolist()


def context_sessions(context_types):
    """One session per context type, named by its index."""
    return session_table([data.Session(f"c{k}", one_session(["t00001"], context_type=c).events)
                          for k, c in enumerate(context_types)])


class TestScaler:
    """Min-max scaling by the bounds in a checkpoint's ``scalers``."""

    def test_fit_min_max(self, corpus, pipeline):
        tracks, sessions = corpus
        used = np.isin(tracks.ids, [sessions.track_ids[k] for k in set(sessions.track_index)])
        values = np.column_stack([tracks.duration, tracks.release_year, tracks.acoustic])[used]
        counts = sessions.counts[sessions.observed]
        assert pipeline.numeric_columns == ["duration", "release_year", "acoustic_0",
                                            "acoustic_1", "acoustic_2", *data.COUNT_COLUMNS]
        assert pipeline.lo.tolist() == [*values.min(axis=0), *counts.min(axis=0)]
        assert pipeline.hi.tolist() == [*values.max(axis=0), *counts.max(axis=0)]

    def test_endpoints_and_midpoint(self):
        assert scaled_durations([200.0, 400.0, 1000.0], [200.0, 600.0, 1000.0]) == [0.0, 0.5, 1.0]

    def test_clamping(self):
        assert scaled_durations([200.0, 1000.0], [99.0, 9900.0]) == [0.0, 1.0]

    def test_degenerate_maps_to_zero(self):
        assert scaled_durations([500.0, 500.0], [500.0, 700.0, 100.0]) == [0.0, 0.0, 0.0]

    def test_monotone(self):
        ys = scaled_durations([150.0, 850.0], np.linspace(50.0, 1000.0, 20))
        assert (np.diff(ys) >= 0).all() and ys[0] == 0.0 and ys[-1] == 1.0

    def test_each_column_by_its_own_bounds(self):
        values = np.array([[2.0, 5.0, -1.0], [6.0, 7.0, 3.0], [10.0, 5.0, 1.0]])
        got = min_max(values, np.array([2.0, 5.0, -1.0]), np.array([10.0, 5.0, 3.0]))
        assert got.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 1.0], [1.0, 0.0, 0.5]]

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_matches_the_broadcast_expression_bitwise(self, dtype):
        # random values, values past both bounds and a flat (lo == hi) column
        rng = np.random.default_rng(31)
        values = rng.normal(0.0, 40.0, size=(1_000, 4)).astype(dtype)
        lo = np.array([-20.5, 3.0, -60.0, -1e-3])
        hi = np.array([20.25, 3.0, 45.5, 70.0])
        want = np.clip((values - lo) / np.where(hi == lo, 1.0, hi - lo), 0.0, 1.0)
        want[:, hi == lo] = 0.0
        got = min_max(values, lo, hi)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert (got == 0.0).any(axis=0).tolist() == [True, True, True, True]
        assert (got == 1.0).any(axis=0).tolist() == [True, False, True, True]


class TestVocabulary:
    """The context codes a checkpoint's ``context_vocab`` records."""

    def test_dense_indices_with_reserved_zero(self, corpus):
        tracks, _ = corpus
        pipeline = FeaturePipeline({}, d_emb=2).fit(context_sessions(["b", "a", "b", "c"]),
                                                    tracks)
        assert pipeline.contexts == ["a", "b", "c"] and pipeline.context_vocab_size == 4
        batch = one_batch(context_sessions(["c", "a", "b"]), pipeline, tracks)
        codes = batch.first[batch.last, pipeline.triplet_ctx_col]
        assert codes.tolist() == [3.0, 1.0, 2.0]

    def test_unknown_token_is_zero(self, corpus):
        tracks, _ = corpus
        pipeline = FeaturePipeline({}, d_emb=2).fit(context_sessions(["a"]), tracks)
        batch = one_batch(context_sessions(["never-seen", "a"]), pipeline, tracks)
        assert batch.first[batch.last, pipeline.triplet_ctx_col].tolist() == [0.0, 1.0]


class TestPositionFeature:
    def test_values(self):
        assert position_feature(20) == 1.0
        assert position_feature(1) == 0.05
        assert position_feature(10) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            position_feature(0)
        with pytest.raises(ValidationError):
            position_feature(21)
        with pytest.raises(ValidationError):
            position_feature(np.array([3, 0, 7]))


def one_session(track_ids, length=10, **interaction):
    """A session whose every event carries the same interaction record."""
    inter = make_interaction(**interaction)
    return data.Session("s", [data.Event(track_ids[(p - 1) % len(track_ids)], p, inter)
                              for p in range(1, length + 1)])


def scalar_scale(lo, hi, x):
    if hi == lo:
        return 0.0
    return min(1.0, max(0.0, (x - lo) / (hi - lo)))


def reference_vector(pipeline, tracks, track_id, position, interaction=None):
    """One event's triplet (with an interaction) or doublet, built field by field."""
    bounds = dict(zip(pipeline.numeric_columns, zip(pipeline.lo, pipeline.hi)))
    embeddings = dict(zip(pipeline.embedding_ids, pipeline.embedding_table))
    vec = list(embeddings.get(track_id, np.zeros(pipeline.d_emb)))
    row = tracks.ids.index(track_id)
    vec += [scalar_scale(*bounds["duration"], tracks.duration[row]),
            scalar_scale(*bounds["release_year"], tracks.release_year[row])]
    vec += [scalar_scale(*bounds[f"acoustic_{i}"], v) for i, v in enumerate(tracks.acoustic[row])]
    if interaction is not None:
        vec += [scalar_scale(*bounds[name], getattr(interaction, name))
                for name in data.COUNT_COLUMNS]
        vec += [float(getattr(interaction, name)) for name in data.TASK_NAMES]
        contexts = pipeline.contexts
        vec.append(float(contexts.index(interaction.context_type) + 1
                         if interaction.context_type in contexts else 0))
    return vec + [position / data.MAX_SESSION_LEN, 0.0]


class TestAssembly:
    def test_widths(self, pipeline):
        assert pipeline.d_doub == 5 + 2 + 3 + 2
        assert pipeline.d_trip == pipeline.d_doub + INTERACTION_WIDTH

    def test_triplet_layout(self, corpus, pipeline):
        tracks, _ = corpus
        track_id = sorted(tracks)[3]
        batch = one_batch([one_session([track_id], context_type="radio")], pipeline, tracks)
        vec = batch.first[4]  # position 5
        assert vec.shape == (pipeline.d_trip,)
        assert np.array_equal(vec[:5], np.full(5, 3 * 0.1))  # the fixture's embedding
        assert vec[pipeline.triplet_ctx_col] == pipeline.contexts.index("radio") + 1
        assert vec[-2] == 0.25  # position 5 / 20
        assert vec[-1] == 0.0   # is_pad

    def test_hand_computed_layout(self):
        tracks = track_table([
            ("a", 100.0, 1990, np.array([0.0, 1.0])),
            ("b", 300.0, 2010, np.array([1.0, 1.0])),
            ("c", 200.0, 2000, np.array([0.5, 1.0])),
        ])
        fit_session = one_session(["a", "b"], seek_fwd_count=4, hour_of_day=20)
        fit_session.events[0] = data.Event("a", 1, make_interaction(hour_of_day=10))
        pipeline = FeaturePipeline({"a": np.array([7.0]), "c": np.array([8.0])})
        pipeline.fit(session_table([fit_session]), tracks)
        # 11 events alternating c, b: six observed, five withheld; "c" is unseen
        # in fit and "b" has no embedding
        session = one_session(["c", "b"], length=11, skip=True, context_type="radio",
                              seek_fwd_count=9, hour_of_day=15)
        batch = one_batch([session], pipeline, tracks)
        # emb | duration | year | acoustic_0 | acoustic_1 (constant -> 0) | ...
        c_static = [8.0, 0.5, 0.5, 0.5, 0.0]
        b_static = [0.0, 1.0, 1.0, 1.0, 0.0]
        # seek_fwd (clamped) | seek_back (constant -> 0) | hour | 4 flags | ctx (unknown)
        inter = [1.0, 0.0, 0.5, 1.0, 0.0, 1.0, 0.0, 0.0]
        assert batch.first.shape == (6, 15) and batch.second.shape == (5, 7)
        assert batch.first[0].tolist() == c_static + inter + [0.05, 0.0]
        assert batch.first[5].tolist() == b_static + inter + [0.3, 0.0]
        assert batch.second[0].tolist() == c_static + [0.35, 0.0]
        assert batch.second[3].tolist() == b_static + [0.5, 0.0]
        assert batch.sizes.tolist() == [1] * 6 and batch.last.tolist() == [5]
        assert batch.session.tolist() == [0] * 5
        assert batch.targets.tolist() == [[1.0, 0.0, 1.0, 0.0]] * 5

    def test_doublet_differs_only_in_position(self, corpus, pipeline):
        tracks, _ = corpus
        batch = one_batch([one_session([sorted(tracks)[1]])], pipeline, tracks)
        a, b = batch.second[0], batch.second[1]
        diff = np.nonzero(a != b)[0]
        assert diff.tolist() == [pipeline.d_doub - 2]

    def test_assembly_pure(self, corpus, pipeline):
        tracks, sessions = corpus
        a = one_batch(sessions[:4], pipeline, tracks)
        b = one_batch(sessions[:4], pipeline, tracks)
        assert batch_bytes(a) == batch_bytes(b)

    def test_unknown_context_type_never_crashes(self, corpus, pipeline):
        tracks, _ = corpus
        session = one_session(sorted(tracks)[:1], context_type="martian")
        batch = one_batch([session], pipeline, tracks)
        assert not batch.first[:, pipeline.triplet_ctx_col].any()

    def test_unknown_track_embedding_is_zero(self, pipeline):
        assert "no-such-track" not in pipeline.embedding_ids
        stranger = track_table([("no-such-track", 200.0, 2000, np.zeros(3))])
        session = one_session(["no-such-track"])
        batch = one_batch([session], pipeline, stranger)
        assert not batch.first[:, :pipeline.d_emb].any()
        assert not batch.second[:, :pipeline.d_emb].any()

    def test_values_in_unit_interval(self, corpus, pipeline):
        tracks, sessions = corpus
        batch = one_batch(sessions[:10], pipeline, tracks)
        numeric = batch.second[:, pipeline.d_emb:]
        assert numeric.min() >= 0.0 and numeric.max() <= 1.0

    def test_matches_per_event_reference(self, corpus):
        tracks, sessions = corpus
        ids = sorted(tracks)
        emb = {tid: np.full(4, k * 0.3 - 2.0) for k, tid in enumerate(ids) if k % 4}
        pipeline = FeaturePipeline(emb).fit(sessions[:20], tracks)
        unseen = one_session(ids[:7], length=13, context_type="martian", seek_back_count=50)
        chosen = session_table([*sessions[20:], unseen])
        batch = one_batch(chosen, pipeline, tracks)
        halves = [split_halves(session) for session in chosen]
        lengths = [len(first) for first, _ in halves]
        assert len(set(lengths)) > 1
        order = packed_order(lengths)
        assert len(batch.first) == len(order)
        for row, (k, t) in zip(batch.first, order):
            ev = halves[k][0][t]
            want = reference_vector(pipeline, tracks, ev.track_id, ev.position, ev.interaction)
            assert row.tolist() == want
        assert batch.sizes.tolist() == [sum(n > t for n in lengths) for t in range(max(lengths))]
        assert batch.last.tolist() == [order.index((k, n - 1)) for k, n in enumerate(lengths)]
        seconds = [(k, ev) for k, (_, second) in enumerate(halves) for ev in second]
        assert batch.session.tolist() == [k for k, _ in seconds]
        for row, target, (_, ev) in zip(batch.second, batch.targets, seconds, strict=True):
            assert row.tolist() == reference_vector(pipeline, tracks, ev.track_id, ev.position)
            assert target.tolist() == [float(getattr(ev.interaction, name))
                                       for name in data.TASK_NAMES]

    def test_batch_composition_invariance(self, corpus, pipeline):
        tracks, sessions = corpus
        chosen = sessions[:6]
        encoded = pipeline.encode(chosen, tracks)
        orders = [[0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 4, 2], [2, 4]]
        batches = [encoded.batch(order) for order in orders]
        batches += [pipeline.encode(chosen[::-1], tracks).batch(range(6))]
        orders += [[5, 4, 3, 2, 1, 0]]
        for k, session in enumerate(chosen):
            (alone,) = unpack(one_batch([session], pipeline, tracks))
            for order, batch in zip(orders, batches):
                if k not in order:
                    continue
                for got, want in zip(unpack(batch)[order.index(k)], alone, strict=True):
                    assert np.array_equal(got, want)


class TestTwoBlocks:
    """A triplet is its track's static row followed by its event's whole
    dynamic row; a doublet is the same static row followed by the dynamic
    row's last two columns, so it is its triplet without the interaction
    block."""

    @settings(max_examples=40, deadline=None)
    @given(draw=st.data())
    def test_packed_rows_are_the_two_blocks(self, corpus, pipeline, draw):
        tracks, sessions = corpus
        chosen = draw.draw(st.lists(st.integers(0, len(sessions) - 1), min_size=1,
                                    unique=True), label="sessions")
        encoded = pipeline.encode(sessions.take(chosen), tracks)
        rows = draw.draw(st.permutations(range(len(chosen))), label="order")
        rows = rows[:draw.draw(st.integers(1, len(rows)), label="batch size")]
        batch = encoded.batch(rows)
        starts, lengths = encoded.offsets[rows], np.diff(encoded.offsets)[rows]
        firsts = data.first_half_length(lengths)
        first = [starts[k] + t for k, t in packed_order(firsts.tolist())]
        second = [start + t for start, f, n in zip(starts, firsts, lengths) for t in range(f, n)]
        assert encoded.dynamic.shape == (len(encoded.track_row), INTERACTION_WIDTH + 2)
        for row, e in zip(batch.first, first, strict=True):
            assert row.tolist() == [*encoded.static[encoded.track_row[e]], *encoded.dynamic[e]]
        for row, e in zip(batch.second, second, strict=True):
            assert row.tolist() == [*encoded.static[encoded.track_row[e]],
                                    *encoded.dynamic[e, -2:]]
            assert not encoded.dynamic[e, :-2].any()


class TestPipelineState:
    def test_unfitted_raises(self, corpus):
        tracks, sessions = corpus
        p = FeaturePipeline({}, d_emb=3)
        with pytest.raises(StateError):
            p.encode(sessions[:1], tracks)

    def test_fit_empty_raises(self, corpus):
        tracks, sessions = corpus
        with pytest.raises(Exception, match="empty"):
            FeaturePipeline({}, d_emb=3).fit(sessions[:0], tracks)

    def test_serialization_round_trip(self, corpus, pipeline):
        tracks, sessions = corpus
        clone = FeaturePipeline.from_dict(pipeline.to_dict(), pipeline.embedding_table)
        assert clone.state_key() == pipeline.state_key()
        assert clone.embedding_table is not pipeline.embedding_table
        a = one_batch(sessions[:5], clone, tracks)
        b = one_batch(sessions[:5], pipeline, tracks)
        assert batch_bytes(a) == batch_bytes(b)

    def test_state_is_plain_json(self, pipeline):
        # the table travels on its own; everything else survives a JSON round trip
        state = pipeline.to_dict()
        assert "embeddings" not in state
        clone = FeaturePipeline.from_dict(json.loads(json.dumps(state)), pipeline.embedding_table)
        assert clone.state_key() == pipeline.state_key()

    def test_state_key_detects_schema_change(self, corpus, pipeline):
        tracks, sessions = corpus
        other = FeaturePipeline({}, d_emb=4).fit(sessions, tracks)
        assert other.state_key() != pipeline.state_key()


def batch_bytes(batch):
    """Every array of a Batch with its dtype and shape."""
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in vars(batch).items()}


class TestTableInput:
    def test_generated_and_loaded_tables_encode_identically(self, tmp_path, corpus):
        tracks, sessions = corpus
        spath = tmp_path / "s.csv"
        ids = sorted(tracks)
        embeddings = {t: np.full(4, k * 0.1) for k, t in enumerate(ids) if k % 3}
        data.write_sessions(spath, sessions, mode="train")
        pipeline = FeaturePipeline(embeddings).fit(
            data.load_sessions(spath, tracks, mode="train")[:20], tracks)
        fitted_on_generated = FeaturePipeline(embeddings).fit(sessions[:20], tracks)
        assert fitted_on_generated.state_key() == pipeline.state_key()
        generated = pipeline.encode(sessions, tracks)
        for mode in ("train", "infer"):
            data.write_sessions(spath, sessions, mode=mode)
            loaded = pipeline.encode(data.load_sessions(spath, tracks, mode=mode), tracks)
            for rows in ([0, 1, 2], list(range(len(sessions))), [17, 3, 29, 3]):
                got, want = (batch_bytes(e.batch(rows)) for e in (loaded, generated))
                if mode == "infer":  # the withheld labels read as False
                    del got["targets"], want["targets"]
                assert got == want

    def test_fit_unknown_track_is_data_error(self, corpus):
        tracks, sessions = corpus
        missing = sessions[4].events[2].track_id
        known = track_table(row for row in zip(tracks.ids, tracks.duration, tracks.release_year,
                                               tracks.acoustic) if row[0] != missing)
        first = next(s for s in sessions if any(e.track_id == missing for e in s.events))
        with pytest.raises(DataError, match=f"^session {first.session_id}: "
                                            f"unknown track_id '{missing}'$"):
            FeaturePipeline({}, d_emb=3).fit(sessions, known)

    def test_encode_unknown_track_is_data_error(self, corpus, pipeline):
        tracks, sessions = corpus
        stranger = one_session(["t00001", "never-listed"])
        with pytest.raises(DataError, match="^session s: unknown track_id 'never-listed'$"):
            pipeline.encode(session_table([*sessions[:3], stranger]), tracks)

    @pytest.mark.parametrize("before,after", [(0, 0), (0, 3), (2, 1)])
    def test_session_without_events_is_named(self, corpus, pipeline, before, after):
        tracks, sessions = corpus
        chosen = session_table([*sessions[:before], data.Session("hollow", []),
                                *sessions[5:5 + after]])
        with pytest.raises(ValidationError, match=r"^session hollow: length 0 outside \[1, 20\]$"):
            pipeline.encode(chosen, tracks)

    def test_encode_needs_first_half_interactions(self, corpus, pipeline):
        tracks, sessions = corpus
        session = sessions[0]
        session = data.Session("gap", [data.Event(e.track_id, e.position,
                                                  None if e.position == 3 else e.interaction)
                                       for e in session.events])
        with pytest.raises(ValidationError, match="^session gap: missing interaction at position 3"):
            pipeline.encode(session_table([session]), tracks)
