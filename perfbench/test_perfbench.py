"""Self-tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """perf_counter stand-in that returns the given instants in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_nested_and_sibling_spans():
    spans = [
        tracing.Span(1, "root", 0.0, 10.0, None, "r"),
        tracing.Span(2, "a", 1.0, 3.0, 1, "r"),
        tracing.Span(3, "a.child", 1.5, 2.5, 2, "r"),
        tracing.Span(4, "b", 2.5, 4.0, 1, "r"),  # overlaps a: covered once
        tracing.Span(5, "c", 6.0, 7.0, 1, "r"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_records_parents_runs_and_self_time(monkeypatch):
    # begin outer, begin inner, end inner, begin inner, end inner, end outer
    monkeypatch.setattr(tracing, "perf_counter", FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 10.0]))
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    tracer.begin_run("r1")
    outer()
    tracer.end_run()
    outer_span, first, second = sorted(tracer.spans, key=lambda s: s.id)
    assert (outer_span.name, outer_span.parent) == ("outer", None)
    assert first.parent == second.parent == outer_span.id
    assert {s.run for s in tracer.spans} == {"r1"}
    assert tracing.self_times(tracer.spans)[outer_span.id] == pytest.approx(10.0 - 1.0 - 3.0)


def test_tracer_records_nothing_outside_a_run():
    tracer = tracing.Tracer()
    assert tracer.wrap(lambda x: x + 1, "f")(1) == 2
    tracer.count("c")
    assert tracer.spans == [] and tracer.counts == {}


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert benchstats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert benchstats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        benchstats.quartiles([])


def test_percentile_and_tail_sample_counts():
    values = list(range(1, 101))
    assert benchstats.percentile(values, 50) == 50
    assert benchstats.percentile(values, 90) == 90
    assert benchstats.samples_beyond(100, 90) == 10
    assert benchstats.tail(values) == (90.0, 90)
    assert benchstats.tail(list(range(40))) == (75.0, 29)
    assert benchstats.tail(list(range(39))) is None
    summary = benchstats.summarize(values)
    assert (summary["n"], summary["median"], summary["p90"]) == (100, 50.5, 90)


@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("train.data.pad_batch.calls", True), ("a-b.c_d9", True),
    ("", False), ("_lead", False), (".lead", False), ("has space", False),
    ("slash/name", False), ("x" * 64, True), ("x" * 65, False),
])
def test_metric_name_validity(name, ok):
    assert benchstats.valid_name(name) is ok


def test_benchmark_json_matches_the_metrics_the_code_reports():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    produced = {
        f"{w.name}.{metric}": run.layer_unit(metric)
        for w in workloads.WORKLOADS.values()
        for metric in ("stage.s", "stage.self_s") + w.layer_metrics
    }
    assert per_layer == produced
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(benchstats.valid_name(n) for n in names)
    assert len(names) == len(set(names))
    # predict is run on request and traced, but not among the listed workloads
    assert {w["name"] for w in BENCHMARK["workloads"]} < set(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_reference_time_is_seconds_per_whole_pass(monkeypatch):
    kernel = reference.Reference()
    monkeypatch.setattr(kernel, "work", lambda: 0.0)
    monkeypatch.setattr(reference, "perf_counter", FakeClock([0.0, 0.4, 0.8, 1.2]))
    assert kernel.time(1.0) == pytest.approx(0.4)


def test_patches_restore_the_original_functions():
    tracer = tracing.Tracer()
    targets = workloads.trace_targets(tracer)
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(RuntimeError):
        with tracing.Patches(targets):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr, _), orig in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is orig for (owner, attr, _), orig in zip(targets, originals))


def test_patches_skip_absent_attributes():
    class Owner:
        def present(self):
            return "original"

    original = vars(Owner)["present"]
    targets = [(Owner, "present", lambda fn: lambda self: "wrapped"),
               (Owner, "absent", lambda fn: fn)]
    with tracing.Patches(targets) as patches:
        assert Owner().present() == "wrapped"
        assert patches.missing == ["Owner.absent"]
    assert vars(Owner)["present"] is original
    assert "absent" not in vars(Owner)
