"""Benchmark of the skipgru pipeline stages: embed, train and predict.

    python3 perfbench/run.py --workload {embed,train,predict,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src`` next to this
directory. Inputs are generated from the seed by ``prepare.py`` in a child
process before any timing, so the measured process only reads files. Each
workload is a closed loop of one caller that repeats its stage for about
``--seconds``; before each call it times a fixed reference kernel
(``reference.py``), and stage times are reported in units of that kernel's
time as well as in seconds. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every workload with spans around the library's public functions and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Run records and
traces are kept under ``.perfbench_runs/`` at the repository root.
"""

from __future__ import annotations

import os

# before NumPy loads, as the test suite does
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import benchstats
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("embed", "train", "predict")
# set-up is also timed alone this many times before the loop, so that
# setup_s has enough samples even when a stage call takes most of a run
SETUP_REPEATS = 3
# before each timed stage call the reference kernel runs for this share of
# the previous call's wall time (at least REFERENCE_MIN_S): a third of the
# loop, so that its own noise stays below the work's
REFERENCE_SHARE = 0.5
REFERENCE_MIN_S = 1.0
PREPARE_TIMEOUT_S = 150
# "ref" is one pass of the reference kernel (reference.py), timed before
# every stage call of an untraced run
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "items_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "quality_loss": "loss",
}
# wall-clock figures behind the ones above: printed and kept in the run
# record, but not in the result line, since the host's drift moves them
RAW_UNITS = {"wall_s": "s", "items_per_s": "1/s", "reference_s": "s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


@dataclass
class Call:
    """One timed stage call and its output check."""

    run: str
    setup_s: float
    wall_s: float
    output: object
    problems: list
    reference_s: float = 0.0

    @property
    def main_s(self) -> float:
        return self.wall_s - self.setup_s


class Loop:
    """Closed loop of one caller: the next stage call starts when the last returns.

    With a tracer, each stage call is one traced run wrapped in a ``stage``
    span; the output check runs after the run ends, so it is never traced.
    """

    def __init__(self, workload, inputs: Path, out: Path,
                 reference_kernel: reference.Reference | None = None,
                 tracer: tracing.Tracer | None = None):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.reference_kernel = reference_kernel
        self.tracer = tracer
        self.calls: list[Call] = []
        self.attempted = 0
        self.failed = 0

    def _timed(self, run: str):
        self.out.unlink(missing_ok=True)
        t0 = perf_counter()
        state = self.workload.setup(self.inputs)
        t1 = perf_counter()
        output = self.workload.main(state, self.out)
        t2 = perf_counter()
        return state, Call(run, t1 - t0, t2 - t0, output, [])

    def call(self) -> None:
        run = f"{self.workload.name}-{self.attempted}"
        self.attempted += 1
        reference_s = 0.0
        if self.reference_kernel is not None:
            last = self.calls[-1].wall_s if self.calls else 0.0
            reference_s = self.reference_kernel.time(max(REFERENCE_MIN_S, REFERENCE_SHARE * last))
        try:
            if self.tracer is None:
                state, call = self._timed(run)
            else:
                self.tracer.begin_run(run)
                try:
                    state, call = self.tracer.wrap(self._timed, "stage")(run)
                finally:
                    self.tracer.end_run()
            call.reference_s = reference_s
            call.problems = self.workload.check(state, call.output, self.out)
            call.output.keep = None  # held only for the check; memory must not grow per call
        except Exception as err:  # a failed stage call is counted, not fatal
            self.failed += 1
            print(f"{self.workload.name}: stage call failed: {type(err).__name__}: {err}")
            return
        if call.problems:
            self.failed += 1
            for problem in call.problems:
                print(f"{self.workload.name}: check failed: {problem}")
        self.calls.append(call)

    def run_for(self, seconds: float) -> None:
        """Call until another call would likely overrun ``seconds``; at least once."""
        start = perf_counter()
        durations = []
        while True:
            t0 = perf_counter()
            self.call()
            durations.append(perf_counter() - t0)
            if perf_counter() - start + benchstats.quartiles(durations)[1] > seconds:
                return


def prepare_inputs(inputs: Path, seed: int, members: bool) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "prepare.py"), "--seed", str(seed), "--out", str(inputs)]
    subprocess.run(cmd + (["--members"] if members else []), env=env, check=True,
                   timeout=PREPARE_TIMEOUT_S)


def measure(workload, inputs: Path, seconds: float) -> tuple[Loop, dict, dict, dict]:
    """Untraced run: (loop, end-to-end metric values, report rows, samples)."""
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup(inputs)
        setup.append(perf_counter() - t0)
    loop = Loop(workload, inputs, inputs.parent / f"{workload.name}.out", reference.Reference())
    loop.run_for(seconds)
    if not loop.calls:
        return loop, {}, {}, {}
    calls = loop.calls
    samples = {
        "setup_s": setup + [c.setup_s for c in calls],
        "wall_ref": [c.wall_s / c.reference_s for c in calls],
        "items_per_ref": [c.output.items / c.main_s * c.reference_s for c in calls],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "quality_loss": [c.output.quality for c in calls],
        "wall_s": [c.wall_s for c in calls],
        "items_per_s": [c.output.items / c.main_s for c in calls],
        "reference_s": [c.reference_s for c in calls],
    }
    values = {name: benchstats.quartiles(samples[name])[1] for name in END_TO_END_UNITS}
    # stage-call and kernel times are summed over the run before they are
    # divided, which averages over short stalls instead of picking a call
    items = sum(c.output.items for c in calls)
    main_s = sum(c.main_s for c in calls)
    reference_s = sum(c.reference_s for c in calls)
    values["wall_ref"] = sum(c.wall_s for c in calls) / reference_s
    values["items_per_ref"] = items / main_s * reference_s / len(calls)
    units = dict(END_TO_END_UNITS, **RAW_UNITS)
    rows = {name: (units[name], benchstats.summarize(v)) for name, v in samples.items()}
    rows["wall_ref"][1]["run"] = values["wall_ref"]
    rows["items_per_ref"][1]["run"] = values["items_per_ref"]
    rows["items_per_s"][1]["run"] = items / main_s
    rows[workload.items_name] = rows["items_per_s"]
    for figure in calls[0].output.figures:
        rows[figure] = ("", benchstats.summarize([c.output.figures[figure] for c in calls]))
    rows["failed_ratio"] = ("ratio", {"median": loop.failed / loop.attempted,
                                      "n": loop.attempted})
    return loop, values, rows, samples


def layer_unit(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def layer_samples(workload, tracer: tracing.Tracer, run: str, output) -> dict[str, float]:
    """Per-layer values of one traced stage call (run)."""
    spans = [s for s in tracer.spans if s.run == run]
    selfs = tracing.self_times(spans)
    by_id = {s.id: s for s in spans}
    counts = tracer.counts[run]

    def outermost(s):
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == s.name:
                return False
            parent = by_id.get(parent.parent)
        return True

    def named(name):
        return [s for s in spans if s.name == name]

    out = {}
    for metric in ("stage.s", "stage.self_s") + workload.layer_metrics:
        if metric in output.counts:
            value = output.counts[metric]
        elif metric == "autodiff.nodes_per_batch":
            batches = len(named(workload.node_spans[0]))
            nodes = sum(s.nodes for n in workload.node_spans for s in named(n) if outermost(s))
            value = nodes / batches if batches else 0.0
        else:
            name, measure = metric.rsplit(".", 1)
            if measure == "s":
                value = sum(s.duration for s in named(name) if outermost(s))
            elif measure == "self_s":
                value = sum(selfs[s.id] for s in named(name))
            elif measure == "calls":
                value = len(named(name)) + counts.get(name, 0)
            else:
                raise ValueError(f"unknown measure in {metric}")
        out[f"{workload.name}.{metric}"] = value
    return out


def traced(inputs: Path, seconds: float, spans_path: Path):
    """Traced run over every workload: (loops, per-layer samples, overheads).

    Each workload first makes one untraced stage call, so that the tracing
    overhead is the traced median wall time minus that call's.
    """
    import workloads

    tracer = tracing.Tracer()
    loops, samples, overheads = [], {}, {}
    for workload in workloads.WORKLOADS.values():
        out = inputs.parent / f"{workload.name}.out"
        untraced = Loop(workload, inputs, out)
        untraced.call()
        loop = Loop(workload, inputs, out, tracer=tracer)
        with tracing.Patches(workloads.trace_targets(tracer)) as patches:
            loop.run_for(seconds / len(workloads.WORKLOADS))
        if patches.missing:
            print(f"{workload.name}: not traced, attribute absent: {', '.join(patches.missing)}")
        for call in loop.calls:
            for name, value in layer_samples(workload, tracer, call.run, call.output).items():
                samples.setdefault(name, []).append(value)
        if untraced.calls and loop.calls:
            overheads[workload.name] = (
                benchstats.quartiles([c.wall_s for c in loop.calls])[1]
                - untraced.calls[0].wall_s)
        loops += [untraced, loop]
    with open(spans_path, "w", encoding="utf-8") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")
    return loops, samples, overheads


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "skipgru").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({type(err).__name__})"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def print_rows(title: str, rows: dict) -> None:
    print(title)
    for name, (unit, s) in rows.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in s.items() if k not in ("median", "n"))
        print(f"  {name:<44} {s['median']:>14.6g} {unit:<6} n={s['n']}{extra}")


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return fail(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            key = metric if metric.startswith(f"{name}.") else f"{name}.{metric}"
            combined["metrics"][key] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    unpinned = {v: os.environ[v] for v in BLAS_VARS if os.environ[v] != "1"}
    if unpinned:
        return fail(f"BLAS must run on one thread; unset or set to 1: {unpinned}")
    if not (SRC / "skipgru" / "__init__.py").is_file():
        return fail(f"no skipgru package under {SRC}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{tag}-pid{os.getpid()}"
    inputs = work / "inputs"
    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    try:
        prepare_inputs(inputs, args.seed, members=bool(args.trace) or workload.needs_members)
        if args.trace:
            spans_path = RUNS / f"{tag}.spans.jsonl"
            loops, samples, overheads = traced(inputs, args.seconds, spans_path)
            metrics = {name: benchstats.quartiles(v)[1] for name, v in samples.items()}
            rows = {name: (layer_unit(name), benchstats.summarize(v))
                    for name, v in samples.items()}
        else:
            loop, metrics, rows, samples = measure(workload, inputs, args.seconds)
            loops, overheads = [loop], {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if not metrics:
        return fail("no stage call succeeded")
    print("env " + json.dumps(env, sort_keys=True))
    print_rows(f"{args.workload} seed={args.seed} trace={args.trace}: "
               f"{attempted} stage calls, {failed} failed", rows)
    for name, overhead in overheads.items():
        print(f"  tracing overhead on {name}: {overhead:+.4f} s per stage call "
              f"(traced median wall_s minus one untraced call)")
    record = {"env": env, "rows": rows, "samples": samples, "overheads": overheads,
              "attempted": attempted, "failed": failed}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    units = END_TO_END_UNITS if not args.trace else {n: u for n, (u, _) in rows.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
