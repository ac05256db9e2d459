"""Order statistics and metric-name rules shared by the benchmark runner."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# percentiles worth reporting beyond the median, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """A metric name is 1-64 of ``[A-Za-z0-9_.-]`` starting with a letter or digit."""
    return NAME_RE.fullmatch(name) is not None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of samples at or below it."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with MIN_BEYOND samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def summarize(values) -> dict:
    """Median, quartiles, sample count and the reportable tail percentile."""
    q1, med, q3 = quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    t = tail(values)
    if t is not None:
        out[f"p{t[0]:g}"] = t[1]
    return out

