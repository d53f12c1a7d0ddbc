"""Helpers shared by run.py, steady.py and the tests: the statistics, the
operation counter and the result line."""

import json
import statistics


def median(values):
    """Median of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    statistics.quantiles(values, n=4): the spread the benchmark's bounds
    are checked against."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread of samples whose median is 0")
    return (q3 - q1) / abs(mid)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        raise ValueError("relative change from 0")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


class OpCounter:
    """Counts the operations of a run.  Every round records the same list
    of operations, so the failed share is the same in every run.
    `expected` names the operations allowed to fail without making the run
    incorrect (a known fault the benchmark keeps in view)."""

    def __init__(self, expected=()):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.expected = set(expected)

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if name not in self.expected:
            self.unexpected.append(f"{name}: {detail}" if detail else name)

    def record_many(self, name, attempted, failed, details=()):
        """Add `attempted` operations of which `failed` failed."""
        if not 0 <= failed <= attempted:
            raise ValueError(f"{name}: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed and name not in self.expected:
            self.unexpected.extend(details or [f"{name}: {failed} failed"])

    @property
    def correct(self):
        return not self.unexpected


def result_line(correct, attempted, failed, metrics):
    """The last line a run prints.  `metrics` maps a name to (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
