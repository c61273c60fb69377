"""The one percentile rule every timing in the benchmark is reported with.

A distribution is summarised by its median and its tail: the highest
percentile that still has at least ten samples beyond it. With n sorted
samples that is the sample at index n - 11 (zero-based), i.e. the
(n - 10)/n quantile -- p99 of 1000 samples, p90 of 100. With fewer than
eleven samples no percentile qualifies, and the tail is the maximum,
reported with zero samples beyond it.
"""

BEYOND = 10


def median(xs):
    """The median (mean of the middle pair for an even count)."""
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail(xs):
    """Returns (value, percentile, samples beyond it, sample count)."""
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= BEYOND:
        return s[-1], 100.0, 0, n
    i = n - BEYOND - 1
    return s[i], 100.0 * (i + 1) / n, n - 1 - i, n


def summary(xs):
    """Median and tail in one record, for the human-readable report."""
    value, pct, beyond, n = tail(xs)
    return {"p50": median(xs), "tail": value, "tail_pct": pct, "beyond": beyond, "n": n}
