"""Statistics of the perf ledger: exact percentiles from raw samples and the
parent-vs-change comparison rule (choosing-metrics guide, section 8)."""

import math
import statistics

# A percentile is reported as supported only when at least this many samples
# lie beyond it (for p95: at least 200 samples).
MIN_BEYOND = 10


def percentile(values, q):
    """Exact q-quantile of raw samples, linear interpolation between the
    closest ranks (position q * (n - 1) in sorted order)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported(count, q):
    """True when `count` samples put at least MIN_BEYOND beyond the
    q-quantile."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile_basis(count, q):
    beyond = count * (1.0 - q)
    return {
        "q": q,
        "samples": count,
        "beyond": beyond,
        "supported": supported(count, q),
        "method": "exact, linear interpolation between closest ranks of raw samples",
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def select_runs(records, workload, trace):
    """The records of one workload with the given trace flag. Runs are
    paired by seed, so a seed recorded twice is an error rather than a
    silent overwrite."""
    runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
    seeds = [r["seed"] for r in runs]
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError("%s: seed(s) %s recorded more than once with trace %d"
                         % (workload, repeated, trace))
    return runs


IMPROVED = "improved"
NO_WORSE = "no worse"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"


def compare_metric(base, change, better, bound, pairs=None, more_failures=False):
    """Verdict for one (workload, metric) row.

    base, change: values of the metric over the parent's and the change's
    runs. better: "higher" or "lower". bound: share of the parent's median
    by which the metric may worsen. pairs: (base, change) value pairs run
    together; defaults to zipping the two lists. more_failures: the change
    failed a larger share of requests than the parent, so no gain counts.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, _, q3 = quartiles(base)
    base_iqr = q3 - q1
    gain = sign * (change_median - base_median)
    pairs = list(pairs) if pairs is not None else list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share_won = won / len(pairs) if pairs else 0.0
    row = {
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": quartiles(base),
        "change_quartiles": quartiles(change),
        "share_won": share_won,
        "pairs": len(pairs),
        "base_spread": relative_spread(base),
    }
    if gain < -bound * abs(base_median):
        row["verdict"] = REGRESSED
    elif not more_failures and share_won >= 0.9 and gain > base_iqr:
        row["verdict"] = IMPROVED
    elif row["base_spread"] > bound and not all(
        sign * (c - b) > 0 for b in base for c in change
    ):
        row["verdict"] = UNRESOLVED
    else:
        row["verdict"] = NO_WORSE
    return row


def compare_failed_share(base, change):
    """failed_share row: any rise over the parent is a rejection."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    return {
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": quartiles(base),
        "change_quartiles": quartiles(change),
        "share_won": None,
        "pairs": min(len(base), len(change)),
        "base_spread": 0.0,
        "verdict": REGRESSED if sum(change) / len(change) > sum(base) / len(base) else NO_WORSE,
    }
