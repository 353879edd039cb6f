"""Pure logic of the faultmc benchmark, kept apart from process handling
so perfbench/test_harness.py can test it: CI-crossing detection,
percentiles, span self times, the closure check and run-to-run spread."""

import math
import statistics
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "slot parent name start_us dur_us")


def ci_crossing(rows, rel=0.1):
    """The progress row from which the running 95% CI half-width stays at
    or below ``rel`` times the running SSF for the rest of the run, or
    None if the run ends above it. Before the first success the
    half-width is 0, which must not count as converged."""
    start = None
    for row in rows:
        hw = row["ci_half_width"]
        if hw > 0 and hw <= rel * row["ssf"]:
            if start is None:
                start = row
        else:
            start = None
    return start


def split_shards(rows):
    """Cut a worker's progress rows into one list per shard: each shard's
    tally restarts its own count, so a shard begins where n drops."""
    shards = []
    for row in rows:
        if not shards or row[1]["n"] <= shards[-1][-1][1]["n"]:
            shards.append([])
        shards[-1].append(row)
    return shards


def block_crossings(shards, block, rel=0.1):
    """CI crossings of a fleet campaign cut into blocks of ``block``
    consecutive shards, each block an independent sub-campaign.

    ``shards`` holds, per shard in order, (arrival time, progress row)
    pairs of that shard's own running estimate. Within a block the running
    estimate pools the finished shards with the current one, weighting
    each by its sample count: ssf = sum(n_i ssf_i) / N and half-width =
    sqrt(sum((n_i hw_i)^2)) / N. Returns (samples, seconds) per block that
    settles below the target, seconds counted from the block's first
    sample; blocks that never settle are left out."""
    out = []
    for b in range(0, len(shards) - block + 1, block):
        done_n = done_sum = done_var = 0.0
        pooled = []
        t0 = None
        for shard in shards[b:b + block]:
            for t, row in shard:
                if t0 is None:
                    t0 = t - row["elapsed_s"]
                n = done_n + row["n"]
                pooled.append({
                    "n": int(n),
                    "t": t - t0,
                    "ssf": (done_sum + row["n"] * row["ssf"]) / n,
                    "ci_half_width": math.sqrt(done_var + (row["n"] * row["ci_half_width"]) ** 2) / n,
                })
            last = shard[-1][1]
            done_n += last["n"]
            done_sum += last["n"] * last["ssf"]
            done_var += (last["n"] * last["ci_half_width"]) ** 2
        row = ci_crossing(pooled, rel)
        if row is not None:
            out.append((row["n"], row["t"]))
    return out


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing(values):
    """A per-call timing as the p50 and p99 with its call count."""
    if not values:
        return {"p50": 0.0, "p99": 0.0, "calls": 0}
    return {"p50": percentile(values, 50), "p99": percentile(values, 99), "calls": len(values)}


def parse_trace(lines):
    """Split a tracer dump into spans, counters, checks and meta values."""
    spans, counters, checks, meta = [], {}, [], {}
    for line in lines:
        parts = line.rstrip("\n").split(" ", 3)
        kind = parts[0]
        if kind == "span":
            slot, parent, rest = int(parts[1]), int(parts[2]), parts[3].split(" ")
            spans.append(Span(slot, parent, rest[0], float(rest[1]), float(rest[2])))
        elif kind == "counter":
            counters[parts[1]] = int(float(parts[2]))
        elif kind == "check":
            checks.append((parts[1], parts[2] == "ok", parts[3] if len(parts) > 3 else ""))
        elif kind == "meta":
            meta[parts[1]] = float(parts[2])
    return spans, counters, checks, meta


def self_times(spans):
    """Total self time per span name: each span's duration minus the
    durations of the spans directly nested in it."""
    children = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.dur_us
    totals = defaultdict(float)
    for s in spans:
        totals[s.name] += s.dur_us - children[s.slot]
    return dict(totals)


def durations(spans):
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.dur_us)
    return by_name


def closure(selfs_us, wall_s):
    """The share of the traced run's wall time that the spans account
    for, and the unattributed remainder in seconds."""
    attributed_s = sum(selfs_us.values()) / 1e6
    return attributed_s / wall_s, wall_s - attributed_s


def spread(values):
    """Interquartile distance as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
