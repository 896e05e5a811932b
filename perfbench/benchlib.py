"""Metric math for the benchmark: percentiles with a sample-count rule,
the paper error, failure accounting, rusage fractions, the registry
histogram estimate, and the BENCHMARK.json shape check.

Everything here is pure (no processes, no files), so
perfbench/tests/test_benchlib.py covers it directly.
"""

import json
import math
import re
import statistics

# Tail percentiles are only trusted with this many samples beyond them
# (p99 therefore needs >= 1000 samples).
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank percentile of `samples` (q in [0, 1]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_supported(count, q):
    """True when at least MIN_SAMPLES_BEYOND samples lie beyond quantile q."""
    return count * (1.0 - q) >= MIN_SAMPLES_BEYOND - 1e-9


def tail_percentile(samples, q):
    """(value, q_used): the q-th percentile when the sample count supports
    it, else the highest percentile that keeps MIN_SAMPLES_BEYOND samples
    beyond it (the largest sample when there are fewer than that)."""
    n = len(samples)
    if n == 0:
        return 0.0, q
    if tail_supported(n, q):
        return percentile(samples, q), q
    q_used = max(0.0, 1.0 - MIN_SAMPLES_BEYOND / n) if n > MIN_SAMPLES_BEYOND else 1.0
    return percentile(samples, q_used), q_used


def histogram_percentile(hist, q):
    """Percentile of a merged sim::LatencyHistogram export (buckets of
    power-of-two microsecond ranges), estimated exactly as
    LatencyHistogram::percentile does."""
    count = hist.get("count", 0)
    if count == 0:
        return 0.0
    q = min(max(q, 0.0), 1.0)
    if q == 0.0:
        return hist["min"]
    target = q * count
    cumulative = 0.0
    for b, in_bucket in enumerate(hist["buckets"]):
        if in_bucket == 0:
            continue
        if cumulative + in_bucket >= target:
            low = 0.0 if b == 0 else 2.0 ** (b - 1)
            high = 2.0 ** b
            estimate = low + (target - cumulative) / in_bucket * (high - low)
            return min(max(estimate, hist["min"]), hist["max"])
        cumulative += in_bucket
    return hist["max"]


def paper_error_pct(measured, reference):
    """Mean of |measured - paper| / paper over the reference points, in %.
    `reference` is the list from paper_reference.json; every point must
    have been measured."""
    errors = []
    for point in reference:
        paper = point["paper"]
        errors.append(abs(measured[point["id"]] - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def failure_counts(episode):
    """(attempted, failed) of one episode's result. Lost, corrupted,
    stranded-by-abort and never-delivered messages all count as failed."""
    attempted = episode["attempted"]
    failed = episode["corrupt"] + episode["lost"] + episode["aborted"]
    failed += max(0, attempted - episode["delivered"] - failed)
    return attempted, failed


def crashed_episode(attempted):
    """The result of an episode whose process died without reporting: every
    planned message counts as stranded by the abort."""
    return {"attempted": attempted, "delivered": 0, "corrupt": 0, "lost": 0,
            "aborted": attempted, "unexpected": 0}


def fail_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def rusage_fractions(wall_s, user_s, sys_s):
    """(sys_frac, idle_frac): system CPU over wall time, and the share of
    wall time no CPU of this process ran (clamped at 0: several threads
    can overlap briefly)."""
    if wall_s <= 0:
        return 0.0, 0.0
    return sys_s / wall_s, max(0.0, 1.0 - (user_s + sys_s) / wall_s)


def composite_wall(chunk_lists):
    """Sum over chunk positions of the fastest time any episode took for
    that chunk. Every episode of a run does the same deterministic work in
    the same order, so chunk i is the same work everywhere and its fastest
    time is its least disturbed measurement; the sum is the least disturbed
    estimate of the whole episode. None when the episodes were not cut
    into the same number of chunks (their work differed)."""
    if not chunk_lists or len({len(c) for c in chunk_lists}) != 1:
        return None
    return sum(min(times) for times in zip(*chunk_lists))


def median(values):
    return statistics.median(values) if values else 0.0


def quartile_spread(values):
    """(q3 - q1) / median, the run-to-run spread the benchmark is judged by."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check_benchmark_shape(doc):
    """Returns a list of problems with a parsed BENCHMARK.json (empty when
    it has the required shape)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        problems.append(f"keys {sorted(doc)} != {sorted(keys)}")
        return problems
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command must be 1-32 strings of <= 200 chars")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command may not use absolute or .. paths")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and _PATH.match(p) and ".." not in p.split("/")
                for p in paths)):
        problems.append("paths must be 1-16 relative directory names")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and
            1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number in [1, 60]")
    names = []
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        problems.append("need 2-8 workloads")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why too long")
    for section, lo, hi, keys in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        metrics = doc[section]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            problems.append(f"{section} needs {lo}-{hi} metrics")
            continue
        for m in metrics:
            if set(m) != keys:
                problems.append(f"{section} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not _UNIT.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: better must be lower|higher")
            if section == "end_to_end" and not (0 < m["bound"] <= 0.25):
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    for name in names:
        if not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(doc)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems
