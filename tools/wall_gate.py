#!/usr/bin/env python3
"""Same-host wall gate: a candidate episode program against a base one.

    python3 tools/wall_gate.py BASE_EXE CANDIDATE_EXE

Both arguments are perfbench_episode programs built from two checkouts on
the same host (cmake -S perfbench -B <tree>/.bench_build/perfbench). For
paper_bulk and small_msgs the gate runs the two programs alternately,
EPISODES times each at SEED, and compares the medians of the episodes'
wall.setup_s. It fails (exit 1) when the candidate's median exceeds RATIO
times the base's; 1.25 is the benchmark's own setup_s bound
(BENCHMARK.json). An episode that exits non-zero or prints no result is an
error (exit 2). Wall-clock numbers committed from another machine do not
transfer between hosts; two builds timed side by side on one runner do.
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ("paper_bulk", "small_msgs")
EPISODES = 5
SEED = 1
RATIO = 1.25


def setup_s(exe, workload):
    """Runs one episode; returns its wall.setup_s."""
    proc = subprocess.run([exe, "--workload", workload, "--seed", str(SEED)],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{exe} --workload {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return float(json.loads(lines[-1])["wall"]["setup_s"])


def verdict(base, candidate):
    """(median base, median candidate, passed) for two lists of samples."""
    b = statistics.median(base)
    c = statistics.median(candidate)
    return b, c, c <= RATIO * b


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    exes = {"base": argv[1], "candidate": argv[2]}
    failed = False
    for workload in WORKLOADS:
        samples = {"base": [], "candidate": []}
        for i in range(EPISODES):
            # Alternate which side runs first, so a drift in the host's
            # load over the run lands on both sides alike.
            for side in (("base", "candidate") if i % 2 == 0 else
                         ("candidate", "base")):
                try:
                    samples[side].append(setup_s(exes[side], workload))
                except (RuntimeError, OSError, ValueError, KeyError) as e:
                    print(f"wall_gate: {e}", file=sys.stderr)
                    return 2
        b, c, ok = verdict(samples["base"], samples["candidate"])
        print(f"{workload}: setup_s median base {b:.6f} s, candidate "
              f"{c:.6f} s, ratio {c / b:.3f} (limit {RATIO}) "
              f"{'ok' if ok else 'FAIL'}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
