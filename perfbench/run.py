#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper_bulk --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the episode program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Then it runs
episodes of the workload, one process each, until --seconds of wall time
have passed (at least two). Every episode replays the same seeded inputs,
so the virtual-time results must agree bit for bit: any difference, and
any delivered byte that differs from its seeded payload, makes the result
incorrect.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced episodes and prints the per-layer metrics, including the tracing
overhead. The last line of stdout is the JSON result; the lines above it
repeat the metrics with units and sample counts. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("paper_bulk", "small_msgs", "multiflow_faults")
MIN_EPISODES = 2
# A run, build excluded, must end within this many wall seconds: an
# episode that would overrun it is killed and counted as crashed.
RUN_LIMIT_S = 170

# (name, unit, better); BENCHMARK.json lists the same (a test pins it).
END_TO_END = (
    ("paper_err_pct", "%", "lower"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("goodput_mbps", "MB/s", "higher"),
    ("delivered_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_STEPS = tuple(
    (f"gw.{step}_us.{direction}.{q}", "us", "lower")
    for direction in ("myri_to_sci", "sci_to_myri")
    for step in ("recv", "switch", "send")
    for q in ("p50", "p99"))

PER_LAYER = (
    # Wall throughput of the whole simulator; per-layer rather than
    # end-to-end because host drift on a shared machine moves it by more
    # than any end-to-end bound allows (README.md, "Wall clock").
    ("sim_mb_per_wall_s", "MB/s", "higher"),
    ("msgs_per_wall_s", "1/s", "higher"),
    ("sim.switches_per_msg", "count", "lower"),
    ("sim.timer_fires_per_msg", "count", "lower"),
    ("sim.notifies", "count", "lower"),
    ("sim.noop_notifies", "count", "lower"),
    ("sim.direct_handoffs", "count", "higher"),
    ("sim.scheduler_rounds", "count", "lower"),
    ("sim.wall_ns_per_switch", "ns", "lower"),
    ("sim.sys_frac", "frac", "lower"),
    ("sim.idle_frac", "frac", "lower"),
    ("sim.os_switches_per_switch", "ratio", "lower"),
    ("mad.pack_us.p50", "us", "lower"),
    ("mad.pack_us.p99", "us", "lower"),
    ("mad.unpack_us.p50", "us", "lower"),
    ("mad.unpack_us.p99", "us", "lower"),
    ("chan.msg_us.p50", "us", "lower"),
    ("chan.msg_us.p99", "us", "lower"),
    ("mad.copies_per_msg", "count", "lower"),
    ("mad.copy_bytes_per_byte", "ratio", "lower"),
    ("net.packets", "count", "lower"),
    ("net.packet_us.p50", "us", "lower"),
    ("net.wire_wait_us", "us", "lower"),
    ("pci.gw_transfer_us.p50", "us", "lower"),
    ("pci.gw_transfer_us.p99", "us", "lower"),
    ("pci.end_transfer_us.p50", "us", "lower"),
    ("pci.end_transfer_us.p99", "us", "lower"),
    ("net.fault_drops", "count", "lower"),
    ("net.crash_drops", "count", "lower"),
) + _STEPS + (
    ("gw.overlap_frac", "frac", "higher"),
    ("gw.paquets_per_msg", "count", "lower"),
    ("rel.retransmits", "count", "lower"),
    ("rel.timeouts", "count", "lower"),
    ("rel.fast_retransmits", "count", "lower"),
    ("rel.dup_drops", "count", "lower"),
    ("rel.corrupt_drops", "count", "lower"),
    ("rel.stale_drops", "count", "lower"),
    ("rel.useful_frac", "frac", "higher"),
    ("rel.rtt_us.p50", "us", "lower"),
    ("rel.rtt_us.p99", "us", "lower"),
    ("rel.failovers", "count", "lower"),
    ("rel.dead_peers", "count", "lower"),
    ("flow.marks", "count", "lower"),
    ("flow.queue_depth.p99", "count", "lower"),
    ("rel.window_decreases", "count", "lower"),
    ("topo.reroutes", "count", "lower"),
    ("topo.route_recomputes", "count", "lower"),
    ("gen_lag_us.p99", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("defect.crash_midstream_failed", "count", "lower"),
    ("defect.health_failed", "count", "lower"),
)

# Known-defect reproducers (README.md) the traced run probes at its seed;
# their failures are reported as per-layer counts, outside `failed`.
DEFECT_PROBES = (("defect.crash_midstream_failed", "defect_crash_midstream"),
                 ("defect.health_failed", "defect_health"))

# The parts of an episode that must repeat bit for bit.
VIRTUAL_KEYS = ("attempted", "delivered", "corrupt", "lost", "aborted",
                "unexpected", "payload_bytes", "virtual_s", "latency_us",
                "gen_lag_us", "errors", "paper_points", "engine")


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def build():
    """Configures (once) and builds the episode program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found: run from a full repository checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in (1, 2):
        ok = True
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                                stdout=sys.stderr).returncode == 0
        if ok:
            return os.path.join(build_dir, "perfbench_episode")
        if attempt == 1:
            log("perfbench: build failed; retrying from a clean build tree")
            shutil.rmtree(build_dir, ignore_errors=True)
    die("build failed")


def run_episode(exe, workload, seed, traced, deadline, cpu=None):
    """Runs one episode process, killing it at time.monotonic() `deadline`;
    returns (result or None, diagnosis). The episode pins its threads to
    the CPU it starts on: `cpu` when given."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    start_on = None if cpu is None else (
        lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              preexec_fn=start_on)
    except subprocess.TimeoutExpired:
        return None, "episode timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"episode exited {proc.returncode}: {proc.stderr[-500:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, "episode printed no result"


def fingerprint(episode):
    return json.dumps({k: episode[k] for k in VIRTUAL_KEYS}, sort_keys=True)


def load_reference():
    with open(os.path.join(HERE, "paper_reference.json")) as f:
        return json.load(f)["points"]


def fastest(episodes):
    """The episode with the least traffic wall time."""
    return min(episodes, key=lambda e: e["wall"]["traffic_s"])


def traffic_wall(episodes):
    """Wall seconds of one episode's traffic, as the sum of the fastest
    time of each delivery chunk across the episodes (README.md, "Wall
    clock"); the fastest whole episode if the chunks do not line up."""
    composite = benchlib.composite_wall(
        [e["wall"]["chunks_s"] for e in episodes])
    return composite or fastest(episodes)["wall"]["traffic_s"]


def end_to_end(episodes, paper_points):
    """The end-to-end metrics: virtual ones from the (identical) episodes,
    set-up time and memory as medians over them. Returns (values, notes)."""
    first = episodes[0]
    latency = first["latency_us"]
    p99, q99 = benchlib.tail_percentile(latency, 0.99)
    attempted, failed = benchlib.failure_counts(first)
    values = {
        "paper_err_pct": benchlib.paper_error_pct(paper_points, load_reference()),
        "latency_p50_us": benchlib.percentile(latency, 0.5),
        "latency_p99_us": p99,
        "goodput_mbps": first["payload_bytes"] / 1e6 / first["virtual_s"]
        if first["virtual_s"] > 0 else 0.0,
        "delivered_frac": 1.0 - benchlib.fail_frac(attempted, failed),
        "setup_s": benchlib.median([e["wall"]["setup_s"] for e in episodes]),
        "peak_rss_mb": benchlib.median(
            [e["wall"]["peak_rss_kb"] / 1024 for e in episodes]),
    }
    n = len(latency)
    notes = {
        "paper_err_pct": f"{len(paper_points)} reference points",
        "latency_p50_us": f"n={n}",
        "latency_p99_us": f"n={n}" if q99 == 0.99 else
        f"n={n} < 1000: reported at p{100 * q99:.1f}, the highest percentile "
        f"with {benchlib.MIN_SAMPLES_BEYOND} samples beyond it",
        "delivered_frac": f"{attempted - failed}/{attempted} delivered",
        "setup_s": f"median of {len(episodes)} episodes",
        "peak_rss_mb": f"median of {len(episodes)} episodes",
    }
    return values, notes


def per_layer(traced_episodes, plain):
    """The per-layer metrics of one traced episode, plus the wall-clock
    engine costs of the untraced episodes and the tracing overhead."""
    traced = traced_episodes[0]
    layers = traced["layers"]
    counters = layers["counters"]
    hists = layers["histograms"]
    engine = traced["engine"]
    msgs = max(1, traced["delivered"])

    def counter(name):
        return float(counters.get(name, 0.0))

    def hist(name, q):
        return benchlib.histogram_percentile(hists.get(name, {}), q)

    def tail(samples, q):
        return benchlib.tail_percentile(samples, q)[0]

    values = {
        "sim.switches_per_msg": engine["switches"] / msgs,
        "sim.timer_fires_per_msg": engine["timer_fires"] / msgs,
        "sim.notifies": float(engine["notifies"]),
        "sim.noop_notifies": float(engine["noop_notifies"]),
        "sim.direct_handoffs": float(engine["direct_handoffs"]),
        "sim.scheduler_rounds": float(engine["scheduler_rounds"]),
    }
    traffic_s = traffic_wall(plain)
    values["sim_mb_per_wall_s"] = traced["payload_bytes"] / 1e6 / traffic_s
    values["msgs_per_wall_s"] = traced["delivered"] / traffic_s
    switches = max(1, engine["switches"])
    values["sim.wall_ns_per_switch"] = traffic_s * 1e9 / switches
    wall = fastest(plain)["wall"]
    values["sim.sys_frac"], values["sim.idle_frac"] = benchlib.rusage_fractions(
        wall["traffic_s"], wall["user_s"], wall["sys_s"])
    values["sim.os_switches_per_switch"] = (
        wall["voluntary_switches"] / switches)
    for name in ("pack_us", "unpack_us"):
        values[f"mad.{name}.p50"] = benchlib.percentile(layers[name], 0.5)
        values[f"mad.{name}.p99"] = tail(layers[name], 0.99)
    values["chan.msg_us.p50"] = hist("chan.msg_us", 0.5)
    values["chan.msg_us.p99"] = hist("chan.msg_us", 0.99)
    values["mad.copies_per_msg"] = layers["copies"] / msgs
    values["mad.copy_bytes_per_byte"] = (
        layers["copy_bytes"] / traced["payload_bytes"]
        if traced["payload_bytes"] else 0.0)
    values["net.packets"] = counter("net.packets")
    values["net.packet_us.p50"] = hist("net.packet_us", 0.5)
    values["net.wire_wait_us"] = counter("net.wire_wait_us")
    for role in ("gw", "end"):
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            values[f"pci.{role}_transfer_us.{tag}"] = hist(
                f"pci.transfer_us@{role}", q)
    values["net.fault_drops"] = counter("net.fault_drops")
    values["net.crash_drops"] = counter("net.crash_drops")
    for direction in ("myri_to_sci", "sci_to_myri"):
        steps = layers["gateway"].get(direction, {})
        for step in ("recv", "switch", "send"):
            samples = steps.get(f"{step}_us", [])
            values[f"gw.{step}_us.{direction}.p50"] = benchlib.percentile(
                samples, 0.5)
            values[f"gw.{step}_us.{direction}.p99"] = tail(samples, 0.99)
    values["gw.overlap_frac"] = (
        layers["send_overlapped_us"] / layers["send_total_us"]
        if layers["send_total_us"] else 0.0)
    values["gw.paquets_per_msg"] = (
        counter("gw.paquets") / counter("gw.messages")
        if counter("gw.messages") else 0.0)
    for name in ("retransmits", "timeouts", "fast_retransmits", "dup_drops",
                 "corrupt_drops", "stale_drops", "failovers", "dead_peers",
                 "window_decreases"):
        values[f"rel.{name}"] = counter(f"rel.{name}")
    acked = counter("rel.paquets_acked")
    sent = acked + counter("rel.retransmits")
    values["rel.useful_frac"] = acked / sent if sent else 1.0
    values["rel.rtt_us.p50"] = hist("rel.rtt_us", 0.5)
    values["rel.rtt_us.p99"] = hist("rel.rtt_us", 0.99)
    values["flow.marks"] = counter("flow.marks")
    values["flow.queue_depth.p99"] = hist("flow.queue_depth", 0.99)
    values["topo.reroutes"] = counter("topo.reroutes")
    values["topo.route_recomputes"] = counter("topo.route_recomputes")
    values["gen_lag_us.p99"] = tail(traced["gen_lag_us"], 0.99)
    values["trace.overhead_frac"] = (
        traffic_wall(traced_episodes) / traffic_s - 1.0)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    exe = build()
    deadline = time.monotonic() + RUN_LIMIT_S

    # The six paper reference transfers: paper_bulk's episodes contain
    # them; the other workloads run them once, before the measured loop.
    paper_points = None
    if args.workload != "paper_bulk":
        reference, why = run_episode(exe, "paper_reference", args.seed, False,
                                       deadline)
        if reference is None:
            die(f"paper reference run failed: {why}")
        paper_points = reference["paper_points"]
    probes = {}
    if args.trace:
        for name, workload in DEFECT_PROBES:
            probe, why = run_episode(exe, workload, args.seed, False, deadline)
            if probe is None:
                log(f"perfbench: {workload} probe died: {why}")
                probe = benchlib.crashed_episode(1)
            probes[name] = float(benchlib.failure_counts(probe)[1])

    # Episodes take the allowed CPUs in turn, so every run measures each of
    # them and the fastest-chunk sum does not hang on which CPU the other
    # tenants of a shared host left quiet (README.md, "Wall clock"). The
    # k-th traced episode runs on the CPU of the k-th untraced one.
    cpus = sorted(os.sched_getaffinity(0))
    plain, traced, problems = [], [], []
    attempted_total = failed_total = 0
    start = time.monotonic()
    while (time.monotonic() < deadline and
           (len(plain) < MIN_EPISODES or
            (args.trace and len(traced) < MIN_EPISODES) or
            time.monotonic() - start < args.seconds)):
        with_trace = bool(args.trace) and len(traced) < len(plain)
        cpu = cpus[(len(traced) if with_trace else len(plain) + len(problems))
                   % len(cpus)]
        result, why = run_episode(exe, args.workload, args.seed, with_trace,
                                  deadline, cpu)
        if result is None:
            problems.append(why)
            planned = (plain or traced or [{"attempted": 1}])[0]["attempted"]
            result = benchlib.crashed_episode(planned)
        attempted, failed = benchlib.failure_counts(result)
        attempted_total += attempted
        failed_total += failed
        if why:
            if not (plain or traced) and len(problems) >= MIN_EPISODES:
                break  # it crashes every time: nothing to measure
            continue
        (traced if with_trace else plain).append(result)

    correct = bool(plain) and (bool(traced) or not args.trace) and not problems
    if plain:
        reference_print = fingerprint(plain[0])
        for e in plain[1:]:
            if fingerprint(e) != reference_print:
                problems.append("determinism: an untraced episode differs")
                break
        for e in traced:
            if fingerprint(e) != reference_print:
                problems.append("determinism: a traced episode differs from "
                                "the untraced ones")
                break
        for e in plain + traced:
            if e["corrupt"] or e["unexpected"]:
                problems.append(f"{e['corrupt']} corrupt and {e['unexpected']} "
                                "unexpected deliveries")
                break
        if plain[0]["errors"]:
            log(f"perfbench: simulation aborted: {plain[0]['errors'][0]}")
        correct = correct and not problems

    metrics, notes = {}, {}
    if args.trace and plain and traced:
        metrics = per_layer(traced, plain)
        metrics.update(probes)
    elif not args.trace and plain:
        metrics, notes = end_to_end(
            plain, paper_points or plain[0]["paper_points"])
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in table}
    for name, unit, _ in table:
        if name in metrics:
            print(f"{name:34s} {metrics[name]:16.6f} {unit:6s} "
                  f"{notes.get(name, '')}")
    print(f"episodes: {len(plain)} untraced, {len(traced)} traced; "
          f"seed {args.seed}")
    for problem in problems:
        log(f"perfbench: {problem}")

    result = {
        "correct": correct,
        "attempted": max(1, attempted_total),
        "failed": failed_total,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
