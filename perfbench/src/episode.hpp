// One benchmark episode: the workloads record what they measured
// here, and main() prints it as a single JSON object for run.py.
//
// Two clocks are kept apart. Virtual quantities (latencies, goodput,
// engine counters, per-layer counts) are a pure function of the workload
// and its seed; run.py checks that every episode of a run reproduces them
// bit for bit. Wall quantities (set-up and traffic time, rusage deltas)
// are only timed around world construction and engine.run().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

double wall_seconds_since(WallClock::time_point start);

/// CPU-time and context-switch counters of this process (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;

  static Usage now();
  Usage operator-(const Usage& other) const;
  Usage& operator+=(const Usage& other);
};

/// A LatencyHistogram-compatible bucket merge, so per-bus / per-network
/// registry histograms can be pooled before run.py takes percentiles.
struct MergedHistogram {
  std::array<std::uint64_t, mad::sim::LatencyHistogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void merge(const mad::sim::LatencyHistogram& h);
};

/// Gateway step durations of one forwarding direction, from sim::Trace.
struct GatewaySteps {
  std::vector<double> recv_us;
  std::vector<double> switch_us;
  std::vector<double> send_us;
};

/// Per-layer observations, filled only in traced episodes.
struct Layers {
  std::map<std::string, MergedHistogram> histograms;  // "name" or "name@role"
  std::map<std::string, double> counters;
  std::map<std::string, GatewaySteps> gateway;  // by direction
  double send_overlapped_us = 0.0;  // gw.send time covered by a gw.recv
  double send_total_us = 0.0;
  std::vector<double> pack_us;    // begin_packing .. end_packing returns
  std::vector<double> unpack_us;  // first unpack .. end_unpacking returns
};

struct PaperPoint {
  std::string id;
  double value = 0.0;
};

class Episode {
 public:
  Episode(std::string workload, std::uint64_t seed, bool traced)
      : workload_(std::move(workload)), seed_(seed), traced_(traced) {}

  const std::string& workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  bool traced() const { return traced_; }

  // --- message accounting (virtual) ---
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t corrupt = 0;  // delivered with wrong bytes, id or size
  std::uint64_t lost = 0;     // still missing at the run's deadline
  std::uint64_t aborted = 0;  // stranded when the simulation aborted
  std::uint64_t unexpected = 0;  // deliveries of no outstanding message
  std::uint64_t payload_bytes = 0;  // verified payload bytes
  double virtual_s = 0.0;  // summed virtual span of every world's traffic
  std::vector<double> latency_us;
  std::vector<double> gen_lag_us;
  std::vector<std::string> errors;
  std::vector<PaperPoint> paper_points;
  std::vector<std::pair<std::string, double>> table;  // informative rows
  mad::sim::Engine::Stats engine;

  // --- wall clock ---
  double setup_wall_s = 0.0;    // world construction + actor spawns
  double traffic_wall_s = 0.0;  // inside engine.run()
  Usage traffic_usage;          // rusage delta over engine.run()
  /// traffic_wall_s cut at every kChunkDeliveries-th delivery and at the
  /// end of each world's run. The simulation is deterministic, so chunk i
  /// is the same work in every episode of a run.
  std::vector<double> chunk_wall_s;
  static constexpr int kChunkDeliveries = 50;

  /// Called by the workloads' receivers once per message received.
  void mark_delivery();

  Layers layers;

  /// Runs `engine.run()` under the wall/rusage timers, adds the engine
  /// counters, and — in traced episodes — harvests the world's registry,
  /// gateway trace (`direction` names the forwarding direction its steps
  /// belong to; empty when nothing is forwarded) and forwarding counters. `vc` is null for plain-channel
  /// worlds. Simulation aborts (a MAD_ASSERT panic, deadlock, horizon
  /// overrun) are caught and recorded in `errors`; returns false then, and
  /// the caller counts the stranded messages.
  bool run(mad::sim::Engine& engine, mad::net::Fabric& fabric,
           mad::fwd::VirtualChannel* vc, mad::sim::Trace* trace,
           const std::string& direction);

  void print_json() const;

 private:
  void harvest(mad::net::Fabric& fabric, mad::fwd::VirtualChannel* vc,
               mad::sim::Trace* trace, const std::string& direction,
               std::uint64_t bfs_passes_before);

  std::string workload_;
  std::uint64_t seed_;
  bool traced_;
  WallClock::time_point chunk_start_;
  int chunk_deliveries_ = 0;
};

/// Traced episodes turn on the fabric registry and the gateway interval
/// trace; untraced ones leave both off, so nothing records.
void enable_tracing(mad::net::Fabric& fabric, mad::sim::Trace& trace);

}  // namespace perfbench
