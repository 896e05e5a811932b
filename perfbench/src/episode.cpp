#include "episode.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string_view>

#include "mad/copy_stats.hpp"
#include "net/fault.hpp"
#include "util/json.hpp"
#include "util/panic.hpp"

namespace perfbench {

double wall_seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.voluntary_switches = ru.ru_nvcsw;
  u.involuntary_switches = ru.ru_nivcsw;
  return u;
}

Usage Usage::operator-(const Usage& other) const {
  Usage d;
  d.user_s = user_s - other.user_s;
  d.sys_s = sys_s - other.sys_s;
  d.voluntary_switches = voluntary_switches - other.voluntary_switches;
  d.involuntary_switches = involuntary_switches - other.involuntary_switches;
  return d;
}

Usage& Usage::operator+=(const Usage& other) {
  user_s += other.user_s;
  sys_s += other.sys_s;
  voluntary_switches += other.voluntary_switches;
  involuntary_switches += other.involuntary_switches;
  return *this;
}

void MergedHistogram::merge(const mad::sim::LatencyHistogram& h) {
  if (h.count() == 0) {
    return;
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += h.buckets()[b];
  }
  min = count == 0 ? h.min() : std::min(min, h.min());
  max = std::max(max, h.max());
  sum += h.sum();
  count += h.count();
}

void enable_tracing(mad::net::Fabric& fabric, mad::sim::Trace& trace) {
  fabric.metrics().enable();
  // The ring only bounds the packet/actor event store; the gateway step
  // intervals this benchmark reads are kept in full.
  trace.set_capacity(1 << 14);
  trace.enable();
}

namespace {

void add_stats(mad::sim::Engine::Stats& into,
               const mad::sim::Engine::Stats& s) {
  into.switches += s.switches;
  into.timer_fires += s.timer_fires;
  into.notifies += s.notifies;
  into.noop_notifies += s.noop_notifies;
  into.direct_handoffs += s.direct_handoffs;
  into.scheduler_rounds += s.scheduler_rounds;
}

/// Bus role of a "bus=<host>,op=..." label: gateways are named gw*.
std::string bus_role(const std::string& labels) {
  return labels.rfind("bus=gw", 0) == 0 ? "gw" : "end";
}

/// Total length of `sends` covered by the union of `recvs`.
double covered_us(std::vector<mad::sim::TraceInterval> sends,
                  std::vector<mad::sim::TraceInterval> recvs) {
  auto by_begin = [](const auto& a, const auto& b) {
    return a.begin < b.begin;
  };
  std::sort(recvs.begin(), recvs.end(), by_begin);
  std::vector<std::pair<mad::sim::Time, mad::sim::Time>> merged;
  for (const auto& r : recvs) {
    if (!merged.empty() && r.begin <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.end);
    } else {
      merged.emplace_back(r.begin, r.end);
    }
  }
  mad::sim::Time covered = 0;
  for (const auto& s : sends) {
    auto it = std::upper_bound(
        merged.begin(), merged.end(), s.begin,
        [](mad::sim::Time t, const auto& m) { return t < m.second; });
    for (; it != merged.end() && it->first < s.end; ++it) {
      covered += std::min(s.end, it->second) - std::max(s.begin, it->first);
    }
  }
  return mad::sim::to_microseconds(covered);
}

void append_durations(std::vector<double>& into,
                      const std::vector<mad::sim::TraceInterval>& from) {
  for (const auto& i : from) {
    into.push_back(mad::sim::to_microseconds(i.duration()));
  }
}

// --- JSON emission ---------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string str(std::string_view s) {
  return "\"" + mad::util::json_escape(s) + "\"";
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + num(values[i]);
  }
  return out + "]";
}

std::string histogram_json(const MergedHistogram& h) {
  std::string out = "{\"count\":" + num(h.count) + ",\"sum\":" + num(h.sum) +
                    ",\"min\":" + num(h.min) + ",\"max\":" + num(h.max) +
                    ",\"buckets\":[";
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    out += (b == 0 ? "" : ",") + num(h.buckets[b]);
  }
  return out + "]}";
}

}  // namespace

bool Episode::run(mad::sim::Engine& engine, mad::net::Fabric& fabric,
                  mad::fwd::VirtualChannel* vc, mad::sim::Trace* trace,
                  const std::string& direction) {
  const std::uint64_t bfs_before =
      vc != nullptr ? vc->routing().bfs_passes() : 0;
  const Usage usage_before = Usage::now();
  const auto wall_before = WallClock::now();
  chunk_start_ = wall_before;
  chunk_deliveries_ = 0;
  bool ok = true;
  try {
    engine.run();
  } catch (const mad::util::PanicError& e) {
    errors.push_back(std::string("panic: ") + e.what());
    ok = false;
  } catch (const std::exception& e) {
    errors.push_back(std::string("abort: ") + e.what());
    ok = false;
  }
  const auto wall_after = WallClock::now();
  traffic_wall_s += std::chrono::duration<double>(wall_after - wall_before).count();
  chunk_wall_s.push_back(
      std::chrono::duration<double>(wall_after - chunk_start_).count());
  traffic_usage += Usage::now() - usage_before;
  add_stats(this->engine, engine.stats());
  if (traced_) {
    harvest(fabric, vc, trace, direction, bfs_before);
  }
  return ok;
}

void Episode::mark_delivery() {
  if (++chunk_deliveries_ < kChunkDeliveries) {
    return;
  }
  const auto now = WallClock::now();
  chunk_wall_s.push_back(
      std::chrono::duration<double>(now - chunk_start_).count());
  chunk_start_ = now;
  chunk_deliveries_ = 0;
}

void Episode::harvest(mad::net::Fabric& fabric, mad::fwd::VirtualChannel* vc,
                      mad::sim::Trace* trace, const std::string& direction,
                      std::uint64_t bfs_passes_before) {
  auto& counters = layers.counters;
  const mad::sim::MetricsRegistry& registry = fabric.metrics();
  for (const auto& [key, counter] : registry.counters()) {
    if (key.first == "net.packets") {
      counters["net.packets"] += static_cast<double>(counter.value);
    }
  }
  for (const auto& [key, hist] : registry.histograms()) {
    const std::string& name = key.first;
    if (name == "pci.transfer_us") {
      layers.histograms[name + "@" + bus_role(key.second)].merge(hist);
    } else if (name == "net.wire_wait_us") {
      counters["net.wire_wait_us"] += hist.sum();
    } else if (name == "net.packet_us" || name == "chan.msg_us" ||
               name == "rel.rtt_us" || name == "flow.queue_depth") {
      layers.histograms[name].merge(hist);
    }
  }
  for (std::size_t n = 0; n < fabric.network_count(); ++n) {
    const mad::net::FaultInjector* faults =
        fabric.network(static_cast<int>(n)).fault_injector();
    if (faults != nullptr) {
      const mad::net::FaultStats& f = faults->stats();
      counters["net.fault_drops"] += static_cast<double>(
          f.dropped + f.corrupted + f.link_down_drops + f.degraded_drops);
      counters["net.crash_drops"] += static_cast<double>(f.crash_drops);
    }
  }
  if (vc != nullptr) {
    for (mad::NodeRank rank = 0;
         static_cast<std::size_t>(rank) < vc->domain().node_count(); ++rank) {
      if (!vc->is_member(rank)) {
        continue;
      }
      const mad::fwd::GatewayStats& g = vc->gateway_stats(rank);
      const mad::fwd::ReliabilityStats& r = g.reliability;
      counters["gw.messages"] += static_cast<double>(g.messages_forwarded);
      counters["gw.paquets"] += static_cast<double>(g.paquets_forwarded);
      counters["flow.marks"] += static_cast<double>(g.flow_marks);
      counters["rel.paquets_acked"] += static_cast<double>(r.paquets_acked);
      counters["rel.retransmits"] += static_cast<double>(r.retransmits);
      counters["rel.fast_retransmits"] +=
          static_cast<double>(r.fast_retransmits);
      counters["rel.timeouts"] += static_cast<double>(r.timeouts);
      counters["rel.window_decreases"] +=
          static_cast<double>(r.window_decreases);
      counters["rel.dup_drops"] += static_cast<double>(r.dup_drops);
      counters["rel.corrupt_drops"] += static_cast<double>(r.corrupt_drops);
      counters["rel.stale_drops"] += static_cast<double>(r.stale_drops);
      counters["rel.failovers"] += static_cast<double>(r.failovers);
      counters["rel.dead_peers"] +=
          static_cast<double>(r.peers_declared_dead);
    }
    counters["topo.reroutes"] += static_cast<double>(vc->routing().epoch());
    counters["topo.route_recomputes"] += static_cast<double>(
        vc->routing().bfs_passes() - bfs_passes_before);
  }
  if (trace != nullptr && !direction.empty()) {
    auto recvs = trace->by_category("gw.recv");
    auto sends = trace->by_category("gw.send");
    GatewaySteps& steps = layers.gateway[direction];
    append_durations(steps.recv_us, recvs);
    append_durations(steps.switch_us, trace->by_category("gw.switch"));
    append_durations(steps.send_us, sends);
    for (const auto& s : sends) {
      layers.send_total_us += mad::sim::to_microseconds(s.duration());
    }
    layers.send_overlapped_us += covered_us(std::move(sends), std::move(recvs));
  }
}

void Episode::print_json() const {
  const mad::CopyStats& copies = mad::copy_stats();
  std::string out = "{";
  out += "\"workload\":" + str(workload_);
  out += ",\"seed\":" + num(seed_);
  out += ",\"traced\":" + std::string(traced_ ? "true" : "false");
  out += ",\"attempted\":" + num(attempted);
  out += ",\"delivered\":" + num(delivered);
  out += ",\"corrupt\":" + num(corrupt);
  out += ",\"lost\":" + num(lost);
  out += ",\"aborted\":" + num(aborted);
  out += ",\"unexpected\":" + num(unexpected);
  out += ",\"payload_bytes\":" + num(payload_bytes);
  out += ",\"virtual_s\":" + num(virtual_s);
  out += ",\"latency_us\":" + array(latency_us);
  out += ",\"gen_lag_us\":" + array(gen_lag_us);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i == 0 ? "" : ",") + str(errors[i]);
  }
  out += "],\"paper_points\":{";
  for (std::size_t i = 0; i < paper_points.size(); ++i) {
    out += (i == 0 ? "" : ",") + str(paper_points[i].id) + ":" +
           num(paper_points[i].value);
  }
  out += "},\"table\":[";
  for (std::size_t i = 0; i < table.size(); ++i) {
    out += (i == 0 ? "[" : ",[") + str(table[i].first) + "," +
           num(table[i].second) + "]";
  }
  out += "],\"engine\":{\"switches\":" + num(engine.switches) +
         ",\"timer_fires\":" + num(engine.timer_fires) +
         ",\"notifies\":" + num(engine.notifies) +
         ",\"noop_notifies\":" + num(engine.noop_notifies) +
         ",\"direct_handoffs\":" + num(engine.direct_handoffs) +
         ",\"scheduler_rounds\":" + num(engine.scheduler_rounds) + "}";
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out += ",\"wall\":{\"setup_s\":" + num(setup_wall_s) +
         ",\"peak_rss_kb\":" + num(static_cast<double>(ru.ru_maxrss)) +
         ",\"traffic_s\":" + num(traffic_wall_s) +
         ",\"chunks_s\":" + array(chunk_wall_s) +
         ",\"user_s\":" + num(traffic_usage.user_s) +
         ",\"sys_s\":" + num(traffic_usage.sys_s) +
         ",\"voluntary_switches\":" +
         num(static_cast<double>(traffic_usage.voluntary_switches)) +
         ",\"involuntary_switches\":" +
         num(static_cast<double>(traffic_usage.involuntary_switches)) + "}";
  if (traced_) {
    out += ",\"layers\":{\"copies\":" + num(copies.copies) +
           ",\"copy_bytes\":" + num(copies.bytes) +
           ",\"send_overlapped_us\":" + num(layers.send_overlapped_us) +
           ",\"send_total_us\":" + num(layers.send_total_us) +
           ",\"pack_us\":" + array(layers.pack_us) +
           ",\"unpack_us\":" + array(layers.unpack_us) + ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : layers.counters) {
      out += (first ? "" : ",") + str(name) + ":" + num(value);
      first = false;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : layers.histograms) {
      out += (first ? "" : ",") + str(name) + ":" + histogram_json(h);
      first = false;
    }
    out += "},\"gateway\":{";
    first = true;
    for (const auto& [direction, steps] : layers.gateway) {
      out += (first ? "" : ",") + str(direction) +
             ":{\"recv_us\":" + array(steps.recv_us) +
             ",\"switch_us\":" + array(steps.switch_us) +
             ",\"send_us\":" + array(steps.send_us) + "}";
      first = false;
    }
    out += "}}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

}  // namespace perfbench
