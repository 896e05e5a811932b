#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "harness/scenario.hpp"
#include "mad/madeleine.hpp"
#include "sim/condition.hpp"
#include "topo/config_parse.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mad;

/// Rides in front of every small_msgs / multiflow payload as its own
/// express block, the way a Madeleine application sends a size header
/// before a variable-sized body. paper_bulk sends the paper's single-block
/// message instead: its receiver knows the size from the plan.
struct MsgHeader {
  std::uint64_t id = 0;
  std::int64_t due = 0;  // virtual ns the message was due to be sent
  std::uint64_t size = 0;
};

/// Seeded payload bytes. Message `id` carries the slice at an id-derived
/// offset, so a message delivered in place of another fails verification
/// even when the sizes agree.
class PayloadPool {
 public:
  static constexpr std::size_t kSpread = 4096;

  PayloadPool(std::uint64_t seed, std::size_t max_size)
      : bytes_(util::Rng(seed).bytes(max_size + kSpread)),
        max_size_(max_size) {}

  util::ByteSpan payload(std::uint64_t id, std::size_t size) const {
    const std::size_t offset = (id * 2654435761ULL) % kSpread;
    return {bytes_.data() + offset, size};
  }
  std::size_t max_size() const { return max_size_; }

  bool matches(std::uint64_t id, util::ByteSpan got) const {
    const util::ByteSpan want = payload(id, got.size());
    return std::memcmp(want.data(), got.data(), got.size()) == 0;
  }

 private:
  std::vector<std::byte> bytes_;
  std::size_t max_size_;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// `n` seeded uniforms in (0, 1), one from each of n equal strata, in
/// seeded random order. Sampling sizes and gaps this way keeps their
/// distributions (log-uniform, exponential) while the totals a run adds
/// up barely move from seed to seed.
std::vector<double> stratified(util::Rng& rng, std::size_t n) {
  std::vector<double> u(n);
  for (std::size_t k = 0; k < n; ++k) {
    u[k] = (static_cast<double>(k) + rng.next_double()) /
           static_cast<double>(n);
  }
  for (std::size_t k = n; k > 1; --k) {
    std::swap(u[k - 1], u[rng.next_below(k)]);
  }
  return u;
}

/// The log-uniform integer in [lo, hi] at quantile u.
std::size_t log_uniform(double u, std::size_t lo, std::size_t hi) {
  const double span = std::log(static_cast<double>(hi) /
                               static_cast<double>(lo));
  const auto v = static_cast<std::size_t>(
      std::floor(static_cast<double>(lo) * std::exp(u * span)));
  return std::clamp(v, lo, hi);
}

double us(sim::Time t) { return sim::to_microseconds(t); }

/// Accounting shared by the sender and receiver actors of one world.
struct Flowbook {
  std::uint64_t expected = 0;
  std::uint64_t handled = 0;  // delivered + corrupt
  sim::Time last_delivery = 0;
};

/// Counts what an aborted or deadline-cut world never delivered.
void settle(Episode& episode, const Flowbook& book, bool run_ok) {
  const std::uint64_t missing = book.expected - book.handled;
  if (run_ok) {
    episode.lost += missing;
  } else {
    episode.aborted += missing;
  }
  episode.virtual_s += sim::to_seconds(book.last_delivery);
}

/// Owns one world and times its construction (plus the actor spawns in
/// setup()) into Episode::setup_wall_s. Teardown is not timed.
template <typename World>
class TimedWorld {
 public:
  template <typename... Args>
  explicit TimedWorld(Episode& episode, Args&&... args) : episode_(episode) {
    const auto start = WallClock::now();
    world_ = std::make_unique<World>(std::forward<Args>(args)...);
    episode_.setup_wall_s += wall_seconds_since(start);
  }
  TimedWorld(const TimedWorld&) = delete;
  TimedWorld& operator=(const TimedWorld&) = delete;

  World* operator->() { return world_.get(); }

  /// Runs `spawn` (actor creation) under the set-up timer.
  template <typename Fn>
  void setup(Fn&& spawn) {
    const auto start = WallClock::now();
    spawn();
    episode_.setup_wall_s += wall_seconds_since(start);
  }

  /// Leaves the world alive until the process exits (main() ends with
  /// _Exit): tearing down a world whose gateway crashed can touch a freed
  /// channel (README.md, known defect c).
  void keep_until_exit() { (void)world_.release(); }

 private:
  Episode& episode_;
  std::unique_ptr<World> world_;
};

/// A closed loop with one message in flight: the sender starts message
/// i+1 only after the receiver finished message i (the zero-cost
/// simulation ack of harness/pingpong.cpp). `send(i)` and `recv(i)` do the
/// pack/unpack calls; `recv` returns whether the bytes verified. Latency
/// samples are taken from message `warmup` on; `one_way` gets the last
/// one.
template <typename Send, typename Recv>
void spawn_closed_loop(Episode& episode, sim::Engine& engine, Flowbook& book,
                       const std::vector<std::size_t>& sizes, int warmup,
                       sim::Time* one_way_sum, Send send, Recv recv) {
  struct Loop {
    explicit Loop(sim::Engine& e) : ack(e, "perfbench.ack") {}
    sim::Condition ack;
    std::uint64_t acked = 0;
    sim::Time send_begin = 0;
  };
  auto loop = std::make_shared<Loop>(engine);
  book.expected += sizes.size();
  episode.attempted += sizes.size();
  engine.spawn("perfbench.send", [&engine, loop, &sizes, send] {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      loop->send_begin = engine.now();
      send(i);
      while (loop->acked <= i) {
        loop->ack.wait();
      }
    }
  });
  engine.spawn("perfbench.recv", [&episode, &engine, &book, loop, &sizes,
                                  warmup, one_way_sum, recv] {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const bool ok = recv(i);
      episode.mark_delivery();
      const sim::Time one_way = engine.now() - loop->send_begin;
      ++book.handled;
      book.last_delivery = engine.now();
      if (ok) {
        ++episode.delivered;
        episode.payload_bytes += sizes[i];
      } else {
        ++episode.corrupt;
      }
      if (static_cast<int>(i) >= warmup) {
        episode.latency_us.push_back(us(one_way));
        if (one_way_sum != nullptr) {
          *one_way_sum += one_way;
        }
      }
      ++loop->acked;
      loop->ack.notify_all();
    }
  });
}

/// Closed-loop pings of single-block messages, the paper's message shape.
/// `open_tx()` / `open_rx()` begin packing / unpacking one message, on a
/// virtual channel or a plain channel alike; the packing and unpacking
/// calls are timed for the traced run.
template <typename OpenTx, typename OpenRx>
void spawn_single_block_pings(Episode& episode, sim::Engine& engine,
                              Flowbook& book, const PayloadPool& pool,
                              const std::vector<std::size_t>& sizes,
                              int warmup, std::uint64_t first_id,
                              sim::Time* one_way_sum,
                              std::vector<std::byte>& out, OpenTx open_tx,
                              OpenRx open_rx) {
  spawn_closed_loop(
      episode, engine, book, sizes, warmup, one_way_sum,
      [&episode, &engine, &pool, &sizes, first_id, open_tx](std::size_t i) {
        const sim::Time begin = engine.now();
        auto msg = open_tx();
        msg.pack(pool.payload(first_id + i, sizes[i]));
        msg.end_packing();
        if (episode.traced()) {
          episode.layers.pack_us.push_back(us(engine.now() - begin));
        }
      },
      [&episode, &engine, &pool, &out, first_id, open_rx](std::size_t i) {
        auto msg = open_rx();
        const sim::Time begin = engine.now();
        msg.unpack(out);
        msg.end_unpacking();
        if (episode.traced()) {
          episode.layers.unpack_us.push_back(us(engine.now() - begin));
        }
        return pool.matches(first_id + i, out);
      });
}

/// Sends a header + payload message over the virtual channel, timing the
/// packing calls for the traced run.
void send_with_header(Episode& episode, sim::Engine& engine,
                      fwd::VcEndpoint& from, NodeRank to,
                      const MsgHeader& header, util::ByteSpan payload) {
  const sim::Time begin = engine.now();
  auto msg = from.begin_packing(to);
  msg.pack_value(header);
  msg.pack(payload);
  msg.end_packing();
  if (episode.traced()) {
    episode.layers.pack_us.push_back(us(engine.now() - begin));
  }
}

/// Unpacks a header + payload message into `buffer`, timing the unpacking
/// calls for the traced run. The body is unpacked at the size the header
/// announces (clamped to the pool), as a real receiver must.
MsgHeader read_with_header(Episode& episode, sim::Engine& engine,
                           fwd::VcMessageReader& msg, const PayloadPool& pool,
                           std::vector<std::byte>& buffer) {
  const sim::Time begin = engine.now();
  const auto header = msg.unpack_value<MsgHeader>();
  buffer.resize(static_cast<std::size_t>(
      std::min<std::uint64_t>(header.size, pool.max_size())));
  msg.unpack(buffer);
  msg.end_unpacking();
  if (episode.traced()) {
    episode.layers.unpack_us.push_back(us(engine.now() - begin));
  }
  return header;
}

/// True when the message read is exactly `want` with its seeded bytes.
bool verified(const PayloadPool& pool, const MsgHeader& got,
              const std::vector<std::byte>& buffer, const MsgHeader& want) {
  return got.id == want.id && got.due == want.due && got.size == want.size &&
         buffer.size() == want.size && pool.matches(want.id, buffer);
}

// --- paper_bulk -------------------------------------------------------------

enum class Direction { SciToMyri, MyriToSci };

const char* direction_name(Direction d) {
  return d == Direction::SciToMyri ? "sci_to_myri" : "myri_to_sci";
}

/// One Fig 6/7 point: a fresh PaperWorld, a warm-up message and one
/// measured message of `size` bytes; returns the measured MB/s exactly as
/// harness::measure_vc_oneway does.
double forward_point(Episode& episode, const PayloadPool& pool,
                     Direction dir, std::size_t size, std::uint32_t paquet,
                     std::uint64_t& next_id) {
  sim::Trace trace;
  fwd::VcOptions options;
  options.paquet_size = paquet;
  if (episode.traced()) {
    options.trace = &trace;
  }
  TimedWorld<harness::PaperWorld> world(episode, options);
  if (episode.traced()) {
    enable_tracing(*world->fabric, trace);
  }
  const NodeRank src = dir == Direction::SciToMyri ? world->sci_node()
                                                   : world->myri_node();
  const NodeRank dst = dir == Direction::SciToMyri ? world->myri_node()
                                                   : world->sci_node();
  const std::vector<std::size_t> sizes = {size, size};
  const std::uint64_t first_id = next_id;
  next_id += sizes.size();
  std::vector<std::byte> out(size);
  Flowbook book;
  sim::Time one_way = 0;
  sim::Engine& engine = world->engine;
  fwd::VcEndpoint& tx = world->ep(src);
  fwd::VcEndpoint& rx = world->ep(dst);
  world.setup([&] {
    spawn_single_block_pings(
        episode, engine, book, pool, sizes, /*warmup=*/1, first_id, &one_way,
        out, [&tx, dst] { return tx.begin_packing(dst); },
        [&rx] { return rx.begin_unpacking(); });
  });
  const bool ok = episode.run(engine, *world->fabric, &*world->vc,
                              episode.traced() ? &trace : nullptr,
                              direction_name(dir));
  settle(episode, book, ok);
  return one_way > 0 ? sim::bandwidth_mbps(size, one_way) : 0.0;
}

/// Plain two-node channel world for the §3.2.2 native pings (the
/// bench_native_pingpong set-up).
struct NativeWorld {
  explicit NativeWorld(const char* protocol) {
    fabric.emplace(engine);
    net::Network& network =
        fabric->add_network("n", net::nic_model_by_name(protocol));
    net::Host& a = fabric->add_host("a");
    a.add_nic(network);
    net::Host& b = fabric->add_host("b");
    b.add_nic(network);
    domain.emplace(*fabric);
    domain->add_node(a);
    domain->add_node(b);
    channel = domain->create_channel("main", network);
  }
  sim::Engine engine;
  std::optional<net::Fabric> fabric;
  std::optional<Domain> domain;
  ChannelId channel{};
};

/// Native 16 KB one-way time in µs: one warm-up and three measured pings,
/// averaged (as bench_native_pingpong reports it).
double native_point(Episode& episode, const PayloadPool& pool,
                    const char* protocol, std::uint64_t& next_id) {
  const std::size_t size = 16 * 1024;
  const int warmup = 1;
  const std::vector<std::size_t> sizes(4, size);
  const std::uint64_t first_id = next_id;
  next_id += sizes.size();
  TimedWorld<NativeWorld> world(episode, protocol);
  if (episode.traced()) {
    world->fabric->metrics().enable();
  }
  Channel& tx = world->domain->endpoint(world->channel, 0);
  Channel& rx = world->domain->endpoint(world->channel, 1);
  std::vector<std::byte> out(size);
  Flowbook book;
  sim::Time one_way_sum = 0;
  sim::Engine& engine = world->engine;
  world.setup([&] {
    spawn_single_block_pings(
        episode, engine, book, pool, sizes, warmup, first_id, &one_way_sum,
        out, [&tx] { return tx.begin_packing(1); },
        [&rx] { return rx.begin_unpacking(); });
  });
  const bool ok = episode.run(engine, *world->fabric, nullptr, nullptr, "");
  settle(episode, book, ok);
  return us(one_way_sum) /
         static_cast<double>(static_cast<int>(sizes.size()) - warmup);
}

std::string size_tag(std::size_t bytes) {
  return bytes >= 1024 * 1024 ? std::to_string(bytes >> 20) + "MB"
                              : std::to_string(bytes >> 10) + "KB";
}

/// The paper's sweep points, each a fresh world. The four 16 MB points at
/// 8 KB and 128 KB paquets are paper reference points and keep their exact
/// size; every other message is shortened by a seeded 0-4095 bytes, so the
/// sweep's timings depend on the seed while its shape stays the paper's.
void paper_sweep(Episode& episode, bool reference_only) {
  const std::size_t kMax = 16 * 1024 * 1024;
  const PayloadPool pool(mix(episode.seed(), 1), kMax);
  util::Rng jitter(mix(episode.seed(), 4));
  std::uint64_t next_id = 0;
  const std::vector<std::uint32_t> all_paquets = {8192, 16384, 32768, 65536,
                                                  131072};
  const std::vector<std::uint32_t> reference_paquets = {8192, 131072};
  const auto& paquets = reference_only ? reference_paquets : all_paquets;
  for (const Direction dir : {Direction::SciToMyri, Direction::MyriToSci}) {
    const std::string fig = dir == Direction::SciToMyri ? "fig6" : "fig7";
    for (std::size_t size = reference_only ? kMax : 32 * 1024; size <= kMax;
         size *= 2) {
      for (const std::uint32_t paquet : paquets) {
        const bool reference =
            size == kMax && (paquet == 8192 || paquet == 131072);
        const std::size_t bytes =
            reference ? size : size - jitter.next_below(4096);
        const double mbps =
            forward_point(episode, pool, dir, bytes, paquet, next_id);
        if (reference) {
          const std::string id =
              fig + "_" + size_tag(paquet) + "_asymptote_mbps";
          episode.table.emplace_back(id, mbps);
          episode.paper_points.push_back({id, mbps});
        }
      }
    }
  }
  for (const auto& [protocol, id] :
       {std::pair{"BIP/Myrinet", "native_myri_16KB_us"},
        std::pair{"SISCI/SCI", "native_sci_16KB_us"}}) {
    const double one_way = native_point(episode, pool, protocol, next_id);
    episode.table.emplace_back(id, one_way);
    episode.paper_points.push_back({id, one_way});
  }
}

// --- multiflow ----------------------------------------------------------------

struct MultiflowParams {
  int origins = 4;
  int messages = 3200;
  double aggregate_bytes_per_s = 20e6;
  std::size_t min_size = 1024;
  std::size_t max_size = 256 * 1024;
  double drop_rate = 0.01;
  // Permanent crash of the gateway every route starts on. At 0 it is dead
  // before the first message: every origin detects it through its retry
  // budget and fails over to the standby gateway. Later, it lands on
  // messages in flight (the known defect b reproducer).
  std::optional<sim::Time> crash_active_gateway_at = 0;
  bool health = false;
  sim::Time ack_timeout = sim::milliseconds(5);
  sim::Time drain = sim::seconds(30);  // deadline after the last due time
  bool teardown = false;  // destroy the world (known defect c reproducer)
};

struct PlannedMsg {
  std::uint64_t id = 0;
  sim::Time due = 0;
  std::size_t size = 0;
};

std::string two_gateway_topology(int origins) {
  std::string text = "network myri0 BIP/Myrinet\nnetwork sci0 SISCI/SCI\n";
  for (int i = 0; i < origins; ++i) {
    text += "node m" + std::to_string(i) + " myri0\n";
  }
  text += "node gw1 myri0 sci0\nnode gw2 myri0 sci0\n";
  for (int i = 0; i < origins; ++i) {
    text += "node s" + std::to_string(i) + " sci0\n";
  }
  return text;
}

/// Index of `node`'s NIC on `network` (NICs are numbered per network in
/// node declaration order).
int nic_index(const topo::TopoConfig& config, const std::string& node,
              const std::string& network) {
  int index = 0;
  for (const auto& decl : config.nodes) {
    const bool on = std::find(decl.networks.begin(), decl.networks.end(),
                              network) != decl.networks.end();
    if (decl.name == node) {
      return on ? index : -1;
    }
    index += on ? 1 : 0;
  }
  return -1;
}

void run_multiflow(Episode& episode, const MultiflowParams& p) {
  const topo::TopoConfig config =
      topo::parse_topo_config(two_gateway_topology(p.origins));
  const PayloadPool pool(mix(episode.seed(), 2), p.max_size);

  // Seeded open-loop plan: Poisson arrivals per origin at an equal share
  // of the aggregate rate (exponential gaps), log-uniform sizes, both
  // stratified.
  const double mean_size =
      static_cast<double>(p.max_size - p.min_size) /
      std::log(static_cast<double>(p.max_size) /
               static_cast<double>(p.min_size));
  const double per_origin_rate =
      p.aggregate_bytes_per_s / mean_size / static_cast<double>(p.origins);
  std::vector<std::vector<PlannedMsg>> plan(
      static_cast<std::size_t>(p.origins));
  sim::Time last_due = 0;
  std::uint64_t id = 0;
  for (int o = 0; o < p.origins; ++o) {
    util::Rng rng(mix(episode.seed(), 100 + static_cast<std::uint64_t>(o)));
    const auto count = static_cast<std::size_t>(
        (p.messages - o + p.origins - 1) / p.origins);
    const std::vector<double> gaps = stratified(rng, count);
    const std::vector<double> sizes = stratified(rng, count);
    double t = 0.0;
    for (std::size_t m = 0; m < count; ++m) {
      t += -std::log(1.0 - gaps[m]) / per_origin_rate;
      PlannedMsg msg;
      msg.id = id++;
      msg.due = static_cast<sim::Time>(t * 1e9);
      msg.size = log_uniform(sizes[m], p.min_size, p.max_size);
      last_due = std::max(last_due, msg.due);
      plan[static_cast<std::size_t>(o)].push_back(msg);
    }
  }
  const sim::Time deadline = last_due + p.drain;

  sim::Trace trace;
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 4;
  options.reliable.adaptive = true;
  options.reliable.ack_timeout = p.ack_timeout;
  options.flow.enabled = true;
  options.health.enabled = p.health;
  if (episode.traced()) {
    options.trace = &trace;
  }
  TimedWorld<harness::ConfigWorld> world(episode, config, options);
  if (episode.traced()) {
    enable_tracing(*world->fabric, trace);
  }
  sim::Engine& engine = world->engine;
  engine.set_time_horizon(deadline + sim::seconds(10));

  // Faults: seeded drops on both networks; the active gateway (the first
  // hop every origin's route takes) crashes for good on both NICs.
  const NodeRank active = world->vc->routing().gateways(
      world->rank_of("m0"), world->rank_of("s0"))[0];
  const std::string active_name =
      config.nodes[static_cast<std::size_t>(active)].name;
  for (std::size_t n = 0; n < world->networks.size(); ++n) {
    net::FaultPlan plan_n;
    plan_n.seed = mix(episode.seed(), 200 + n);
    plan_n.drop_rate = p.drop_rate;
    if (p.crash_active_gateway_at) {
      plan_n.crashes.push_back(
          {nic_index(config, active_name, config.networks[n].name),
           *p.crash_active_gateway_at});
    }
    if (plan_n.drop_rate > 0.0 || !plan_n.crashes.empty()) {
      world->networks[n]->set_fault_plan(plan_n);
    }
  }

  Flowbook book;
  world.setup([&] {
    for (int o = 0; o < p.origins; ++o) {
      const auto& msgs = plan[static_cast<std::size_t>(o)];
      const NodeRank src = world->rank_of("m" + std::to_string(o));
      const NodeRank dst = world->rank_of("s" + std::to_string(o));
      book.expected += msgs.size();
      // Senders are daemons: when every sink is done (or gave up at the
      // deadline) a sender still blocked in a doomed stream is unwound.
      engine.spawn(
          "perfbench.gen" + std::to_string(o),
          [&, src, dst, o] {
            for (const PlannedMsg& m : plan[static_cast<std::size_t>(o)]) {
              if (engine.now() < m.due) {
                engine.sleep_until(m.due);
              }
              episode.gen_lag_us.push_back(us(engine.now() - m.due));
              send_with_header(episode, engine, world->ep(src), dst,
                               MsgHeader{m.id, m.due, m.size},
                               pool.payload(m.id, m.size));
            }
          },
          /*daemon=*/true);
      engine.spawn("perfbench.sink" + std::to_string(o), [&, dst, o] {
        // Matched by id, not by order: a failover may reorder a flow,
        // and a lost message must not shift the blame onto its successors.
        std::map<std::uint64_t, const PlannedMsg*> outstanding;
        for (const PlannedMsg& m : plan[static_cast<std::size_t>(o)]) {
          outstanding.emplace(m.id, &m);
        }
        std::vector<std::byte> buffer;
        while (!outstanding.empty()) {
          auto msg = world->ep(dst).begin_unpacking_until(deadline);
          if (!msg) {
            return;  // the rest are lost at the deadline
          }
          const MsgHeader header =
              read_with_header(episode, engine, *msg, pool, buffer);
          episode.mark_delivery();
          const auto it = outstanding.find(header.id);
          if (it == outstanding.end()) {
            ++episode.unexpected;  // a duplicate or a message never sent
            continue;
          }
          const PlannedMsg& m = *it->second;
          outstanding.erase(it);
          ++book.handled;
          book.last_delivery = std::max(book.last_delivery, engine.now());
          if (verified(pool, header, buffer, MsgHeader{m.id, m.due, m.size})) {
            ++episode.delivered;
            episode.payload_bytes += m.size;
            episode.latency_us.push_back(us(engine.now() - m.due));
          } else {
            ++episode.corrupt;
          }
        }
      });
    }
  });
  episode.attempted += book.expected;
  const bool ok = episode.run(engine, *world->fabric, &*world->vc,
                              episode.traced() ? &trace : nullptr,
                              "myri_to_sci");
  settle(episode, book, ok);
  if (!p.teardown) {
    world.keep_until_exit();
  }
}

}  // namespace

void run_paper_bulk(Episode& episode) { paper_sweep(episode, false); }

void run_paper_reference(Episode& episode) { paper_sweep(episode, true); }

void run_small_msgs(Episode& episode) {
  const std::size_t kMessagesPerPath = 1000;
  const std::size_t kMin = 8;
  const std::size_t kMax = 4096;
  const PayloadPool pool(mix(episode.seed(), 3), kMax);
  struct Path {
    const char* name;
    bool forwarded;
    bool from_myri;  // sender on the Myrinet side
    bool to_myri;
  };
  // PaperWorld(options, 2, 2) ranks: m0=0, m1=1, gw=2, s0=3, s1=4.
  const Path paths[] = {{"native_myri", false, true, true},
                        {"native_sci", false, false, false},
                        {"myri_to_sci", true, true, false},
                        {"sci_to_myri", true, false, true}};
  std::uint64_t next_id = 0;
  for (std::size_t p = 0; p < std::size(paths); ++p) {
    const Path& path = paths[p];
    util::Rng rng(mix(episode.seed(), 300 + p));
    std::vector<std::size_t> sizes;
    for (const double u : stratified(rng, kMessagesPerPath)) {
      sizes.push_back(log_uniform(u, kMin, kMax));
    }
    const std::uint64_t first_id = next_id;
    next_id += sizes.size();

    sim::Trace trace;
    fwd::VcOptions options;
    if (episode.traced()) {
      options.trace = &trace;
    }
    TimedWorld<harness::PaperWorld> world(episode, options, 2, 2);
    if (episode.traced()) {
      enable_tracing(*world->fabric, trace);
    }
    const NodeRank src = path.from_myri ? world->myri_node(0)
                                        : world->sci_node(0);
    const NodeRank dst = path.to_myri ? world->myri_node(path.forwarded ? 0 : 1)
                                      : world->sci_node(path.forwarded ? 0 : 1);
    std::vector<std::byte> buffer;
    std::vector<sim::Time> sent_at(sizes.size());
    Flowbook book;
    sim::Engine& engine = world->engine;
    world.setup([&] {
      spawn_closed_loop(
          episode, engine, book, sizes, /*warmup=*/0, nullptr,
          [&](std::size_t i) {
            const std::uint64_t msg_id = first_id + i;
            sent_at[i] = engine.now();
            send_with_header(episode, engine, world->ep(src), dst,
                             MsgHeader{msg_id, sent_at[i], sizes[i]},
                             pool.payload(msg_id, sizes[i]));
          },
          [&](std::size_t i) {
            auto msg = world->ep(dst).begin_unpacking();
            const MsgHeader got =
                read_with_header(episode, engine, msg, pool, buffer);
            return verified(pool, got, buffer,
                            MsgHeader{first_id + i, sent_at[i], sizes[i]});
          });
    });
    const bool ok = episode.run(engine, *world->fabric, &*world->vc,
                                episode.traced() ? &trace : nullptr,
                                path.forwarded ? path.name : "");
    settle(episode, book, ok);
  }
}

void run_multiflow_faults(Episode& episode) {
  run_multiflow(episode, MultiflowParams{});
}

void run_defect_crash_midstream(Episode& episode, bool teardown) {
  MultiflowParams p;
  p.messages = 1600;
  p.crash_active_gateway_at = sim::milliseconds(200);
  p.teardown = teardown;
  run_multiflow(episode, p);
}

void run_defect_health(Episode& episode) {
  MultiflowParams p;
  p.origins = 2;
  p.messages = 400;
  p.aggregate_bytes_per_s = 10e6;
  p.drop_rate = 0.0;
  p.crash_active_gateway_at.reset();
  p.health = true;
  p.ack_timeout = sim::milliseconds(250);
  run_multiflow(episode, p);
}

}  // namespace perfbench
