// Characterization of the gateway relay's schedules: the plain inline
// relay, the reliable store-and-forward and cut-through relays, the
// striped relay, a downstream gateway crash mid-message (cut-through,
// then replay of the stored copy on a failover route) and a downstream
// gateway's admission reject in a two-gateway chain; and the sender side
// (the Origin cases): a plain striped transfer, the origin's first gateway
// crashing mid-message, a striped rail repairing around a crashed gateway,
// a writer rerouting before its first block because another writer already
// declared its next hop dead, and a writer refused at its first gateway's
// admission gate.
//
// Each case delivers byte-exact and pins the exact virtual delivery time
// and every node's GatewayStats. The simulation is deterministic, so a
// change to how the relay is scheduled (which actor blocks where, who
// pays the rendezvous, how a failed attempt replays) shows up here as a
// different nanosecond, retransmit count or failover count.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/madeleine.hpp"
#include "net/fault.hpp"
#include "support/coc_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::DisjointRailRig;
using testsupport::PaperRig;

/// Every nonzero GatewayStats field of one node in a fixed order (compact
/// to pin, readable in a failure message).
std::string stats_line(const GatewayStats& g) {
  const ReliabilityStats& r = g.reliability;
  const std::vector<std::pair<const char*, std::uint64_t>> fields = {
      {"msgs", g.messages_forwarded},
      {"paquets", g.paquets_forwarded},
      {"bytes", g.bytes_forwarded},
      {"marks", g.flow_marks},
      {"adm_rejects", g.admission_rejects},
      {"adm_sheds", g.admission_sheds},
      {"acked", r.paquets_acked},
      {"rtx", r.retransmits},
      {"fast_rtx", r.fast_retransmits},
      {"timeouts", r.timeouts},
      {"cmarks", r.congestion_marks},
      {"wdec", r.window_decreases},
      {"flow_rejects", r.flow_rejects},
      {"dup", r.dup_drops},
      {"corrupt", r.corrupt_drops},
      {"stale", r.stale_drops},
      {"failovers", r.failovers},
      {"dead", r.peers_declared_dead},
  };
  std::string line;
  for (const auto& [name, value] : fields) {
    if (value != 0) {
      line += std::string(line.empty() ? "" : " ") + name + "=" +
              std::to_string(value);
    }
  }
  return line;
}

struct Outcome {
  std::vector<sim::Time> delivered_at;  // one per transfer, in order
  std::vector<std::string> stats;       // one line per node rank
  std::string rdma;                     // one-sided counters
};

Outcome outcome_of(const VirtualChannel& vc, std::size_t nodes,
                   std::vector<sim::Time> delivered_at) {
  Outcome out;
  out.delivered_at = std::move(delivered_at);
  for (std::size_t rank = 0; rank < nodes; ++rank) {
    out.stats.push_back(
        stats_line(vc.gateway_stats(static_cast<NodeRank>(rank))));
  }
  const RdmaTotals rdma = vc.rdma_totals();
  out.rdma = "writes=" + std::to_string(rdma.writes) +
             " rendezvous=" + std::to_string(rdma.rendezvous) +
             " hits=" + std::to_string(rdma.cache.hits) +
             " misses=" + std::to_string(rdma.cache.misses);
  return out;
}

struct Transfer {
  NodeRank src;
  NodeRank dst;
  std::size_t bytes;
  sim::Time start = 0;
};

/// Runs every transfer concurrently (one sender and one receiver actor
/// each), checks each payload byte for byte, and returns the virtual time
/// each receiver finished.
std::vector<sim::Time> run_transfers(
    sim::Engine& engine, const std::function<VcEndpoint&(NodeRank)>& ep,
    const std::vector<Transfer>& transfers) {
  std::vector<sim::Time> done(transfers.size(), -1);
  std::vector<std::vector<std::byte>> payloads;
  util::Rng rng(2024);
  for (const Transfer& t : transfers) {
    payloads.push_back(rng.bytes(t.bytes));
  }
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    const std::vector<std::byte>& payload = payloads[i];
    engine.spawn("tx" + std::to_string(i), [&engine, &ep, &payload, t] {
      engine.sleep_for(t.start);
      auto msg = ep(t.src).begin_packing(t.dst);
      msg.pack(util::ByteSpan(payload));
      msg.end_packing();
    });
    engine.spawn("rx" + std::to_string(i),
                 [&engine, &ep, &payload, &done, t, i] {
                   std::vector<std::byte> out(payload.size());
                   auto msg = ep(t.dst).begin_unpacking();
                   msg.unpack(out);
                   msg.end_unpacking();
                   EXPECT_EQ(out, payload) << "transfer " << i;
                   done[i] = engine.now();
                 });
  }
  engine.run();
  return done;
}

VcOptions reliable_options(int window) {
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = window;
  return options;
}

Outcome paper_rig_transfer(VcOptions options) {
  PaperRig rig(options);
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{rig.myri_node(), rig.sci_node(), 1 << 20}});
  return outcome_of(*rig.vc, 3, times);
}

Outcome plain_depth1_rdma() {
  VcOptions options;
  options.pipeline_depth = 1;
  options.rdma.enabled = true;
  return paper_rig_transfer(options);
}

Outcome reliable_rdma(int window) {
  VcOptions options = reliable_options(window);
  options.rdma.enabled = true;
  return paper_rig_transfer(options);
}

Outcome reliable_striped() {
  VcOptions options = reliable_options(4);
  options.max_rails = 2;
  DisjointRailRig rig(options);
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 3, 1 << 20}});
  return outcome_of(*rig.vc, 4, times);
}

/// netA(a0, gw1) — netB(gw1, gw2, gw3, b0) — netC(gw2, gw3, c0, c1):
/// two gateways side by side behind gw1. Ranks: a0=0, gw1=1, gw2=2, gw3=3,
/// b0=4, c0=5, c1=6. NIC indices: netB{gw1=0, gw2=1, gw3=2, b0=3},
/// netC{gw2=0, gw3=1, c0=2, c1=3}. a0 -> c0 routes gw1 -> gw2 -> c0.
struct FanRig {
  FanRig(net::NicModelParams model_c, VcOptions options)
      : fabric(engine),
        net_a(fabric.add_network("netA", net::bip_myrinet())),
        net_b(fabric.add_network("netB", net::bip_myrinet())),
        net_c(fabric.add_network("netC", std::move(model_c))) {
    const auto host = [this](const std::string& name,
                             std::vector<net::Network*> nets) {
      net::Host& h = fabric.add_host(name);
      for (net::Network* n : nets) {
        h.add_nic(*n);
      }
      hosts.push_back(&h);
    };
    host("a0", {&net_a});
    host("gw1", {&net_a, &net_b});
    host("gw2", {&net_b, &net_c});
    host("gw3", {&net_b, &net_c});
    host("b0", {&net_b});
    host("c0", {&net_c});
    host("c1", {&net_c});
    domain.emplace(fabric);
    for (net::Host* h : hosts) {
      domain->add_node(*h);
    }
    vc.emplace(*domain, "vc",
               std::vector<net::Network*>{&net_a, &net_b, &net_c}, options);
  }

  VcEndpoint& ep(NodeRank rank) { return vc->endpoint(rank); }

  sim::Engine engine;
  net::Fabric fabric;
  net::Network& net_a;
  net::Network& net_b;
  net::Network& net_c;
  std::vector<net::Host*> hosts;
  std::optional<Domain> domain;
  std::optional<VirtualChannel> vc;
};

Outcome downstream_crash() {
  FanRig rig(net::sisci_sci(), reliable_options(4));
  const sim::Time crash_at = sim::milliseconds(8);
  net::FaultPlan b_plan;
  b_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw2 on netB
  rig.net_b.set_fault_plan(b_plan);
  net::FaultPlan c_plan;
  c_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw2 on netC
  rig.net_c.set_fault_plan(c_plan);
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 5, 1 << 20}});
  EXPECT_TRUE(rig.vc->is_dead(2));
  return outcome_of(*rig.vc, 7, times);
}

/// gw2 relays b0's long message to c1 over slow Fast Ethernet with a
/// one-message bulk budget, so gw1's relay of a0's message is refused at
/// gw2's admission gate until b0's message is through.
Outcome downstream_reject(int window) {
  VcOptions options = reliable_options(window);
  options.reliable.ack_timeout = sim::milliseconds(120);
  options.reliable.max_attempts = 10;
  options.flow.enabled = true;
  options.flow.queue_limit = 16;
  options.flow.mark_threshold = 8;
  options.flow.admission.enabled = true;
  options.flow.admission.message_budget[traffic_class_index(
      TrafficClass::Bulk)] = 1;
  FanRig rig(net::tcp_fast_ethernet(), options);
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{4, 6, 512 * 1024}, {0, 5, 64 * 1024, sim::milliseconds(1)}});
  return outcome_of(*rig.vc, 7, times);
}

// ------------------------------------------------------------ sender side
// The paths where the origin (writer or stripe rail) opens, feeds and
// reopens a forwarded stream: plain striping, a crash of the origin's own
// first gateway, a rail repair, a proactive reroute, and a writer refused
// at its first gateway's admission gate.

Outcome plain_striped() {
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 3, 1 << 20}});
  return outcome_of(*rig.vc, 4, times);
}

/// Crashes gw1 (both NICs) of a DisjointRailRig at `crash_at`.
void crash_gw1(DisjointRailRig& rig, sim::Time crash_at) {
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri0
  rig.myri_a.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci0
  rig.sci.set_fault_plan(sci_plan);
}

/// The origin's single route m0 -> gw1 -> s0 loses gw1 mid-message: the
/// writer declares it dead and replays via gw2.
Outcome origin_gateway_crash(int window) {
  DisjointRailRig rig(reliable_options(window));
  crash_gw1(rig, sim::milliseconds(8));
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 3, 1 << 20}});
  EXPECT_TRUE(rig.vc->is_dead(1));
  return outcome_of(*rig.vc, 4, times);
}

/// A reliable striped transfer whose rail-0 gateway dies mid-stripe: rail
/// 0 repairs onto gw2 while rail 1 streams on.
Outcome striped_rail_crash() {
  VcOptions options = reliable_options(4);
  options.max_rails = 2;
  DisjointRailRig rig(options);
  rig.fabric.metrics().enable();
  crash_gw1(rig, sim::milliseconds(4));
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 3, 1 << 20}});
  EXPECT_TRUE(rig.vc->is_dead(1));
  EXPECT_GE(
      rig.fabric.metrics().counter("stripe.repairs", "node=0,rail=0").value,
      1u);
  return outcome_of(*rig.vc, 4, times);
}

/// Two writers of m0 toward s0: the second opens its hop to gw1 behind
/// the first's tx lock, the first declares gw1 dead, so the second finds
/// its route stale at its first pack and reroutes before sending a block.
/// Window 1: gw1 stores whole messages, so s0 never sees a partial stream
/// and each receiver takes the messages in sending order.
Outcome stale_route_reroute() {
  DisjointRailRig rig(reliable_options(1));
  rig.fabric.metrics().enable();
  crash_gw1(rig, sim::milliseconds(4));
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{0, 3, 256 * 1024}, {0, 3, 256 * 1024, sim::microseconds(1)}});
  EXPECT_TRUE(rig.vc->is_dead(1));
  EXPECT_EQ(rig.fabric.metrics().counter("health.reroutes", "node=0").value,
            1u);
  return outcome_of(*rig.vc, 4, times);
}

/// gw1 originates a message to c0 while gw2 relays b0's long message with
/// a one-message bulk budget: gw1's own writer is refused at its first
/// gateway and backs off until b0's message is through.
Outcome origin_reject() {
  VcOptions options = reliable_options(4);
  options.reliable.ack_timeout = sim::milliseconds(120);
  options.reliable.max_attempts = 10;
  options.flow.enabled = true;
  options.flow.queue_limit = 16;
  options.flow.mark_threshold = 8;
  options.flow.admission.enabled = true;
  options.flow.admission.message_budget[traffic_class_index(
      TrafficClass::Bulk)] = 1;
  FanRig rig(net::tcp_fast_ethernet(), options);
  rig.fabric.metrics().enable();
  const auto times = run_transfers(
      rig.engine, [&rig](NodeRank r) -> VcEndpoint& { return rig.ep(r); },
      {{4, 6, 512 * 1024}, {1, 5, 64 * 1024, sim::milliseconds(1)}});
  EXPECT_GE(
      rig.fabric.metrics().counter("flow.reject_retries", "node=1").value,
      1u);
  return outcome_of(*rig.vc, 7, times);
}

struct RelayCase {
  const char* name;
  std::function<Outcome()> run;
  Outcome expected;
};

void PrintTo(const RelayCase& c, std::ostream* os) { *os << c.name; }

class RelayPaths : public ::testing::TestWithParam<RelayCase> {};

TEST_P(RelayPaths, DeliversWithPinnedTimingAndStats) {
  const RelayCase& c = GetParam();
  const Outcome got = c.run();
  EXPECT_EQ(got.delivered_at, c.expected.delivered_at);
  ASSERT_EQ(got.stats.size(), c.expected.stats.size());
  for (std::size_t rank = 0; rank < got.stats.size(); ++rank) {
    EXPECT_EQ(got.stats[rank], c.expected.stats[rank]) << "node " << rank;
  }
  EXPECT_EQ(got.rdma, c.expected.rdma);
}

// A moved value here is a change of relay behaviour, never a refactor.
INSTANTIATE_TEST_SUITE_P(
    Gateway, RelayPaths,
    ::testing::Values(
        RelayCase{"PlainDepth1Rdma",
                  plain_depth1_rdma,
                  {{32617710},
                   {"", "msgs=1 paquets=8 bytes=1048576", ""},
                   "writes=8 rendezvous=1 hits=7 misses=2"}},
        RelayCase{"ReliableWindow1Rdma",
                  [] { return reliable_rdma(1); },
                  {{57169963},
                   {"acked=67", "paquets=65 bytes=1048576 acked=66", ""},
                   "writes=65 rendezvous=1 hits=63 misses=3"}},
        RelayCase{"ReliableWindow4Rdma",
                  [] { return reliable_rdma(4); },
                  {{32205284},
                   {"acked=67", "paquets=65 bytes=1048576 acked=67", ""},
                   "writes=65 rendezvous=1 hits=60 misses=6"}},
        RelayCase{"ReliableStriped",
                  reliable_striped,
                  {{31574294},
                   {"acked=132", "paquets=33 bytes=524800 acked=66",
                    "paquets=32 bytes=523776 acked=64", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"Window4DownstreamCrash",
                  downstream_crash,
                  {{622997235},
                   {"acked=67",
                    "msgs=1 paquets=65 bytes=1048576 acked=83 rtx=5 "
                    "timeouts=6 failovers=1 dead=1",
                    "paquets=16 bytes=261888 acked=14",
                    "paquets=65 bytes=1048576 acked=67", "", "", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"Window1DownstreamReject",
                  [] { return downstream_reject(1); },
                  {{81048558, 160875962},
                   {"acked=7",
                    "msgs=1 paquets=5 bytes=65536 acked=7 flow_rejects=6",
                    "msgs=2 paquets=38 bytes=589824 adm_rejects=6 acked=42 "
                    "stale=6",
                    "", "acked=35", "", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"Window4DownstreamReject",
                  [] { return downstream_reject(4); },
                  {{46748386, 85693524},
                   {"acked=7",
                    "msgs=1 paquets=5 bytes=65536 acked=7 flow_rejects=6",
                    "msgs=2 paquets=38 bytes=589824 marks=22 adm_rejects=6 "
                    "acked=42 stale=24",
                    "", "acked=35 cmarks=22", "", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}}),
    [](const ::testing::TestParamInfo<RelayCase>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Origin, RelayPaths,
    ::testing::Values(
        RelayCase{"PlainStriped",
                  plain_striped,
                  {{16416347},
                   {"", "msgs=1 paquets=32 bytes=524288",
                    "msgs=1 paquets=32 bytes=524288", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"Window1FirstGatewayCrash",
                  [] { return origin_gateway_crash(1); },
                  {{660114447},
                   {"acked=85 rtx=5 timeouts=6 failovers=1 dead=1",
                    "paquets=18 bytes=294624",
                    "paquets=65 bytes=1048576 acked=66", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"Window4FirstGatewayCrash",
                  [] { return origin_gateway_crash(4); },
                  {{631695587},
                   {"acked=85 rtx=5 timeouts=6 failovers=1 dead=1",
                    "paquets=21 bytes=343728 acked=17 rtx=5 timeouts=6",
                    "paquets=65 bytes=1048576 acked=67", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"StripedRailCrash",
                  striped_rail_crash,
                  {{631191458},
                   {"acked=149 rtx=5 timeouts=6 failovers=1 dead=1",
                    "paquets=10 bytes=163680",
                    "paquets=65 bytes=1048576 acked=130", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"StaleRouteReroute",
                  stale_route_reroute,
                  {{612483610, 627145982},
                   {"acked=47 rtx=6 timeouts=7 failovers=1 dead=1",
                    "paquets=9 bytes=147312",
                    "msgs=1 paquets=34 bytes=524288 acked=37 dup=1 stale=2",
                    ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}},
        RelayCase{"FirstGatewayReject",
                  origin_reject,
                  {{46748386, 81006069},
                   {"", "acked=7 flow_rejects=5",
                    "msgs=2 paquets=38 bytes=589824 marks=22 adm_rejects=5 "
                    "acked=42 stale=20",
                    "", "acked=35 cmarks=22", "", ""},
                   "writes=0 rendezvous=0 hits=0 misses=0"}}),
    [](const ::testing::TestParamInfo<RelayCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mad::fwd
