// Virtual-channel extras: non-blocking/timed receive, multiple virtual
// channels coexisting, endpoint inbox introspection, moving a reliable
// forwarded writer mid-message, and a randomized multi-node soak test.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "support/coc_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::PaperRig;

TEST(VcExtras, TryBeginUnpackingEmptyReturnsNullopt) {
  PaperRig rig;
  rig.engine.spawn("r", [&] {
    EXPECT_FALSE(rig.ep(rig.sci_node()).try_begin_unpacking().has_value());
    EXPECT_EQ(rig.ep(rig.sci_node()).pending_messages(), 0u);
  });
  rig.engine.run();
}

TEST(VcExtras, BeginUnpackingUntilTimesOut) {
  PaperRig rig;
  rig.engine.spawn("r", [&] {
    auto msg =
        rig.ep(rig.sci_node()).begin_unpacking_until(sim::microseconds(200));
    EXPECT_FALSE(msg.has_value());
    EXPECT_EQ(rig.engine.now(), sim::microseconds(200));
  });
  rig.engine.run();
}

TEST(VcExtras, BeginUnpackingUntilGetsForwardedMessage) {
  PaperRig rig;
  util::Rng rng(1);
  const auto payload = rng.bytes(10'000);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking_until(sim::seconds(1));
    ASSERT_TRUE(msg.has_value());
    std::vector<std::byte> out(10'000);
    msg->unpack(out);
    msg->end_unpacking();
    EXPECT_EQ(out, payload);
  });
  rig.engine.run();
}

TEST(VcExtras, ReliableForwardedWriterMovesAfterFirstPack) {
  // A writer is a value: moving it between packs (into a container, out of
  // a helper) must keep the open hop stream working. The moved-from writer
  // is destroyed before the next pack.
  VcOptions options;
  options.reliable.enabled = true;
  options.reliable.window = 4;
  PaperRig rig(options);
  util::Rng rng(7);
  const auto first = rng.bytes(40'000);
  const auto second = rng.bytes(25'000);
  std::vector<std::byte> got_first(first.size());
  std::vector<std::byte> got_second(second.size());
  rig.engine.spawn("s", [&] {
    std::optional<VcMessageWriter> old_writer(
        rig.ep(rig.myri_node()).begin_packing(rig.sci_node()));
    old_writer->pack(first);
    VcMessageWriter msg(std::move(*old_writer));
    old_writer.reset();
    msg.pack(second);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(got_first);
    msg.unpack(got_second);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(got_first, first);
  EXPECT_EQ(got_second, second);
}

TEST(VcExtras, PollingLoopWithTryReceive) {
  // A node alternating between "compute" and polling for messages — the
  // pattern that motivates non-blocking receive.
  PaperRig rig;
  util::Rng rng(2);
  const auto payload = rng.bytes(4'096);
  int polls = 0;
  bool got = false;
  rig.engine.spawn("s", [&] {
    rig.engine.sleep_for(sim::microseconds(700));
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    while (!got) {
      rig.engine.sleep_for(sim::microseconds(100));  // "compute"
      ++polls;
      if (auto msg = rig.ep(rig.sci_node()).try_begin_unpacking()) {
        std::vector<std::byte> out(4'096);
        msg->unpack(out);
        msg->end_unpacking();
        EXPECT_EQ(out, payload);
        got = true;
      }
      ASSERT_LT(polls, 1000) << "message never arrived";
    }
  });
  rig.engine.run();
  EXPECT_TRUE(got);
  EXPECT_GT(polls, 5);  // it really did poll a while first
}

TEST(VcExtras, TwoVirtualChannelsCoexist) {
  // Two independent virtual channels over the same fabric — e.g. one for
  // control and one for bulk — with their own gateways and inboxes.
  PaperRig rig;  // builds vc "vc"
  fwd::VcOptions bulk_options;
  bulk_options.paquet_size = 64 * 1024;
  VirtualChannel bulk(*rig.domain, "bulk",
                      std::vector<net::Network*>{&rig.myri, &rig.sci},
                      bulk_options);
  util::Rng rng(3);
  const auto control = rng.bytes(64);
  const auto data = rng.bytes(300'000);
  int delivered = 0;
  rig.engine.spawn("s", [&] {
    auto c = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    c.pack(control);
    c.end_packing();
    auto d = bulk.endpoint(rig.myri_node()).begin_packing(rig.sci_node());
    d.pack(data);
    d.end_packing();
  });
  rig.engine.spawn("r", [&] {
    // Bulk first, then control — cross-channel order is free.
    std::vector<std::byte> bulk_out(300'000);
    auto d = bulk.endpoint(rig.sci_node()).begin_unpacking();
    d.unpack(bulk_out);
    d.end_unpacking();
    EXPECT_EQ(bulk_out, data);
    ++delivered;
    std::vector<std::byte> ctrl_out(64);
    auto c = rig.ep(rig.sci_node()).begin_unpacking();
    c.unpack(ctrl_out);
    c.end_unpacking();
    EXPECT_EQ(ctrl_out, control);
    ++delivered;
  });
  rig.engine.run();
  EXPECT_EQ(delivered, 2);
}

TEST(VcExtras, WholeStackIsDeterministic) {
  // Two identical cluster-of-clusters runs must agree on every virtual
  // timestamp and on the engine's context-switch count — the property
  // that makes all figure benches reproducible bit-for-bit.
  auto run_once = [] {
    PaperRig rig({}, 2, 2);
    util::Rng rng(99);
    const auto payload = rng.bytes(200'000);
    rig.engine.spawn("s", [&] {
      for (int i = 0; i < 3; ++i) {
        auto msg = rig.ep(rig.myri_node(i % 2)).begin_packing(
            rig.sci_node(i % 2));
        msg.pack(payload);
        msg.end_packing();
      }
    });
    for (int r = 0; r < 2; ++r) {
      rig.engine.spawn("r" + std::to_string(r), [&rig, &payload, r] {
        const int expected = r == 0 ? 2 : 1;
        for (int i = 0; i < expected; ++i) {
          std::vector<std::byte> out(payload.size());
          auto msg = rig.ep(rig.sci_node(r)).begin_unpacking();
          msg.unpack(out);
          msg.end_unpacking();
        }
      });
    }
    rig.engine.run();
    return std::make_pair(rig.engine.now(), rig.engine.context_switches());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// Soak test: random many-to-many traffic over the paper topology with
// several nodes per cluster, checksum-verified, seeds parameterized.
class VcSoak : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, VcSoak, ::testing::Range(0, 4));

TEST_P(VcSoak, RandomTrafficAllDelivered) {
  const int seed = GetParam();
  PaperRig rig({}, /*myri_endpoints=*/2, /*sci_endpoints=*/2);
  // Participants: all nodes including the gateway.
  std::vector<NodeRank> nodes = {0, 1, 2, 3, 4};
  constexpr int kMessagesPerNode = 6;

  // Pre-generate the traffic pattern so senders/receivers agree.
  struct Msg {
    NodeRank src, dst;
    std::vector<std::byte> payload;
  };
  util::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  std::vector<Msg> traffic;
  std::map<NodeRank, int> expected;
  for (const NodeRank src : nodes) {
    for (int i = 0; i < kMessagesPerNode; ++i) {
      NodeRank dst = src;
      while (dst == src) {
        dst = nodes[rng.next_below(nodes.size())];
      }
      traffic.push_back({src, dst, rng.bytes(rng.next_between(1, 60'000))});
      ++expected[dst];
    }
  }

  std::map<NodeRank, int> received;
  int verified = 0;
  for (const NodeRank node : nodes) {
    rig.engine.spawn("node" + std::to_string(node), [&, node] {
      // Send my share (in global order), interleaved with receives.
      std::size_t next_send = 0;
      int to_recv = expected.count(node) ? expected[node] : 0;
      int sent = 0;
      while (sent < kMessagesPerNode || to_recv > 0) {
        // Send one if any left.
        for (; next_send < traffic.size(); ++next_send) {
          if (traffic[next_send].src == node) {
            const Msg& m = traffic[next_send];
            auto w = rig.ep(node).begin_packing(m.dst);
            w.pack_value(util::fnv1a(m.payload));
            w.pack_value(static_cast<std::uint64_t>(m.payload.size()));
            w.pack(m.payload);
            w.end_packing();
            ++sent;
            ++next_send;
            break;
          }
        }
        // Drain anything pending.
        while (to_recv > 0) {
          auto r = sent < kMessagesPerNode
                       ? rig.ep(node).try_begin_unpacking()
                       : std::optional<VcMessageReader>(
                             rig.ep(node).begin_unpacking());
          if (!r) {
            break;
          }
          const auto checksum = r->unpack_value<std::uint64_t>();
          const auto size = r->unpack_value<std::uint64_t>();
          std::vector<std::byte> body(size);
          r->unpack(body);
          r->end_unpacking();
          EXPECT_EQ(util::fnv1a(body), checksum);
          ++verified;
          --to_recv;
          ++received[node];
        }
      }
    });
  }
  rig.engine.run();
  EXPECT_EQ(verified, static_cast<int>(traffic.size()));
  for (const auto& [node, count] : expected) {
    EXPECT_EQ(received[node], count) << "node " << node;
  }
}

}  // namespace
}  // namespace mad::fwd
