// One hop of a forwarded GTM stream (paper §2.3), shared by every sender:
// the origin writer, each stripe rail and the gateway egress.
//
// A forwarded stream is the same on every hop: the forwarded preamble, the
// GTM message header (destination, origin, MTU), an optional stripe
// header, then per block a block header and its MTU-sized paquets, then
// the end marker. Sending it takes two steps:
//   * resolve_hop looks up the route and picks the outgoing channel (the
//     rail's regular channel when the next hop is the destination, its
//     special channel otherwise) and, in reliable mode, a fresh epoch;
//   * a HopStream opens the hop message on that channel and writes the
//     framing, then takes blocks and the end marker — as Express packs in
//     plain mode, through a ReliableSender window in reliable mode.
// The gateway resolves in its ingress actor and opens wherever its egress
// runs. OriginStream adds what only an origin can do: keep a replay log
// and, after a failed, refused or stale hop, reopen on a fresh route and
// replay the message until it gets through. read_hop_block_header and
// read_hop_fragments are the receive side.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "fwd/reliable.hpp"
#include "mad/message.hpp"
#include "topo/routing.hpp"
#include "util/bytes.hpp"

namespace mad::fwd {

class VirtualChannel;

/// Where the next hop message of a stream goes.
struct ResolvedHop {
  Channel* channel = nullptr;
  NodeRank next = -1;
  std::uint64_t route_epoch = 0;  // routing().epoch() at resolve time
  std::uint32_t epoch = 0;        // reliable: fresh tx_epoch toward `next`
};

/// Resolves the first hop of `route` (taken by value: a concurrent
/// mark_dead rebuilds the routing table) on the channel pair of `rail`.
/// In reliable mode takes a fresh tx_epoch on the hop's connection.
ResolvedHop resolve_hop(VirtualChannel& vc, NodeRank self, topo::Route route,
                        int rail);

/// Resolves the current route from `self` to `dst`. In reliable mode it
/// first panics with the "unreachable" diagnosis (VirtualChannel::
/// fail_over) when no route survives.
ResolvedHop resolve_hop(VirtualChannel& vc, NodeRank self, NodeRank dst,
                        int rail);

/// One open hop message of a forwarded stream. Not movable: the reliable
/// window keeps a reference to the writer, so owners hold it in place or
/// on the heap.
class HopStream {
 public:
  /// begin_packing toward `hop`, then the preamble, `header` (its epoch
  /// set to the hop's in reliable mode) and `stripe`. A reliable header
  /// adds a window that re-sends exactly that framing with every paquet-0
  /// retransmission.
  HopStream(VirtualChannel& vc, NodeRank self, const ResolvedHop& hop,
            GtmMsgHeader header,
            const std::optional<GtmStripeHeader>& stripe = std::nullopt);

  HopStream(const HopStream&) = delete;
  HopStream& operator=(const HopStream&) = delete;

  const ResolvedHop& hop() const { return hop_; }
  /// The plain egress writes relay items onto the hop message directly.
  MessageWriter& writer() { return writer_; }
  /// ReliableSender::make_room on the window (reliable streams only).
  void make_room(std::size_t slots) { sender_->make_room(slots); }

  void block_header(const GtmBlockHeader& header);
  /// One paquet of payload; `one_sided` as in ReliableSender::send.
  void fragment(util::ByteSpan data, bool one_sided = false);
  /// A block header followed by the block's MTU-sized fragments.
  void block(const GtmBlockHeader& header, util::ByteSpan data);
  /// The end marker — in reliable mode followed by a flush, so a dead hop
  /// surfaces here as HopFailure — then closes the hop message.
  void end();
  /// Drops the window with whatever is still in flight and closes the hop
  /// message; Express packing leaves nothing buffered, so this does not
  /// block and releases the connection's tx lock. No-op once closed.
  void abandon();
  /// True when the route table moved since resolve AND the next hop is
  /// now dead: the stream can only time out. (Either alone is not enough:
  /// any cost refresh moves the epoch, and is_dead() reads state a
  /// concurrent rebuild replaces.)
  bool stale() const;

 private:
  VirtualChannel& vc_;
  ResolvedHop hop_;
  MessageWriter writer_;
  // Heap-held (it is large) and declared after writer_, which it
  // references.
  std::unique_ptr<ReliableSender> sender_;
  std::uint32_t seq_ = 0;
  bool closed_ = false;
};

/// A forwarded stream at its origin: a VcMessageWriter's single rail or
/// one stripe rail. Heap-stable callers (the writer holds it through a
/// unique_ptr) may be moved at any point.
///
/// In reliable mode every block is logged — the single-rail writer keeps
/// copies, a stripe rail keeps spans (the striper snapshots Safer data) —
/// and the replay loop runs after a HopFailure (fail_over declares the hop
/// dead), a FlowRejected (reject backoff) or a stale route (reroute
/// metric): it resolves and opens a fresh hop and replays the log, until
/// the message gets through or no route is left.
class OriginStream {
 public:
  /// Sends one logged block onto a hop: HopStream::block unless the
  /// caller wraps it (a stripe rail meters every send).
  using Emit = std::function<void(HopStream&, const GtmBlockHeader&,
                                  util::ByteSpan)>;

  /// Opens the first hop along `route` (a stripe rail's planned route;
  /// replays take the current best route).
  OriginStream(VirtualChannel& vc, NodeRank src, NodeRank dst,
               topo::Route route,
               std::optional<GtmStripeHeader> stripe = std::nullopt,
               Emit emit = nullptr);

  void block(const GtmBlockHeader& header, util::ByteSpan data);
  void end();

 private:
  struct Logged {
    GtmBlockHeader header;
    util::ByteSpan data;
  };

  void open(const ResolvedHop& hop);
  /// Sends the logged blocks from `first` on (and, `finishing`, the end
  /// marker); the replay loop reopens and resends the whole log until the
  /// message gets through.
  void deliver(std::size_t first, bool finishing);
  /// Closes the failed, refused or stale stream, runs the failover or
  /// backoff it calls for, and opens a fresh hop on the current route.
  void reopen_after(const HopFailure* failed, bool rejected);

  VirtualChannel& vc_;
  NodeRank src_;
  NodeRank dst_;
  GtmMsgHeader header_;
  std::optional<GtmStripeHeader> stripe_;
  Emit emit_;
  std::unique_ptr<HopStream> stream_;
  std::vector<Logged> log_;
  // Single-rail writer only. Logged spans point into these buffers, which
  // stay put when the outer vector grows (moving a vector keeps its
  // buffer).
  std::vector<std::vector<std::byte>> copies_;
  // Consecutive admission rejections of this message (backoff exponent).
  int reject_attempts_ = 0;
};

/// Receive side of a hop stream: the next block header, through the
/// reliable window `rx` (reliable paquet `seq++`) or, with `rx` null,
/// straight off `in`.
GtmBlockHeader read_hop_block_header(MessageReader& in, ReliableReceiver* rx,
                                     std::uint32_t& seq);

/// The MTU-sized fragments of a block into `dst` (its announced size).
void read_hop_fragments(MessageReader& in, ReliableReceiver* rx,
                        std::uint32_t& seq, util::MutByteSpan dst,
                        std::uint32_t mtu);

}  // namespace mad::fwd
