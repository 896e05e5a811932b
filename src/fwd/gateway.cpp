// Gateway forward-listeners and the relay pipeline (paper §2.2.2, Fig 4).
//
// Per (gateway node, bridged network, rail) a daemon actor listens on that
// network's SPECIAL channel. Each arriving message is a GTM stream; the
// listener decides the outgoing real channel from the routing table
// (special channel toward the next gateway, regular channel toward the
// final destination — the paper's two-gateway disambiguation) and relays
// the stream through one pipeline (fwd/pipeline.hpp):
//   * ingress reads the stream paquet by paquet, with the plain reader
//     through the §2.3 zero-copy matrix or with a ReliableReceiver into a
//     stored copy;
//   * a RelayItem queue carries block headers, fragments and the end
//     marker;
//   * egress writes the items onto a HopStream (fwd/hop.hpp) — plain ones
//     with send_relay_item, reliable ones through its window.
// The ingress resolves the next hop; the egress opens the hop stream.
// The options pick the schedule:
//   plain, pipeline_depth 1      egress inline, one item at a time;
//   plain, pipeline_depth d > 1  a sender actor behind a (d - 1)-item
//                                mailbox — the paper's two threads, two
//                                buffers: paquet k goes out while paquet
//                                k+1 comes in;
//   reliable, window 1 / striped ingress stores the whole message, then
//                                the egress runs inline;
//   reliable, window > 1         a sender actor behind an unbounded
//                                mailbox (flow mode: queue_limit x weight).
// A failed or refused reliable attempt replays the stored copy through the
// same egress, inline, on a fresh route.
#include "fwd/gateway.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fwd/hop.hpp"
#include "fwd/pipeline.hpp"
#include "fwd/regulation.hpp"
#include "fwd/reliable.hpp"
#include "fwd/virtual_channel.hpp"
#include "mad/copy_stats.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

/// RAII bracket around one scheduled egress bundle: acquires the DRR
/// grant on construction, releases it on destruction — including the
/// HopFailure unwind out of ReliableSender::send, where a leaked grant
/// would wedge every other flow on the gateway forever. No-op when flow
/// scheduling is off (sched == nullptr).
class FlowGrant {
 public:
  FlowGrant(FlowScheduler* sched, int flow, std::uint64_t bytes)
      : sched_(sched), flow_(flow) {
    if (sched_ != nullptr) {
      sched_->acquire(flow_, bytes);
    }
  }
  ~FlowGrant() {
    if (sched_ != nullptr) {
      sched_->release(flow_);
    }
  }
  FlowGrant(const FlowGrant&) = delete;
  FlowGrant& operator=(const FlowGrant&) = delete;

 private:
  FlowScheduler* sched_;
  int flow_;
};

struct StoredBlock {
  GtmBlockHeader header;
  std::vector<std::byte> data;
};

/// The stored copy's items in stream order, for a replay through the
/// reliable egress (the recv/peek surface it uses of sim::Mailbox).
class Replay {
 public:
  Replay(const std::deque<StoredBlock>& blocks, std::uint32_t mtu) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const GtmBlockHeader& bh = blocks[b].header;
      items_.push_back(RelayItem::block(bh));
      for (std::uint64_t i = 0; i < fragment_count(bh.size, mtu); ++i) {
        items_.push_back(RelayItem::stored(
            b, i * mtu, fragment_size(bh.size, mtu, i), /*enq_at=*/0));
      }
    }
    items_.push_back(RelayItem::end());
  }
  RelayItem recv() {
    RelayItem item = std::move(items_.front());
    items_.pop_front();
    return item;
  }
  const RelayItem* peek() const {
    return items_.empty() ? nullptr : &items_.front();
  }

 private:
  std::deque<RelayItem> items_;
};

/// How one reliable egress attempt ended.
struct Attempt {
  std::optional<HopFailure> failure;  // the next hop exhausted its retries
  bool rejected = false;  // the next gateway's admission gate refused it
  bool delivered() const { return !failure && !rejected; }
};

/// The item queue of the sender-actor schedules. Heap-owned and shared
/// with the sender actor: during engine shutdown the ingress may unwind
/// (and its stack frame be reused) while the sender is still parked
/// inside items.recv(); stack-allocating this state was a use-after-free
/// (see the regression in tests/fwd/test_failures.cpp).
struct RelayQueue {
  RelayQueue(sim::Engine& engine, std::size_t capacity,
             const std::string& name)
      : items(engine, capacity, name), done(engine, name + ".done") {}
  sim::Mailbox<RelayItem> items;
  sim::Condition done;
  bool finished = false;
  // Reliable cut-through: the stored copy (a deque, so slices the sender
  // reads stay put while the ingress appends) and the attempt's outcome.
  std::deque<StoredBlock> blocks;
  Attempt attempt;
};

/// Per (gateway, incoming network, rail) relay state, reused across
/// messages. Heap-owned (shared_ptr): a sender actor keeps using this
/// state (free-buffer pool, regulator, flow scheduler) after the listener
/// actor's stack may already have unwound during engine shutdown.
class GatewayRelay : public std::enable_shared_from_this<GatewayRelay> {
 public:
  GatewayRelay(VirtualChannel& vc, NodeRank self, int in_local_net, int rail)
      : vc_(vc),
        self_(self),
        rail_(rail),
        in_channel_(vc.rail_special_channel(in_local_net, rail, self)),
        engine_(vc.domain().engine()),
        free_buffers_(engine_, 0,
                      vc.name() + ".gwbuf." + std::to_string(self)),
        regulator_(engine_, vc.options().regulation_rate),
        flow_turn_(engine_,
                   vc.name() + ".gwturn." + std::to_string(self)) {
    for (int i = 0; i < vc.options().pipeline_depth; ++i) {
      free_buffers_.send(std::vector<std::byte>(vc.mtu()));
    }
    if (vc.options().flow.enabled) {
      const std::uint64_t quantum = vc.options().flow.quantum != 0
                                        ? vc.options().flow.quantum
                                        : vc.mtu();
      flow_sched_ = std::make_unique<FlowScheduler>(
          engine_, quantum,
          vc.name() + ".gwflow." + std::to_string(self));
      if (vc.options().flow.admission.enabled) {
        admission_ =
            std::make_unique<AdmissionController>(vc.options().flow.admission);
      }
    }
  }

  Channel& in_channel() const { return in_channel_; }

  /// Multi-flow forwarding: the accept loop dispatches each message to its
  /// own actor instead of relaying inline (spawn_gateway_actors).
  bool flow_mode() const { return flow_sched_ != nullptr; }

  /// Arrival-order ticket for a message from upstream hop `from`. Messages
  /// sharing an upstream hop share that hop's rx stream, so their relay
  /// actors must read it strictly in arrival order; messages from distinct
  /// hops interleave freely (independent connections).
  std::uint64_t issue_ticket(NodeRank from) {
    return flow_next_ticket_[from]++;
  }
  void await_turn(NodeRank from, std::uint64_t ticket) {
    while (flow_serving_[from] != ticket) {
      flow_turn_.wait();
    }
  }
  void finish_turn(NodeRank from) {
    ++flow_serving_[from];
    flow_turn_.notify_all();
  }

  /// Parses the head of an accepted stream and relays the message. A
  /// PeerDied abandons it: the upstream (or this gateway itself) died
  /// mid-message, and the origin replays on a surviving route.
  void relay_stream(MessageReader& in) {
    try {
      // Reliable boundary parse: skips late retransmits and ghost framing
      // of streams this relay already completed.
      std::optional<GtmMsgHeader> header;
      const Preamble preamble =
          vc_.reliable() ? vc_.read_stream_head(in, in_channel_, self_, header)
                         : read_preamble(in);
      MAD_ASSERT(preamble.forwarded != 0,
                 "native message on a special channel");
      relay_message(std::move(in), header);
    } catch (const PeerDied&) {
    }
  }

 private:
  void relay_message(MessageReader in, std::optional<GtmMsgHeader> pre_hdr) {
    // In reliable mode relay_stream already parsed the header (its epoch
    // feeds the ghost filter in read_stream_head).
    const GtmMsgHeader hdr = pre_hdr ? *pre_hdr : read_msg_header(in);
    // A striped rail carries its GtmStripeHeader on every hop; the relay
    // forwards it verbatim. Rail identity is implied by the channel pair
    // this relay serves, so the pipeline below needs no other change.
    std::optional<GtmStripeHeader> stripe;
    if ((hdr.flags & kGtmFlagStriped) != 0) {
      stripe = read_stripe_header(in);
      MAD_ASSERT(stripe->rail == static_cast<std::uint16_t>(rail_),
                 "rail relayed on the wrong stripe channel");
    }
    const auto dst = static_cast<NodeRank>(hdr.final_dst);
    MAD_ASSERT(dst != self_,
               "message to the gateway itself must use a regular channel");
    const TrafficClass cls = traffic_class_from_wire(hdr.traffic_class);
    // Admission control exists only in flow mode, which VcOptions::validate
    // restricts to reliable channels.
    if (admission_ != nullptr) {
      const bool new_flow =
          flow_ids_.find({static_cast<NodeRank>(hdr.origin),
                          static_cast<int>(traffic_class_index(cls))}) ==
          flow_ids_.end();
      const AdmissionController::Verdict verdict =
          admission_->admit(cls, new_flow);
      if (verdict != AdmissionController::Verdict::Admit) {
        reject_message(in, hdr, cls, verdict);
        return;
      }
      admission_->on_message_admitted(cls);
    }
    try {
      if ((hdr.flags & kGtmFlagReliable) != 0) {
        relay_reliable(in, hdr, stripe, dst, cls);
      } else {
        relay_plain(in, hdr, stripe, dst);
      }
    } catch (...) {
      if (admission_ != nullptr) {
        admission_->on_message_done(cls);
      }
      throw;
    }
    if (admission_ != nullptr) {
      admission_->on_message_done(cls);
    }
    in.end_unpacking();
    ++vc_.mutable_gateway_stats(self_).messages_forwarded;
  }

  // ------------------------------------------------------------ schedules

  /// Plain relay: the egress runs inline at pipeline depth 1, else in a
  /// sender actor behind a (depth - 1)-item mailbox.
  void relay_plain(MessageReader& in, const GtmMsgHeader& hdr,
                   const std::optional<GtmStripeHeader>& stripe,
                   NodeRank dst) {
    const ResolvedHop hop = resolve_hop(vc_, self_, dst, rail_);
    const int depth = vc_.options().pipeline_depth;
    if (depth == 1) {
      HopStream out(vc_, self_, hop, hdr, stripe);
      ingress_plain(in, hop, [&](RelayItem item) {
        send_plain(out, std::move(item));
      });
      return;
    }
    const auto queue = spawn_sender(
        static_cast<std::size_t>(depth - 1),
        [self = shared_from_this(), hop, hdr, stripe](RelayQueue& q) {
          HopStream out(self->vc_, self->self_, hop, hdr, stripe);
          while (self->send_plain(out, q.items.recv())) {
          }
        });
    ingress_plain(in, hop, [&](RelayItem item) {
      queue->items.send(std::move(item));
    });
    await_sender(*queue);
  }

  /// Reliable relay. The ingress acks every paquet as it lands, so the
  /// upstream hop cannot be asked again: the relay keeps a stored copy,
  /// and a failed or refused egress attempt replays it on a fresh route.
  ///
  /// At window 1 — and on striped rails, whose reassembly protocol assumes
  /// a rail appears downstream all-or-nothing — the relay stores the whole
  /// message before the egress starts, so a downstream failure never has
  /// to propagate back. With window > 1 it cuts through: a sender actor
  /// drains the items while the ingress receives the next paquet. Known
  /// limitation: if THIS gateway crashes after the upstream acks completed
  /// but before downstream delivery, the message is lost (end-to-end acks
  /// would be needed to close that window).
  void relay_reliable(MessageReader& in, const GtmMsgHeader& hdr,
                      const std::optional<GtmStripeHeader>& stripe,
                      NodeRank dst, TrafficClass cls) {
    const NodeRank origin = static_cast<NodeRank>(hdr.origin);
    const int flow = flow_id_for(origin, cls);
    // detect_dead: an upstream that dies (or is rerouted away) mid-stream
    // abandons its half-sent message, and a blocking receiver would wait
    // on the rest of it forever.
    ReliableReceiver rx(vc_, self_, in_channel_, in.source(), hdr.epoch,
                        /*detect_dead=*/true);
    if (vc_.options().reliable.window == 1 || stripe) {
      std::deque<StoredBlock> blocks;
      ingress_reliable(rx, in, hdr, blocks, [](RelayItem) {});
      deliver_stored(blocks, hdr, stripe, dst, flow, cls);
      return;
    }
    // The item mailbox is unbounded by default: every fragment is stored
    // for replay anyway, so cut-through depth costs no extra memory and
    // the ingress must never block behind a sender that is busy
    // retransmitting (or already failed). In flow mode it is bounded at
    // queue_limit x weight instead — a full queue blocks this flow's
    // ingress, which stalls its hop acks and backpressures the origin's
    // window, while the sender keeps draining after a failure so the bound
    // cannot deadlock the pair. A weight-w flow drains w quanta per DRR
    // round, so both its queue bound and its mark point scale with the
    // weight — otherwise its visits go underfilled.
    const ResolvedHop hop = resolve_hop(vc_, self_, dst, rail_);
    const auto queue = spawn_sender(
        flow_sched_ != nullptr
            ? static_cast<std::size_t>(
                  static_cast<double>(vc_.options().flow.queue_limit) *
                  std::max(1.0, flow_sched_->weight_of(flow)))
            : 0,
        [self = shared_from_this(), hop, hdr, flow, cls](RelayQueue& q) {
          q.attempt = self->send_reliable(q.items, hop, hdr, std::nullopt,
                                          q.blocks, flow, cls,
                                          /*account=*/true);
        });
    std::optional<PeerDied> upstream_died;
    try {
      ingress_reliable(rx, in, hdr, queue->blocks, [&](RelayItem item) {
        const bool fragment = item.kind == RelayItem::Kind::FragmentStored;
        const std::size_t size = item.size;
        queue->items.send(std::move(item));
        if (fragment) {
          note_enqueue(cls, size);
          if (flow_sched_ != nullptr) {
            note_flow_depth(rx, origin, flow, queue->items.size());
          }
        }
      });
    } catch (const PeerDied& dead) {
      upstream_died = dead;
      queue->items.send(RelayItem::abort());
    }
    await_sender(*queue);
    if (upstream_died) {
      // Upstream died (or this gateway's own NIC crashed) mid-stream:
      // abandon the partial relay — the origin replays on a surviving
      // route, and downstream readers adopt the replayed stream.
      throw *upstream_died;
    }
    if (queue->attempt.delivered() || vc_.node_crashed(self_)) {
      return;
    }
    recover(queue->attempt, dst, /*rejects=*/0);
    deliver_stored(queue->blocks, hdr, std::nullopt, dst, flow, cls);
  }

  /// Inline egress of the stored copy, retried on a fresh route after every
  /// failed or refused attempt (or an "unreachable" panic when no route is
  /// left).
  void deliver_stored(const std::deque<StoredBlock>& blocks,
                      const GtmMsgHeader& hdr,
                      const std::optional<GtmStripeHeader>& stripe,
                      NodeRank dst, int flow, TrafficClass cls) {
    const sim::Time start = engine_.now();
    for (int rejects = 0;;) {
      // This gateway's own NIC crashed (even if it has recovered since
      // the replay began): stand down quietly instead of declaring healthy
      // peers dead off our suppressed acks.
      if (vc_.node_crashed_within(self_, start)) {
        return;
      }
      Replay items(blocks, vc_.mtu());
      const Attempt attempt =
          send_reliable(items, resolve_hop(vc_, self_, dst, rail_), hdr,
                        stripe, blocks, flow, cls, /*account=*/false);
      if (attempt.delivered() || vc_.node_crashed_within(self_, start)) {
        return;
      }
      recover(attempt, dst, rejects);
      if (attempt.rejected) {
        ++rejects;
      }
    }
  }

  /// Between reliable attempts: back off after a refusal (a gateway chain
  /// whose NEXT gateway is itself overloaded; the hop is healthy), else
  /// declare the failed hop dead and fail over.
  void recover(const Attempt& attempt, NodeRank dst, int rejects) {
    if (attempt.rejected) {
      vc_.reject_backoff(self_, rejects,
                         (static_cast<std::uint64_t>(self_) << 40) ^
                             static_cast<std::uint64_t>(rejects),
                         "attempts=" + std::to_string(rejects));
    } else {
      vc_.fail_over(self_, dst, &*attempt.failure);
    }
  }

  /// Starts a sender-actor schedule: `egress` drains a fresh item queue
  /// of `capacity` (0 = unbounded) in an actor of its own, while the
  /// caller's ingress fills it and then meets the sender in await_sender.
  std::shared_ptr<RelayQueue> spawn_sender(
      std::size_t capacity, std::function<void(RelayQueue&)> egress) {
    auto queue = std::make_shared<RelayQueue>(
        engine_, capacity, vc_.name() + ".gwitems." + std::to_string(self_));
    engine_.spawn(vc_.name() + ".gwsend." + std::to_string(self_),
                  [queue, egress = std::move(egress)] {
                    egress(*queue);
                    queue->finished = true;
                    queue->done.notify_all();
                  });
    return queue;
  }

  void await_sender(RelayQueue& queue) {
    while (!queue.finished) {
      queue.done.wait();
    }
  }

  // -------------------------------------------------------------- ingress

  /// Plain ingress: block headers, fragments received through the §2.3
  /// zero-copy matrix, and the end marker. A block header item carries the
  /// one-sided flag, so whoever runs the egress pays the rendezvous — with
  /// a sender actor the handshake overlaps the next receive like any
  /// other egress cost.
  template <class Emit>
  void ingress_plain(MessageReader& in, const ResolvedHop& hop, Emit&& emit) {
    for (;;) {
      const GtmBlockHeader bh = read_block_header(in);
      if (bh.end_of_message != 0) {
        emit(RelayItem::end());
        return;
      }
      const bool one_sided = rdma_block(*hop.channel, bh.size);
      emit(RelayItem::block(bh, one_sided));
      const std::uint64_t fragments = fragment_count(bh.size, vc_.mtu());
      for (std::uint64_t i = 0; i < fragments; ++i) {
        RelayItem item = receive_fragment(
            in, *hop.channel, fragment_size(bh.size, vc_.mtu(), i));
        item.one_sided = one_sided;
        item.completion = one_sided && i + 1 == fragments;
        emit(std::move(item));
      }
    }
  }

  /// Reliable ingress: receives (and acks) the stream into the stored copy
  /// `blocks`, handing each block header, stored fragment and the end
  /// marker to `emit`.
  template <class Emit>
  void ingress_reliable(ReliableReceiver& rx, MessageReader& in,
                        const GtmMsgHeader& hdr,
                        std::deque<StoredBlock>& blocks, Emit&& emit) {
    const NodeRank from = in.source();
    std::uint32_t seq = 0;
    for (;;) {
      const GtmBlockHeader bh = rx.recv_block_header(in, seq++);
      if (bh.end_of_message != 0) {
        vc_.complete_stream(in_channel_, from, hdr.epoch, seq - 1);
        emit(RelayItem::end());
        return;
      }
      blocks.push_back(StoredBlock{bh, std::vector<std::byte>(bh.size)});
      const std::size_t index = blocks.size() - 1;
      emit(RelayItem::block(bh));
      for (std::uint64_t i = 0; i < fragment_count(bh.size, vc_.mtu()); ++i) {
        const std::uint32_t size = fragment_size(bh.size, vc_.mtu(), i);
        const std::uint64_t offset = i * vc_.mtu();
        regulator_.pace(size);
        const sim::Time begin = engine_.now();
        rx.recv(in, seq++,
                util::MutByteSpan(blocks[index].data).subspan(offset, size));
        note_received(begin, size);
        emit(RelayItem::stored(index, offset, size, engine_.now()));
      }
    }
  }

  /// Receives the next paquet of `size` bytes, choosing the §2.3 zero-copy
  /// path from the static/dynamic buffer modes of both sides.
  RelayItem receive_fragment(MessageReader& in, Channel& out_channel,
                             std::uint32_t size) {
    TransmissionModule& in_tm = in_channel_.tm();
    TransmissionModule& out_tm = out_channel.tm();
    const bool in_static = in_tm.model().rx_static();
    const bool out_static = out_tm.model().tx_static();
    const bool zero_copy = vc_.options().zero_copy;

    regulator_.pace(size);
    const sim::Time begin = engine_.now();
    RelayItem item;
    item.size = size;
    if (in_static && zero_copy) {
      // Consume the paquet's protocol buffer directly (the GTM discipline
      // guarantees one express paquet == one static buffer).
      const std::uint64_t rx_tag =
          in_channel_.connection_to(in.source()).rx_tag;
      auto in_ref = in_tm.recv_packet_static(rx_tag);
      MAD_ASSERT(in_ref.used() == size, "paquet/static-buffer size mismatch");
      if (out_static) {
        // static → static: the one unavoidable copy (paper §2.3).
        auto out_ref = out_tm.acquire_static_buffer();
        counted_copy(out_ref.span().first(size), in_ref.data(),
                     CopyPath::ZeroCopy);
        out_ref.set_used(size);
        item.kind = RelayItem::Kind::FragmentStaticOut;
        item.static_out = std::move(out_ref);
      } else {
        // static → dynamic: send straight from the incoming buffer.
        item.kind = RelayItem::Kind::FragmentHoldIn;
        item.hold_in = std::move(in_ref);
      }
    } else if (out_static && zero_copy) {
      // dynamic → static: "ask the outgoing TM for a static buffer which
      // we use to receive data into" (paper §2.3).
      auto out_ref = out_tm.acquire_static_buffer();
      in.unpack(out_ref.span().first(size), SendMode::Cheaper,
                RecvMode::Express);
      out_ref.set_used(size);
      item.kind = RelayItem::Kind::FragmentStaticOut;
      item.static_out = std::move(out_ref);
    } else {
      // dynamic → dynamic (or zero-copy disabled): a recycled pipeline
      // buffer. Still copy-free for dynamic protocols — the NIC scatters
      // into and gathers out of this buffer directly.
      std::vector<std::byte> buffer = free_buffers_.recv();
      in.unpack(util::MutByteSpan(buffer).first(size), SendMode::Cheaper,
                RecvMode::Express);
      item.kind = RelayItem::Kind::FragmentDynamic;
      item.buffer = std::move(buffer);
    }
    note_received(begin, size);
    return item;
  }

  /// Closes every paquet receive: the recv phase, the forwarding counters,
  /// and the software cost of handing the buffer to the egress (measured
  /// ≈40 µs per switch on the paper's testbed, §3.3.1).
  void note_received(sim::Time begin, std::uint32_t size) {
    note_phase("recv", begin, size);
    GatewayStats& stats = vc_.mutable_gateway_stats(self_);
    ++stats.paquets_forwarded;
    stats.bytes_forwarded += size;
    const sim::Time switch_begin = engine_.now();
    engine_.sleep_for(vc_.options().gateway_sw_overhead);
    note_phase("switch", switch_begin);
  }

  // --------------------------------------------------------------- egress

  /// Plain egress of one item; false once the end marker is out.
  bool send_plain(HopStream& out, RelayItem item) {
    if (item.kind == RelayItem::Kind::End) {
      out.end();
      return false;
    }
    const bool fragment = item.kind != RelayItem::Kind::BlockHeader;
    const std::size_t bytes = item.size;
    const sim::Time begin = engine_.now();
    const ResolvedHop& hop = out.hop();
    std::vector<std::byte> buffer = send_relay_item(
        out.writer(), hop.channel->tm(), hop.channel->connection_to(hop.next),
        std::move(item), vc_);
    if (!buffer.empty()) {
      MAD_ASSERT(buffer.size() == vc_.mtu(), "foreign buffer in gw pool");
      free_buffers_.send(std::move(buffer));
    }
    if (fragment) {
      note_phase("send", begin, bytes);
    }
    return true;
  }

  /// Reliable egress: one attempt at writing the queued items onto a fresh
  /// reliable stream toward `hop`. `items` is the live mailbox of the
  /// cut-through schedule or a Replay of the stored copy. With `account`
  /// the items leave the admission byte ledger (only the cut-through queue
  /// is a standing egress queue; a replay is governed by the message
  /// budgets alone).
  template <class Queue>
  Attempt send_reliable(Queue& items, const ResolvedHop& hop,
                        const GtmMsgHeader& hdr,
                        const std::optional<GtmStripeHeader>& stripe,
                        const std::deque<StoredBlock>& blocks, int flow,
                        TrafficClass cls, bool account) {
    Attempt attempt;
    HopStream out(vc_, self_, hop, hdr, stripe);
    bool ended = false;
    try {
      while (!ended) {
        RelayItem item = items.recv();
        ended = item.kind == RelayItem::Kind::End ||
                item.kind == RelayItem::Kind::Abort;
        if (item.kind == RelayItem::Kind::BlockHeader) {
          out.block_header(item.header);
          if (rdma_block(*hop.channel, item.header.size)) {
            rdma_rendezvous(vc_, hop.channel->tm(),
                            hop.channel->connection_to(hop.next),
                            item.header.size);
          }
        } else if (item.kind == RelayItem::Kind::FragmentStored) {
          send_bundle(out, items, std::move(item), blocks, flow, cls,
                      account);
        } else if (item.kind == RelayItem::Kind::End) {
          out.end();
        }
      }
    } catch (const HopFailure& f) {
      attempt.failure = f;
    } catch (const FlowRejected&) {
      // The next hop is itself an overloaded gateway. The hop is
      // healthy — back off and retry, never declare it dead.
      attempt.rejected = true;
    }
    // Keep draining after a failure so a bounded (flow mode) queue
    // cannot wedge the ingress; the stored copy replays afterwards.
    // Drained fragments still leave the admission byte ledger —
    // otherwise a failover would leak their queued bytes against the
    // class budget forever.
    while (!ended) {
      const RelayItem item = items.recv();
      ended = item.kind == RelayItem::Kind::End ||
              item.kind == RelayItem::Kind::Abort;
      if (account && item.kind == RelayItem::Kind::FragmentStored) {
        note_dequeue(cls, item.size, item.enq_at);
      }
    }
    // A failed or aborted attempt only now releases the tx lock.
    out.abandon();
    return attempt;
  }

  /// Sends `head` and the stored fragments queued right behind it as one
  /// deficit-round-robin bundle: up to this flow's per-visit allowance
  /// (quantum x weight), so one grant moves a weight-proportional batch (a
  /// single fragment outside flow mode). The head always goes, even
  /// oversized.
  template <class Queue>
  void send_bundle(HopStream& out, Queue& items, RelayItem head,
                   const std::deque<StoredBlock>& blocks, int flow,
                   TrafficClass cls, bool account) {
    std::uint64_t bytes = head.size;
    std::vector<RelayItem> bundle;
    bundle.push_back(std::move(head));
    while (flow_sched_ != nullptr) {
      const RelayItem* next = items.peek();
      if (next == nullptr || next->kind != RelayItem::Kind::FragmentStored ||
          bytes + next->size > flow_sched_->allowance(flow)) {
        break;
      }
      bytes += next->size;
      bundle.push_back(items.recv());
    }
    // Leaving the item queue IS the dequeue the admission ledger tracks —
    // account before make_room, which can throw (a HopFailure here must
    // not leak the bundle's bytes against the class budget).
    if (account) {
      for (const RelayItem& b : bundle) {
        note_dequeue(cls, b.size, b.enq_at);
      }
    }
    // Drain the window first so the DRR grant below covers only the wire
    // occupancy of the bundle, never an ack round trip — a flow waiting
    // out its window must not hold the egress against every other flow.
    out.make_room(bundle.size());
    const sim::Time begin = engine_.now();
    {
      FlowGrant grant(flow_sched_.get(), flow, bytes);
      // Occupancy clock starts when the grant is held, not when we began
      // waiting for it.
      const sim::Time granted_at = engine_.now();
      Channel& channel = *out.hop().channel;
      for (const RelayItem& b : bundle) {
        const StoredBlock& block = blocks[b.block_index];
        out.fragment(util::ByteSpan(block.data).subspan(b.offset, b.size),
                     rdma_block(channel, block.header.size));
      }
      hold_for_wire(channel, bytes, granted_at);
    }
    note_phase("send", begin, bytes);
  }

  /// Holds the calling actor (and therefore its DRR grant) until the
  /// bundle's egress-wire occupancy has elapsed since `send_begin`. The
  /// simulator models wires per (src, dst) pair, but a real adapter
  /// serializes its egress port — and that serialization is the shared
  /// resource the flow scheduler arbitrates. Without it, concurrent flows
  /// would each see a private full-rate wire and no queue could ever
  /// build, making weights and marks dead code. The sender-side pack cost
  /// already spent inside the grant counts toward the occupancy (DMA
  /// streams into the NIC FIFO while the wire transmits). No-op outside
  /// flow mode.
  void hold_for_wire(Channel& out_channel, std::uint64_t bytes,
                     sim::Time send_begin) {
    if (flow_sched_ == nullptr) {
      return;
    }
    const sim::Time occupancy = sim::transfer_time(
        bytes, out_channel.network().model().wire_bandwidth);
    const sim::Time elapsed = engine_.now() - send_begin;
    if (elapsed < occupancy) {
      engine_.sleep_for(occupancy - elapsed);
    }
  }

  // ------------------------------------------------------------- one-sided

  /// True when a block of `size` bytes crosses `out_channel` as one-sided
  /// writes: rdma is on, the out TM keeps dynamic buffers (a static or
  /// hybrid TM routes received paquets through protocol buffers the remote
  /// write model cannot target), and the block is at or above the
  /// rendezvous threshold (smaller blocks stay eager/two-sided).
  bool rdma_block(Channel& out_channel, std::uint64_t size) const {
    const net::NicModelParams& m = out_channel.tm().model();
    return vc_.options().rdma.enabled && !m.tx_static() && !m.hybrid() &&
           size >= vc_.options().rdma.rendezvous_threshold;
  }

  // ------------------------------------------------------ instrumentation

  /// The one instrumentation point of a gateway phase ("recv", "switch",
  /// "send"): the sim::Trace interval the Fig 5/8 step tables read, and
  /// the gw.phase_us sample of the metrics report (one series per gateway
  /// and phase).
  void note_phase(const std::string& phase, sim::Time begin,
                  std::optional<std::uint64_t> bytes = std::nullopt) {
    const sim::Time end = engine_.now();
    if (sim::Trace* trace = vc_.options().trace; trace != nullptr) {
      trace->record(begin, end, "gw." + phase,
                    bytes ? "bytes=" + std::to_string(*bytes) : "");
    }
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    if (metrics.enabled()) {
      metrics
          .histogram("gw.phase_us",
                     "gateway=" + std::to_string(self_) + ",phase=" + phase)
          .record(sim::to_microseconds(end - begin));
    }
  }

  // ---------------------------------------------- flows and admission

  /// Refuses an over-budget (or shed) message at the admission gate. The
  /// message's epoch is marked done before a single payload paquet is
  /// consumed: boundary drains re-ack and discard its in-flight
  /// retransmits, exactly as they do for a completed stream, so the
  /// upstream sender cannot wedge on a message this gateway will never
  /// relay. The reject signal rides the ack board (post_reject) and
  /// surfaces as FlowRejected in the sender's drain loop, which backs off
  /// and replays the whole message later. If a fault window suppresses the
  /// reject, the sender falls back to its retransmit-timeout path: slower,
  /// but never wedged.
  void reject_message(MessageReader& in, const GtmMsgHeader& hdr,
                      TrafficClass cls,
                      AdmissionController::Verdict verdict) {
    const NodeRank from = in.source();
    Connection& up = in_channel_.connection_to(from);
    up.rx_epoch_done = std::max(up.rx_epoch_done, hdr.epoch);
    in_channel_.network().post_reject(up.rx_tag,
                                      in_channel_.tm().nic().index(),
                                      up.peer_nic_index, hdr.epoch);
    GatewayStats& stats = vc_.mutable_gateway_stats(self_);
    ++stats.admission_rejects;
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    metrics.add("admission.rejects", class_label(cls));
    if (verdict == AdmissionController::Verdict::RejectShed) {
      ++stats.admission_sheds;
      metrics.add("admission.sheds", class_label(cls));
    }
    if (vc_.options().trace != nullptr) {
      vc_.options().trace->instant_here(
          "admission.reject",
          "origin=" + std::to_string(hdr.origin) +
              " class=" + traffic_class_name(cls));
    }
    in.end_unpacking();
  }


  /// Flow-mode queue accounting for one just-enqueued relay paquet: depth
  /// histogram, plus an ECN-style mark to the upstream sender once the
  /// flow's queue reaches its threshold — the egress scheduler is serving
  /// other flows faster than this one drains, so the origin should shrink
  /// its window rather than pile the queue to the blocking limit.
  void note_flow_depth(ReliableReceiver& rx, NodeRank origin, int flow,
                       std::size_t depth) {
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    metrics.observe_us("flow.queue_depth", flow_label(origin),
                       static_cast<double>(depth));
    // Threshold scales with the flow's weight, mirroring its queue bound:
    // a weight-w flow legitimately holds w quanta of scheduled backlog.
    const double weight = std::max(1.0, flow_sched_->weight_of(flow));
    if (static_cast<double>(depth) >=
        static_cast<double>(vc_.options().flow.mark_threshold) * weight) {
      rx.post_congestion_mark();
      ++vc_.mutable_gateway_stats(self_).flow_marks;
      metrics.add("flow.marks", flow_label(origin));
      if (vc_.options().trace != nullptr) {
        vc_.options().trace->instant_here(
            "flow.mark", "origin=" + std::to_string(origin) +
                             " depth=" + std::to_string(depth));
      }
    }
  }

  /// Lazily registers the scheduling flow for a message's (origin node,
  /// traffic class) pair (flows are keyed by origin, not by the upstream
  /// hop: two origins funneled through one intermediate gateway still
  /// compete fairly; one origin's control and bulk traffic land in
  /// distinct priority bands). Returns -1 when flow scheduling is off.
  int flow_id_for(NodeRank origin, TrafficClass cls) {
    if (flow_sched_ == nullptr) {
      return -1;
    }
    const std::pair<NodeRank, int> key{
        origin, static_cast<int>(traffic_class_index(cls))};
    if (const auto it = flow_ids_.find(key); it != flow_ids_.end()) {
      return it->second;
    }
    const std::vector<double>& weights = vc_.options().flow.weights;
    double weight = 1.0;
    if (origin >= 0 && static_cast<std::size_t>(origin) < weights.size() &&
        weights[static_cast<std::size_t>(origin)] > 0.0) {
      weight = weights[static_cast<std::size_t>(origin)];
    }
    const std::int64_t sched_key =
        static_cast<std::int64_t>(origin) *
            static_cast<std::int64_t>(kTrafficClassCount) +
        static_cast<std::int64_t>(traffic_class_index(cls));
    const int id = flow_sched_->add_flow(weight, cls, sched_key);
    flow_ids_.emplace(key, id);
    if (admission_ != nullptr) {
      admission_->on_flow_registered(cls);
    }
    return id;
  }

  std::string flow_label(NodeRank origin) const {
    return "gateway=" + std::to_string(self_) +
           ",origin=" + std::to_string(origin);
  }

  std::string class_label(TrafficClass cls) const {
    return "gateway=" + std::to_string(self_) +
           ",class=" + std::string(traffic_class_name(cls));
  }

  /// Admission byte accounting, enqueue side (cut-through queue only).
  void note_enqueue(TrafficClass cls, std::size_t size) {
    if (admission_ == nullptr) {
      return;
    }
    admission_->on_enqueue(cls, size);
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    metrics.observe_us("admission.queued_bytes", class_label(cls),
                       static_cast<double>(admission_->queued_bytes(cls)));
  }

  /// Admission byte accounting, dequeue side: feeds the CoDel-style
  /// sojourn tracker and the per-class sojourn histogram.
  void note_dequeue(TrafficClass cls, std::size_t size, sim::Time enq_at) {
    if (admission_ == nullptr) {
      return;
    }
    const sim::Time sojourn =
        admission_->on_dequeue(cls, size, enq_at, engine_.now());
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    if (metrics.enabled()) {
      metrics.histogram("admission.sojourn_us", class_label(cls))
          .record(sim::to_microseconds(sojourn));
    }
  }

  VirtualChannel& vc_;
  NodeRank self_;
  int rail_;
  Channel& in_channel_;
  sim::Engine& engine_;
  sim::Mailbox<std::vector<std::byte>> free_buffers_;
  Regulator regulator_;
  // Multi-flow forwarding (VcOptions::flow): DRR egress arbiter, lazy
  // (origin, class)→flow registry, the overload admission gate, and
  // per-upstream-hop turn tickets that keep same-stream messages in
  // arrival order while the dispatcher fans everything else out to
  // concurrent relay actors.
  std::unique_ptr<FlowScheduler> flow_sched_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::pair<NodeRank, int>, int> flow_ids_;
  std::map<NodeRank, std::uint64_t> flow_next_ticket_;
  std::map<NodeRank, std::uint64_t> flow_serving_;
  sim::Condition flow_turn_;
};

}  // namespace

void spawn_gateway_actors(VirtualChannel& vc) {
  sim::Engine& engine = vc.domain().engine();
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank) || !vc.is_gateway(rank)) {
      continue;
    }
    for (const int local : vc.topology().networks_of(rank)) {
      // One relay actor per (gateway, network, rail): each rail's channel
      // pair gets its own listener, so striped rails relay concurrently
      // and never serialize behind each other's store-and-forward.
      for (int rail = 0; rail < vc.max_rails(); ++rail) {
        std::string actor_name = vc.name() + ".gw." + std::to_string(rank) +
                                 "." + vc.network(local).name();
        if (rail > 0) {
          actor_name += ".r" + std::to_string(rail);
        }
        engine.spawn(
            actor_name,
            [&vc, rank, local, rail, actor_name] {
              auto relay =
                  std::make_shared<GatewayRelay>(vc, rank, local, rail);
              sim::Engine& engine = vc.domain().engine();
              for (;;) {
                relay->in_channel().wait_incoming();
                MessageReader in = relay->in_channel().begin_unpacking();
                if (!relay->flow_mode() ||
                    !relay->in_channel().uses_announce()) {
                  relay->relay_stream(in);
                  continue;
                }
                // Multi-flow dispatch: hand the accepted message to a relay
                // actor of its own and go straight back to accepting —
                // concurrent origins relay (and compete for egress via
                // DRR) instead of serializing behind one store-and-forward.
                // Messages sharing an upstream hop still read that hop's rx
                // stream in arrival order via turn tickets. MessageReader
                // is move-only and Engine::spawn needs a copyable closure,
                // so the reader rides in a shared_ptr.
                //
                // Announce channels only: begin_unpacking consumes the
                // announce packet, so the next wait_incoming blocks until a
                // NEW message arrives. A two-member channel has no announce
                // stream — its peek would see the pending message's paquets
                // until the spawned actor drains them, and this loop would
                // spin spawning an actor per peek. It also has exactly one
                // upstream, whose messages serialize on the rx stream
                // anyway, so relaying inline there loses no concurrency
                // (egress still goes through the DRR scheduler by origin).
                const NodeRank from = in.source();
                const std::uint64_t ticket = relay->issue_ticket(from);
                auto reader = std::make_shared<MessageReader>(std::move(in));
                engine.spawn(actor_name + ".msg",
                             [relay, reader, from, ticket] {
                               relay->await_turn(from, ticket);
                               relay->relay_stream(*reader);
                               relay->finish_turn(from);
                             });
              }
            },
            /*daemon=*/true);
      }
    }
  }
}

}  // namespace mad::fwd
