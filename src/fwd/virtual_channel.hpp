// Virtual channels (paper §2.2).
//
// A virtual channel bundles, per physical network, two real Madeleine
// channels:
//   * a REGULAR channel carrying messages delivered on that network to
//     their final destination (native format for direct traffic, GTM
//     format after the last gateway);
//   * a SPECIAL channel carrying messages that still have to cross the
//     receiving gateway (always GTM format).
//
// When the application sends over the virtual channel, the appropriate
// real channel is chosen dynamically from the routing table (forwarded
// streams go through the hop stream of fwd/hop.hpp); receiving is
// multiplexed over all regular channels of the node by per-(network, rail)
// polling actors. Gateways additionally run forward-listener actors on the
// special channels (src/fwd/gateway.cpp) with the pipelined retransmission
// engine. Every one of these receivers parses a stream's head through
// VirtualChannel::read_stream_head.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <list>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "fwd/rdma_tm.hpp"
#include "fwd/regulation.hpp"
#include "fwd/reliable.hpp"
#include "mad/madeleine.hpp"
#include "sim/mailbox.hpp"
#include "sim/trace.hpp"
#include "topo/health.hpp"
#include "topo/routing.hpp"
#include "util/arena.hpp"

namespace mad::fwd {

/// Multi-flow forwarding at the gateway relay (fwd/gateway.cpp). When
/// enabled, the relay keys concurrent forwarded messages by origin node
/// into per-flow queues, schedules their egress paquets with deficit
/// round-robin (optionally weighted; the quantum is one route-MTU paquet),
/// and posts an ECN-style congestion mark back to the origin's reliable
/// sender whenever a flow's relay queue crosses `mark_threshold` — pair
/// with ReliableOptions::adaptive so marked senders shrink their windows
/// instead of piling the queue higher. Requires reliable mode (the mark
/// rides the ack board, and only reliable streams carry the per-paquet
/// structure the relay queues). Off by default: the relay keeps its serial
/// per-message path and the event sequences of every existing test.
/// A writer whose message an admission gate refuses backs off with jitter
/// before it replays (VirtualChannel::reject_backoff).
struct FlowOptions {
  bool enabled = false;
  /// Per-flow relay queue depth (paquets buffered between a flow's
  /// ingress and its scheduled egress). The queue is a bounded mailbox:
  /// a full queue blocks the flow's ingress reader, which stalls its
  /// hop acks and backpressures the origin's window.
  std::uint32_t queue_limit = 32;
  /// Queue depth at which an arriving paquet gets a congestion mark
  /// posted to its sender. Must be <= queue_limit.
  std::uint32_t mark_threshold = 8;
  /// Per-origin scheduling weights, indexed by origin node rank; nodes
  /// beyond the vector (or with a 0 entry) default to weight 1.
  std::vector<double> weights;
  /// Per-origin TrafficClass every writer stamps into its messages,
  /// indexed by origin node rank; origins beyond the vector send Bulk.
  /// Gateways arbitrate classes strictly (control before latency before
  /// bulk, fwd/regulation.hpp) and shed in reverse order.
  std::vector<TrafficClass> classes;
  /// Gateway admission control: per-class byte budgets plus the
  /// CoDel-style sojourn shedding policy. Disabled by default — flows then
  /// rely on plain blocking backpressure.
  AdmissionOptions admission;

  /// Class used for messages originating at `origin`.
  TrafficClass class_of(NodeRank origin) const {
    if (origin >= 0 && static_cast<std::size_t>(origin) < classes.size()) {
      return classes[static_cast<std::size_t>(origin)];
    }
    return TrafficClass::Bulk;
  }

  /// Panics on inconsistent settings (called by VcOptions::validate).
  void validate(bool reliable_enabled) const;
};

struct VcOptions {
  /// Paquet (fragment) size used by the GTM; 0 = auto (largest size every
  /// network on the virtual channel carries unfragmented). The Fig 6/7
  /// benches sweep this from 8 KB to 128 KB.
  std::uint32_t paquet_size = 0;
  /// Number of buffers in the gateway retransmission pipeline; 2 is the
  /// paper's double-buffer scheme, 1 degrades to per-paquet
  /// store-and-forward (ablation).
  int pipeline_depth = 2;
  /// Receive straight into outgoing static buffers / send straight from
  /// incoming static buffers on gateways (paper §2.3). Off = every paquet
  /// goes through the reader/writer copy paths (ablation).
  bool zero_copy = true;
  /// Software cost of one gateway buffer switch (paper §3.3.1 measured
  /// ≈40 µs on the PII-450 testbed).
  sim::Time gateway_sw_overhead = sim::microseconds(40);
  /// Incoming-flow regulation on gateways, in bytes/s (paper §4 future
  /// work: "some sophisticated bandwidth control mechanism is needed to
  /// regulate the incoming communication flow on gateways"). 0 = off.
  double regulation_rate = 0.0;
  /// Optional interval tracing of gateway steps (Fig 5 / Fig 8 benches).
  sim::Trace* trace = nullptr;
  /// Reliable GTM mode: sequence/checksum trailers, per-hop ack/retransmit
  /// and gateway failover for forwarded traffic (fwd/reliable.hpp). Direct
  /// (gateway-free) messages keep the native format and are NOT protected.
  ReliableOptions reliable;
  /// Multi-rail striping (fwd/stripe.hpp): forwarded messages split across
  /// up to this many node-disjoint routes, each rail on its own channel
  /// pair. 1 = off (the default; no extra channels or actors exist).
  /// Striped transfers to one destination endpoint must not overlap in
  /// time (rails of interleaved messages on shared channels could block
  /// each other); sequential transfers and different destinations are
  /// unrestricted.
  int max_rails = 1;
  /// Overrides the MTU-derived per-rail shares (paquets per round-robin
  /// round) when non-empty — the "measured rate" weighting knob. Entries
  /// beyond the actual rail count are ignored; missing entries default
  /// to the derived share.
  std::vector<std::uint32_t> rail_weights;
  /// Link-health monitoring (topo/health.hpp): EWMA edge scores from the
  /// reliable layer's RTT/loss signals drive quality-weighted routing,
  /// quarantine of browned-out gateways, flap-damped readmission, and
  /// stripe-rail demotion. Off by default (zero behaviour change).
  topo::HealthOptions health;
  /// Per-flow queueing + DRR scheduling + congestion marks at gateway
  /// relays (FlowOptions above). Requires reliable.enabled.
  FlowOptions flow;
  /// One-sided RDMA-style forwarding (fwd/rdma_tm.hpp): gateway-egress
  /// blocks at or above rdma.rendezvous_threshold cross dynamic-buffer
  /// networks as one-sided writes — bus-master DMA on both host buses, no
  /// receiver software per fragment — after a rendezvous that registers
  /// the remote region through its pin-down cache. Eliminates the PIO
  /// send / DMA receive PCI-arbitration conflict of §3.4.1 on SCI-style
  /// egress. Off by default: every path then behaves exactly as before.
  RdmaOptions rdma;

  /// Panics loudly on any unsupported option combination (called by the
  /// VirtualChannel ctor; callers building options programmatically can
  /// validate early). Notably: flow mode requires reliable mode and is
  /// mutually exclusive with multi-rail striping / rail_weights — a
  /// striped message fans one origin across rails, which would split one
  /// DRR flow across independent schedulers.
  void validate() const;
};

class VcEndpoint;
class VcMessageWriter;
class VcMessageReader;
class OriginStream;
class Striper;
class Reassembler;

/// Per-node forwarding counters (forwarding ones only move on gateways;
/// the reliability block also counts sender/receiver work on end nodes).
struct GatewayStats {
  std::uint64_t messages_forwarded = 0;
  std::uint64_t paquets_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;  // payload bytes relayed
  std::uint64_t flow_marks = 0;  // ECN marks posted by this relay's queues
  std::uint64_t admission_rejects = 0;  // messages refused by admission
  std::uint64_t admission_sheds = 0;    // the CoDel-shed subset of those
  ReliabilityStats reliability;
};

/// Channel-wide one-sided counters, summed over every per-NIC RdmaTm the
/// channel instantiated (benches and tests).
struct RdmaTotals {
  MrCacheStats cache;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t rendezvous = 0;
  std::uint64_t rendezvous_hits = 0;
};

class VirtualChannel {
 public:
  /// Creates the virtual channel over `networks` (all registered Domain
  /// nodes with a NIC on any of them become members), materializes the
  /// underlying real channels, and spawns the polling and gateway actors.
  VirtualChannel(Domain& domain, std::string name,
                 std::vector<net::Network*> networks, VcOptions options = {});
  ~VirtualChannel();

  VirtualChannel(const VirtualChannel&) = delete;
  VirtualChannel& operator=(const VirtualChannel&) = delete;

  const std::string& name() const { return name_; }
  Domain& domain() const { return domain_; }
  const VcOptions& options() const { return options_; }
  /// Paquet *payload* size; in reliable mode the trailer is carved out of
  /// the wire MTU, so payload + trailer still fits every hop.
  std::uint32_t mtu() const { return mtu_; }
  bool reliable() const { return options_.reliable.enabled; }
  const topo::Routing& routing() const { return *routing_; }
  const topo::Topology& topology() const { return *topology_; }

  /// The one head parse of every receiver (polling actors, gateway
  /// listeners) on a message just accepted from `channel`.
  ///
  /// Plain mode reads the preamble, and with `whole` the rest of the head
  /// too (read_head_rest). The rail-0 pollers pass `whole` = false: the
  /// final VcMessageReader reads the rest in the application actor (read
  /// in the poller instead, it shifts the virtual timing of the MPI
  /// collectives bench).
  ///
  /// Reliable mode always reads the whole head, tolerantly: it returns the
  /// first *genuine* head on `reader` — the preamble, then on a forwarded
  /// stream the GTM message header, then on a striped rail the stripe
  /// header. Everything in front of it is dropped with the drain
  /// accounting: late data paquets (re-acked when their epoch completed),
  /// duplicated framing from paquet-0 retransmissions, and whole GHOST
  /// heads — framing of an epoch the connection already finished, which
  /// would otherwise reopen a delivered message as a new one. Safe to
  /// block: a message announce precedes this call, and per-connection
  /// ordering puts all leftover junk of the previous hop message before
  /// the announced message's framing.
  StreamHead read_stream_head(MessageReader& reader, Channel& channel,
                              NodeRank self, bool whole);

  /// Called by every receiver (final reader, stripe rail reader, gateway
  /// ingress) right after it consumed a reliable stream's end marker, seq
  /// `last_seq` of `epoch` from `peer`: marks the epoch done on the
  /// connection, so late retransmits arriving at the next message boundary
  /// are re-acked instead of reopening the message, and keeps
  /// re-advertising the tail ack for a while (spawn_tail_acker).
  void complete_stream(Channel& channel, NodeRank peer, std::uint32_t epoch,
                       std::uint32_t last_seq);

  /// Declares a node dead (reliable mode, after a hop exhausted its retry
  /// budget): removes it from the routing graph and recomputes all routes,
  /// so subsequent and in-flight messages fail over. Idempotent. Distinct
  /// from a health *quarantine* (routing exclusion only): is_dead() stays
  /// false for a quarantined-but-alive node, so receivers keep waiting on
  /// its streams instead of declaring the peer gone.
  void mark_dead(NodeRank rank);
  bool is_dead(NodeRank rank) const;

  /// Hop failover for a reliable stream from `self` toward `dst` — the one
  /// routine the origin writer, the striper's repair rails and gateway
  /// relays share. With `failed` set, its next hop is declared dead first
  /// (mark_dead, the dead-peer counter and metric, a trace instant). Then
  /// panics with the "unreachable" diagnosis unless a route to `dst`
  /// survives (`where` further names the stream), and with `failed` set
  /// counts the failover (ReliabilityStats::failovers, its metric, a trace
  /// instant). Without `failed` only the reachability check runs: a stream
  /// about to reopen its hop after a reroute or an admission reject.
  void fail_over(NodeRank self, NodeRank dst, const HopFailure* failed,
                 const std::string& where = {});

  /// The backoff of a stream from `self` whose message an admission gate
  /// refused `attempts` times in a row, shared by the origin and gateway
  /// relays: counts flow.reject_retries, records a "flow.rejected" trace
  /// instant with `detail`, and sleeps kRejectBackoff x
  /// kRejectBackoffFactor^attempts, capped at kRejectBackoffCap, plus up to
  /// 25% deterministic jitter drawn from `jitter_seed`, so synchronized
  /// rejectees retry out of step.
  void reject_backoff(NodeRank self, int attempts, std::uint64_t jitter_seed,
                      const std::string& detail);

  /// Health monitor driving adaptive routing; nullptr unless
  /// options().health.enabled.
  topo::HealthMonitor* health() const { return health_.get(); }

  /// The one-sided transmission module wrapping `nic`, created lazily on
  /// first use (so NICs that never forward one-sided carry no cache).
  /// nullptr unless options().rdma.enabled.
  RdmaTm* rdma_tm(net::Nic& nic) const;

  /// Sums counters across every RdmaTm this channel created so far.
  RdmaTotals rdma_totals() const;

  /// True when a fault-plan crash window of `rank`'s NIC on any of this
  /// channel's networks overlaps [since, now]. With since = now it asks
  /// whether the node is down right now — lets a crashed gateway's own
  /// actors stand down instead of mis-diagnosing their peers; an earlier
  /// `since` lets a recovered gateway discard relay state captured before
  /// its own outage (the downstream copy may already exist).
  bool node_crashed_within(NodeRank rank, sim::Time since) const;

  /// Member = node with a NIC on at least one of the virtual channel's
  /// networks.
  bool is_member(NodeRank rank) const;
  bool is_gateway(NodeRank rank) const;
  VcEndpoint& endpoint(NodeRank rank) const;

  /// Forwarding counters of a gateway node (zeroed for non-gateways).
  const GatewayStats& gateway_stats(NodeRank rank) const;
  GatewayStats& mutable_gateway_stats(NodeRank rank);

  /// Real channels, indexed by the *local* network id (the position of the
  /// network in the constructor list) and the rail: rail 0 is the paper's
  /// regular/special pair, rails >= 1 (striping) each get a dedicated pair
  /// so rails never share a connection's tx lock or a relay actor.
  Channel& rail_regular_channel(int local_net, int rail, NodeRank rank) const;
  Channel& rail_special_channel(int local_net, int rail, NodeRank rank) const;
  int max_rails() const { return options_.max_rails; }
  net::Network& network(int local_net) const;
  int local_net_count() const { return static_cast<int>(networks_.size()); }

 private:
  void spawn_pollers();
  void spawn_gateways();
  /// Spawns a transient actor that re-posts a completed stream's final
  /// cumulative ack a bounded number of times. A fault window can suppress
  /// every ack of the stream's tail AFTER the receiver is done with it —
  /// at which point nothing re-acks the sender's retransmissions (the next
  /// boundary drain only runs when another message arrives, and the stuck
  /// sender is exactly what prevents that), so the sender would burn its
  /// whole retry budget, wrongly declare the hop dead, and replay a
  /// delivered message. Re-posting is idempotent: the ack board keeps only
  /// the max seq per epoch and drops posts of superseded epochs.
  void spawn_tail_acker(Channel& channel, NodeRank peer, std::uint32_t epoch,
                        std::uint32_t last_seq);
  /// Health-enabled only: the periodic actor that quarantines unhealthy
  /// gateways, trial-readmits damped ones, and refreshes route costs.
  void spawn_health_actor();
  /// Routing-only exclusion of a live-but-sick gateway, vetoed (undone)
  /// when it would partition any currently-connected member pair.
  void quarantine_node(NodeRank rank, sim::Time now);
  /// Reverses exclusion (quarantine or mark_dead) and wipes the node's
  /// health samples for a clean trial.
  void readmit_node(NodeRank rank, sim::Time now);
  /// Accounts one non-element paquet pulled off a reliable stream and
  /// re-acks it when it is a checksum-valid paquet of an epoch `channel`'s
  /// connection to `peer` already completed.
  void discard_stale_paquet(Channel& channel, NodeRank peer, NodeRank self,
                            util::ByteSpan wire);
  /// Pulls paquets off `reader` until one matches `element`'s size without
  /// being a checksum-valid reliable paquet, then copies it out. It
  /// tolerates what a lossy fault window leaves in front of the element:
  /// duplicated framing from paquet-0 retransmissions (ReliableSender::
  /// set_framing) and stray data paquets whose own framing was lost. The
  /// rest is dropped with the stale-paquet accounting — unacknowledged
  /// unless its epoch already completed — so a sender whose header was
  /// eaten keeps retransmitting paquet 0 (with the prologue) until the
  /// receiver re-frames.
  void read_framing_tolerant(MessageReader& reader, Channel& channel,
                             NodeRank self, util::MutByteSpan element);

  Domain& domain_;
  std::string name_;
  std::vector<net::Network*> networks_;
  VcOptions options_;
  std::uint32_t mtu_ = 0;
  // Recycles MTU-sized scratch buffers for the tolerant-read paths; one
  // actor runs at a time, so the arena needs no locking.
  util::BufferArena scratch_arena_;
  std::unique_ptr<topo::Topology> topology_;
  std::unique_ptr<topo::Routing> routing_;
  std::unique_ptr<topo::HealthMonitor> health_;
  // Nodes declared dead by the retry budget — a (reversible) superset
  // split from routing exclusion, which quarantines also use.
  std::set<NodeRank> dead_;
  struct RailChannels {
    ChannelId regular = -1;
    ChannelId special = -1;
  };
  const RailChannels& rail_channels(int local_net, int rail) const;
  std::vector<std::vector<RailChannels>> rail_channels_;  // [rail][local net]
  std::map<NodeRank, std::unique_ptr<VcEndpoint>> endpoints_;
  mutable std::map<NodeRank, GatewayStats> gateway_stats_;
  // One RdmaTm per NIC that ever sent one-sided, lazily created (mutable:
  // creation is caching, not observable state).
  mutable std::map<const net::Nic*, std::unique_ptr<RdmaTm>> rdma_tms_;
};

/// One message arriving at an endpoint on one rail's regular channel,
/// parked by its polling actor with the head read_stream_head returned:
/// the whole head in reliable mode and on rails >= 1 (so a rail is
/// matchable by (origin, stripe_id, rail) without touching the stream),
/// only the preamble of a plain rail-0 message, whose VcMessageReader reads
/// the rest. The poller waits on `done` before opening the next message of
/// the same real channel, which serializes per-channel delivery.
struct VcIncoming {
  MessageReader reader;
  StreamHead head;
  Channel* channel = nullptr;
  std::shared_ptr<sim::Condition> done;
};

/// A member node's end of the virtual channel. Writers start here, and the
/// node's polling actors park every arriving message in one of its two
/// inboxes: rail-0 messages in inbox(), served by begin_unpacking, and
/// striped rails >= 1 in rail_inbox(), claimed by the reassembler of their
/// transfer. Every receive goes through one claim routine over an (inbox,
/// stash) pair; what a claim passes over waits in the stash.
class VcEndpoint {
 public:
  VcEndpoint(VirtualChannel& vc, NodeRank rank);

  NodeRank rank() const { return rank_; }
  VirtualChannel& vc() const { return vc_; }

  /// Builds a message toward any member of the virtual channel; routing is
  /// transparent — the caller never names gateways.
  VcMessageWriter begin_packing(NodeRank dst);

  /// Waits for the next message from any member, over any of this node's
  /// networks.
  VcMessageReader begin_unpacking();

  /// Non-blocking variant: nullopt when no message is pending.
  std::optional<VcMessageReader> try_begin_unpacking();

  /// Waits until a message arrives or virtual time reaches `deadline`.
  std::optional<VcMessageReader> begin_unpacking_until(sim::Time deadline);

  /// Messages parked in the inbox right now.
  std::size_t pending_messages() const {
    return inbox_.size() + pending_.size();
  }

  /// Rail-0 messages, which begin_unpacking serves, and striped rails >= 1,
  /// which reassemblers claim; each poller feeds one of the two.
  sim::Mailbox<VcIncoming>& inbox() { return inbox_; }
  sim::Mailbox<VcIncoming>& rail_inbox() { return rail_inbox_; }

  /// Waits (until `deadline`) for a forwarded message from `origin` — the
  /// replayed stream a reader adopts after its upstream gateway died.
  /// Non-matching arrivals are stashed for later begin_unpacking calls.
  std::optional<VcIncoming> collect_replacement(NodeRank origin,
                                                sim::Time deadline);

  /// Claims the parked rail message matching (origin, stripe_id, rail),
  /// blocking until it arrives; non-matching arrivals are stashed for the
  /// reassemblers they belong to.
  VcIncoming collect_rail(std::uint32_t origin, std::uint32_t stripe_id,
                          std::uint16_t rail);

  /// Monotonic per-origin striped-transfer id.
  std::uint32_t next_stripe_id() { return stripe_seq_++; }

 private:
  VirtualChannel& vc_;
  NodeRank rank_;
  sim::Mailbox<VcIncoming> inbox_;
  sim::Mailbox<VcIncoming> rail_inbox_;
  // Arrivals passed over while hunting for a replacement stream (served to
  // later begin_unpacking calls ahead of the inbox) and parked rails not
  // yet claimed. Lists, so claiming one (erase) never needs VcIncoming to
  // be move-assignable (MessageReader is not).
  std::list<VcIncoming> pending_;
  std::list<VcIncoming> rail_pending_;
  std::uint32_t stripe_seq_ = 0;
};

/// One outgoing message over the virtual channel. The route picks its
/// form at construction: a direct message is a native MessageWriter on
/// the regular channel; a forwarded one is a GTM stream, either split
/// across rails by a Striper or sent as one OriginStream (fwd/hop.hpp),
/// which in reliable mode logs every block and replays the message on a
/// fresh route after a failed, refused or stale hop. A writer may be
/// moved at any point.
class VcMessageWriter {
 public:
  VcMessageWriter(VirtualChannel& vc, NodeRank src, NodeRank dst);
  VcMessageWriter(VcMessageWriter&&) noexcept;
  VcMessageWriter& operator=(VcMessageWriter&&) noexcept = delete;
  ~VcMessageWriter();

  NodeRank destination() const { return dst_; }
  /// True when no gateway is involved (native path, full optimizations).
  bool direct() const { return inner_.has_value(); }
  /// True when this message is split across several rails.
  bool striped() const { return striper_ != nullptr; }
  /// The striper of a striped message (rail credit accounting etc);
  /// nullptr on single-rail messages.
  const Striper* striper() const { return striper_.get(); }

  void pack(util::ByteSpan data, SendMode smode = SendMode::Cheaper,
            RecvMode rmode = RecvMode::Cheaper);

  template <typename T>
  void pack_value(const T& value) {
    pack(util::object_bytes(value), SendMode::Safer, RecvMode::Express);
  }

  void end_packing();

 private:
  NodeRank dst_;
  // Exactly one of the three is set: the native writer of a direct
  // message, the striper of a multi-rail one, or the forwarded stream.
  // The forwarded stream is heap-owned (its reliable window references
  // the hop's writer), so the writer may be moved at any point.
  std::optional<MessageWriter> inner_;
  std::unique_ptr<Striper> striper_;
  std::unique_ptr<OriginStream> forwarded_;
  bool ended_ = false;
};

class VcMessageReader {
 public:
  VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming);
  VcMessageReader(VcMessageReader&&) noexcept;
  VcMessageReader& operator=(VcMessageReader&&) noexcept = delete;
  ~VcMessageReader();

  /// The ORIGIN of the message (not the last gateway).
  NodeRank source() const;
  bool forwarded() const { return incoming_->head.preamble.forwarded != 0; }
  bool striped() const { return incoming_->head.stripe.has_value(); }
  /// The reassembler of a striped message (per-rail paquet counts etc);
  /// exists once the first unpack ran.
  const Reassembler& reassembler() const { return *reassembler_; }

  /// Flags must mirror the sender's pack call; on forwarded messages they
  /// are validated against the GTM self-description.
  void unpack(util::MutByteSpan dst, SendMode smode = SendMode::Cheaper,
              RecvMode rmode = RecvMode::Cheaper);

  template <typename T>
  T unpack_value() {
    T value{};
    unpack(util::object_bytes_mut(value), SendMode::Safer,
           RecvMode::Express);
    return value;
  }

  void end_unpacking();

 private:
  // Builds the reassembler on first use: it keeps pointers into this
  // object, which must not move afterwards (readers are only moved
  // between begin_unpacking and the first unpack).
  void ensure_reassembler();
  // The per-hop window receiver, created lazily at the first unpack for
  // the same movability reason.
  void ensure_receiver();
  // The GTM message header of a forwarded message (the replayed stream's
  // after an adoption, with its fresh epoch).
  const GtmMsgHeader& header() const { return *incoming_->head.header; }
  // The next block header (or end marker) of a forwarded stream.
  GtmBlockHeader next_block_header();
  // Reliable window > 1 only: the upstream gateway died mid-stream.
  // Abandons the current real-channel stream and waits for the origin's
  // replayed message on the failover route, skipping the blocks this
  // reader already consumed.
  void adopt();

  // An optional so adoption can replace it (VcIncoming is movable but not
  // move-assignable).
  std::optional<VcIncoming> incoming_;
  VirtualChannel* vc_ = nullptr;
  VcEndpoint* endpoint_ = nullptr;
  NodeRank self_ = -1;
  std::uint32_t mtu_ = 0;
  std::unique_ptr<Reassembler> reassembler_;  // striped messages only
  bool ended_ = false;
  // Reliable (forwarded) mode state.
  bool reliable_ = false;
  std::uint32_t next_seq_ = 0;
  std::uint64_t blocks_consumed_ = 0;  // completed blocks (adoption skip)
  std::unique_ptr<ReliableReceiver> receiver_;
};

}  // namespace mad::fwd
