#include "fwd/virtual_channel.hpp"

#include <algorithm>
#include <cstring>

#include "fwd/gateway.hpp"
#include "fwd/hop.hpp"
#include "fwd/stripe.hpp"
#include "mad/channel.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "sim/metrics.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

void FlowOptions::validate(bool reliable_enabled) const {
  if (!enabled) {
    return;
  }
  MAD_ASSERT(reliable_enabled,
             "flow scheduling requires reliable mode (congestion marks ride "
             "the ack board and only reliable streams are relay-queued)");
  MAD_ASSERT(queue_limit >= 1, "flow queue_limit must hold at least one "
                               "paquet");
  MAD_ASSERT(mark_threshold >= 1 && mark_threshold <= queue_limit,
             "flow mark_threshold must be within [1, queue_limit]");
  for (const double w : weights) {
    MAD_ASSERT(w >= 0.0, "flow weights must be >= 0 (0 = default)");
  }
  admission.validate();
  MAD_ASSERT(reject_backoff > 0, "flow reject_backoff must be positive");
  MAD_ASSERT(reject_backoff_factor >= 1.0,
             "flow reject_backoff_factor must be >= 1");
  MAD_ASSERT(reject_backoff_cap >= reject_backoff,
             "flow reject_backoff_cap must be >= reject_backoff");
}

void VcOptions::validate() const {
  MAD_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
  MAD_ASSERT(max_rails >= 1, "max_rails must be >= 1");
  MAD_ASSERT(rail_credit_chunks >= 1,
             "rail credit window must hold at least one chunk");
  if (reliable.enabled) {
    reliable.validate();
  }
  if (rdma.enabled) {
    rdma.validate();
  }
  flow.validate(reliable.enabled);
  if (flow.enabled) {
    MAD_ASSERT(max_rails == 1,
               "flow scheduling and multi-rail striping are mutually "
               "exclusive (a striped message would split one origin's flow "
               "across independent per-rail schedulers)");
    MAD_ASSERT(rail_weights.empty(),
               "rail_weights configure striping, which flow scheduling "
               "excludes — remove one of the two");
  }
}

VirtualChannel::VirtualChannel(Domain& domain, std::string name,
                               std::vector<net::Network*> networks,
                               VcOptions options)
    : domain_(domain),
      name_(std::move(name)),
      networks_(std::move(networks)),
      options_(options) {
  MAD_ASSERT(!networks_.empty(), "virtual channel needs networks");
  options_.validate();
  mtu_ = compute_route_mtu(domain_, networks_, options_.paquet_size);
  if (options_.reliable.enabled) {
    MAD_ASSERT(mtu_ > kGtmTrailerBytes,
               "route MTU too small for the reliable paquet trailer");
    // Carve the trailer out of the wire MTU so payload + trailer still
    // crosses every hop unfragmented.
    mtu_ -= kGtmTrailerBytes;
  }

  // Topology over *local* network ids (positions in networks_).
  topology_ = std::make_unique<topo::Topology>(domain_.node_count());
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < domain_.node_count(); ++rank) {
    for (int local = 0; local < local_net_count(); ++local) {
      if (domain_.has_nic(rank, *networks_[static_cast<std::size_t>(local)])) {
        topology_->attach(rank, local);
      }
    }
  }
  routing_ = std::make_unique<topo::Routing>(*topology_);

  // Two real channels per device per virtual channel (paper Fig 3).
  for (int local = 0; local < local_net_count(); ++local) {
    net::Network& network = *networks_[static_cast<std::size_t>(local)];
    regular_ids_.push_back(
        domain_.create_channel(name_ + ".reg." + network.name(), network));
    special_ids_.push_back(
        domain_.create_channel(name_ + ".fwd." + network.name(), network));
  }
  // Each extra rail gets its own regular/special pair per device, so
  // striped rails never contend for a connection tx lock or interleave on
  // a relay actor with rail 0 (or each other).
  for (int rail = 1; rail < options_.max_rails; ++rail) {
    std::vector<ChannelId> reg;
    std::vector<ChannelId> spec;
    const std::string prefix = name_ + ".st" + std::to_string(rail);
    for (int local = 0; local < local_net_count(); ++local) {
      net::Network& network = *networks_[static_cast<std::size_t>(local)];
      reg.push_back(
          domain_.create_channel(prefix + ".reg." + network.name(), network));
      spec.push_back(
          domain_.create_channel(prefix + ".fwd." + network.name(), network));
    }
    stripe_regular_ids_.push_back(std::move(reg));
    stripe_special_ids_.push_back(std::move(spec));
  }

  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < domain_.node_count(); ++rank) {
    if (is_member(rank)) {
      endpoints_.emplace(rank, std::make_unique<VcEndpoint>(*this, rank));
    }
  }

  spawn_pollers();
  spawn_gateways();

  if (options_.health.enabled) {
    health_ = std::make_unique<topo::HealthMonitor>(options_.health);
    routing_->set_cost_provider(health_.get());
    spawn_health_actor();
  }
}

VirtualChannel::~VirtualChannel() {
  // Channel teardown deregisters everything the channel pinned.
  for (auto& [nic, tm] : rdma_tms_) {
    tm->invalidate();
  }
}

namespace {

/// True when `wire` parses as a checksum-valid reliable paquet — used to
/// tell a re-sent framing element from a stray data paquet of equal size,
/// and a re-ackable late retransmit from line noise.
bool checksum_valid_paquet(util::ByteSpan wire, GtmPaquetTrailer* trailer) {
  if (wire.size() < kGtmTrailerBytes) {
    return false;
  }
  std::memcpy(trailer, wire.data() + wire.size() - kGtmTrailerBytes,
              kGtmTrailerBytes);
  return trailer->checksum ==
         gtm_paquet_checksum(
             util::ByteSpan(wire.data(), wire.size() - kGtmTrailerBytes),
             trailer->seq, trailer->epoch);
}

}  // namespace

void VirtualChannel::discard_stale_paquet(Channel& channel, NodeRank peer,
                                          NodeRank self, util::ByteSpan wire) {
  ++mutable_gateway_stats(self).reliability.stale_drops;
  domain_.fabric().metrics().add("rel.stale_drops",
                                 "node=" + std::to_string(self));
  GtmPaquetTrailer trailer;
  if (!checksum_valid_paquet(wire, &trailer)) {
    return;  // duplicated framing or noise: nothing to acknowledge
  }
  // A valid paquet of an epoch this endpoint finished is a late retransmit
  // whose final ack was lost: re-ack it, or the sender burns its retry
  // budget and replays an already-delivered message. Later epochs stay
  // unacked — their framing was lost, and the sender's paquet-0 prologue
  // retransmission (ReliableSender::set_framing) re-frames the stream.
  const Connection& conn = channel.connection_to(peer);
  if (trailer.epoch <= conn.rx_epoch_done) {
    channel.network().post_ack(conn.rx_tag, channel.tm().nic().index(),
                               conn.peer_nic_index, trailer.epoch,
                               trailer.seq);
  }
}

void VirtualChannel::read_framing_tolerant(MessageReader& reader,
                                           Channel& channel, NodeRank self,
                                           util::MutByteSpan element) {
  // MTU-sized scratch comes from the channel arena: the tolerant reads run
  // once per message, and per-call malloc of ~MTU buffers was a
  // measurable slice of gateway receive cost.
  util::BufferLease scratch(scratch_arena_,
                            static_cast<std::size_t>(mtu_) +
                                kGtmTrailerBytes);
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    if (got == element.size()) {
      // The element size can collide with a small data paquet's wire size;
      // only a valid checksum identifies the imposter.
      GtmPaquetTrailer trailer;
      if (!checksum_valid_paquet(wire, &trailer)) {
        std::memcpy(element.data(), scratch.data(), element.size());
        return;
      }
    }
    discard_stale_paquet(channel, reader.source(), self, wire);
  }
}

GtmStripeHeader VirtualChannel::read_stripe_header_tolerant(
    MessageReader& reader, Channel& channel, NodeRank self) {
  GtmStripeHeader header{};
  read_framing_tolerant(reader, channel, self, util::object_bytes_mut(header));
  MAD_ASSERT(header.rails > 0 && header.rail < header.rails,
             "bad rail index on the wire");
  MAD_ASSERT(header.share > 0, "zero stripe share on the wire");
  return header;
}

Preamble VirtualChannel::read_stream_head(MessageReader& reader,
                                          Channel& channel, NodeRank self,
                                          std::optional<GtmMsgHeader>& header,
                                          GtmStripeHeader* stripe) {
  header.reset();
  const NodeRank peer = reader.source();
  util::BufferLease scratch(scratch_arena_,
                            static_cast<std::size_t>(mtu_) +
                                kGtmTrailerBytes);
  std::optional<Preamble> preamble;
  const auto count_ghost = [&](util::ByteSpan wire) {
    discard_stale_paquet(channel, peer, self, wire);
  };
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    GtmPaquetTrailer trailer;
    if (checksum_valid_paquet(wire, &trailer)) {
      // A late data paquet, never a framing element (framing carries no
      // trailer). Re-acked inside when its epoch already completed.
      discard_stale_paquet(channel, peer, self, wire);
      continue;
    }
    if (got == static_cast<std::uint32_t>(sizeof(Preamble))) {
      if (preamble) {
        // Two preambles in a row: the first was ghost framing whose header
        // a fault window ate. Charge it as stale and adopt the new one.
        count_ghost(util::object_bytes(*preamble));
      }
      Preamble p;
      std::memcpy(&p, scratch.data(), sizeof(Preamble));
      preamble = p;
      if (p.forwarded == 0) {
        return p;  // native stream: no GTM header follows
      }
      continue;
    }
    if (got == static_cast<std::uint32_t>(sizeof(GtmMsgHeader)) && preamble &&
        !header) {
      GtmMsgHeader h;
      std::memcpy(&h, scratch.data(), sizeof(GtmMsgHeader));
      if ((h.flags & kGtmFlagReliable) != 0) {
        const Connection& conn = channel.connection_to(peer);
        if (h.epoch <= conn.rx_epoch_done) {
          // Ghost head: duplicated framing of a stream this connection
          // already received to the end marker. Reopening it would deliver
          // the message twice — drop the whole head and keep parsing (the
          // genuine head of the announced message is still behind it).
          count_ghost(util::object_bytes(*preamble));
          count_ghost(wire);
          preamble.reset();
          continue;
        }
      }
      header = h;
      if (stripe == nullptr) {
        return *preamble;
      }
      *stripe = read_stripe_header_tolerant(reader, channel, self);
      return *preamble;
    }
    // Anything else — wrong-sized junk, or a header with no preamble in
    // front of it — is a leftover of the previous stream.
    discard_stale_paquet(channel, peer, self, wire);
  }
}

void VirtualChannel::complete_stream(Channel& channel, NodeRank peer,
                                     std::uint32_t epoch,
                                     std::uint32_t last_seq) {
  Connection& conn = channel.connection_to(peer);
  conn.rx_epoch_done = std::max(conn.rx_epoch_done, epoch);
  spawn_tail_acker(channel, peer, epoch, last_seq);
}

void VirtualChannel::spawn_tail_acker(Channel& channel, NodeRank peer,
                                      std::uint32_t epoch,
                                      std::uint32_t last_seq) {
  const Connection& conn = channel.connection_to(peer);
  net::Network& network = channel.network();
  const std::uint64_t tag = conn.rx_tag;
  const int self_nic = channel.tm().nic().index();
  const int peer_nic = conn.peer_nic_index;
  const sim::Time interval = options_.reliable.ack_timeout;
  const int reposts = options_.reliable.max_attempts;
  domain_.engine().spawn(
      name_ + ".tailack." + std::to_string(peer),
      [this, &network, tag, self_nic, peer_nic, epoch, last_seq, interval,
       reposts] {
        sim::Engine& eng = domain_.engine();
        // One repost surviving suppression is enough (the ack board
        // retains it and wakes the sender), so max_attempts reposts spaced
        // ack_timeout apart outlast any transient fault window the sender
        // itself is expected to ride out.
        for (int i = 0; i < reposts; ++i) {
          eng.sleep_for(interval);
          network.post_ack(tag, self_nic, peer_nic, epoch, last_seq);
        }
      },
      /*daemon=*/true);
}

void VirtualChannel::fail_over(NodeRank self, NodeRank dst,
                               const HopFailure* failed,
                               const std::string& where) {
  ReliabilityStats& stats = mutable_gateway_stats(self).reliability;
  sim::MetricsRegistry& metrics = domain_.fabric().metrics();
  const std::string node_label = "node=" + std::to_string(self);
  if (failed != nullptr) {
    mark_dead(failed->next_hop);
    ++stats.peers_declared_dead;
    metrics.add("rel.dead_peers", node_label);
    if (options_.trace != nullptr) {
      options_.trace->instant_here(
          "rel.dead", "peer=" + std::to_string(failed->next_hop));
    }
  }
  if (!routing_->reachable(self, dst)) {
    const std::string why =
        failed != nullptr ? "gateway " + std::to_string(failed->next_hop) +
                                " declared dead after " +
                                std::to_string(failed->attempts) + " attempts"
                          : "no route survives the failed nodes";
    MAD_PANIC("node " + std::to_string(dst) + " unreachable from " +
              std::to_string(self) + where + ": " + why +
              " and no alternate route exists");
  }
  if (failed != nullptr) {
    ++stats.failovers;
    metrics.add("rel.failovers", node_label);
    if (options_.trace != nullptr) {
      options_.trace->instant_here(
          "rel.failover", "dst=" + std::to_string(dst) + " around=" +
                              std::to_string(failed->next_hop));
    }
  }
}

void VirtualChannel::reject_backoff(NodeRank self, int attempts,
                                    std::uint64_t jitter_seed,
                                    const std::string& detail) {
  const FlowOptions& flow = options_.flow;
  double delay = static_cast<double>(flow.reject_backoff);
  const double cap = static_cast<double>(flow.reject_backoff_cap);
  for (int i = 0; i < attempts && delay < cap; ++i) {
    delay *= flow.reject_backoff_factor;
  }
  delay = std::min(delay, cap);
  util::Rng jitter(jitter_seed);
  delay += delay * 0.25 * jitter.next_double();
  domain_.fabric().metrics().add("flow.reject_retries",
                                 "node=" + std::to_string(self));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("flow.rejected", detail);
  }
  domain_.engine().sleep_for(static_cast<sim::Time>(delay));
}

void VirtualChannel::mark_dead(NodeRank rank) {
  dead_.insert(rank);
  const bool was_excluded = routing_->excluded(rank);
  routing_->exclude(rank);
  if (health_ != nullptr && !was_excluded) {
    health_->note_excluded(rank, domain_.engine().now());
  }
  // The dead node's adapters take their registration state with them:
  // every cached pin on its NICs is invalid the moment it crashes.
  for (net::Network* network : networks_) {
    if (!domain_.has_nic(rank, *network)) {
      continue;
    }
    const auto it = rdma_tms_.find(&domain_.nic_of(rank, *network));
    if (it != rdma_tms_.end()) {
      it->second->invalidate();
    }
  }
}

RdmaTm* VirtualChannel::rdma_tm(net::Nic& nic) const {
  if (!options_.rdma.enabled) {
    return nullptr;
  }
  auto it = rdma_tms_.find(&nic);
  if (it == rdma_tms_.end()) {
    it = rdma_tms_
             .emplace(&nic, std::make_unique<RdmaTm>(
                                domain_.engine(), nic, options_.rdma,
                                name_ + ".rdma." + nic.network().name() +
                                    ".nic" + std::to_string(nic.index())))
             .first;
  }
  return it->second.get();
}

RdmaTotals VirtualChannel::rdma_totals() const {
  RdmaTotals totals;
  for (const auto& [nic, tm] : rdma_tms_) {
    const MrCacheStats& s = tm->cache().stats();
    totals.cache.hits += s.hits;
    totals.cache.misses += s.misses;
    totals.cache.evictions += s.evictions;
    totals.cache.invalidations += s.invalidations;
    totals.writes += tm->writes();
    totals.bytes_written += tm->bytes_written();
    totals.rendezvous += tm->rendezvous_count();
    totals.rendezvous_hits += tm->rendezvous_hits();
  }
  return totals;
}

bool VirtualChannel::is_dead(NodeRank rank) const {
  return dead_.count(rank) != 0;
}

bool VirtualChannel::node_crashed(NodeRank rank) const {
  const sim::Time now = domain_.engine().now();
  for (const int local : topology_->networks_of(rank)) {
    net::Network& net = network(local);
    const net::FaultInjector* injector = net.fault_injector();
    if (injector != nullptr &&
        injector->nic_down(domain_.nic_of(rank, net).index(), now)) {
      return true;
    }
  }
  return false;
}

bool VirtualChannel::node_crashed_within(NodeRank rank,
                                         sim::Time since) const {
  const sim::Time now = domain_.engine().now();
  for (const int local : topology_->networks_of(rank)) {
    net::Network& net = network(local);
    const net::FaultInjector* injector = net.fault_injector();
    if (injector != nullptr &&
        injector->nic_down_within(domain_.nic_of(rank, net).index(), since,
                                  now)) {
      return true;
    }
  }
  return false;
}

void VirtualChannel::quarantine_node(NodeRank rank, sim::Time now) {
  // Snapshot which member pairs can currently talk; if dropping the node
  // would disconnect any of them, keep the sick gateway — degraded service
  // beats a partition.
  std::vector<std::pair<NodeRank, NodeRank>> connected;
  for (const auto& [a, unused_a] : endpoints_) {
    for (const auto& [b, unused_b] : endpoints_) {
      if (a < b && a != rank && b != rank && routing_->reachable(a, b)) {
        connected.emplace_back(a, b);
      }
    }
  }
  routing_->exclude(rank);
  for (const auto& [a, b] : connected) {
    if (!routing_->reachable(a, b)) {
      routing_->readmit(rank);
      domain_.fabric().metrics().add("health.quarantine_vetoed",
                                     "node=" + std::to_string(rank));
      return;
    }
  }
  health_->note_excluded(rank, now);
  domain_.fabric().metrics().add("health.quarantines",
                                 "node=" + std::to_string(rank));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("health.quarantine",
                                 "node=" + std::to_string(rank));
  }
}

void VirtualChannel::readmit_node(NodeRank rank, sim::Time now) {
  routing_->readmit(rank);
  dead_.erase(rank);
  health_->note_readmitted(rank, now);
  domain_.fabric().metrics().add("health.readmissions",
                                 "node=" + std::to_string(rank));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("health.readmit",
                                 "node=" + std::to_string(rank));
  }
}

void VirtualChannel::spawn_health_actor() {
  domain_.engine().spawn(
      name_ + ".health",
      [this] {
        sim::Engine& eng = domain_.engine();
        for (;;) {
          eng.sleep_for(options_.health.check_interval);
          const sim::Time now = eng.now();
          for (const auto& [rank, endpoint] : endpoints_) {
            if (!is_gateway(rank)) {
              continue;
            }
            if (!routing_->excluded(rank)) {
              if (!health_->node_healthy(rank, now)) {
                quarantine_node(rank, now);
              }
            } else if (health_->may_readmit(rank, now) &&
                       !node_crashed(rank)) {
              // Trial readmission: a still-sick node fails fast, gets
              // re-excluded with a grown flap penalty, and is eventually
              // suppressed until the penalty decays — BGP damping.
              readmit_node(rank, now);
            }
          }
          health_->advance(now);
          if (health_->take_costs_dirty()) {
            routing_->refresh_costs();
            domain_.fabric().metrics().add("health.cost_refreshes",
                                           "vc=" + name_);
          }
        }
      },
      /*daemon=*/true);
}

bool VirtualChannel::is_member(NodeRank rank) const {
  return !topology_->networks_of(rank).empty();
}

bool VirtualChannel::is_gateway(NodeRank rank) const {
  return topology_->is_gateway(rank);
}

VcEndpoint& VirtualChannel::endpoint(NodeRank rank) const {
  const auto it = endpoints_.find(rank);
  MAD_ASSERT(it != endpoints_.end(),
             "node " + std::to_string(rank) +
                 " is not a member of virtual channel '" + name_ + "'");
  return *it->second;
}

const GatewayStats& VirtualChannel::gateway_stats(NodeRank rank) const {
  return gateway_stats_[rank];
}

GatewayStats& VirtualChannel::mutable_gateway_stats(NodeRank rank) {
  return gateway_stats_[rank];
}

Channel& VirtualChannel::regular_channel(int local_net, NodeRank rank) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return domain_.endpoint(regular_ids_[static_cast<std::size_t>(local_net)],
                          rank);
}

Channel& VirtualChannel::special_channel(int local_net, NodeRank rank) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return domain_.endpoint(special_ids_[static_cast<std::size_t>(local_net)],
                          rank);
}

Channel& VirtualChannel::rail_regular_channel(int local_net, int rail,
                                              NodeRank rank) const {
  if (rail == 0) {
    return regular_channel(local_net, rank);
  }
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  MAD_ASSERT(rail > 0 && rail < options_.max_rails, "bad rail index");
  return domain_.endpoint(
      stripe_regular_ids_[static_cast<std::size_t>(rail - 1)]
                         [static_cast<std::size_t>(local_net)],
      rank);
}

Channel& VirtualChannel::rail_special_channel(int local_net, int rail,
                                              NodeRank rank) const {
  if (rail == 0) {
    return special_channel(local_net, rank);
  }
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  MAD_ASSERT(rail > 0 && rail < options_.max_rails, "bad rail index");
  return domain_.endpoint(
      stripe_special_ids_[static_cast<std::size_t>(rail - 1)]
                         [static_cast<std::size_t>(local_net)],
      rank);
}

net::Network& VirtualChannel::network(int local_net) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return *networks_[static_cast<std::size_t>(local_net)];
}

void VirtualChannel::spawn_pollers() {
  sim::Engine& engine = domain_.engine();
  for (const auto& [rank, endpoint] : endpoints_) {
    for (const int local : topology_->networks_of(rank)) {
      Channel& channel = regular_channel(local, rank);
      VcEndpoint* ep = endpoint.get();
      const std::string actor_name = name_ + ".poll." + std::to_string(rank) +
                                     "." + network(local).name();
      engine.spawn(
          actor_name,
          [this, &channel, ep, actor_name] {
            sim::Engine& eng = domain_.engine();
            for (;;) {
              channel.wait_incoming();
              MessageReader reader = channel.begin_unpacking();
              Preamble preamble{};
              std::optional<GtmMsgHeader> header;
              if (options_.reliable.enabled) {
                // Boundary parse: skips late retransmits and ghost framing
                // of finished streams; pre-reads the GTM header of a
                // forwarded message (the ghost filter needs its epoch).
                preamble =
                    read_stream_head(reader, channel, ep->rank(), header);
              } else {
                preamble = read_preamble(reader);
              }
              auto done =
                  std::make_shared<sim::Condition>(eng, actor_name + ".done");
              ep->inbox().send(VcIncoming{std::move(reader), preamble,
                                          header, &channel, done});
              // Serialize messages per real channel: the next
              // begin_unpacking would otherwise steal packets of the
              // message the application is still consuming.
              done->wait();
            }
          },
          /*daemon=*/true);
      // Stripe-channel pollers (rails >= 1): read all three bootstrap
      // headers so the park is already matchable by (origin, stripe_id,
      // rail), then serialize per channel exactly like the regular poller.
      for (int rail = 1; rail < options_.max_rails; ++rail) {
        Channel& stripe_channel = rail_regular_channel(local, rail, rank);
        const std::string stripe_name = name_ + ".stpoll" +
                                        std::to_string(rail) + "." +
                                        std::to_string(rank) + "." +
                                        network(local).name();
        engine.spawn(
            stripe_name,
            [this, &stripe_channel, ep, stripe_name, rail] {
              sim::Engine& eng = domain_.engine();
              for (;;) {
                stripe_channel.wait_incoming();
                MessageReader reader = stripe_channel.begin_unpacking();
                Preamble preamble{};
                GtmMsgHeader header{};
                GtmStripeHeader stripe{};
                if (options_.reliable.enabled) {
                  std::optional<GtmMsgHeader> h;
                  preamble = read_stream_head(reader, stripe_channel,
                                              ep->rank(), h, &stripe);
                  MAD_ASSERT(h.has_value(),
                             "native message on a stripe channel");
                  header = *h;
                } else {
                  preamble = read_preamble(reader);
                  MAD_ASSERT(preamble.forwarded != 0,
                             "native message on a stripe channel");
                  header = read_msg_header(reader);
                  stripe = read_stripe_header(reader);
                }
                MAD_ASSERT((header.flags & kGtmFlagStriped) != 0,
                           "non-striped message on a stripe channel");
                MAD_ASSERT(stripe.rail == static_cast<std::uint16_t>(rail),
                           "rail delivered on the wrong stripe channel");
                auto done = std::make_shared<sim::Condition>(
                    eng, stripe_name + ".done");
                ep->stripe_inbox().send(StripeIncoming{
                    std::move(reader), preamble, header, stripe,
                    &stripe_channel, done});
                done->wait();
              }
            },
            /*daemon=*/true);
      }
    }
  }
}

void VirtualChannel::spawn_gateways() { spawn_gateway_actors(*this); }

// ------------------------------------------------------------- VcEndpoint

VcEndpoint::VcEndpoint(VirtualChannel& vc, NodeRank rank)
    : vc_(vc),
      rank_(rank),
      inbox_(vc.domain().engine(), /*capacity=*/0,
             vc.name() + ".inbox." + std::to_string(rank)),
      stripe_inbox_(vc.domain().engine(), /*capacity=*/0,
                    vc.name() + ".stinbox." + std::to_string(rank)) {}

StripeIncoming VcEndpoint::collect_rail(std::uint32_t origin,
                                        std::uint32_t stripe_id,
                                        std::uint16_t rail) {
  const auto matches = [&](const StripeIncoming& inc) {
    return inc.preamble.origin == origin && inc.stripe.stripe_id == stripe_id &&
           inc.stripe.rail == rail;
  };
  for (auto it = stripe_pending_.begin(); it != stripe_pending_.end(); ++it) {
    if (matches(*it)) {
      StripeIncoming inc = std::move(*it);
      stripe_pending_.erase(it);
      return inc;
    }
  }
  for (;;) {
    StripeIncoming inc = stripe_inbox_.recv();
    if (matches(inc)) {
      return inc;
    }
    stripe_pending_.push_back(std::move(inc));
  }
}

std::optional<VcIncoming> VcEndpoint::collect_replacement(
    NodeRank origin, sim::Time deadline) {
  const auto matches = [&](const VcIncoming& inc) {
    return inc.preamble.forwarded != 0 &&
           inc.preamble.origin == static_cast<std::uint32_t>(origin);
  };
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (matches(*it)) {
      VcIncoming inc = std::move(*it);
      pending_.erase(it);
      return inc;
    }
  }
  for (;;) {
    auto inc = inbox_.recv_until(deadline);
    if (!inc) {
      return std::nullopt;
    }
    if (matches(*inc)) {
      return std::move(*inc);
    }
    pending_.push_back(std::move(*inc));
  }
}

VcMessageWriter VcEndpoint::begin_packing(NodeRank dst) {
  return VcMessageWriter(vc_, rank_, dst);
}

std::optional<VcIncoming> VcEndpoint::take_pending() {
  std::optional<VcIncoming> inc(std::move(pending_.front()));
  pending_.pop_front();
  return inc;
}

VcMessageReader VcEndpoint::begin_unpacking() {
  return VcMessageReader(*this,
                         pending_.empty() ? inbox_.recv() : *take_pending());
}

std::optional<VcMessageReader> VcEndpoint::try_begin_unpacking() {
  auto inc = pending_.empty() ? inbox_.try_recv() : take_pending();
  if (!inc) {
    return std::nullopt;
  }
  return VcMessageReader(*this, std::move(*inc));
}

std::optional<VcMessageReader> VcEndpoint::begin_unpacking_until(
    sim::Time deadline) {
  auto inc = pending_.empty() ? inbox_.recv_until(deadline) : take_pending();
  if (!inc) {
    return std::nullopt;
  }
  return VcMessageReader(*this, std::move(*inc));
}

// -------------------------------------------------------- VcMessageWriter

VcMessageWriter::VcMessageWriter(VirtualChannel& vc, NodeRank src,
                                 NodeRank dst)
    : dst_(dst) {
  MAD_ASSERT(vc.is_member(src) && vc.is_member(dst),
             "both ends must be members of the virtual channel");
  // Route by value: a reliable writer elsewhere on this node can call
  // mark_dead (rebuilding the routing table) while this writer blocks in
  // begin_packing — references into the table would dangle.
  topo::Route route = vc.routing().route(src, dst);
  if (route.size() == 1) {
    // No gateway: regular channel, native format, full optimizations.
    // (Also no reliability: the reliable framing protects forwarded
    // traffic only.)
    Channel& channel = vc.regular_channel(route.front().network, src);
    inner_.emplace(channel.begin_packing(dst));
    write_preamble(*inner_, Preamble{static_cast<std::uint32_t>(src), 0});
    return;
  }
  if (vc.max_rails() > 1) {
    std::vector<RailPlan> plans = plan_rails(vc, src, dst, vc.max_rails());
    if (plans.size() > 1) {
      striper_ = std::make_unique<Striper>(
          vc, src, dst, std::move(plans), vc.endpoint(src).next_stripe_id());
      return;
    }
  }
  // At least one gateway: a GTM stream with self-description.
  forwarded_ = std::make_unique<OriginStream>(vc, src, dst, std::move(route));
}

VcMessageWriter::VcMessageWriter(VcMessageWriter&&) noexcept = default;
VcMessageWriter::~VcMessageWriter() = default;

void VcMessageWriter::pack(util::ByteSpan data, SendMode smode,
                           RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  if (striper_ != nullptr) {
    striper_->pack(data, smode, rmode);
  } else if (forwarded_ != nullptr) {
    forwarded_->block(block_header_for(data.size(), smode, rmode), data);
  } else {
    inner_->pack(data, smode, rmode);
  }
}

void VcMessageWriter::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  if (striper_ != nullptr) {
    striper_->end_packing();
  } else if (forwarded_ != nullptr) {
    forwarded_->end();
  } else {
    inner_->end_packing();
  }
  ended_ = true;
}

// -------------------------------------------------------- VcMessageReader

VcMessageReader::VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming)
    : incoming_(std::move(incoming)),
      vc_(&endpoint.vc()),
      endpoint_(&endpoint),
      self_(endpoint.rank()),
      mtu_(endpoint.vc().mtu()) {
  if (forwarded()) {
    // In reliable mode the polling actor already pulled the header off the
    // stream (its epoch drives the ghost filter); re-reading it here would
    // desynchronize the stream.
    gtm_header_ = incoming_->gtm_header ? *incoming_->gtm_header
                                        : read_msg_header(incoming_->reader);
    MAD_ASSERT(gtm_header_.final_dst ==
                   static_cast<std::uint32_t>(endpoint.rank()),
               "forwarded message delivered to the wrong node");
    MAD_ASSERT(gtm_header_.origin == incoming_->preamble.origin,
               "preamble/GTM origin mismatch");
    MAD_ASSERT(gtm_header_.mtu == mtu_, "GTM MTU mismatch");
    reliable_ = (gtm_header_.flags & kGtmFlagReliable) != 0;
    MAD_ASSERT(reliable_ == vc_->reliable(),
               "reliable-mode mismatch between sender and receiver");
    if (striped()) {
      stripe_ = read_stripe_header(incoming_->reader);
      MAD_ASSERT(stripe_.rail == 0,
                 "rail 0 must arrive on the regular channel");
    }
  }
}

VcMessageReader::VcMessageReader(VcMessageReader&&) noexcept = default;
VcMessageReader::~VcMessageReader() = default;

void VcMessageReader::ensure_reassembler() {
  if (reassembler_ == nullptr) {
    reassembler_ = std::make_unique<Reassembler>(*endpoint_, *incoming_,
                                                 gtm_header_, stripe_);
  }
}

void VcMessageReader::ensure_receiver() {
  if (receiver_ == nullptr) {
    // window = 1 keeps the PR-1 blocking receive (no liveness polling);
    // only the windowed protocol streams partial messages through
    // gateways, so only it can strand a reader on a dead upstream hop.
    receiver_ = std::make_unique<ReliableReceiver>(
        *vc_, self_, *incoming_->channel, incoming_->reader.source(),
        gtm_header_.epoch,
        /*detect_dead=*/vc_->options().reliable.window > 1);
  }
}

void VcMessageReader::adopt() {
  const NodeRank origin = source();
  sim::Engine& engine = vc_->domain().engine();
  const sim::Time poll = vc_->options().reliable.ack_timeout;
  std::vector<std::byte> skip;
  for (;;) {
    // Abandon the dead gateway's stream: in paquet mode the reader holds
    // no partial-packet state, so closing it is a no-op at the BMM level,
    // and releasing `done` lets the polling actor pick up the replacement
    // message on this same real channel.
    incoming_->reader.end_unpacking();
    incoming_->done->notify_all();
    incoming_.reset();
    receiver_.reset();
    while (!incoming_) {  // recheck reachability each ack_timeout slice
      if (!vc_->routing().reachable(origin, self_)) {
        MAD_PANIC("node " + std::to_string(self_) +
                  " cannot adopt the stream from origin " +
                  std::to_string(origin) +
                  ": origin unreachable, no route survives the failed nodes");
      }
      if (auto replacement =
              endpoint_->collect_replacement(origin, engine.now() + poll)) {
        incoming_.emplace(std::move(*replacement));
      }
    }
    MAD_ASSERT(incoming_->gtm_header.has_value(),
               "reliable replacement stream arrived without its header");
    const GtmMsgHeader header = *incoming_->gtm_header;
    MAD_ASSERT(header.final_dst == gtm_header_.final_dst &&
                   header.origin == gtm_header_.origin &&
                   header.mtu == gtm_header_.mtu &&
                   header.flags == gtm_header_.flags,
               "replayed message does not match the abandoned stream");
    gtm_header_ = header;  // fresh epoch
    next_seq_ = 0;
    ensure_receiver();
    // The origin replays the whole message; skip what was already
    // consumed so unpack resumes exactly where the old stream broke.
    try {
      for (std::uint64_t b = 0; b < blocks_consumed_; ++b) {
        const GtmBlockHeader h = read_hop_block_header(
            incoming_->reader, receiver_.get(), next_seq_);
        MAD_ASSERT(h.end_of_message == 0,
                   "replayed message shorter than the consumed prefix");
        skip.resize(h.size);
        read_hop_fragments(incoming_->reader, receiver_.get(), next_seq_,
                           util::MutByteSpan(skip), mtu_);
      }
      return;
    } catch (const PeerDied&) {
      // The replacement's gateway died too: abandon it, keep waiting.
    }
  }
}

NodeRank VcMessageReader::source() const {
  return static_cast<NodeRank>(incoming_->preamble.origin);
}

void VcMessageReader::unpack(util::MutByteSpan dst, SendMode smode,
                             RecvMode rmode) {
  MAD_ASSERT(!ended_, "unpack after end_unpacking");
  if (!forwarded()) {
    incoming_->reader.unpack(dst, smode, rmode);
    return;
  }
  if (striped()) {
    ensure_reassembler();
    reassembler_->unpack(dst, smode, rmode);
    return;
  }
  for (;;) {
    try {
      check_block_header(next_block_header(), dst.size(), smode, rmode);
      read_hop_fragments(incoming_->reader, receiver_.get(), next_seq_, dst,
                         mtu_);
      ++blocks_consumed_;
      return;
    } catch (const PeerDied&) {
      adopt();  // restarts this block on the replayed stream
    }
  }
}

GtmBlockHeader VcMessageReader::next_block_header() {
  if (reliable_) {
    // The per-hop stream peer is whoever sent on this real channel — the
    // last gateway in general (incoming_->reader.source(), not the
    // preamble origin).
    ensure_receiver();
  }
  return read_hop_block_header(incoming_->reader, receiver_.get(), next_seq_);
}

void VcMessageReader::end_unpacking() {
  MAD_ASSERT(!ended_, "end_unpacking called twice");
  if (striped()) {
    // All rails' end markers (a zero-block striped message still built no
    // reassembler yet — build it so rails 1..k-1 get claimed and closed).
    ensure_reassembler();
    reassembler_->end_unpacking();
  } else if (forwarded()) {
    // In reliable mode the end marker is a reliable paquet too: its ack
    // confirms the whole message made it across this hop.
    for (;;) {
      try {
        check_end_marker(next_block_header());
        break;
      } catch (const PeerDied&) {
        adopt();
      }
    }
    if (reliable_) {
      vc_->complete_stream(*incoming_->channel, incoming_->reader.source(),
                           gtm_header_.epoch, next_seq_ - 1);
    }
  }
  incoming_->reader.end_unpacking();
  ended_ = true;
  incoming_->done->notify_all();
}

}  // namespace mad::fwd
