#include "fwd/stripe.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "fwd/reliable.hpp"
#include "mad/channel.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

std::vector<std::uint32_t> shares_of(const std::vector<RailPlan>& plans) {
  std::vector<std::uint32_t> shares;
  shares.reserve(plans.size());
  for (const RailPlan& plan : plans) {
    shares.push_back(plan.share);
  }
  return shares;
}

std::string rail_label(NodeRank node, std::size_t rail) {
  return "node=" + std::to_string(node) + ",rail=" + std::to_string(rail);
}

/// Releases one rail credit on scope exit — including exceptional unwind
/// (a repair that panics with no surviving route, engine shutdown) — so a
/// dying rail never strands the chunk it was holding.
class CreditGuard {
 public:
  explicit CreditGuard(CreditWindow& credits) : credits_(credits) {}
  ~CreditGuard() { credits_.release(); }
  CreditGuard(const CreditGuard&) = delete;
  CreditGuard& operator=(const CreditGuard&) = delete;

 private:
  CreditWindow& credits_;
};

}  // namespace

std::vector<RailPlan> plan_rails(const VirtualChannel& vc, NodeRank src,
                                 NodeRank dst, int max_rails) {
  std::vector<RailPlan> plans;
  const std::vector<topo::Route> routes =
      vc.routing().disjoint_routes(src, dst, static_cast<std::size_t>(
                                                 std::max(max_rails, 0)));
  if (routes.size() < 2) {
    for (const topo::Route& route : routes) {
      plans.push_back(RailPlan{route, 1});
    }
    return plans;
  }
  // Weight each rail by its own route MTU: a rail whose networks carry
  // bigger paquets ships proportionally more of the (vc-wide, minimum)
  // MTU-sized paquets per round.
  std::vector<std::uint32_t> mtus;
  mtus.reserve(routes.size());
  for (const topo::Route& route : routes) {
    std::vector<net::Network*> nets;
    nets.reserve(route.size());
    for (const topo::Hop& hop : route) {
      nets.push_back(&vc.network(hop.network));
    }
    mtus.push_back(
        compute_route_mtu(vc.domain(), nets, vc.options().paquet_size));
  }
  const std::uint32_t min_mtu = *std::min_element(mtus.begin(), mtus.end());
  for (std::size_t r = 0; r < routes.size(); ++r) {
    std::uint32_t share =
        std::clamp<std::uint32_t>(mtus[r] / min_mtu, 1, 64);
    const auto& weights = vc.options().rail_weights;
    if (r < weights.size() && weights[r] > 0) {
      share = std::min<std::uint32_t>(weights[r], 1024);
    }
    plans.push_back(RailPlan{routes[r], share});
  }
  // Graceful rail degradation: demote a sick rail's share in proportion to
  // its route health and drop it entirely below rail_drop_score. Dropping
  // to a single rail returns that one plan — the caller then sends
  // unstriped, which is exactly the degraded mode we want.
  if (const topo::HealthMonitor* health = vc.health()) {
    const sim::Time now = vc.domain().engine().now();
    sim::MetricsRegistry& metrics = vc.domain().fabric().metrics();
    std::vector<RailPlan> kept;
    kept.reserve(plans.size());
    for (std::size_t r = 0; r < plans.size(); ++r) {
      const double score = health->route_score(src, plans[r].route, now);
      if (score < health->options().rail_drop_score) {
        metrics.add("health.rails_dropped",
                    rail_label(src, r));
        continue;
      }
      RailPlan plan = plans[r];
      const auto scaled = static_cast<std::uint32_t>(
          std::lround(static_cast<double>(plan.share) * score));
      if (scaled < plan.share) {
        metrics.add("health.rails_demoted", rail_label(src, r));
      }
      plan.share = std::max<std::uint32_t>(1, scaled);
      kept.push_back(std::move(plan));
    }
    if (!kept.empty()) {
      plans = std::move(kept);
    }
  }
  return plans;
}

// ---------------------------------------------------------- StripeSchedule

StripeSchedule::StripeSchedule(std::vector<std::uint32_t> shares)
    : shares_(std::move(shares)) {
  MAD_ASSERT(!shares_.empty(), "stripe schedule needs at least one share");
  for (const std::uint32_t share : shares_) {
    MAD_ASSERT(share > 0, "zero stripe share");
  }
}

StripeSchedule::Chunk StripeSchedule::next(std::uint64_t remaining,
                                           std::uint32_t mtu) {
  MAD_ASSERT(!shares_.empty(), "stripe schedule used before assignment");
  if (remaining == 0) {
    return {rail_, 0};
  }
  const std::uint32_t avail = shares_[rail_] - used_;
  const std::uint64_t needed = fragment_count(remaining, mtu);
  const std::uint64_t take = std::min<std::uint64_t>(avail, needed);
  const std::uint64_t bytes =
      std::min<std::uint64_t>(take * static_cast<std::uint64_t>(mtu),
                              remaining);
  const Chunk chunk{rail_, bytes};
  used_ += static_cast<std::uint32_t>(take);
  if (used_ == shares_[rail_]) {
    rail_ = (rail_ + 1) % shares_.size();
    used_ = 0;
  }
  return chunk;
}

// ----------------------------------------------------------------- Striper

Striper::Striper(VirtualChannel& vc, NodeRank src, NodeRank dst,
                 std::vector<RailPlan> plans, std::uint32_t stripe_id)
    : vc_(vc),
      src_(src),
      dst_(dst),
      stripe_id_(stripe_id),
      schedule_(shares_of(plans)),
      done_(vc.domain().engine(),
            vc.name() + ".stripe.done." + std::to_string(src)) {
  MAD_ASSERT(plans.size() >= 2, "striping needs at least two rails");
  MAD_ASSERT(plans.size() <= 0xFFFF, "rail count exceeds the wire format");
  sim::Engine& engine = vc.domain().engine();
  rails_.reserve(plans.size());
  for (std::size_t r = 0; r < plans.size(); ++r) {
    rails_.push_back(std::make_unique<Rail>(
        engine, std::move(plans[r]), vc.options().rail_credit_chunks,
        vc.name() + ".rail" + std::to_string(r) + "." + std::to_string(src)));
  }
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    engine.spawn(vc.name() + ".rail" + std::to_string(r) + "." +
                     std::to_string(src) + "->" + std::to_string(dst),
                 [this, r] { run_rail(r); });
  }
}

// No assert on ended_: when a rail actor panics (no surviving route), the
// exception unwinds the app actor's stack through this destructor while
// the engine is shutting down — the rail actors never run again.
Striper::~Striper() = default;

void Striper::feed(std::size_t rail, RailItem item) {
  // One credit per chunk: a rail that stopped draining (slow, regulated,
  // mid-repair) blocks the producer HERE — only once its own window is
  // exhausted, and without touching the other rails.
  rails_[rail]->credits.acquire();
  rails_[rail]->items.send(std::move(item));
}

void Striper::pack(util::ByteSpan data, SendMode smode, RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  util::ByteSpan src = data;
  if (smode == SendMode::Safer) {
    // Safer lets the app reuse the buffer as soon as pack() returns, but
    // the rail actor sends later: snapshot into the striper's arena (kept
    // until destruction — reliable repair may replay it much later).
    copies_.emplace_back(data.begin(), data.end());
    src = util::ByteSpan(copies_.back());
  }
  const std::uint8_t wire_smode = encode(smode);
  const std::uint8_t wire_rmode = encode(rmode);
  if (src.empty()) {
    const StripeSchedule::Chunk chunk = schedule_.next(0, vc_.mtu());
    feed(chunk.rail, RailItem{src, wire_smode, wire_rmode, false});
    return;
  }
  std::size_t offset = 0;
  while (offset < src.size()) {
    const StripeSchedule::Chunk chunk =
        schedule_.next(src.size() - offset, vc_.mtu());
    feed(chunk.rail, RailItem{src.subspan(offset, chunk.bytes), wire_smode,
                              wire_rmode, false});
    offset += chunk.bytes;
  }
}

void Striper::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  for (const std::unique_ptr<Rail>& rail : rails_) {
    rail->items.send(RailItem{{}, 0, 0, true});
  }
  while (rails_done_ < rails_.size()) {
    done_.wait();
  }
  ended_ = true;
}

void Striper::run_rail(std::size_t index) {
  Rail& rail = *rails_[index];
  sim::Engine& engine = vc_.domain().engine();
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  const std::string label = rail_label(src_, index);
  const std::uint8_t flags =
      kGtmFlagStriped | (vc_.reliable() ? kGtmFlagReliable : 0);

  std::vector<RailItem> sent;  // reliable mode: emitted chunks, for repair
  Channel* out = nullptr;
  NodeRank next = -1;
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;
  std::uint64_t route_epoch = 0;
  std::optional<MessageWriter> writer;
  std::unique_ptr<ReliableSender> sender;

  const auto open = [&](const topo::Route& route) {
    const topo::Hop first = route.front();
    route_epoch = vc_.routing().epoch();
    // A repaired rail may degrade to a direct hop (every gateway between
    // the pair died but they share a network): deliver straight on the
    // rail's regular channel, playing the last-hop gateway's role.
    const bool deliver = route.size() == 1;
    Channel& channel =
        deliver ? vc_.rail_regular_channel(first.network,
                                           static_cast<int>(index), src_)
                : vc_.rail_special_channel(first.network,
                                           static_cast<int>(index), src_);
    out = &channel;
    next = first.node;
    GtmMsgHeader hdr{static_cast<std::uint32_t>(dst_),
                     static_cast<std::uint32_t>(src_), vc_.mtu(), 0, flags};
    if (vc_.reliable()) {
      epoch = ++channel.connection_to(next).tx_epoch;
      hdr.epoch = epoch;
    }
    seq = 0;
    const Preamble preamble{static_cast<std::uint32_t>(src_), 1};
    const GtmStripeHeader stripe_hdr{stripe_id_,
                                     static_cast<std::uint16_t>(index),
                                     static_cast<std::uint16_t>(rails_.size()),
                                     rail.plan.share};
    writer.emplace(channel.begin_packing(next));
    write_preamble(*writer, preamble);
    write_msg_header(*writer, hdr);
    write_stripe_header(*writer, stripe_hdr);
    if (vc_.reliable()) {
      // One sliding window per rail: each rail pipelines its own hop's
      // ack round trips, composing with (not replacing) the credit
      // window's chunk-level backpressure.
      sender = std::make_unique<ReliableSender>(vc_, src_, *writer, channel,
                                                next, epoch);
      sender->set_framing(preamble, hdr, stripe_hdr);
    }
  };

  const auto emit_chunk = [&](const RailItem& item) {
    const sim::Time begin = engine.now();
    const GtmBlockHeader bh{item.data.size(), item.smode, item.rmode, 0};
    const std::uint64_t fragments =
        fragment_count(item.data.size(), vc_.mtu());
    if (vc_.reliable()) {
      sender->send_block_header(seq++, bh);
      for (std::uint64_t i = 0; i < fragments; ++i) {
        const std::uint32_t fsize =
            fragment_size(item.data.size(), vc_.mtu(), i);
        sender->send(seq++, item.data.subspan(i * vc_.mtu(), fsize));
      }
    } else {
      write_block_header(*writer, bh);
      for (std::uint64_t i = 0; i < fragments; ++i) {
        const std::uint32_t fsize =
            fragment_size(item.data.size(), vc_.mtu(), i);
        writer->pack(item.data.subspan(i * vc_.mtu(), fsize),
                     SendMode::Cheaper, RecvMode::Express);
      }
    }
    if (metrics.enabled()) {
      metrics.add("stripe.tx_paquets", label, fragments);
      metrics.add("stripe.tx_bytes", label, item.data.size());
    }
    if (vc_.options().trace != nullptr) {
      vc_.options().trace->record(begin, engine.now(), "stripe.tx",
                                  "rail=" + std::to_string(index) +
                                      " bytes=" +
                                      std::to_string(item.data.size()));
    }
  };

  const auto emit_end = [&] {
    if (vc_.reliable()) {
      // The end marker joins the window like any paquet; flush() then
      // blocks until the whole rail is acked.
      sender->send_block_header(seq, end_marker());
      sender->flush();
    } else {
      write_block_header(*writer, end_marker());
    }
  };

  // The repair-rail loop: declare the failed hop dead (when a HopFailure
  // triggered the repair — a proactive reroute on a stale route passes
  // nullptr and skips the death bookkeeping), reopen this rail's stream
  // (same rail identity and share, fresh epoch) over the current best
  // surviving route, and replay everything already handed to this rail.
  // Overlap with a surviving rail's route is fine — the rail keeps its own
  // channel pair, so the shared gateway relays both streams without
  // interleaving them.
  const auto repair = [&](const HopFailure* failure, const RailItem* current,
                          bool finishing) {
    std::optional<HopFailure> failed;
    if (failure != nullptr) {
      failed = *failure;
    }
    for (;;) {
      // The failed window dies with its sender; Express flushing left
      // nothing buffered, so closing the dead-hop message is non-blocking
      // and releases the connection's tx lock.
      sender.reset();
      writer->end_packing();
      writer.reset();
      vc_.fail_over(src_, dst_, failed ? &*failed : nullptr,
                    " on rail " + std::to_string(index));
      if (!failed) {
        metrics.add("health.reroutes", "node=" + std::to_string(src_));
        if (vc_.options().trace != nullptr) {
          vc_.options().trace->instant_here(
              "health.reroute", "rail=" + std::to_string(index) +
                                    " from=" + std::to_string(next));
        }
      }
      metrics.add("stripe.repairs", label);
      if (vc_.options().trace != nullptr) {
        vc_.options().trace->instant_here(
            "stripe.repair",
            "rail=" + std::to_string(index) + " around=" +
                std::to_string(failed ? failed->next_hop : next));
      }
      // Route by value: the table just got rebuilt and can be rebuilt
      // again by a concurrent failover while we block below.
      const topo::Route route = vc_.routing().route(src_, dst_);
      open(route);
      try {
        for (const RailItem& item : sent) {
          emit_chunk(item);
        }
        if (current != nullptr) {
          emit_chunk(*current);
        }
        if (finishing) {
          emit_end();
        }
        return;
      } catch (const HopFailure& again) {
        failed = again;
      }
    }
  };

  // True when the route table moved since this rail opened AND the rail's
  // next hop is now marked dead: the stream is doomed (the dead relay will
  // never ack), so reroute proactively instead of waiting out the retry
  // budget. Quality-only cost refreshes also bump the epoch, but with a
  // live next hop the open stream keeps its route.
  const auto stale_dead_route = [&] {
    return vc_.reliable() && route_epoch != vc_.routing().epoch() &&
           vc_.is_dead(next);
  };

  open(rail.plan.route);
  try {
    for (;;) {
      RailItem item = rail.items.recv();
      if (item.end) {
        try {
          if (stale_dead_route()) {
            repair(nullptr, nullptr, /*finishing=*/true);
          } else {
            emit_end();
          }
        } catch (const HopFailure& failure) {
          repair(&failure, nullptr, /*finishing=*/true);
        }
        break;
      }
      // The credit travels with the chunk and is handed back when this
      // iteration ends — successfully or by unwinding.
      CreditGuard credit(rail.credits);
      try {
        if (stale_dead_route()) {
          repair(nullptr, &item, /*finishing=*/false);
        } else {
          emit_chunk(item);
        }
      } catch (const HopFailure& failure) {
        repair(&failure, &item, /*finishing=*/false);
      }
      if (vc_.reliable()) {
        sent.push_back(item);
      }
    }
  } catch (...) {
    // Unwinding (an unreachable-rail panic, engine shutdown): hand back
    // the credits of chunks still parked in the mailbox so the window
    // drains to available == total instead of leaking what the dead rail
    // held.
    while (auto parked = rail.items.try_recv()) {
      if (!parked->end) {
        rail.credits.release();
      }
    }
    throw;
  }
  sender.reset();
  writer->end_packing();
  ++rails_done_;
  done_.notify_all();
}

// ------------------------------------------------------------- Reassembler

Reassembler::Reassembler(VcEndpoint& endpoint, VcIncoming& rail0,
                         const GtmMsgHeader& header,
                         const GtmStripeHeader& stripe)
    : vc_(endpoint.vc()),
      self_(endpoint.rank()),
      mtu_(endpoint.vc().mtu()),
      reliable_((header.flags & kGtmFlagReliable) != 0),
      progress_(endpoint.vc().domain().engine(),
                endpoint.vc().name() + ".rxprogress." +
                    std::to_string(endpoint.rank())) {
  MAD_ASSERT(stripe.rails >= 2, "striped message with fewer than two rails");
  std::vector<std::uint32_t> shares(stripe.rails, 0);
  shares[0] = stripe.share;
  owned_.reserve(stripe.rails - 1u);
  for (std::uint16_t r = 1; r < stripe.rails; ++r) {
    StripeIncoming inc =
        endpoint.collect_rail(header.origin, stripe.stripe_id, r);
    MAD_ASSERT(inc.header.final_dst == static_cast<std::uint32_t>(self_),
               "striped rail delivered to the wrong node");
    MAD_ASSERT(inc.header.origin == header.origin,
               "striped rail origin mismatch");
    MAD_ASSERT(inc.header.mtu == header.mtu, "striped rail MTU mismatch");
    MAD_ASSERT(inc.header.flags == header.flags,
               "striped rail flags mismatch");
    MAD_ASSERT(inc.stripe.rails == stripe.rails,
               "striped rail count mismatch");
    shares[r] = inc.stripe.share;
    owned_.push_back(std::move(inc));
  }
  rails_.resize(stripe.rails);
  rails_[0].reader = &rail0.reader;
  rails_[0].channel = rail0.channel;
  rails_[0].peer = rail0.reader.source();
  rails_[0].epoch = header.epoch;
  for (std::size_t r = 1; r < rails_.size(); ++r) {
    StripeIncoming& inc = owned_[r - 1];
    rails_[r].reader = &inc.reader;
    rails_[r].channel = inc.channel;
    rails_[r].peer = inc.reader.source();
    rails_[r].epoch = inc.header.epoch;
  }
  schedule_ = StripeSchedule(std::move(shares));
  if (reliable_) {
    // Blocking (not detect_dead) receivers: a striped rail is relayed
    // two-phase, so a partial rail stream never reaches this node.
    for (RailRx& rx : rails_) {
      rx.rel = std::make_unique<ReliableReceiver>(
          vc_, self_, *rx.channel, rx.peer, rx.epoch, /*detect_dead=*/false);
    }
  }
  // One reader actor per rail: the rails' receive costs overlap instead of
  // serializing in the unpacking actor. `this` is heap-stable (the
  // VcMessageReader owns the Reassembler through a unique_ptr).
  sim::Engine& engine = vc_.domain().engine();
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    rails_[r].jobs = std::make_unique<sim::Mailbox<RxJob>>(
        engine, /*capacity=*/0,
        vc_.name() + ".rxrail" + std::to_string(r) + "." +
            std::to_string(self_));
    engine.spawn(vc_.name() + ".rxrail" + std::to_string(r) + "." +
                     std::to_string(self_),
                 [this, r] { run_rail_rx(r); });
  }
}

void Reassembler::run_rail_rx(std::size_t rail) {
  RailRx& rx = rails_[rail];
  for (;;) {
    RxJob job = rx.jobs->recv();
    if (job.end) {
      const GtmBlockHeader marker =
          reliable_ ? rx.rel->recv_block_header(*rx.reader, rx.next_seq)
                    : read_block_header(*rx.reader);
      MAD_ASSERT(marker.end_of_message == 1,
                 "end_unpacking before all striped blocks were consumed");
      if (reliable_) {
        // The rail's stream is complete: boundary drains re-ack its late
        // retransmits and the ghost filter drops its duplicated framing.
        Connection& conn = rx.channel->connection_to(rx.peer);
        conn.rx_epoch_done = std::max(conn.rx_epoch_done, rx.epoch);
        vc_.spawn_tail_acker(*rx.channel, rx.peer, rx.epoch, rx.next_seq);
      }
      ++rx.completed;
      progress_.notify_all();
      break;
    }
    read_chunk(rail, job.dst, job.smode, job.rmode);
    ++rx.completed;
    progress_.notify_all();
  }
}

void Reassembler::enqueue(std::size_t rail, RxJob job) {
  ++rails_[rail].enqueued;
  rails_[rail].jobs->send(std::move(job));
}

void Reassembler::join() {
  for (;;) {
    bool pending = false;
    for (const RailRx& rx : rails_) {
      if (rx.completed < rx.enqueued) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      return;
    }
    progress_.wait();
  }
}

void Reassembler::read_chunk(std::size_t rail, util::MutByteSpan dst,
                             SendMode smode, RecvMode rmode) {
  RailRx& rx = rails_[rail];
  GtmBlockHeader bh;
  if (reliable_) {
    bh = rx.rel->recv_block_header(*rx.reader, rx.next_seq++);
  } else {
    bh = read_block_header(*rx.reader);
  }
  MAD_ASSERT(bh.end_of_message == 0,
             "unpack past the end of a striped rail");
  MAD_ASSERT(bh.size == dst.size(),
             "striped chunk of " + std::to_string(bh.size) +
                 " bytes where the schedule expects " +
                 std::to_string(dst.size()));
  MAD_ASSERT(decode_smode(bh.smode) == smode &&
                 decode_rmode(bh.rmode) == rmode,
             "unpack flags do not match the pack flags");
  const std::uint64_t fragments = fragment_count(bh.size, mtu_);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    const std::uint32_t fsize = fragment_size(bh.size, mtu_, i);
    if (reliable_) {
      rx.rel->recv(*rx.reader, rx.next_seq++, dst.subspan(i * mtu_, fsize));
    } else {
      rx.reader->unpack(dst.subspan(i * mtu_, fsize), SendMode::Cheaper,
                        RecvMode::Express);
    }
  }
  rx.paquets += fragments;
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  if (metrics.enabled() && fragments > 0) {
    metrics.add("stripe.rx_paquets", rail_label(self_, rail), fragments);
    metrics.add("stripe.rx_bytes", rail_label(self_, rail), bh.size);
  }
}

void Reassembler::unpack(util::MutByteSpan dst, SendMode smode,
                         RecvMode rmode) {
  if (dst.empty()) {
    const StripeSchedule::Chunk chunk = schedule_.next(0, mtu_);
    enqueue(chunk.rail, RxJob{dst, smode, rmode, false});
    join();
    return;
  }
  std::size_t offset = 0;
  while (offset < dst.size()) {
    const StripeSchedule::Chunk chunk =
        schedule_.next(dst.size() - offset, mtu_);
    enqueue(chunk.rail,
            RxJob{dst.subspan(offset, chunk.bytes), smode, rmode, false});
    offset += chunk.bytes;
  }
  join();
}

void Reassembler::end_unpacking() {
  // Each rail actor reads its own end marker, then exits.
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    enqueue(r, RxJob{{}, SendMode::Cheaper, RecvMode::Cheaper, true});
  }
  join();
  // Close and release the stripe-channel rails; rail 0 stays open for the
  // owning VcMessageReader to close.
  for (StripeIncoming& inc : owned_) {
    inc.reader.end_unpacking();
    inc.done->notify_all();
  }
}

}  // namespace mad::fwd
