#include "fwd/hop.hpp"

#include <string>
#include <utility>

#include "fwd/virtual_channel.hpp"
#include "mad/channel.hpp"
#include "net/fabric.hpp"
#include "sim/metrics.hpp"

namespace mad::fwd {

ResolvedHop resolve_hop(VirtualChannel& vc, NodeRank self, topo::Route route,
                        int rail) {
  const topo::Hop first = route.front();
  ResolvedHop hop;
  hop.next = first.node;
  hop.route_epoch = vc.routing().epoch();
  // Past the last gateway a stream travels on the regular channel, so
  // plain nodes poll a single channel; toward a gateway it stays on the
  // special channel (paper §2.2.2). Rails keep their own channel pair.
  hop.channel = route.size() == 1
                    ? &vc.rail_regular_channel(first.network, rail, self)
                    : &vc.rail_special_channel(first.network, rail, self);
  if (vc.reliable()) {
    hop.epoch = ++hop.channel->connection_to(hop.next).tx_epoch;
  }
  return hop;
}

ResolvedHop resolve_hop(VirtualChannel& vc, NodeRank self, NodeRank dst,
                        int rail) {
  if (vc.reliable()) {
    vc.fail_over(self, dst, /*failed=*/nullptr);
  }
  return resolve_hop(vc, self, vc.routing().route(self, dst), rail);
}

// --------------------------------------------------------------- HopStream

HopStream::HopStream(VirtualChannel& vc, NodeRank self, const ResolvedHop& hop,
                     GtmMsgHeader header,
                     const std::optional<GtmStripeHeader>& stripe)
    : vc_(vc), hop_(hop), writer_(hop.channel->begin_packing(hop.next)) {
  const bool reliable = (header.flags & kGtmFlagReliable) != 0;
  if (reliable) {
    header.epoch = hop.epoch;
  }
  // Every hop message starts with the preamble paquet — the fixed,
  // smaller-than-any-reliable-paquet opener that lets the next receiver
  // drop stale retransmits at the boundary by size.
  const Preamble preamble{header.origin, 1};
  write_preamble(writer_, preamble);
  write_msg_header(writer_, header);
  if (stripe) {
    write_stripe_header(writer_, *stripe);
  }
  if (reliable) {
    sender_ = std::make_unique<ReliableSender>(vc, self, writer_, *hop.channel,
                                               hop.next, hop.epoch);
    sender_->set_framing(preamble, header, stripe);
  }
}

void HopStream::block_header(const GtmBlockHeader& header) {
  if (sender_) {
    sender_->send_block_header(seq_++, header);
  } else {
    write_block_header(writer_, header);
  }
}

void HopStream::fragment(util::ByteSpan data, bool one_sided) {
  if (sender_) {
    sender_->send(seq_++, data, one_sided);
  } else {
    // Express flushing makes every fragment its own packet on every BMM
    // shape, so the paquets a gateway sees are exactly the paquets the
    // final receiver expects.
    writer_.pack(data, SendMode::Cheaper, RecvMode::Express);
  }
}

void HopStream::block(const GtmBlockHeader& header, util::ByteSpan data) {
  block_header(header);
  const std::uint32_t mtu = vc_.mtu();
  const std::uint64_t fragments = fragment_count(data.size(), mtu);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    fragment(data.subspan(i * mtu, fragment_size(data.size(), mtu, i)));
  }
}

void HopStream::end() {
  if (sender_) {
    // The end marker joins the window like any paquet; its ack confirms
    // the whole message crossed this hop.
    sender_->send_block_header(seq_, end_marker());
    sender_->flush();
  } else {
    write_block_header(writer_, end_marker());
  }
  abandon();
}

void HopStream::abandon() {
  if (closed_) {
    return;
  }
  sender_.reset();
  writer_.end_packing();
  closed_ = true;
}

bool HopStream::stale() const {
  return sender_ && hop_.route_epoch != vc_.routing().epoch() &&
         vc_.is_dead(hop_.next);
}

// ------------------------------------------------------------ OriginStream

OriginStream::OriginStream(VirtualChannel& vc, NodeRank src, NodeRank dst,
                           topo::Route route,
                           std::optional<GtmStripeHeader> stripe, Emit emit)
    : vc_(vc),
      src_(src),
      dst_(dst),
      header_{static_cast<std::uint32_t>(dst),
              static_cast<std::uint32_t>(src), vc.mtu(), 0,
              static_cast<std::uint8_t>(
                  (vc.reliable() ? kGtmFlagReliable : 0) |
                  (stripe ? kGtmFlagStriped : 0)),
              static_cast<std::uint8_t>(vc.options().flow.class_of(src))},
      stripe_(stripe),
      emit_(emit ? std::move(emit)
                 : [](HopStream& hop, const GtmBlockHeader& header,
                      util::ByteSpan data) { hop.block(header, data); }) {
  open(resolve_hop(vc, src, std::move(route), stripe ? stripe->rail : 0));
}

void OriginStream::open(const ResolvedHop& hop) {
  stream_ = std::make_unique<HopStream>(vc_, src_, hop, header_, stripe_);
}

void OriginStream::block(const GtmBlockHeader& header, util::ByteSpan data) {
  if (!vc_.reliable()) {
    emit_(*stream_, header, data);
    return;
  }
  // Log for replay: a downstream gateway crash can surface any number of
  // blocks later, and the message restarts from scratch on the alternate
  // route.
  if (!stripe_) {
    copies_.emplace_back(data.begin(), data.end());
    data = util::ByteSpan(copies_.back());
  }
  log_.push_back(Logged{header, data});
  deliver(log_.size() - 1, /*finishing=*/false);
}

void OriginStream::end() {
  if (!vc_.reliable()) {
    stream_->end();
    return;
  }
  deliver(log_.size(), /*finishing=*/true);
}

void OriginStream::deliver(std::size_t first, bool finishing) {
  std::optional<HopFailure> failed;
  bool rejected = false;
  // Proactive reroute at the block boundary: the health actor (or a
  // concurrent writer) invalidated our route and the next hop is dead —
  // don't wait for the retry budget to discover it.
  bool reopen = stream_->stale();
  for (;;) {
    if (reopen) {
      reopen_after(failed ? &*failed : nullptr, rejected);
      first = 0;
    }
    try {
      for (std::size_t b = first; b < log_.size(); ++b) {
        emit_(*stream_, log_[b].header, log_[b].data);
      }
      if (finishing) {
        stream_->end();
      }
      return;
    } catch (const HopFailure& failure) {
      failed = failure;
      rejected = false;
    } catch (const FlowRejected&) {
      failed.reset();
      rejected = true;
    }
    reopen = true;
  }
}

void OriginStream::reopen_after(const HopFailure* failed, bool rejected) {
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  const auto instant = [trace = vc_.options().trace](
                           const char* name, const std::string& detail) {
    if (trace != nullptr) {
      trace->instant_here(name, detail);
    }
  };
  const std::string node_label = "node=" + std::to_string(src_);
  // A stripe rail names itself in diagnoses; the single-rail writer names
  // its destination.
  const std::string rail =
      stripe_ ? "rail=" + std::to_string(stripe_->rail) : std::string();
  const NodeRank from = stream_->hop().next;
  // The failed window dies with its stream: its in-flight paquets must not
  // outlive the writer they reference.
  stream_->abandon();
  stream_.reset();
  vc_.fail_over(src_, dst_, failed,
                stripe_ ? " on rail " + std::to_string(stripe_->rail)
                        : std::string());
  if (failed == nullptr && rejected) {
    // Admission rejection: the hop is healthy, the gateway is overloaded.
    // Nothing is condemned — back off (exponentially in the
    // consecutive-reject count, jittered per (src, dst) so lockstep
    // rejectees desynchronize) and replay on a fresh epoch. The tx lock was
    // released above, so the sleep blocks no other writer.
    const int attempts = reject_attempts_++;
    vc_.reject_backoff(src_, attempts,
                       (static_cast<std::uint64_t>(src_) << 40) ^
                           (static_cast<std::uint64_t>(dst_) << 20) ^
                           static_cast<std::uint64_t>(attempts),
                       "dst=" + std::to_string(dst_) +
                           " attempt=" + std::to_string(reject_attempts_));
  } else if (failed == nullptr) {
    metrics.add("health.reroutes", node_label);
    instant("health.reroute", (stripe_ ? rail : "dst=" + std::to_string(dst_)) +
                                  " from=" + std::to_string(from));
  }
  if (stripe_) {
    // The repair rail: same rail identity and share, fresh epoch, over the
    // current best surviving route. Overlap with a surviving rail's route
    // is fine — the rail keeps its own channel pair.
    metrics.add("stripe.repairs", node_label + "," + rail);
    instant("stripe.repair", rail + " around=" + std::to_string(from));
  }
  open(resolve_hop(vc_, src_, dst_, stripe_ ? stripe_->rail : 0));
}

// ------------------------------------------------------------ receive side

GtmBlockHeader read_hop_block_header(MessageReader& in, ReliableReceiver* rx,
                                     std::uint32_t& seq) {
  return rx != nullptr ? rx->recv_block_header(in, seq++)
                       : read_block_header(in);
}

void read_hop_fragments(MessageReader& in, ReliableReceiver* rx,
                        std::uint32_t& seq, util::MutByteSpan dst,
                        std::uint32_t mtu) {
  const std::uint64_t fragments = fragment_count(dst.size(), mtu);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    const util::MutByteSpan part =
        dst.subspan(i * mtu, fragment_size(dst.size(), mtu, i));
    if (rx != nullptr) {
      rx->recv(in, seq++, part);
    } else {
      in.unpack(part, SendMode::Cheaper, RecvMode::Express);
    }
  }
}

}  // namespace mad::fwd
