#include "fwd/generic_tm.hpp"

#include <algorithm>
#include <string>

#include "util/panic.hpp"
#include "util/rng.hpp"

namespace mad::fwd {

std::uint64_t gtm_paquet_checksum(util::ByteSpan payload, std::uint32_t seq,
                                  std::uint32_t epoch) {
  std::uint64_t h = util::fnv1a(payload);
  h ^= (static_cast<std::uint64_t>(seq) + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(epoch) + 1) * 0xC2B2AE3D27D4EB4Full;
  return h;
}

GtmPaquetTrailer make_paquet_trailer(util::ByteSpan payload, std::uint32_t seq,
                                     std::uint32_t epoch) {
  return {seq, epoch, gtm_paquet_checksum(payload, seq, epoch)};
}

std::uint8_t encode(SendMode mode) {
  return static_cast<std::uint8_t>(mode);
}

std::uint8_t encode(RecvMode mode) {
  return static_cast<std::uint8_t>(mode);
}

SendMode decode_smode(std::uint8_t value) {
  MAD_ASSERT(value <= static_cast<std::uint8_t>(SendMode::Cheaper),
             "bad SendMode on the wire");
  return static_cast<SendMode>(value);
}

RecvMode decode_rmode(std::uint8_t value) {
  MAD_ASSERT(value <= static_cast<std::uint8_t>(RecvMode::Cheaper),
             "bad RecvMode on the wire");
  return static_cast<RecvMode>(value);
}

GtmBlockHeader block_header_for(std::uint64_t size, SendMode smode,
                                RecvMode rmode) {
  return {size, encode(smode), encode(rmode), 0};
}

GtmBlockHeader end_marker() { return {0, 0, 0, 1}; }

void check_block_header(const GtmBlockHeader& header, std::uint64_t size,
                        SendMode smode, RecvMode rmode) {
  MAD_ASSERT(header.end_of_message == 0,
             "unpack past the end of a forwarded message");
  MAD_ASSERT(header.size == size,
             "unpack size " + std::to_string(size) +
                 " does not match packed size " + std::to_string(header.size));
  MAD_ASSERT(decode_smode(header.smode) == smode &&
                 decode_rmode(header.rmode) == rmode,
             "unpack flags do not match the pack flags");
}

void check_end_marker(const GtmBlockHeader& header) {
  MAD_ASSERT(header.end_of_message == 1,
             "end_unpacking before all blocks were consumed");
}

void write_preamble(MessageWriter& writer, const Preamble& preamble) {
  writer.pack_value(preamble);
}

Preamble read_preamble(MessageReader& reader) {
  return reader.unpack_value<Preamble>();
}

void write_msg_header(MessageWriter& writer, const GtmMsgHeader& header) {
  writer.pack_value(header);
}

GtmMsgHeader read_msg_header(MessageReader& reader) {
  return reader.unpack_value<GtmMsgHeader>();
}

void write_block_header(MessageWriter& writer, const GtmBlockHeader& header) {
  writer.pack_value(header);
}

GtmBlockHeader read_block_header(MessageReader& reader) {
  return reader.unpack_value<GtmBlockHeader>();
}

void write_stripe_header(MessageWriter& writer, const GtmStripeHeader& header) {
  writer.pack_value(header);
}

GtmStripeHeader read_stripe_header(MessageReader& reader) {
  GtmStripeHeader header = reader.unpack_value<GtmStripeHeader>();
  MAD_ASSERT(header.rails > 0 && header.rail < header.rails,
             "bad rail index on the wire");
  MAD_ASSERT(header.share > 0, "zero stripe share on the wire");
  return header;
}

std::uint64_t fragment_count(std::uint64_t size, std::uint32_t mtu) {
  MAD_ASSERT(mtu > 0, "zero MTU");
  return (size + mtu - 1) / mtu;
}

std::uint32_t fragment_size(std::uint64_t size, std::uint32_t mtu,
                            std::uint64_t index) {
  const std::uint64_t offset = index * static_cast<std::uint64_t>(mtu);
  MAD_ASSERT(offset < size, "fragment index out of range");
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mtu, size - offset));
}

std::uint32_t compute_route_mtu(const Domain& domain,
                                const std::vector<net::Network*>& networks,
                                std::uint32_t requested) {
  MAD_ASSERT(!networks.empty(), "virtual channel without networks");
  std::uint32_t mtu = requested == 0 ? UINT32_MAX : requested;
  for (const net::Network* network : networks) {
    const net::NicModelParams& model = network->model();
    std::uint32_t effective = model.max_packet;
    if (model.tx_static() || model.rx_static()) {
      effective = std::min(effective, model.static_buffer_size);
    }
    mtu = std::min(mtu, effective);
  }
  (void)domain;
  MAD_ASSERT(mtu > 0 && mtu != UINT32_MAX, "could not derive a route MTU");
  return mtu;
}

}  // namespace mad::fwd
