#include "fwd/pipeline.hpp"

#include "fwd/rdma_tm.hpp"
#include "fwd/virtual_channel.hpp"
#include "net/link.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

void rdma_rendezvous(const VirtualChannel& vc, TransmissionModule& out_tm,
                     const Connection& out_conn, std::uint64_t size) {
  RdmaTm* local = vc.rdma_tm(out_tm.nic());
  RdmaTm* remote =
      vc.rdma_tm(out_tm.nic().network().nic(out_conn.peer_nic_index));
  local->rendezvous(*remote, out_conn.tx_tag, size);
}

std::vector<std::byte> send_relay_item(MessageWriter& out_msg,
                                       TransmissionModule& out_tm,
                                       const Connection& out_conn,
                                       RelayItem item,
                                       const VirtualChannel& vc) {
  // One-sided egress: fragments bypass the writer and go out as RDMA-style
  // writes into the next hop's registered region. Wire-compatible with the
  // two-sided path — same NIC, same tag, same FIFO order, one packet per
  // fragment — so the receiving GTM parses the stream unchanged.
  RdmaTm* rdma = item.one_sided ? vc.rdma_tm(out_tm.nic()) : nullptr;
  switch (item.kind) {
    case RelayItem::Kind::BlockHeader:
      if (rdma != nullptr) {
        rdma_rendezvous(vc, out_tm, out_conn, item.header.size);
      }
      write_block_header(out_msg, item.header);
      return {};
    case RelayItem::Kind::FragmentDynamic:
      if (rdma != nullptr) {
        rdma->write(out_conn.peer_nic_index, out_conn.tx_tag,
                    util::ByteSpan(item.buffer).first(item.size),
                    item.completion);
      } else {
        out_msg.pack(util::ByteSpan(item.buffer).first(item.size),
                     SendMode::Cheaper, RecvMode::Express);
      }
      return std::move(item.buffer);  // recycle
    case RelayItem::Kind::FragmentStaticOut:
      MAD_ASSERT(!item.one_sided,
                 "one-sided egress requires a dynamic-buffer out TM");
      // Zero-copy: the paquet was received straight into this outgoing
      // static buffer; hand it to the TM, bypassing the BMM copy-in.
      out_tm.send_static_buffer(out_conn.peer_nic_index, out_conn.tx_tag,
                                item.static_out);
      item.static_out.release();
      return {};
    case RelayItem::Kind::FragmentHoldIn:
      // Zero-copy: send directly from the incoming protocol buffer.
      if (rdma != nullptr) {
        rdma->write(out_conn.peer_nic_index, out_conn.tx_tag,
                    item.hold_in.data(), item.completion);
      } else {
        out_msg.pack(item.hold_in.data(), SendMode::Cheaper,
                     RecvMode::Express);
      }
      item.hold_in.release();
      return {};
    default:
      MAD_PANIC("not a plain relay item");
  }
}

}  // namespace mad::fwd
