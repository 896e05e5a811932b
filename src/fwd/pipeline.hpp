// Items flowing through the gateway's relay pipeline (fwd/gateway.cpp).
//
// The paper's gateway (Fig 4) runs two threads per network pair sharing
// two buffers: one receives paquet k+1 while the other retransmits paquet
// k. Here one relay does that in three parts: an ingress stage that reads
// the incoming message and turns it into RelayItems (block headers,
// fragments, the end marker), a queue of those items, and an egress stage
// that writes them onto the outgoing message. The relay's schedule decides
// whether the egress runs inline or in a sender actor behind a mailbox;
// with pipeline_depth d the mailbox holds d - 1 items, which together with
// the paquet being received reproduces the paper's buffer budget.
//
// A plain fragment item carries its payload in one of three forms,
// matching the zero-copy matrix of §2.3:
//   * a recycled dynamic buffer (dynamic→dynamic, and all non-zero-copy
//     paths);
//   * an *outgoing* static buffer the paquet was received straight into
//     (dynamic→static and static→static);
//   * the *incoming* static buffer kept alive and sent from directly
//     (static→dynamic).
// A reliable relay keeps a stored copy of the message for replay, so its
// fragment items only name a slice of that copy.
#pragma once

#include <cstdint>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "net/static_pool.hpp"
#include "sim/time.hpp"

namespace mad::fwd {

struct RelayItem {
  enum class Kind {
    BlockHeader,
    FragmentDynamic,
    FragmentStaticOut,
    FragmentHoldIn,
    FragmentStored,  // reliable: a slice of the relay's stored copy
    End,
    Abort,  // reliable: the upstream died mid-message
  };

  Kind kind = Kind::End;
  GtmBlockHeader header;              // BlockHeader
  std::vector<std::byte> buffer;      // FragmentDynamic (capacity = MTU)
  std::size_t size = 0;               // fragment payload size
  net::StaticBufferPool::Ref static_out;  // FragmentStaticOut
  net::StaticBufferPool::Ref hold_in;     // FragmentHoldIn
  /// FragmentStored: index of the stored block, offset into it, and when
  /// the item entered the queue (admission sojourn accounting).
  std::size_t block_index = 0;
  std::uint64_t offset = 0;
  sim::Time enq_at = 0;
  /// Block crosses the egress as one-sided writes (fwd/rdma_tm.hpp). On a
  /// BlockHeader item this triggers the rendezvous with the next hop; on
  /// fragments it routes the payload through RdmaTm::write instead of the
  /// two-sided pack. Framing (headers, end markers) always stays two-sided.
  bool one_sided = false;
  /// Last fragment of a one-sided block: carries the remote completion
  /// notification (the only receiver software of the whole block).
  bool completion = false;

  static RelayItem block(GtmBlockHeader h, bool one_sided_block = false) {
    RelayItem item;
    item.kind = Kind::BlockHeader;
    item.header = h;
    item.one_sided = one_sided_block;
    return item;
  }
  static RelayItem stored(std::size_t block_index, std::uint64_t offset,
                          std::size_t size, sim::Time enq_at) {
    RelayItem item;
    item.kind = Kind::FragmentStored;
    item.block_index = block_index;
    item.offset = offset;
    item.size = size;
    item.enq_at = enq_at;
    return item;
  }
  static RelayItem end() {
    RelayItem item;
    item.kind = Kind::End;
    return item;
  }
  static RelayItem abort() {
    RelayItem item;
    item.kind = Kind::Abort;
    return item;
  }
};

class VirtualChannel;

/// Runs the one-sided rendezvous for a block of `size` bytes with the
/// peer of `out_conn`: the remote side registers (or cache-hits) the
/// receive region behind the connection's tx tag before any write lands.
void rdma_rendezvous(const VirtualChannel& vc, TransmissionModule& out_tm,
                     const Connection& out_conn, std::uint64_t size);

/// Writes one plain relay item onto the outgoing message. A one-sided
/// block header runs the rendezvous first. Fragment payloads take the path
/// their form dictates: dynamic buffers and held incoming static buffers
/// go through the writer (gather send from that memory) or out as
/// one-sided writes, outgoing static buffers are handed to the TM
/// directly. Returns the dynamic buffer for recycling when the item
/// carried one. End items are NOT handled here (the caller finishes the
/// message).
std::vector<std::byte> send_relay_item(MessageWriter& out_msg,
                                       TransmissionModule& out_tm,
                                       const Connection& out_conn,
                                       RelayItem item,
                                       const VirtualChannel& vc);

}  // namespace mad::fwd
