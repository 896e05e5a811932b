#include "fwd/rdma_tm.hpp"

#include "net/host.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

/// Registration cost model: pinning costs base + ceil(len/page) * page
/// (syscall entry plus per-page table walk — the shape Tezuka et al.
/// measured).
constexpr sim::Time kPinBaseCost = sim::microseconds(20);
constexpr sim::Time kPinPageCost = sim::microseconds(1);
constexpr std::uint64_t kPageSize = 4096;

}  // namespace

void RdmaOptions::validate() const {
  MAD_ASSERT(rendezvous_threshold >= 1,
             "rendezvous_threshold must be >= 1 byte");
  MAD_ASSERT(cache_capacity >= 1, "registration cache needs capacity >= 1");
}

RdmaTm::RdmaTm(sim::Engine& engine, net::Nic& nic, const RdmaOptions& options,
               std::string label)
    : engine_(engine),
      nic_(nic),
      options_(options),
      label_(std::move(label)),
      cache_(options.cache_capacity, label_ + ".mr") {}

sim::Time RdmaTm::pin_cost(std::size_t len) const {
  const std::uint64_t pages = (len + kPageSize - 1) / kPageSize;
  return kPinBaseCost + static_cast<sim::Time>(pages) * kPinPageCost;
}

bool RdmaTm::acquire_charged(const void* addr, std::size_t len) {
  const bool hit = cache_.acquire(addr, len);
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter(hit ? "rdma.mr_hits" : "rdma.mr_misses", label_).add();
  }
  if (!hit) {
    // The pin syscall runs on this actor's CPU.
    engine_.sleep_for(pin_cost(len));
  }
  return hit;
}

RdmaTm::Pin::Pin(RdmaTm& tm, const void* addr, std::size_t len)
    : cache_(tm.cache_), addr_(addr), len_(len) {
  hit_ = tm.acquire_charged(addr, len);
}

RdmaTm::Pin::~Pin() { cache_.release(addr_, len_); }

void RdmaTm::write(int dst_nic_index, std::uint64_t tag, util::ByteSpan data,
                   bool completion) {
  MAD_ASSERT(!data.empty(), label_ + ": one-sided write of empty span");
  // The source stays pinned for the whole flow: Nic::send blocks this
  // actor until the last byte left the host bus.
  Pin pin(*this, data.data(), data.size());
  nic_.send(dst_nic_index, tag, data,
            net::SendOptions{/*one_sided=*/true, completion});
  ++writes_;
  bytes_written_ += data.size();
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.writes", label_).add();
    metrics->counter("rdma.bytes", label_).add(data.size());
  }
}

bool RdmaTm::rendezvous(RdmaTm& remote, std::uint64_t remote_key,
                        std::size_t len) {
  MAD_ASSERT(len > 0, label_ + ": rendezvous for empty block");
  // Control round trip: the request (key, len) out, the remote key back.
  // Control frames are tiny — pure latency plus per-packet software on
  // both hosts; no bus contention worth modelling.
  const net::NicModelParams& local = nic_.model();
  const net::NicModelParams& peer = remote.nic_.model();
  engine_.sleep_for(local.tx_host_overhead + local.wire_latency +
                    peer.rx_host_overhead + peer.tx_host_overhead +
                    peer.wire_latency + local.rx_host_overhead);
  // The remote side looks its receive region up in its own pin-down
  // cache; a miss pins it while this actor waits for the reply.
  const bool hit = remote.acquire_charged(
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(remote_key)),
      len);
  remote.cache_.release(
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(remote_key)),
      len);
  ++rendezvous_count_;
  if (hit) {
    ++rendezvous_hits_;
  }
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.rendezvous", label_).add();
  }
  return hit;
}

void RdmaTm::invalidate() {
  cache_.invalidate_all();
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.invalidate", label_).add();
  }
}

}  // namespace mad::fwd
