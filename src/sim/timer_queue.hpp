// Timer queue for the virtual-time engine.
//
// One binary min-heap of (deadline, id) entries with LAZY cancellation,
// keyed by a per-id generation counter. The dominant timer pattern in
// this codebase is the RTO idiom — recv_until() arms a timeout that is
// almost always cancelled a moment later when the paquet arrives — so
// cancel must be O(1): it only marks the id unarmed and leaves its entry
// in the heap. Stale entries (generation mismatch, or id unarmed) are
// discarded when they surface at the top, and a compaction rebuilds the
// heap when they outnumber live ones 2:1, so memory stays bounded.
//
// Determinism contract (the hard constraint from the engine): expiry
// order is EXACTLY ascending (deadline, ActorId) — the order the engine's
// original std::set queue gave. Each actor has at most one pending timer
// (enforced by the engine), so ActorId doubles as the timer key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mad::sim {

class TimerQueue {
 public:
  struct Entry {
    Time deadline = 0;
    int id = -1;
    std::uint32_t gen = 0;  // arm generation; identifies the live arm

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
    }
  };

  /// Arms a timer for actor `id` (>= 0, one pending timer per id).
  void arm(Time deadline, int id);

  /// Cancels actor `id`'s pending timer. Must be armed. O(1) amortized.
  void cancel(int id);

  bool armed(int id) const;
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Removes and returns the earliest live (deadline, id) pair. Requires
  /// !empty(). The engine consumes it by advancing its clock.
  Entry pop_min();

 private:
  struct Arm {
    std::uint32_t gen = 0;  // matches Entry::gen while the arm is live
    bool armed = false;
  };

  bool live(const Entry& e) const {
    const Arm& a = arms_[static_cast<std::size_t>(e.id)];
    return a.armed && a.gen == e.gen;
  }
  void pop_top();

  std::vector<Entry> heap_;  // min-heap on (deadline, id), lazily cancelled
  std::vector<Arm> arms_;    // indexed by actor id
  std::size_t live_ = 0;     // armed timers; heap_.size() minus stale ones
};

}  // namespace mad::sim
