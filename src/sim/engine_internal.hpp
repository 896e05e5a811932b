// Internal: full definitions of Engine::ActorState and Engine::Worker,
// shared by engine.cpp and condition.cpp. Not part of the public API.
#pragma once

#include <mutex>

#include "sim/engine.hpp"
#include "sim/futex_gate.hpp"

namespace mad::sim {

struct Engine::ActorState {
  ActorId id = -1;
  std::string name;
  bool daemon = false;
  Status status = Status::Created;
  bool started = false;  // body() has begun executing
  std::function<void()> body;
  Worker* worker = nullptr;  // the thread running this actor until it finishes
  WakeReason wake_reason = WakeReason::Notified;
  Condition* waiting_cond = nullptr;
  bool timer_armed = false;
  Time timer_deadline = 0;
};

/// An OS thread that runs actors one after another, for any engine; it is
/// parked on the process-wide list() between actors. Detached, never freed.
struct Engine::Worker {
  // Run permission for the worker's current actor. The gate's
  // release/acquire ordering replaces both a per-actor condvar and the
  // wake-side mutex reacquisition: everything the waker wrote under the
  // engine mutex (`engine`, `actor`) is visible after gate.wait() returns.
  FutexGate gate;
  Engine* engine = nullptr;
  ActorState* actor = nullptr;
  Worker* next_parked = nullptr;  // list() link: a push never allocates

  /// LIFO (the most recently parked stack is warm). Lock order: an
  /// engine's mutex, then this one. Never destroyed: parked threads
  /// outlive static destruction.
  struct List {
    std::mutex mutex;
    Worker* top = nullptr;
  };
  static List& list();
};

}  // namespace mad::sim
