// Internal: full definitions of Engine::ActorState and Engine::Worker,
// shared by engine.cpp and condition.cpp. Not part of the public API.
#pragma once

#include <thread>

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

/// An OS thread that runs actors one after another. It is idle (on
/// Engine::idle_, `actor == nullptr`) between actors.
struct Engine::Worker {
  // Run permission for the worker's current actor. The gate's
  // release/acquire ordering replaces both a per-actor condvar and the
  // wake-side mutex reacquisition: everything the waker wrote under the
  // engine mutex (including `actor`) is visible after gate.wait() returns.
  FutexGate gate;
  ActorState* actor = nullptr;
  std::thread thread;  // last: it runs on the members above
};

}  // namespace mad::sim
